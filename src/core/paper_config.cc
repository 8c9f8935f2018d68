#include "core/paper_config.h"

#include <stdexcept>
#include <utility>

namespace pe::core {

const std::vector<ModelServerConfig>& PaperTable1() {
  static const std::vector<ModelServerConfig> kTable = {
      {"shufflenet", 4, 24, 28},
      {"mobilenet", 4, 24, 28},
      {"resnet", 8, 48, 56},
      {"bert", 6, 42, 42},
      {"conformer", 8, 48, 56},
  };
  return kTable;
}

const ModelServerConfig& Table1For(const std::string& model) {
  for (const auto& row : PaperTable1()) {
    if (row.model == model) return row;
  }
  throw std::invalid_argument("Table1For: unknown model " + model);
}

MixConfig PaperConfig(const std::string& model) {
  const ModelServerConfig& row = Table1For(model);
  MixModelConfig m;
  m.model = model;
  MixConfig config;
  config.models.push_back(std::move(m));
  config.num_gpus = row.num_gpus;
  config.gpc_budget = row.gpc_budget;
  return config;
}

SimTime SlaTarget(const profile::ProfileTable& profile, int max_batch,
                  double sla_n) {
  const double base = profile.LatencySec(7, max_batch);
  return SecToTicks(sla_n * base);
}

}  // namespace pe::core
