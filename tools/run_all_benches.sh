#!/usr/bin/env bash
# Build and run every bench target with a short smoke configuration.
#
# Usage: tools/run_all_benches.sh [build-dir]
#
#   build-dir   CMake build directory (default: build). Configured on the
#               fly if it does not exist yet.
#
# PE_BENCH_SMOKE=1 is exported so benches that use bench::DefaultSearch()
# run a reduced search (500 queries, 5 iterations) and finish in seconds.
# Unset it (PE_BENCH_SMOKE=0 tools/run_all_benches.sh) for paper-fidelity
# numbers.  PE_BENCH_JOBS caps the experiment-engine threads (default:
# hardware concurrency).
#
# Benches that support machine-readable output write one JSON report each
# to <build-dir>/bench_json/; after the run they are aggregated into
# <build-dir>/bench_results.json (CI uploads that file as an artifact).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
json_dir="${build_dir}/bench_json"
results_json="${build_dir}/bench_results.json"

if [[ ! -f "${build_dir}/CMakeCache.txt" ]]; then
  cmake -B "${build_dir}" -S "${repo_root}"
fi

mapfile -t bench_sources < <(ls "${repo_root}"/bench/bench_*.cc)
bench_targets=()
for src in "${bench_sources[@]}"; do
  name="$(basename "${src}" .cc)"
  [[ "${name}" == "bench_util" ]] && continue
  bench_targets+=("${name}")
done

cmake --build "${build_dir}" -j "$(nproc)" -- "${bench_targets[@]}"

export PE_BENCH_SMOKE="${PE_BENCH_SMOKE:-1}"
export PE_BENCH_JSON_DIR="${json_dir}"
mkdir -p "${json_dir}"
rm -f "${json_dir}"/*.json "${results_json}"

failures=0
for name in "${bench_targets[@]}"; do
  echo
  echo "=== ${name} (PE_BENCH_SMOKE=${PE_BENCH_SMOKE}) ==="
  if ! "${build_dir}/bench/${name}"; then
    echo "!!! ${name} FAILED"
    failures=$((failures + 1))
  fi
done

echo
if [[ "${failures}" -ne 0 ]]; then
  echo "${failures} bench(es) failed"
  exit 1
fi
echo "all ${#bench_targets[@]} benches completed"

# Expected report count, derived from the bench sources that actually ran:
# every bench calling bench::WriteReport emits exactly one JSON document.
# Deriving (rather than hard-coding) the count means adding or removing a
# JSON-emitting bench cannot silently rot the validation below or in CI.
expected_reports=0
for name in "${bench_targets[@]}"; do
  if grep -q "bench::WriteReport(" "${repo_root}/bench/${name}.cc"; then
    expected_reports=$((expected_reports + 1))
  fi
done

# Aggregate the per-bench reports into one machine-readable document:
#   { "schema": "paris-elsa-bench-results-v1", "expected_reports": N,
#     "benches": [ <report>... ] }
shopt -s nullglob
json_files=("${json_dir}"/*.json)
shopt -u nullglob
if [[ "${#json_files[@]}" -ne "${expected_reports}" ]]; then
  # A shortfall means reports could not be written (e.g. unwritable
  # directory) or a bench silently skipped its emission -- that must not
  # look like success.
  echo "error: expected ${expected_reports} per-bench JSON report(s)" \
       "under ${json_dir}, found ${#json_files[@]}" >&2
  exit 1
fi
if command -v jq >/dev/null 2>&1; then
  jq -s --argjson n "${expected_reports}" \
    '{schema: "paris-elsa-bench-results-v1", expected_reports: $n, benches: .}' \
    "${json_files[@]}" > "${results_json}"
  jq empty "${results_json}"  # well-formedness check
else
  python3 - "${results_json}" "${expected_reports}" "${json_files[@]}" <<'PY'
import json, sys
out, expected, *files = sys.argv[1:]
doc = {"schema": "paris-elsa-bench-results-v1",
       "expected_reports": int(expected),
       "benches": [json.load(open(f)) for f in files]}
json.dump(doc, open(out, "w"), indent=2)
PY
fi
echo "collected ${#json_files[@]} JSON report(s) into ${results_json}"
