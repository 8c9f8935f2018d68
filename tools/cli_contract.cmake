# CLI contract of paris_elsa_cli, checked on tiny inputs:
#   * exit codes: every subcommand succeeds on valid input and rejects an
#     out-of-range --jobs with exit 1;
#   * JSON reports: every `data` key a report has carried stays present
#     (new keys may be added, none may disappear);
#   * capture/replay: a replayed capture reports the captured offered rate,
#     not the --rate default.
#
# CTest runs it as `cli_contract`; by hand:
#   cmake -DCLI=build/tools/paris_elsa_cli -DWORK_DIR=/tmp/cli_contract \
#         -P tools/cli_contract.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<paris_elsa_cli> -DWORK_DIR=<dir> "
                      "-P cli_contract.cmake")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run_cli(<expected exit code> <args...>)
function(run_cli expected)
  execute_process(COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expected}")
    string(REPLACE ";" " " command "${ARGN}")
    message(SEND_ERROR "`${command}` exited ${rc}, expected ${expected}:\n${err}")
  endif()
endfunction()

# expect_keys(<report.json> <key...>): each key is present under `data`.
function(expect_keys report)
  file(READ "${WORK_DIR}/${report}" doc)
  foreach(key IN LISTS ARGN)
    string(JSON value ERROR_VARIABLE missing GET "${doc}" data ${key})
    if(missing)
      message(SEND_ERROR "${report}: data.${key} is missing")
    endif()
  endforeach()
endfunction()

# expect_rate_near(<report.json> <qps>): data.offered_qps within 10% of
# <qps> (a replay reports the trace's measured rate, which a few thousand
# Poisson arrivals put within a few percent of the nominal one).
function(expect_rate_near report qps)
  file(READ "${WORK_DIR}/${report}" doc)
  string(JSON offered ERROR_VARIABLE missing GET "${doc}" data offered_qps)
  if(missing)
    message(SEND_ERROR "${report}: data.offered_qps is missing")
    return()
  endif()
  string(REGEX MATCH "^[0-9]+" whole "${offered}")
  math(EXPR lo "${qps} * 9 / 10")
  math(EXPR hi "${qps} * 11 / 10")
  if(whole LESS lo OR whole GREATER hi)
    message(SEND_ERROR
      "${report}: offered_qps ${offered}, expected the captured ${qps}")
  endif()
endfunction()

# --- exit codes -------------------------------------------------------------
foreach(sub profile plan simulate sweep trace elastic mix fleet)
  run_cli(1 ${sub} --jobs 0 --queries 10)
endforeach()
run_cli(1 mix --jobs 1025 --queries 10)
run_cli(1 elastic --jobs -1 --queries 10)

run_cli(0 profile --model shufflenet)
run_cli(0 plan --model bert)
run_cli(0 trace --queries 50)

# --- JSON reports -----------------------------------------------------------
set(stats_keys completed mean_ms p50_ms p95_ms p99_ms max_ms
  mean_queue_delay_ms sla_violation_rate achieved_qps utilization
  reconfig_stalled)

run_cli(0 simulate --model mobilenet --rate 100 --queries 300
  --json simulate.json)
expect_keys(simulate.json model design scheduler scenario offered_qps
  achieved_qps mean_ms p50_ms p95_ms p99_ms sla_violation_rate utilization)

run_cli(0 sweep --model shufflenet --queries 200 --jobs 2 --json sweep.json)
expect_keys(sweep.json model sla_ms baseline designs)

run_cli(0 mix --models resnet,mobilenet --shares 0.6,0.4 --swap-cost-us 300
  --queries 400 --rate 150 --json mix.json)
expect_keys(mix.json ${stats_keys} model_swaps models mix design scheduler
  scenario offered_qps swap_cost_us seed)

run_cli(0 mix --models resnet --queries 400 --rate 150 --json mix_one.json)
expect_keys(mix_one.json ${stats_keys} mix design scheduler scenario
  offered_qps swap_cost_us seed)

set(elastic_keys reconfigurations total epochs model scheduler scenario
  offered_qps queries_per_epoch drift_threshold downtime_ms seed)
run_cli(0 elastic --queries 900 --epochs 3 --rate 200 --json elastic.json)
expect_keys(elastic.json ${elastic_keys})
run_cli(0 elastic --models resnet,mobilenet --shares 0.85,0.15
  --scenario mixdrift --queries 900 --epochs 3 --json elastic_mix.json)
expect_keys(elastic_mix.json ${elastic_keys})

# --- capture / replay -------------------------------------------------------
run_cli(0 simulate --model bert --rate 90 --queries 2000
  --capture-trace simulate.trace.json --json simulate_capture.json)
run_cli(0 simulate --replay-trace simulate.trace.json
  --json simulate_replay.json)
expect_rate_near(simulate_replay.json 90)

run_cli(0 mix --rate 150 --queries 2000
  --capture-trace mix.trace.json --json mix_capture.json)
run_cli(0 mix --replay-trace mix.trace.json --json mix_replay.json)
expect_rate_near(mix_replay.json 150)

run_cli(0 elastic --rate 120 --queries 2000 --epochs 4
  --capture-trace elastic.trace.json --json elastic_capture.json)
run_cli(0 elastic --replay-trace elastic.trace.json --epochs 4
  --json elastic_replay.json)
expect_rate_near(elastic_replay.json 120)
