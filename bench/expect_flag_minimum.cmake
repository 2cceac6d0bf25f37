# ctest script: a size or count flag below its minimum, or a fraction
# outside [0, 1), must stop the binary with exit code 2 and an error
# naming the flag and its domain, instead of looping forever (a doubling
# loop from 0 stays at 0) or aborting on an empty population, an empty
# statistic or a fault plan that kills everyone. Every run has a timeout,
# so a hang fails the test instead of stalling it.
function(expect_rejected bin bad domain)
  execute_process(
    COMMAND "${bin}" ${bad} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${bin} ${bad}: expected exit code 2, got ${rc}")
  endif()
  foreach(part "${bad}" "${domain}")
    string(FIND "${err}" "${part}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "${bin} ${bad}: error does not name ${part}: ${err}")
    endif()
  endforeach()
endfunction()

function(expect_minimum bin bad minimum)
  expect_rejected("${bin}" ${bad} ">= ${minimum}" ${ARGN})
endfunction()

function(expect_fraction bin bad)
  expect_rejected("${bin}" ${bad} "in [0, 1)" ${ARGN})
endfunction()

expect_minimum("${FIG3}" --min-nodes=0 1 --max-nodes=64)
expect_minimum("${FIG5}" --min-nodes=0 1 --max-nodes=64 --trials=10)
expect_minimum("${FIG6}" --min-nodes=0 1 --max-nodes=64 --trials=10)
expect_minimum("${BALANCE}" --min-nodes=0 2 --max-nodes=64)
expect_minimum("${BALANCE}" --min-nodes=1 2 --max-nodes=64)
expect_minimum("${LOOKAHEAD}" --min-nodes=0 1 --max-nodes=64 --trials=10)
expect_minimum("${SCALE}" --min-nodes=0 1
  --max-nodes=64 --lookups=10 --physical-nodes=0)
expect_minimum("${FIG5}" --trials=0 1 --min-nodes=64 --max-nodes=64)
expect_minimum("${FIG8}" --nodes=1 2 --trials=10)
expect_minimum("${FIG8}" --trials=0 1 --nodes=64)
expect_minimum("${PROX_SAMPLING}" --nodes=31 32 --trials=10)
expect_minimum("${PROX_SAMPLING}" --trials=0 1 --nodes=64)
expect_minimum("${CHURN}" --nodes=0 1 --pairs=1 --snapshot-every=0)
expect_minimum("${CHURN}" --pairs=0 1 --nodes=16 --snapshot-every=0)
expect_minimum("${SOAK}" --nodes=0 1 --lookups=10)
expect_minimum("${SOAK}" --lookups=0 1 --nodes=64)
expect_minimum("${CACHING}" --nodes=0 1 --queries=10)
expect_minimum("${CACHING}" --queries=0 1 --nodes=64)
expect_minimum("${CONGESTION}" --nodes=0 1 --lookups=10)
expect_minimum("${FAMILY}" --nodes=0 1 --trials=10)
expect_minimum("${FAMILY}" --trials=0 1 --nodes=64)
expect_minimum("${FAULT_ISOLATION}" --nodes=0 1 --trials=10)
expect_minimum("${LOAD}" --nodes=0 1 --lookups=10)
expect_minimum("${LOAD}" --lookups=0 1 --nodes=64)
expect_minimum("${LOOKAHEAD}" --trials=0 1 --min-nodes=64 --max-nodes=64)
expect_minimum("${RESILIENCE}" --nodes=0 1 --trials=10)
expect_minimum("${SCALE}" --levels=0 1
  --min-nodes=64 --max-nodes=64 --lookups=10 --physical-nodes=0)
expect_minimum("${SCALE}" --lookups=0 1
  --min-nodes=64 --max-nodes=64 --physical-nodes=0)
expect_minimum("${FIG4}" --nodes=0 1)
expect_minimum("${FIG6}" --trials=0 1 --min-nodes=64 --max-nodes=64)
expect_minimum("${FIG7}" --nodes=0 1 --trials=10)
expect_minimum("${FIG7}" --trials=0 1 --nodes=64)
expect_minimum("${FIG9}" --nodes=0 1 --sources=10 --repeats=1)
expect_minimum("${FIG9}" --repeats=0 1 --nodes=64 --sources=10)
expect_fraction("${FIG5}" --crash-rate=1 --min-nodes=64 --max-nodes=64
  --trials=10)
expect_fraction("${RESILIENCE}" --drop-rate=1 --nodes=64 --trials=10)
expect_fraction("${LOAD}" --crash-fraction=1 --nodes=64 --lookups=10)
expect_fraction("${LOAD}" --crash-fraction=-0.5 --nodes=64 --lookups=10)
