# ctest script: a size or count flag below its minimum must stop the
# binary with exit code 2 and an error naming the flag and the minimum,
# instead of looping forever (a doubling loop from 0 stays at 0) or
# aborting on an empty population or an empty statistic. Every run has a
# timeout, so a hang fails the test instead of stalling it.
function(expect_minimum bin bad minimum)
  execute_process(
    COMMAND "${bin}" ${bad} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${bin} ${bad}: expected exit code 2, got ${rc}")
  endif()
  foreach(part "${bad}" ">= ${minimum}")
    string(FIND "${err}" "${part}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "${bin} ${bad}: error does not name ${part}: ${err}")
    endif()
  endforeach()
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
