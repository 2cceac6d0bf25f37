# ctest script: a misspelled flag, a retired flag, or a boolean flag with a
# value it cannot read must stop the binary with exit code 2 and an error
# naming the flag, instead of running on defaults. The size flags keep a
# binary that wrongly accepts the bad flag fast.
function(expect_rejected bin bad flag)
  execute_process(
    COMMAND "${bin}" ${bad} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${bad}: expected exit code 2, got ${rc}")
  endif()
  string(FIND "${err}" "${flag}" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "${bad}: error does not name ${flag}: ${err}")
  endif()
endfunction()

expect_rejected("${FIG5}" --min-node=64 --min-node
  --min-nodes=64 --max-nodes=64 --trials=10)
expect_rejected("${FIG5}" --grain=64 --grain
  --min-nodes=64 --max-nodes=64 --trials=10)
expect_rejected("${DOCTOR}" --all=maybe --all --nodes=64)
expect_rejected("${SCALE}" --shard-nodes=8192 --shard-nodes
  --min-nodes=1024 --max-nodes=1024 --lookups=100 --physical-nodes=0)
expect_rejected("${SCALE}" --landmark-nodes=0 --landmark-nodes
  --min-nodes=1024 --max-nodes=1024 --lookups=100 --physical-nodes=0)
expect_rejected("${CHURN}" --nodez=64 --nodez --nodes=64 --pairs=10)
expect_rejected("${SOAK}" --lookup=100 --lookup --nodes=256 --lookups=100)
