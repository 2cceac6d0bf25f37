# ctest script: a numeric flag whose value does not parse must stop the
# binary with exit code 2 and an error naming the flag and the value.
foreach(bad --seed=abc --seed= --seed=12x --seed=-1 --threads=-1
        --seed=99999999999999999999 --crash-rate=abc --crash-rate=inf)
  execute_process(
    COMMAND "${BIN}" ${bad} --min-nodes=64 --max-nodes=64 --trials=10
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${bad}: expected exit code 2, got ${rc}")
  endif()
  string(FIND "${err}" "${bad}" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "${bad}: error does not name the flag: ${err}")
  endif()
endforeach()
