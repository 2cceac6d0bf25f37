# ctest script: a numeric flag whose value does not parse must stop the
# binary with exit code 2 and an error naming the flag and the value.
# --threads and --batch-width are ints: a value above INT_MAX must not wrap.
# (Never add a large value that does fit an int: --threads would start
# that many worker threads.)
foreach(bad --seed=abc --seed= --seed=12x --seed=-1 --threads=-1
        --seed=99999999999999999999 --crash-rate=abc --crash-rate=inf
        --threads=2147483648 --threads=4294967297
        --batch-width=2147483648 --batch-width=4294967297)
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
