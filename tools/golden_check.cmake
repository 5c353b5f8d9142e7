# Byte-compare one binary's stdout against its committed golden file.
#
#   cmake -DBIN=<exe> -DGOLDEN=<expected.txt> -DACTUAL=<where-to-write.txt>
#         [-DARGS=<a;b;...>] -P tools/golden_check.cmake
#
# Stdout must match the golden byte for byte; stderr (host wall-clock lines)
# is not compared. On a mismatch the actual output is left at ACTUAL, so
#   diff <golden> <actual>
# shows the change, and copying ACTUAL over the golden accepts it.
if(NOT BIN OR NOT GOLDEN OR NOT ACTUAL)
  message(FATAL_ERROR "golden_check: BIN, GOLDEN and ACTUAL are required")
endif()

execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE out
                ERROR_QUIET
                RESULT_VARIABLE rc)
file(WRITE "${ACTUAL}" "${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "golden_check: ${BIN} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "golden_check: stdout differs from ${GOLDEN}\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
