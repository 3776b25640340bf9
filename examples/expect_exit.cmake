# Run a program and require both its exit code and a line of its output.
#
#   cmake -DPROGRAM=<exe> -DARGS="<args>" -DEXPECT_CODE=<n> -DEXPECT_OUTPUT=<regex>
#         -P expect_exit.cmake
#
# A CTest built on this fails on any other exit code, so an abort or a
# crash does not pass the way it would under WILL_FAIL.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
message("${out}")
if(NOT code STREQUAL "${EXPECT_CODE}")
    message(FATAL_ERROR "exit code ${code}, expected ${EXPECT_CODE}")
endif()
if(NOT out MATCHES "${EXPECT_OUTPUT}")
    message(FATAL_ERROR "output does not match \"${EXPECT_OUTPUT}\"")
endif()
