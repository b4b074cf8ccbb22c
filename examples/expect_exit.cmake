# Runs one command-line example and checks its exit code (and, optionally,
# its standard output). Used by the ctest entries in this directory:
#
#   cmake -DCOMMAND=<exe>|<arg>|... -DEXPECT=<code> [-DMATCH=<regex>] -P expect_exit.cmake
#
# Arguments in COMMAND are separated by '|'. A crash fails the check, since
# its result is a signal description rather than a number.
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit ${rc}, expected ${EXPECT}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "stdout does not match '${MATCH}':\n${out}")
endif()
