# Runs one CLI invocation that must be rejected as bad usage: exit code 2 and
# stderr matching EXPECT. ARGS separates the arguments with '|'. Usage:
#   cmake -DEXE=<exe> "-DARGS=<arg>|<arg>..." -DEXPECT=<regex> \
#         -P expect_cli_usage_error.cmake
if(NOT DEFINED EXE OR NOT DEFINED ARGS OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "pass -DEXE=<exe>, -DARGS=<a|b|...> and -DEXPECT=<regex>")
endif()
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${EXE} ${args} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${code}'\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
