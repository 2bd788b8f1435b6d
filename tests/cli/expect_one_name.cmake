# Runs TOOL with ARGS (one string, split like a shell command line) and
# requires exit code 1 and the tool's NAME exactly once on stderr:
#   cmake -DTOOL=path/to/vmtserve -DNAME=vmtserve
#         "-DARGS=--servers 0" -P expect_one_name.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR
        "${NAME} ${ARGS}: exit code ${rc}, expected 1; stderr: ${err}")
endif()
string(REGEX MATCHALL "${NAME}" names "${err}")
list(LENGTH names count)
if(NOT count EQUAL 1)
    message(FATAL_ERROR
        "${NAME} ${ARGS}: stderr names the tool ${count} times, "
        "expected once: ${err}")
endif()
