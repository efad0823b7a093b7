# Run the command given after "--" and fail unless it exits with
# status EXPECTED within 60 s:
#
#   cmake -DEXPECTED=2 -P expect_exit.cmake -- prog arg...
set(cmd)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect ON)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc TIMEOUT 60
                OUTPUT_QUIET)
if(NOT "${rc}" STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "exit status '${rc}', expected ${EXPECTED}: ${cmd}")
endif()
