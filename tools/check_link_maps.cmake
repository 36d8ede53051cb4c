# Fails when a member of the library archive is loaded by none of the
# given link maps: the library should hold only code that some shipped
# binary (pooled_cli, a bench, an example) runs. ctest runs it as
# `library_link_maps` (see CMakeLists.txt):
#
#   cmake -DAR=<ar> -DARCHIVE=<libpooled.a> -DMAPS=<a.map>,<b.map>,...
#         -P tools/check_link_maps.cmake
#
# GNU ld's map lists each archive member it loads once, on a line that
# starts with `<archive>(<member>)`. A member name the archive holds more
# than once (core/ and obs/ both have metrics.cpp) must be loaded that
# many times by one binary.

# Sets `out` to the number of times `name` occurs in the remaining
# arguments.
function(occurrences out name)
  string(REPLACE "." "\\." name_regex "${name}")
  set(matches ${ARGN})
  list(FILTER matches INCLUDE REGEX "^${name_regex}$")
  list(LENGTH matches count)
  set(${out} ${count} PARENT_SCOPE)
endfunction()

execute_process(COMMAND "${AR}" t "${ARCHIVE}" OUTPUT_VARIABLE listing
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "cannot list the members of ${ARCHIVE}")
endif()
string(STRIP "${listing}" listing)
string(REPLACE "\n" ";" members "${listing}")
set(names ${members})
list(REMOVE_DUPLICATES names)

get_filename_component(archive_name "${ARCHIVE}" NAME)
string(REPLACE "." "\\." archive_regex "${archive_name}")
string(REPLACE "," ";" maps "${MAPS}")
foreach(name IN LISTS names)
  set(best_${name} 0)
endforeach()
foreach(map IN LISTS maps)
  file(STRINGS "${map}" lines REGEX "^[^ ]*${archive_regex}\\(")
  set(loaded "")
  foreach(line IN LISTS lines)
    string(REGEX MATCH "${archive_regex}\\(([^)]+)\\)" member "${line}")
    list(APPEND loaded "${CMAKE_MATCH_1}")
  endforeach()
  foreach(name IN LISTS names)
    occurrences(count ${name} ${loaded})
    if(count GREATER best_${name})
      set(best_${name} ${count})
    endif()
  endforeach()
endforeach()

set(unloaded "")
foreach(name IN LISTS names)
  occurrences(held ${name} ${members})
  if(best_${name} LESS held)
    list(APPEND unloaded ${name})
  endif()
endforeach()
list(LENGTH members total)
list(LENGTH maps map_count)
if(unloaded)
  list(JOIN unloaded ", " unloaded)
  message(FATAL_ERROR "${archive_name} members loaded by none of the "
                      "${map_count} link maps: ${unloaded}")
endif()
message(STATUS "all ${total} members of ${archive_name} are loaded by one of "
               "the ${map_count} link maps")
