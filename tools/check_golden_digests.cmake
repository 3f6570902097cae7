# ctest helper: campaign and fleet output bytes are pinned by checked-in
# golden digests (tests/golden/digests.txt). Every matrix row runs in both
# document layouts (default and --stream) at --jobs 1 and --jobs 8, and
#   - the SHA-256 of each document must equal the row's recorded digest, so a
#     change that alters output the same way on every path still fails;
#   - both --jobs values must give the same bytes (seeds map to fixed output
#     slots, and commit is seed-ordered);
#   - the two layouts must parse to the same JSON: the same header fields,
#     runs and aggregate values, only reordered (needs python3).
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_golden_digests.cmake
#
# With -DUPDATE=ON the digest columns are rewritten in place from CLI's
# output (WORK_DIR defaults to a temp dir); do this only when a change is
# meant to alter output, and say why in the commit.

if(NOT DEFINED CLI)
  message(FATAL_ERROR "CLI is required")
endif()
get_filename_component(REPO_DIR ${CMAKE_SCRIPT_MODE_FILE}/../.. ABSOLUTE)
set(MATRIX ${REPO_DIR}/tests/golden/digests.txt)
if(NOT DEFINED WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR}/golden_digests)
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Runs one row in one layout at one --jobs value into
# <prefix>_<layout>_<jobs>.json; sets `digest` in the caller's scope.
function(row_digest args prefix layout jobs)
  set(extra "")
  if(layout STREQUAL "stream")
    set(extra "--stream")
  endif()
  set(out ${prefix}_${layout}_${jobs}.json)
  execute_process(
      COMMAND ${CLI} ${args} --jobs ${jobs} ${extra} --out ${out}
      OUTPUT_QUIET
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " shown "${args}")
    message(FATAL_ERROR "${shown} --jobs ${jobs} ${extra} exited ${rc}")
  endif()
  file(SHA256 ${out} sha)
  set(digest ${sha} PARENT_SCOPE)
endfunction()

file(STRINGS ${MATRIX} lines)
set(rewritten "")
set(mismatches "")
set(rows 0)
set(prefixes "")
foreach(line IN LISTS lines)
  if(line MATCHES "^#" OR line STREQUAL "")
    string(APPEND rewritten "${line}\n")
    continue()
  endif()
  string(REGEX REPLACE "[ \t]+" ";" fields "${line}")
  list(LENGTH fields n)
  if(NOT n EQUAL 7)
    message(FATAL_ERROR "malformed matrix row (want 7 fields): ${line}")
  endif()
  list(GET fields 0 command)
  list(GET fields 1 scenario)
  list(GET fields 2 base_seed)
  list(GET fields 3 seeds)
  list(GET fields 4 days)
  list(GET fields 5 want_default)
  list(GET fields 6 want_stream)
  set(args ${command} --scenario ${scenario} --base-seed ${base_seed} --seeds ${seeds})
  if(NOT days STREQUAL "-")
    list(APPEND args --days ${days})
  endif()
  math(EXPR rows "${rows} + 1")
  set(prefix ${WORK_DIR}/${command}_${scenario}_${base_seed})
  list(APPEND prefixes ${prefix})

  foreach(layout default stream)
    set(want ${want_${layout}})
    foreach(jobs 1 8)
      row_digest("${args}" ${prefix} ${layout} ${jobs})
      if(jobs EQUAL 1)
        set(got_${layout} ${digest})
      elseif(NOT digest STREQUAL got_${layout})
        # Holds in UPDATE mode too: never record bytes that depend on --jobs.
        list(APPEND mismatches "${command} ${scenario} ${base_seed} ${layout}: --jobs 8 differs from --jobs 1")
      endif()
      if(NOT UPDATE AND NOT digest STREQUAL want)
        list(APPEND mismatches "${command} ${scenario} ${base_seed} ${layout} --jobs ${jobs}: got ${digest}")
      endif()
    endforeach()
  endforeach()
  string(APPEND rewritten
      "${command} ${scenario} ${base_seed} ${seeds} ${days} ${got_default} ${got_stream}\n")
endforeach()

find_program(PYTHON3 NAMES python3 python)
if(PYTHON3)
  execute_process(
      COMMAND ${PYTHON3} -c "
import json, os, sys
for prefix in sys.argv[1:]:
    with open(prefix + '_default_1.json') as a, open(prefix + '_stream_1.json') as b:
        if json.load(a) != json.load(b):
            print(os.path.basename(prefix) + ': --stream content differs from the default layout')
" ${prefixes}
      OUTPUT_VARIABLE layout_diffs
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "layout comparison failed: ${rc}")
  endif()
  string(REGEX REPLACE "\n$" "" layout_diffs "${layout_diffs}")
  string(REPLACE "\n" ";" layout_diffs "${layout_diffs}")
  list(APPEND mismatches ${layout_diffs})
else()
  message(STATUS "python3 not found: layout equivalence not checked")
endif()

if(mismatches)
  string(REPLACE ";" "\n  " shown "${mismatches}")
  message(FATAL_ERROR "golden digest mismatch (${MATRIX}):\n  ${shown}\n"
      "If the output change is intended, regenerate with -DUPDATE=ON (see the matrix header).")
endif()
if(UPDATE)
  file(WRITE ${MATRIX} "${rewritten}")
  message(STATUS "rewrote ${rows} golden rows in ${MATRIX}")
else()
  message(STATUS "${rows} golden rows match")
endif()
