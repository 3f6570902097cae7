# ctest helper: the fleet runner must compose with the campaign machinery
# deterministically —
#   - `fleet --scenario fleet-mixed --seeds 8` must emit byte-identical JSON
#     at --jobs 1 and --jobs 8 (seeds map to fixed output slots, seed-ordered
#     commit);
#   - --stream (incremental layout, aggregate trailing) must carry the exact
#     same runs and aggregate values, compared as parsed JSON when python3 is
#     available, with a structural fallback otherwise.
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_fleet_determinism.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

set(scenario "fleet;--scenario;fleet-mixed;--seeds;8;--days;0.3")

foreach(jobs 1 8)
  execute_process(
      COMMAND ${CLI} ${scenario} --jobs ${jobs} --out ${WORK_DIR}/fleet_jobs${jobs}.json
      OUTPUT_QUIET
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fleet --jobs ${jobs} failed with ${rc}")
  endif()
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/fleet_jobs1.json ${WORK_DIR}/fleet_jobs8.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "fleet JSON differs between --jobs 1 and --jobs 8")
endif()

# --stream: same content, incremental layout.
execute_process(
    COMMAND ${CLI} ${scenario} --jobs 2 --stream --out ${WORK_DIR}/fleet_stream.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet --stream failed with ${rc}")
endif()

find_program(PYTHON3 NAMES python3 python)
if(PYTHON3)
  execute_process(
      COMMAND ${PYTHON3} -c "
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert a['runs'] == b['runs'], 'runs differ between --stream and reference'
assert a['aggregate'] == b['aggregate'], 'aggregate differs between --stream and reference'
for k in ('tool', 'command', 'scenario', 'seeds', 'base_seed', 'days'):
    assert a[k] == b[k], 'header field %s differs' % k
" ${WORK_DIR}/fleet_stream.json ${WORK_DIR}/fleet_jobs1.json
      RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "fleet --stream content differs from the reference layout")
  endif()
else()
  file(READ ${WORK_DIR}/fleet_stream.json direct)
  string(REGEX MATCHALL "\"num_jobs\":" job_fields "${direct}")
  list(LENGTH job_fields seed_count)
  if(NOT seed_count EQUAL 8)
    message(FATAL_ERROR "fleet --stream output holds ${seed_count} runs, expected 8")
  endif()
  string(FIND "${direct}" "\"aggregate\":" agg_pos)
  if(agg_pos EQUAL -1)
    message(FATAL_ERROR "fleet --stream output is missing the aggregate block")
  endif()
endif()
