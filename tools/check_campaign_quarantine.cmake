# ctest helper: a seed that fails every attempt must be quarantined — the
# campaign completes, reports the poisoned seed in a structured "failed_runs"
# block, exits with the completed-with-quarantined code (20), and the
# surviving seeds are unchanged. Verified in the default layout and the
# --stream layout, and the two must agree on the surviving runs.
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_campaign_quarantine.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(scenario "campaign;--scenario;gpu-fault;--seeds;4;--days;0.2;--seed;42")

execute_process(
    COMMAND ${CLI} ${scenario} --out ${WORK_DIR}/clean.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clean reference campaign failed: ${rc}")
endif()

foreach(mode default stream)
  set(extra "")
  if(mode STREQUAL "stream")
    set(extra "--stream")
  endif()
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E env BYTEROBUST_HARNESS_FAULTS=crash_seed:2
          ${CLI} ${scenario} --jobs 2 ${extra}
          --out ${WORK_DIR}/quarantine_${mode}.json
      OUTPUT_QUIET
      ERROR_QUIET
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 20)
    message(FATAL_ERROR
        "quarantined campaign (${mode}) exited ${rc}, expected 20")
  endif()
endforeach()

find_program(PYTHON3 NAMES python3 python)
if(PYTHON3)
  execute_process(
      COMMAND ${PYTHON3} -c "
import json, sys
clean = json.load(open(sys.argv[1]))
for path in sys.argv[2:]:
    doc = json.load(open(path))
    failed = doc.get('failed_runs')
    assert failed and len(failed) == 1, '%s: expected exactly one failed run' % path
    entry = failed[0]
    assert entry['index'] == 2, '%s: wrong quarantined index' % path
    assert entry['seed'] == 44, '%s: wrong quarantined seed' % path
    assert entry['attempts'] >= 1, '%s: missing attempt count' % path
    assert 'error' in entry and entry['error'], '%s: missing error text' % path
    survivors = [r['seed'] for r in doc['runs']]
    assert survivors == [42, 43, 45], '%s: surviving seeds %r' % (path, survivors)
    expected = [r for r in clean['runs'] if r['seed'] != 44]
    assert doc['runs'] == expected, '%s: surviving runs were perturbed' % path
" ${WORK_DIR}/clean.json
        ${WORK_DIR}/quarantine_default.json ${WORK_DIR}/quarantine_stream.json
      RESULT_VARIABLE check)
  if(NOT check EQUAL 0)
    message(FATAL_ERROR "quarantine output failed structural validation")
  endif()
else()
  foreach(mode default stream)
    file(READ ${WORK_DIR}/quarantine_${mode}.json doc)
    string(FIND "${doc}" "\"failed_runs\":" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "quarantine output (${mode}) is missing failed_runs")
    endif()
    string(REGEX MATCHALL "\"seed\": 44" poisoned "${doc}")
    list(LENGTH poisoned poisoned_count)
    if(NOT poisoned_count EQUAL 1)
      message(FATAL_ERROR
          "quarantine output (${mode}) mentions seed 44 ${poisoned_count} times, expected 1")
    endif()
  endforeach()
endif()
