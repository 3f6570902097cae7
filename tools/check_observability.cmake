# ctest helper: observability is a strict side channel. Campaign, fleet and
# serve outputs must be byte-identical with --trace/--dashboard enabled vs.
# disabled — in both document layouts (default and --stream) at --jobs 1
# and 8 — and every emitted trace must pass tools/trace_validate.py (balanced B/E spans,
# monotone per-track timestamps). Dashboards must themselves be
# byte-identical across --jobs and layouts (they sample the simulation,
# not the scheduler).
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_observability.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

get_filename_component(TOOLS_DIR ${CMAKE_SCRIPT_MODE_FILE} DIRECTORY)
include(${TOOLS_DIR}/serve_daemon.cmake)
find_program(PYTHON3 python3)

function(validate_trace trace)
  if(NOT PYTHON3)
    return()  # trace structure is still exercised; validation needs python3
  endif()
  execute_process(
      COMMAND ${PYTHON3} ${TOOLS_DIR}/trace_validate.py ${ARGN} ${trace}
      RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    serve_fail("trace ${trace} failed trace_validate.py")
  endif()
endfunction()

set(campaign_cmd "campaign;--scenario;quickstart;--seeds;3;--days;0.1")
set(fleet_cmd "fleet;--scenario;fleet-mixed;--seeds;2")

# Clean references for both document layouts, per command.
foreach(kind campaign fleet)
  foreach(layout default stream)
    set(extra "")
    if(layout STREQUAL "stream")
      set(extra "--stream")
    endif()
    execute_process(
        COMMAND ${CLI} ${${kind}_cmd} ${extra} --out ${WORK_DIR}/ref_${kind}_${layout}.json
        OUTPUT_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      serve_fail("clean ${kind} ${layout} reference failed: ${rc}")
    endif()
  endforeach()
endforeach()

# Observability on: every layout x jobs combination must reproduce the clean
# bytes, emit a valid trace, and emit the same dashboard as every other
# combination of the same command.
foreach(kind campaign fleet)
  set(first_dash "")
  foreach(jobs 1 8)
    foreach(path default stream)
      set(tag ${kind}_${path}_${jobs})
      set(ref ${WORK_DIR}/ref_${kind}_default.json)
      set(extra "")
      if(path STREQUAL "stream")
        set(extra "--stream")
        set(ref ${WORK_DIR}/ref_${kind}_stream.json)
      endif()
      execute_process(
          COMMAND ${CLI} ${${kind}_cmd} --jobs ${jobs} ${extra}
              --trace ${WORK_DIR}/trace_${tag}.json
              --dashboard ${WORK_DIR}/dash_${tag}.json
              --out ${WORK_DIR}/out_${tag}.json
          OUTPUT_QUIET RESULT_VARIABLE rc)
      if(NOT rc EQUAL 0)
        serve_fail("observed ${kind} (${path}, --jobs ${jobs}) exited ${rc}")
      endif()
      execute_process(
          COMMAND ${CMAKE_COMMAND} -E compare_files ${ref} ${WORK_DIR}/out_${tag}.json
          RESULT_VARIABLE diff)
      if(NOT diff EQUAL 0)
        serve_fail(
            "${kind} output (${path}, --jobs ${jobs}) changed with observability on")
      endif()
      validate_trace(${WORK_DIR}/trace_${tag}.json)
      if(first_dash STREQUAL "")
        set(first_dash ${WORK_DIR}/dash_${tag}.json)
      else()
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                ${first_dash} ${WORK_DIR}/dash_${tag}.json
            RESULT_VARIABLE diff)
        if(NOT diff EQUAL 0)
          serve_fail(
              "${kind} dashboard (${path}, --jobs ${jobs}) differs across runs")
        endif()
      endif()
    endforeach()
  endforeach()
endforeach()

# Serve: a traced daemon's response body must match the clean CLI --stream
# reference, and the daemon's drain must close its trace properly.
set(sock ${WORK_DIR}/serve.sock)
serve_start(serve --workers 2 --jobs 8 --trace ${WORK_DIR}/trace_serve.json)
execute_process(
    COMMAND ${CLI} request --socket ${sock}
        --body "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":3,\"days\":0.1,\"jobs\":8}"
        --wait-s 15 --timeout-s 300 --out ${WORK_DIR}/serve_body.json
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_fail("traced serve request failed: ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/ref_campaign_stream.json ${WORK_DIR}/serve_body.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  serve_fail("serve body changed with tracing on")
endif()
serve_shutdown(serve)
validate_trace(${WORK_DIR}/trace_serve.json)
