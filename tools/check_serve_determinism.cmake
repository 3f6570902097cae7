# ctest helper: the serve daemon's response bodies are a pure function of the
# request parameters. For a campaign and a fleet request, four concurrent
# clients against a daemon at --jobs 1 and at --jobs 8 must all receive bodies
# byte-identical to what the CLI's `campaign --stream` / `fleet --stream`
# prints for the same parameters. The daemon is shut down via {"op":"shutdown"}
# and must exit 30 (graceful drain).
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_serve_determinism.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
get_filename_component(TOOLS_DIR ${CMAKE_SCRIPT_MODE_FILE} DIRECTORY)
include(${TOOLS_DIR}/serve_daemon.cmake)

# CLI references (engine direct, --stream layout == serve body layout).
execute_process(
    COMMAND ${CLI} campaign --scenario gpu-fault --seeds 6 --stream
        --out ${WORK_DIR}/ref_campaign.json
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_fail("reference campaign failed: ${rc}")
endif()
execute_process(
    COMMAND ${CLI} fleet --scenario fleet-mixed --seeds 4 --stream
        --out ${WORK_DIR}/ref_fleet.json
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_fail("reference fleet failed: ${rc}")
endif()

set(campaign_req "{\"op\":\"campaign\",\"scenario\":\"gpu-fault\",\"seeds\":6,\"jobs\":8}")
set(fleet_req "{\"op\":\"fleet\",\"scenario\":\"fleet-mixed\",\"seeds\":4,\"jobs\":8}")

foreach(jobs 1 8)
  set(sock ${WORK_DIR}/serve_${jobs}.sock)
  serve_start(serve_${jobs} --workers 4 --jobs ${jobs})

  # Four concurrent clients: 3x the campaign request + 1 fleet request. The
  # first client's --wait-s also covers daemon startup.
  execute_process(
      COMMAND bash -c "\
pids=; \
for i in 1 2 3; do \
  \"${CLI}\" request --socket \"${sock}\" --body '${campaign_req}' --wait-s 15 --timeout-s 300 --out \"${WORK_DIR}/campaign_${jobs}_$i.json\" >/dev/null & \
  pids=\"$pids $!\"; \
done; \
\"${CLI}\" request --socket \"${sock}\" --body '${fleet_req}' --wait-s 15 --timeout-s 300 --out \"${WORK_DIR}/fleet_${jobs}.json\" >/dev/null & \
pids=\"$pids $!\"; \
rc=0; for p in $pids; do wait $p || rc=1; done; exit $rc"
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    serve_fail("a concurrent serve client failed (--jobs ${jobs})")
  endif()

  foreach(i 1 2 3)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/ref_campaign.json ${WORK_DIR}/campaign_${jobs}_${i}.json
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
      serve_fail(
          "serve campaign body (--jobs ${jobs}, client ${i}) is not byte-identical to the CLI")
    endif()
  endforeach()
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/ref_fleet.json ${WORK_DIR}/fleet_${jobs}.json
      RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    serve_fail(
        "serve fleet body (--jobs ${jobs}) is not byte-identical to the CLI")
  endif()

  serve_shutdown(serve_${jobs})
endforeach()
