# ctest helper: a serve daemon whose seed workers are being crashed, thrown
# at, and hung by BYTEROBUST_HARNESS_FAULTS must still answer every request
# with a body byte-identical to a clean CLI run — the supervisor retries and
# watchdog-cancels inside each request, and fault draws are keyed on
# (campaign seed, index, attempt, kind), so injected faults never leak into
# response bytes. The daemon must then drain cleanly (exit 30).
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_serve_harness_faults.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
get_filename_component(TOOLS_DIR ${CMAKE_SCRIPT_MODE_FILE} DIRECTORY)
include(${TOOLS_DIR}/serve_daemon.cmake)

# Same fault spec + scenario as ctest cli_campaign_harness_faults: verified
# quarantine-free for these seeds, with at least one watchdog cancel/retry.
set(faults "crash:0.2,throw:0.15,hang:0.5")

execute_process(
    COMMAND ${CLI} campaign --scenario dense --seeds 6 --days 0.3 --stream
        --out ${WORK_DIR}/ref.json
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_fail("clean reference campaign failed: ${rc}")
endif()

set(sock ${WORK_DIR}/serve.sock)
serve_start(serve --workers 2 --jobs 8
    ENV "BYTEROBUST_HARNESS_FAULTS='${faults}' BYTEROBUST_SEED_TIMEOUT_S=0.5")

set(req "{\"op\":\"campaign\",\"scenario\":\"dense\",\"seeds\":6,\"days\":0.3,\"jobs\":8,\"retries\":8}")
execute_process(
    COMMAND bash -c "\
pids=; \
for i in 1 2; do \
  \"${CLI}\" request --socket \"${sock}\" --body '${req}' --wait-s 15 --timeout-s 300 --out \"${WORK_DIR}/faulted_$i.json\" >/dev/null & \
  pids=\"$pids $!\"; \
done; \
rc=0; for p in $pids; do wait $p || rc=1; done; exit $rc"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_fail("a request against the faulted daemon failed")
endif()

foreach(i 1 2)
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/ref.json ${WORK_DIR}/faulted_${i}.json
      RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    serve_fail(
        "faulted serve body (client ${i}) is not byte-identical to the clean CLI run")
  endif()
endforeach()

serve_shutdown(serve)
