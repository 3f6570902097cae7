# ctest helper: serve robustness end-to-end, through real processes and a
# real socket.
#
#  1. Admission control: on a 1-worker / 0-queue daemon whose seeds are pinned
#     by an injected cooperative hang, a per-request seed-cap violation is
#     rejected (exit 2), and a probe while the slot is occupied is load-shed
#     (exit 75) while the occupying request is unaffected.
#  2. Deadlines: a request whose deadline_s expires mid-campaign returns
#     exit 30 with a valid partial document. An injected cooperative hang
#     holds its seeds, so the deadline falls mid-campaign at any simulator
#     speed.
#  3. Graceful drain + resume: SIGTERM mid-request drains the daemon (exit 30),
#     the journaled request's partial response is valid, and a restarted
#     daemon resuming that journal produces output byte-identical to a
#     straight CLI run.
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_serve_robustness.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
get_filename_component(TOOLS_DIR ${CMAKE_SCRIPT_MODE_FILE} DIRECTORY)
include(${TOOLS_DIR}/serve_daemon.cmake)

# ---------------------------------------------------------------------------
# 1. Admission control under a pinned worker.
# ---------------------------------------------------------------------------
set(sock_a ${WORK_DIR}/serve_a.sock)
# hang:1.0 pins every seed until the 5s watchdog; "retries":0 quarantines it.
# The occupier therefore holds the only in-system slot for ~5s — a stable
# window to probe admission — and then completes as a quarantined response.
serve_start(serve_a --workers 1 --jobs 1 --max-queue 0 --max-seeds 8
    ENV "BYTEROBUST_HARNESS_FAULTS='hang:1.0' BYTEROBUST_SEED_TIMEOUT_S=5")

execute_process(
    COMMAND ${CLI} request --socket ${sock_a}
        --body "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":64,\"retries\":0}"
        --raw --wait-s 15 --timeout-s 30
    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  serve_fail("seed-cap violation exited ${rc}, expected 2 (rejected)")
endif()

execute_process(
    COMMAND bash -c "\
\"${CLI}\" request --socket \"${sock_a}\" --body '{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":1,\"retries\":0}' --raw --timeout-s 60 >\"${WORK_DIR}/occupier.json\" 2>/dev/null & \
opid=$!; \
for i in $(seq 100); do \
  st=$(\"${CLI}\" request --socket \"${sock_a}\" --body '{\"op\":\"status\"}' --raw --timeout-s 30 2>/dev/null); \
  case \"$st\" in *'\"active_requests\":1'*) break;; esac; \
  sleep 0.05; \
done; \
\"${CLI}\" request --socket \"${sock_a}\" --body '{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":1,\"retries\":0}' --raw >\"${WORK_DIR}/shed.json\" 2>/dev/null; \
shed_rc=$?; \
wait $opid; occ_rc=$?; \
echo \"shed_rc=$shed_rc occ_rc=$occ_rc\" > \"${WORK_DIR}/admission.txt\"; \
[ $shed_rc -eq 75 ] && [ $occ_rc -eq 20 ]"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ ${WORK_DIR}/admission.txt admission)
  serve_fail(
      "admission check failed (want shed_rc=75 occ_rc=20): ${admission}")
endif()
file(READ ${WORK_DIR}/shed.json shed_response)
if(NOT shed_response MATCHES "request queue is full")
  serve_fail("shed response lacks the structured reason: ${shed_response}")
endif()
file(READ ${WORK_DIR}/occupier.json occupier_response)
if(NOT occupier_response MATCHES "failed_runs")
  serve_fail(
      "occupier (quarantined) response lacks failed_runs: ${occupier_response}")
endif()

serve_shutdown(serve_a)

# ---------------------------------------------------------------------------
# 2. Deadlines. hang:1.0 holds each seed until the 1 s watchdog, and
# "retries":0 quarantines it then; the 0.3 s deadline stops the campaign
# while its first seed is held.
# ---------------------------------------------------------------------------
set(sock_d ${WORK_DIR}/serve_d.sock)
serve_start(serve_d --workers 1 --jobs 1
    ENV "BYTEROBUST_HARNESS_FAULTS='hang:1.0' BYTEROBUST_SEED_TIMEOUT_S=1")
execute_process(
    COMMAND ${CLI} request --socket ${sock_d}
        --body "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":8,\"retries\":0,\"deadline_s\":0.3}"
        --wait-s 15 --timeout-s 120 --out ${WORK_DIR}/deadline.json
    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 30)
  serve_fail("deadline request exited ${rc}, expected 30 (interrupted)")
endif()
file(READ ${WORK_DIR}/deadline.json deadline_body)
if(NOT deadline_body MATCHES "\"runs\"" OR NOT deadline_body MATCHES "\"aggregate\"")
  serve_fail("deadline partial document is not a valid campaign doc")
endif()
serve_shutdown(serve_d)

# ---------------------------------------------------------------------------
# 3. SIGTERM drain, journal resume.
# ---------------------------------------------------------------------------
set(sock_b ${WORK_DIR}/serve_b.sock)
set(journal ${WORK_DIR}/request.journal)
serve_start(serve_b --workers 1 --jobs 1)

# Journaled request, SIGTERM mid-flight. Whether the kill lands before, during
# or after the request, the daemon must exit 30 and the later resume must
# merge to byte-identical output.
execute_process(
    COMMAND bash -c "\
\"${CLI}\" request --socket \"${sock_b}\" --body '{\"op\":\"campaign\",\"scenario\":\"dense-month\",\"seeds\":24,\"jobs\":1,\"journal\":\"${journal}\"}' --raw --timeout-s 120 >\"${WORK_DIR}/journaled.json\" 2>/dev/null & \
cpid=$!; \
sleep 0.4; \
kill -TERM $(cat \"${WORK_DIR}/serve_b.pid\"); \
wait $cpid; client_rc=$?; \
echo \"client_rc=$client_rc\" > \"${WORK_DIR}/drain.txt\"; \
[ $client_rc -eq 30 ] || [ $client_rc -eq 0 ]"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ ${WORK_DIR}/drain.txt drain)
  serve_fail("journaled client failed across the drain: ${drain}")
endif()
serve_await_exit(serve_b)

# Restarted daemon resumes the journal; the merged body must be byte-identical
# to a straight CLI run of the same campaign.
execute_process(
    COMMAND ${CLI} campaign --scenario dense-month --seeds 24 --jobs 1 --stream
        --out ${WORK_DIR}/ref_resume.json
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_fail("resume reference campaign failed: ${rc}")
endif()
set(sock_c ${WORK_DIR}/serve_c.sock)
serve_start(serve_c --workers 1 --jobs 1)
execute_process(
    COMMAND ${CLI} request --socket ${sock_c}
        --body "{\"op\":\"campaign\",\"scenario\":\"dense-month\",\"seeds\":24,\"jobs\":1,\"resume\":\"${journal}\"}"
        --wait-s 15 --timeout-s 300 --out ${WORK_DIR}/resumed.json
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_fail("resume request exited ${rc}, expected 0")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/ref_resume.json ${WORK_DIR}/resumed.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  serve_fail(
      "resumed serve body is not byte-identical to the straight CLI run")
endif()
serve_shutdown(serve_c)
