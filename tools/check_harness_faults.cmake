# ctest helper: a campaign that rides through injected harness faults
# (probabilistic crashes, throws, and cooperative hangs, with retries and a
# short watchdog deadline) must complete with exit 0 and emit output
# byte-identical to a clean run — in both document layouts (default and
# --stream) at --jobs 1 and --jobs 8. Fault draws are keyed on
# (campaign seed, seed index, attempt, kind), so the same seeds fault the same
# way regardless of worker count, and retries absorb every fault. The
# --jobs 8 default-layout run is traced, and its trace-footer counters must
# show that the spec exercised the watchdog: at least one watchdog fire and
# one retry, and no quarantine.
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_harness_faults.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(scenario "campaign;--scenario;dense;--seeds;6;--days;0.3;--seed;42")
# With 8 retries (9 attempts) per seed, the per-seed chance that all attempts
# fault is tiny — and the draws are deterministic, so this exact spec stays
# quarantine-free and hang-exercising for this scenario (the counter check
# below holds it to that: 7 watchdog fires and 14 retries in 20 attempts).
set(faults "crash:0.2,throw:0.15,hang:0.5")

# Clean references for the two output layouts.
execute_process(
    COMMAND ${CLI} ${scenario} --out ${WORK_DIR}/clean_default.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clean reference campaign failed: ${rc}")
endif()
execute_process(
    COMMAND ${CLI} ${scenario} --stream --out ${WORK_DIR}/clean_stream.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clean --stream reference campaign failed: ${rc}")
endif()

foreach(jobs 1 8)
  foreach(path default stream)
    set(ref ${WORK_DIR}/clean_default.json)
    set(extra "")
    if(path STREQUAL "stream")
      set(extra "--stream")
      set(ref ${WORK_DIR}/clean_stream.json)
    endif()
    set(out ${WORK_DIR}/faulted_${path}_${jobs}.json)
    set(trace "")
    if(jobs EQUAL 8 AND path STREQUAL "default")
      set(trace --trace ${WORK_DIR}/faulted_default_8.trace.json)
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env
            BYTEROBUST_HARNESS_FAULTS=${faults}
            BYTEROBUST_SEED_TIMEOUT_S=0.5
            ${CLI} ${scenario} --jobs ${jobs} ${extra} --retries 8 ${trace} --out ${out}
        OUTPUT_QUIET
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
          "faulted campaign (${path}, --jobs ${jobs}) exited ${rc}, expected 0")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${ref} ${out}
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
      message(FATAL_ERROR
          "faulted campaign (${path}, --jobs ${jobs}) is not byte-identical to the clean run")
    endif()
  endforeach()
endforeach()

# The trace footer's final counter values ("C" events; a counter that was
# never registered reads 0).
file(READ ${WORK_DIR}/faulted_default_8.trace.json trace_text)
foreach(counter watchdog_fires retries quarantines)
  set(${counter} 0)
  if(trace_text MATCHES "\"name\":\"harness\\.${counter}\",\"args\":{\"v\":([0-9]+)}")
    set(${counter} ${CMAKE_MATCH_1})
  endif()
endforeach()
if(watchdog_fires LESS 1 OR retries LESS 1 OR NOT quarantines EQUAL 0)
  message(FATAL_ERROR
      "faulted campaign (default, --jobs 8) did not exercise the watchdog: "
      "harness.watchdog_fires=${watchdog_fires} (need >= 1), "
      "harness.retries=${retries} (need >= 1), "
      "harness.quarantines=${quarantines} (need 0)")
endif()
