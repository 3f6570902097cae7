# ctest helper: a campaign that rides through injected harness faults
# (probabilistic crashes, throws, and cooperative hangs, with retries and a
# short watchdog deadline) must complete with exit 0 and emit output
# byte-identical to a clean run — in both document layouts (default and
# --stream) at --jobs 1 and --jobs 8. Fault draws are keyed on
# (campaign seed, seed index, attempt, kind), so the same seeds fault the same
# way regardless of worker count, and retries absorb every fault.
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
# fault is tiny — and the draws are deterministic, so this exact spec is
# verified quarantine-free (and hang-exercising: at least one watchdog
# cancel/retry) for this scenario once and stays so.
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
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env
            BYTEROBUST_HARNESS_FAULTS=${faults}
            BYTEROBUST_SEED_TIMEOUT_S=0.5
            ${CLI} ${scenario} --jobs ${jobs} ${extra} --retries 8 --out ${out}
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
