# ctest helper: an interrupted, journalled campaign must resume to output
# byte-identical with an uninterrupted run — across every output path:
#   1. a --journal run is itself byte-identical to a plain run (the journal
#      never perturbs campaign JSON);
#   2. a run interrupted after 2 committed seeds (stop_after harness fault, the
#      deterministic stand-in for SIGINT) exits with the interrupted code (30)
#      and leaves a resumable journal;
#   3. resuming that journal — at --jobs 1, --jobs 8, and under --stream —
#      completes with exit 0 and byte-identical merged output (the --stream
#      resume is compared against a straight --stream run, since --stream uses
#      the incremental document layout).
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_campaign_resume.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(scenario "campaign;--scenario;gpu-fault;--seeds;6;--days;0.2;--seed;42")

# References: default and --stream layouts.
execute_process(
    COMMAND ${CLI} ${scenario} --out ${WORK_DIR}/ref_default.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference campaign failed: ${rc}")
endif()
execute_process(
    COMMAND ${CLI} ${scenario} --stream --out ${WORK_DIR}/ref_stream.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference --stream campaign failed: ${rc}")
endif()

# A journalled (but uninterrupted) run must not perturb output bytes.
execute_process(
    COMMAND ${CLI} ${scenario} --journal ${WORK_DIR}/full.journal
        --out ${WORK_DIR}/journalled.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "journalled campaign failed: ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/ref_default.json ${WORK_DIR}/journalled.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "--journal changed campaign output bytes")
endif()

# Interrupt a journalled run after 2 committed seeds; expect the distinct
# interrupted exit code (30) and a journal holding the committed prefix.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env BYTEROBUST_HARNESS_FAULTS=stop_after:2
        ${CLI} ${scenario} --jobs 1 --journal ${WORK_DIR}/partial.journal
        --out ${WORK_DIR}/interrupted.json
    OUTPUT_QUIET
    ERROR_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 30)
  message(FATAL_ERROR "interrupted campaign exited ${rc}, expected 30")
endif()

# Resume the same partial journal three ways. Each resume works on its own
# copy: completing a resume completes the journal, and we want every variant
# to start from the interrupted state.
foreach(mode jobs1 jobs8 stream)
  configure_file(${WORK_DIR}/partial.journal ${WORK_DIR}/resume_${mode}.journal COPYONLY)
endforeach()

foreach(jobs 1 8)
  execute_process(
      COMMAND ${CLI} ${scenario} --jobs ${jobs}
          --resume ${WORK_DIR}/resume_jobs${jobs}.journal
          --out ${WORK_DIR}/resumed_jobs${jobs}.json
      OUTPUT_QUIET
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resume (--jobs ${jobs}) failed: ${rc}")
  endif()
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/ref_default.json ${WORK_DIR}/resumed_jobs${jobs}.json
      RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
        "resumed campaign (--jobs ${jobs}) is not byte-identical to the reference")
  endif()
endforeach()

execute_process(
    COMMAND ${CLI} ${scenario} --jobs 8 --stream
        --resume ${WORK_DIR}/resume_stream.journal
        --out ${WORK_DIR}/resumed_stream.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume (--stream) failed: ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/ref_stream.json ${WORK_DIR}/resumed_stream.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
      "resumed --stream campaign is not byte-identical to the --stream reference")
endif()

# A completed journal resumes to the same bytes again without re-running seeds.
execute_process(
    COMMAND ${CLI} ${scenario} --resume ${WORK_DIR}/resume_jobs1.journal
        --out ${WORK_DIR}/resumed_again.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "full-resume of a completed journal failed: ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/ref_default.json ${WORK_DIR}/resumed_again.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "full-resume output is not byte-identical to the reference")
endif()

# Identity mismatch must be rejected as a setup error (exit 2), not silently
# merged into the wrong campaign.
execute_process(
    COMMAND ${CLI} campaign --scenario gpu-fault --seeds 7 --days 0.2 --seed 42
        --resume ${WORK_DIR}/resume_jobs8.journal
        --out ${WORK_DIR}/mismatch.json
    OUTPUT_QUIET
    ERROR_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
      "resume with a mismatched campaign identity exited ${rc}, expected 2")
endif()
