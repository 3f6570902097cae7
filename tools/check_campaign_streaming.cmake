# ctest helper: windowed metric compaction (the default 2 h retention) must be
# invisible in the output — at --jobs 1 and --jobs 4 the campaign must emit
# byte-identical JSON to the unbounded tracker (BYTEROBUST_METRIC_WINDOW=0).
# The bytes of both layouts, and --stream's content equivalence with the
# default layout, are checked by cli_golden_digests.
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_campaign_streaming.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

set(scenario "campaign;--scenario;dense;--seeds;3;--days;0.4")

# Reference: unbounded metrics.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env BYTEROBUST_METRIC_WINDOW=0
        ${CLI} ${scenario} --out ${WORK_DIR}/stream_ref.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "unbounded-metrics reference campaign failed: ${rc}")
endif()

# Windowed metrics, single- and multi-worker.
foreach(jobs 1 4)
  execute_process(
      COMMAND ${CLI} ${scenario} --jobs ${jobs} --out ${WORK_DIR}/stream_windowed_${jobs}.json
      OUTPUT_QUIET
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "windowed-metrics campaign (--jobs ${jobs}) failed: ${rc}")
  endif()
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/stream_ref.json ${WORK_DIR}/stream_windowed_${jobs}.json
      RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
        "campaign JSON differs between unbounded and windowed metrics (--jobs ${jobs})")
  endif()
endforeach()
