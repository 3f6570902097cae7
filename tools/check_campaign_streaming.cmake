# ctest helper: windowed metric compaction (the default 2 h retention) must be
# invisible in the output — at --jobs 1 and --jobs 4 the campaign must emit
# byte-identical JSON to the unbounded tracker (BYTEROBUST_METRIC_WINDOW=0).
# Only "0" selects the unbounded tracker: any other value, such as "2h", must
# keep the default window, so its --dashboard export equals the unset one.
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

# A value other than "0" keeps the default window: same dashboard as unset.
execute_process(
    COMMAND ${CLI} ${scenario} --dashboard ${WORK_DIR}/dash_unset.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dashboard campaign (window unset) failed: ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env BYTEROBUST_METRIC_WINDOW=2h
        ${CLI} ${scenario} --dashboard ${WORK_DIR}/dash_2h.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dashboard campaign (BYTEROBUST_METRIC_WINDOW=2h) failed: ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/dash_unset.json ${WORK_DIR}/dash_2h.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
      "--dashboard differs between BYTEROBUST_METRIC_WINDOW=2h and unset")
endif()
