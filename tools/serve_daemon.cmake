# Serve-daemon lifecycle shared by the check_serve_* and check_observability
# ctest scripts (include()d; needs CLI and WORK_DIR set). A daemon is named,
# and its files live in WORK_DIR: <name>.sock (socket), <name>.pid,
# <name>.log (stdout + stderr) and <name>.exit (exit code, written when the
# daemon ends).
#
#   serve_start(<name> [ENV "<VAR=value ...>"] <serve flags...>)
#       launches `serve` in the background with the given environment.
#   serve_await_exit(<name>)
#       waits up to 10 s for the daemon to end and requires exit 30 (the
#       graceful drain).
#   serve_shutdown(<name>)
#       sends {"op":"shutdown"}, requires its ack, then serve_await_exit.
#   serve_fail(<message>)
#       kills every daemon of WORK_DIR that has not ended, then fails the test
#       with <message>. Checks made while a daemon runs fail through it, so a
#       failed check leaves no daemon behind.

function(serve_fail message)
  file(GLOB pid_files "${WORK_DIR}/*.pid")
  foreach(pid_file IN LISTS pid_files)
    string(REGEX REPLACE "\\.pid$" ".exit" exit_file "${pid_file}")
    if(NOT EXISTS "${exit_file}")
      file(READ "${pid_file}" pid)
      string(STRIP "${pid}" pid)
      if(pid MATCHES "^[0-9]+$")
        execute_process(COMMAND kill -KILL ${pid} OUTPUT_QUIET ERROR_QUIET)
      endif()
    endif()
  endforeach()
  message(FATAL_ERROR "${message}")
endfunction()

function(serve_start name)
  cmake_parse_arguments(PARSE_ARGV 1 arg "" "ENV" "")
  string(JOIN " " flags ${arg_UNPARSED_ARGUMENTS})
  set(base "${WORK_DIR}/${name}")
  execute_process(
      COMMAND bash -c "(${arg_ENV} \"${CLI}\" serve --socket \"${base}.sock\" --pid-file \"${base}.pid\" ${flags} </dev/null >\"${base}.log\" 2>&1; echo -n $? > \"${base}.exit\") </dev/null >/dev/null 2>&1 &"
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    serve_fail("could not launch serve daemon '${name}'")
  endif()
endfunction()

function(serve_await_exit name)
  set(exit_file "${WORK_DIR}/${name}.exit")
  execute_process(
      COMMAND bash -c "for i in $(seq 100); do [ -f \"${exit_file}\" ] && exit 0; sleep 0.1; done; exit 1"
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    serve_fail("serve daemon '${name}' did not exit")
  endif()
  file(READ ${exit_file} daemon_exit)
  if(NOT daemon_exit STREQUAL "30")
    serve_fail("serve daemon '${name}' exited '${daemon_exit}', expected 30 (graceful drain)")
  endif()
endfunction()

function(serve_shutdown name)
  execute_process(
      COMMAND ${CLI} request --socket ${WORK_DIR}/${name}.sock
          --body "{\"op\":\"shutdown\"}" --raw --wait-s 5 --timeout-s 30
      OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    serve_fail("shutdown request to serve daemon '${name}' failed: ${rc}")
  endif()
  serve_await_exit(${name})
endfunction()
