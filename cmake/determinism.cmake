# Run the determinism gtest suite in fresh processes with the same
# CLIO_SEED, each dumping its recorded run statistics (final data
# digest, retry/NACK/fault counters, end time, per-op latencies) to a
# file via CLIO_STATS_OUT; fail unless every dump is identical.
#
# Three runs: two on the default timing-wheel event queue (same-engine
# reproducibility), one with CLIO_EVENT_QUEUE=heap (the reference
# binary-heap engine must replay the byte-identical history — this is
# what makes the wheel rewrite provably behavior-preserving).
#
# Run 1 is also compared against GOLDEN, a dump checked into the repo:
# the runs above only agree with each other, so a change that shifts
# modeled behaviour the same way in every run would pass them. A change
# that means to alter modeled behaviour regenerates the golden file
# (copy determinism_run1.stats over it) in a commit that says so.
#
# Usage: cmake -DTEST_BINARY=... -DWORK_DIR=... -DGOLDEN=... -P determinism.cmake

if(NOT TEST_BINARY OR NOT WORK_DIR OR NOT GOLDEN)
  message(FATAL_ERROR
    "determinism.cmake needs -DTEST_BINARY, -DWORK_DIR and -DGOLDEN")
endif()

set(seed 20220228) # ASPLOS'22 session day; any fixed value works.

foreach(run 1 2 3)
  set(stats_file "${WORK_DIR}/determinism_run${run}.stats")
  file(REMOVE "${stats_file}")
  if(run EQUAL 3)
    set(engine heap)
  else()
    set(engine wheel)
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      CLIO_SEED=${seed}
      CLIO_STATS_OUT=${stats_file}
      CLIO_EVENT_QUEUE=${engine}
      ${TEST_BINARY} --gtest_brief=1
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "determinism run ${run} (${engine}) exited with ${rc}\n${out}\n${err}")
  endif()
  if(NOT EXISTS "${stats_file}")
    message(FATAL_ERROR
      "determinism run ${run} produced no stats dump at ${stats_file}")
  endif()
endforeach()

foreach(run 2 3)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      "${WORK_DIR}/determinism_run1.stats"
      "${WORK_DIR}/determinism_run${run}.stats"
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    file(READ "${WORK_DIR}/determinism_run1.stats" run1)
    file(READ "${WORK_DIR}/determinism_run${run}.stats" runN)
    message(FATAL_ERROR
      "determinism violated: runs 1 and ${run} with CLIO_SEED=${seed} "
      "recorded different stats.\n--- run 1 ---\n${run1}\n"
      "--- run ${run} ---\n${runN}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/determinism_run1.stats" "${GOLDEN}"
  RESULT_VARIABLE golden_rc)
if(NOT golden_rc EQUAL 0)
  file(READ "${WORK_DIR}/determinism_run1.stats" run1)
  file(READ "${GOLDEN}" golden)
  message(FATAL_ERROR
    "determinism changed: run 1 with CLIO_SEED=${seed} differs from the "
    "golden dump ${GOLDEN}. If the change in modeled behaviour is "
    "intended, copy ${WORK_DIR}/determinism_run1.stats over it.\n"
    "--- run 1 ---\n${run1}\n--- golden ---\n${golden}")
endif()
message(STATUS "determinism OK: wheel x2 and heap runs recorded "
  "identical stats, equal to the golden dump")
