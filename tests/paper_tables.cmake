# Byte goldens of the paper's tables: reruns the table benches and the
# transition sweep and compares each one's standard output with
# tests/data/paper_tables/<bench>.out.  A bench's SHAPE CHECK passes as
# long as coupling beats summation; this pins every number it prints, so
# a change that moves a modeled time, a coupling value or an error fails
# here even when the paper's shape still holds.  The goldens are the
# benches' own output:
#
#   for b in table2_bt_s table3_bt_w table4_bt_a table6_sp table8_lu \
#            fig_transitions; do
#     build/bench/$b > tests/data/paper_tables/$b.out
#   done
#
#   cmake -DBENCH_DIR=<dir of the bench binaries> -DDATA=<tests/data>
#         -DOUT=<dir> -P paper_tables.cmake

file(MAKE_DIRECTORY "${OUT}")
set(differs_from "")
foreach(bench table2_bt_s table3_bt_w table4_bt_a table6_sp table8_lu
              fig_transitions)
  set(golden "${DATA}/paper_tables/${bench}.out")
  set(result "${OUT}/${bench}.out")
  execute_process(COMMAND "${BENCH_DIR}/${bench}"
                  OUTPUT_FILE "${result}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${rc}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                  "${result}" "${golden}" RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND differs_from "${bench}")
  endif()
endforeach()
if(differs_from)
  message(FATAL_ERROR "output differs from the golden in ${DATA}/paper_tables "
                      "for: ${differs_from} (see ${OUT})")
endif()
