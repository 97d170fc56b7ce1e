# Golden pin of the modeled NPB pipeline: reruns one campaign and one fit
# and compares their bytes with the files in tests/data, which these
# commands wrote:
#
#   kcoup campaign --apps bt,sp,lu --classes S,W --procs 1,4,16,64 \
#     --chains 2,3 --serial --quiet --db npb_campaign.csv
#   kcoup fit npb_campaign.csv --json > npb_fit.json
#
# The campaign pins the machine model's pricing; the fit, run on the
# committed CSV, pins the model search (14 of its 15 kernels split).
#
#   cmake -DKCOUP=<kcoup> -DDATA=<tests/data> -DOUT=<dir> -DSTEP=campaign|fit
#         -P npb_golden.cmake

file(MAKE_DIRECTORY "${OUT}")
if(STEP STREQUAL "campaign")
  set(golden "${DATA}/npb_campaign.csv")
  set(result "${OUT}/npb_campaign.csv")
  file(REMOVE "${result}")  # an existing database would serve cache hits
  execute_process(
    COMMAND "${KCOUP}" campaign --apps bt,sp,lu --classes S,W
            --procs 1,4,16,64 --chains 2,3 --serial --quiet --db "${result}"
    OUTPUT_QUIET RESULT_VARIABLE rc)
elseif(STEP STREQUAL "fit")
  set(golden "${DATA}/npb_fit.json")
  set(result "${OUT}/npb_fit.json")
  execute_process(
    COMMAND "${KCOUP}" fit "${DATA}/npb_campaign.csv" --json
    OUTPUT_FILE "${result}" RESULT_VARIABLE rc)
else()
  message(FATAL_ERROR "STEP must be campaign or fit, got '${STEP}'")
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kcoup ${STEP} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${result}" "${golden}" RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${result} differs from the golden ${golden}")
endif()
