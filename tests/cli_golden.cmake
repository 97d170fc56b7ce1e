# Byte goldens of the kcoup CLI.  Each case reruns one command line in a
# fresh directory and either compares its stdout with
# tests/data/cli/<case>.out (the `cli_` prefix dropped), or checks that the
# line is refused with the exact exit code and last stderr line.
#
#   cmake -DKCOUP=<kcoup> -DDATA=<tests/data> -DOUT=<dir> -DCASE=<case>
#         [-DREGEN=1] -P cli_golden.cmake
#
# REGEN=1 rewrites a stdout golden instead of comparing it.  Regenerate
# only for an intended output change, and say so.  Wall-clock rows (the
# campaign metrics table's "... s" lines) are filtered out before the
# compare; every other byte is pinned.

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

# Runs kcoup with ARGN in OUT and fails unless it exits with `want_rc`.
function(run want_rc)
  execute_process(COMMAND "${KCOUP}" ${ARGN} WORKING_DIRECTORY "${OUT}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc
                  TIMEOUT 60)
  string(JOIN " " line ${ARGN})
  if(NOT rc STREQUAL want_rc)
    message(FATAL_ERROR "kcoup ${line}\nexited with ${rc}, want ${want_rc}\n"
                        "stderr:\n${err}")
  endif()
  set(stdout "${out}" PARENT_SCOPE)
  set(stderr "${err}" PARENT_SCOPE)
  set(line "${line}" PARENT_SCOPE)
endfunction()

# A refused line: exit code `want_rc` and `want_err` as the last stderr line.
function(refused want_rc want_err)
  run(${want_rc} ${ARGN})
  string(REGEX REPLACE "\n$" "" err "${stderr}")
  string(REGEX MATCH "[^\n]*$" last "${err}")
  if(NOT last STREQUAL want_err)
    message(FATAL_ERROR "kcoup ${line}\nlast stderr line:\n  ${last}\n"
                        "want:\n  ${want_err}")
  endif()
endfunction()

set(golden TRUE)
set(campaign_cell --apps bt --classes S --procs 4)
if(CASE STREQUAL "cli_help")
  run(0 help)
elseif(CASE STREQUAL "cli_machines")
  run(0 machines)
elseif(CASE STREQUAL "cli_study")
  run(0 study --app sp --class W --procs 4,9 --chains 2,4 --csv sp_w)
elseif(CASE STREQUAL "cli_transitions")
  run(0 transitions --sizes 8,16)
elseif(CASE STREQUAL "cli_reuse")
  run(0 reuse --app bt --class W --donor 4 --targets 9,16 --chains 2)
elseif(CASE STREQUAL "cli_parallel")
  run(0 parallel --app bt --n 12 --procs 4 --chains 2,3)
elseif(CASE STREQUAL "cli_campaign_db")
  run(0 campaign --apps bt,sp --classes S --procs 4,5,9 --chains 2,3 --serial
        --db store.csv --metrics-csv metrics.csv --metrics-jsonl metrics.jsonl)
  string(REGEX REPLACE "[^\n]* s *\n" "" stdout "${stdout}")
elseif(CASE STREQUAL "cli_merge")
  foreach(id 0 1)
    run(0 campaign --apps bt --classes S,W --procs 4,9 --chains 2,3
          --shards 2 --shard-id ${id} --journal-dir shards --quiet)
  endforeach()
  run(0 merge shards --out merged.csv)
elseif(CASE STREQUAL "cli_pack")
  file(COPY "${DATA}/npb_campaign.csv" DESTINATION "${OUT}")
  run(0 pack npb_campaign.csv -o npb.kcs)
elseif(CASE STREQUAL "cli_pack_verify")
  file(COPY "${DATA}/golden.kcs" DESTINATION "${OUT}")
  run(0 pack --verify golden.kcs)
elseif(CASE STREQUAL "cli_fit")
  file(COPY "${DATA}/npb_campaign.csv" DESTINATION "${OUT}")
  run(0 fit npb_campaign.csv)
else()
  set(golden FALSE)
  if(CASE STREQUAL "cli_rejects_bad_flag")
    refused(1 "kcoup study: unknown flag --bogus"
            study --app bt --class W --bogus 1)
  elseif(CASE STREQUAL "cli_rejects_bad_app")
    refused(1 "kcoup study: unknown app 'xx' (use bt/sp/lu)"
            study --app xx --class W)
  elseif(CASE STREQUAL "cli_serve_requires_db")
    refused(1 "kcoup serve: missing required --db" serve)
  elseif(CASE STREQUAL "cli_campaign_rejects_empty")
    refused(1 "kcoup campaign: campaign: no valid (app, class, procs) cells"
            campaign --apps bt --classes S --procs 5)
  elseif(CASE STREQUAL "cli_fit_packed_rejects_no_models")
    # A packed snapshot carries the models it was packed with, so fit must
    # refuse --no-models/--machine on it instead of ignoring them.
    refused(1 "kcoup fit: --no-models/--machine apply only to a CSV database"
            fit "${DATA}/golden.kcs" --json --no-models)
  elseif(CASE STREQUAL "kcoup_cli_fault_exit_code")
    # A campaign that completes with failures exits 3.
    refused(3 "campaign incomplete: 13 of 13 tasks failed; affected values are reported as nan"
            campaign ${campaign_cell} --chains 2 --serial --quiet
            --retry-max 1 --fault-construct-rate 1 --fault-seed 1)
  elseif(CASE STREQUAL "kcoup_cli_rejects_zero_workers")
    refused(1 "kcoup campaign: --workers must be >= 1, got 0"
            campaign ${campaign_cell} --workers 0)
  elseif(CASE STREQUAL "kcoup_cli_rejects_negative_procs")
    refused(1 "kcoup campaign: --procs must be >= 1, got -4"
            campaign --apps bt --classes S --procs -4)
  elseif(CASE STREQUAL "kcoup_cli_rejects_garbage_int")
    refused(1 "kcoup parallel: bad integer for --n: '12x'"
            parallel --app bt --n 12x --procs 4)
  elseif(CASE STREQUAL "kcoup_cli_rejects_shard_id_out_of_range")
    refused(1 "kcoup campaign: --shard-id must be in [0, 2], got 3"
            campaign ${campaign_cell} --shards 3 --shard-id 3
            --journal-dir shards.d)
  elseif(CASE STREQUAL "kcoup_cli_rejects_db_in_shard_mode")
    refused(1 "kcoup campaign: --db cannot be combined with --shards; `kcoup merge --out` records the database once all shards are joined"
            campaign ${campaign_cell} --shards 2 --shard-id 0
            --journal-dir shards.d --db store.csv)
  elseif(CASE STREQUAL "kcoup_cli_stats_refused")
    # Port 1 is never listening in CI: one line naming host:port.
    refused(1 "kcoup stats: client: cannot connect to 127.0.0.1:1: Connection refused"
            stats --host 127.0.0.1 --port 1)
  # Ports and counts that used to wrap: 70000 served on 4464, -1 on 65535,
  # a negative --max-inflight lifted the 429 limit, a negative
  # --max-requests never stopped, and --fault-seed -1 read as 2^64 - 1.
  # The serve lines name a store that does not exist, which the flags are
  # refused before.
  elseif(CASE STREQUAL "kcoup_cli_rejects_serve_port_out_of_range")
    refused(1 "kcoup serve: --port must be in [0, 65535], got 70000"
            serve --db missing.csv --port 70000)
  elseif(CASE STREQUAL "kcoup_cli_rejects_negative_serve_port")
    refused(1 "kcoup serve: --port must be in [0, 65535], got -1"
            serve --db missing.csv --port -1)
  elseif(CASE STREQUAL "kcoup_cli_rejects_query_port_out_of_range")
    refused(1 "kcoup query: --port must be in [0, 65535], got 70000"
            query --port 70000 --app bt --class S)
  elseif(CASE STREQUAL "kcoup_cli_rejects_negative_max_inflight")
    refused(1 "kcoup serve: --max-inflight must be >= 0, got -1"
            serve --db missing.csv --max-inflight -1)
  elseif(CASE STREQUAL "kcoup_cli_rejects_negative_max_requests")
    refused(1 "kcoup serve: --max-requests must be >= 0, got -5"
            serve --db missing.csv --max-requests -5)
  elseif(CASE STREQUAL "kcoup_cli_rejects_negative_fault_seed")
    refused(1 "kcoup campaign: bad integer for --fault-seed: '-1'"
            campaign ${campaign_cell} --serial --fault-seed -1)
  # A flag accepts nothing its spec key refuses (retry_rsd = -1 was refused,
  # --retry-rsd -1 retried every task), and no double flag reads nan, inf
  # or hex.
  elseif(CASE STREQUAL "kcoup_cli_rejects_negative_retry_rsd")
    refused(1 "kcoup campaign: --retry-rsd must be >= 0, got -1"
            campaign ${campaign_cell} --serial --retry-rsd -1)
  elseif(CASE STREQUAL "kcoup_cli_rejects_nan_retry_rsd")
    refused(1 "kcoup campaign: bad number for --retry-rsd: 'nan'"
            campaign ${campaign_cell} --serial --retry-rsd nan)
  elseif(CASE STREQUAL "kcoup_cli_rejects_hex_rate")
    refused(1 "kcoup campaign: bad number for --fault-noise-rate: '0x1p-1'"
            campaign ${campaign_cell} --serial --fault-noise-rate 0x1p-1)
  elseif(CASE STREQUAL "kcoup_cli_rejects_infinite_steal_after")
    refused(1 "kcoup campaign: bad number for --steal-after-s: 'inf'"
            campaign ${campaign_cell} --shards 2 --shard-id 1
            --journal-dir shards.d --steal-after-s inf)
  elseif(CASE STREQUAL "kcoup_cli_rejects_zero_campaign_chains")
    refused(1 "kcoup campaign: --chains must be >= 1, got 0"
            campaign ${campaign_cell} --serial --chains 0)
  # A chain length given twice measured and printed every coupling twice.
  elseif(CASE STREQUAL "kcoup_cli_rejects_repeated_study_chains")
    refused(1 "kcoup study: plan_campaign: chain length 2 given twice"
            study --app bt --class S --procs 4 --chains 2,2)
  elseif(CASE STREQUAL "kcoup_cli_rejects_repeated_campaign_chains")
    refused(1 "kcoup campaign: plan_campaign: chain length 2 given twice"
            campaign ${campaign_cell} --serial --chains 2,2)
  elseif(CASE STREQUAL "kcoup_cli_rejects_repeated_parallel_chains")
    refused(1 "kcoup parallel: run_parallel_study: chain length 2 given twice"
            parallel --app bt --n 12 --procs 4 --chains 2,2)
  # query sent the same predicts twice and printed every row twice.
  elseif(CASE STREQUAL "kcoup_cli_rejects_repeated_query_chains")
    refused(1 "kcoup query: chain length 2 given twice"
            query --port 1 --app bt --class S --chains 2,2)
  # A rank count given twice: study measured the cell twice and printed
  # every column twice, query sent the same predicts twice, and campaign
  # counted two studies.
  elseif(CASE STREQUAL "kcoup_cli_rejects_repeated_study_procs")
    refused(1 "kcoup study: rank count 4 given twice"
            study --app bt --class S --procs 4,4)
  elseif(CASE STREQUAL "kcoup_cli_rejects_repeated_query_procs")
    refused(1 "kcoup query: rank count 4 given twice"
            query --port 1 --app bt --class S --procs 4,4)
  elseif(CASE STREQUAL "kcoup_cli_rejects_repeated_campaign_procs")
    refused(1 "kcoup campaign: rank count 4 given twice"
            campaign --apps bt --classes S --procs 4,4 --serial)
  # SquareDecomp's square search overflowed int for INT_MAX and never
  # returned.
  elseif(CASE STREQUAL "kcoup_cli_rejects_int_max_square_procs")
    refused(1 "kcoup study: SquareDecomp: rank count must be square"
            study --app bt --class S --procs 2147483647)
  # The timed path ran grids its numeric ports refuse, and ranks without
  # grid points.  It starts a thread per rank, so these stay at P <= 16.
  elseif(CASE STREQUAL "kcoup_cli_rejects_timed_bt_grid_too_small")
    refused(1 "kcoup parallel: BT: grid too small"
            parallel --app bt --n 1 --procs 16)
  elseif(CASE STREQUAL "kcoup_cli_rejects_timed_sp_grid_too_small")
    refused(1 "kcoup parallel: SP: grid too small"
            parallel --app sp --n 3 --procs 4)
  elseif(CASE STREQUAL "kcoup_cli_rejects_timed_empty_ranks")
    refused(1 "kcoup parallel: LU: n = 3 leaves ranks of P = 16 without grid points"
            parallel --app lu --n 3 --procs 16)
  # merge ignored DIR when --journal-dir was also given; top polled zero
  # times for a negative --count.
  elseif(CASE STREQUAL "kcoup_cli_rejects_merge_dir_and_journal_dir")
    refused(1 "kcoup merge: give the journal directory once: DIR or --journal-dir, not both"
            merge nodir --journal-dir sh0)
  # merge with no directory named its command twice.
  elseif(CASE STREQUAL "kcoup_cli_rejects_merge_without_dir")
    refused(1 "kcoup merge: journal directory required (kcoup merge DIR)"
            merge)
  elseif(CASE STREQUAL "kcoup_cli_rejects_negative_top_count")
    refused(1 "kcoup top: --count must be >= 0, got -1"
            top --port 1 --count -1)
  # The app names query and the server accept: BT as well as bt.
  elseif(CASE STREQUAL "kcoup_cli_study_accepts_upper_case_app")
    run(0 study --app BT --class S --procs 4)
  elseif(CASE STREQUAL "kcoup_cli_campaign_accepts_upper_case_apps")
    run(0 campaign --apps BT --classes S --procs 4 --serial --quiet)
  else()
    message(FATAL_ERROR "unknown CASE '${CASE}'")
  endif()
endif()

if(golden)
  string(REGEX REPLACE "^cli_" "" stem "${CASE}")
  set(expected "${DATA}/cli/${stem}.out")
  if(REGEN)
    file(WRITE "${expected}" "${stdout}")
  else()
    file(WRITE "${OUT}/stdout" "${stdout}")
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                    "${OUT}/stdout" "${expected}" RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(FATAL_ERROR "${OUT}/stdout differs from the golden ${expected}")
    endif()
  endif()
endif()
