# End-to-end smoke test of stj_cli, driven by ctest:
#   generate -> april -> relate -> join (find-relation and predicate modes),
#   plus the malformed-input exit paths (strict vs permissive loading,
#   aprilcheck, distinct exit codes).
# Invoked as: cmake -DCLI=<path-to-stj_cli> -DWORK=<scratch-dir> -P cli_test.cmake

if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "pass -DCLI=... and -DWORK=...")
endif()
file(MAKE_DIRECTORY ${WORK})

function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

# Runs a command that must exit with code ${expect_rc} and whose stderr must
# match ${expect_err} (a regex; "" skips the check).
function(run_expect expect_rc expect_err)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR
            "expected exit ${expect_rc}, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT expect_err STREQUAL "" AND NOT err MATCHES "${expect_err}")
    message(FATAL_ERROR
            "stderr of ${ARGN} does not match '${expect_err}':\n${err}")
  endif()
endfunction()

# generate two small datasets
run_checked(${CLI} generate OLE ${WORK}/ole.wkt --scale=0.01 --seed=3)
run_checked(${CLI} generate OPE ${WORK}/ope.wkt --scale=0.01 --seed=3)
foreach(f ole.wkt ope.wkt)
  if(NOT EXISTS ${WORK}/${f})
    message(FATAL_ERROR "missing ${f}")
  endif()
endforeach()

# april precomputation
run_checked(${CLI} april ${WORK}/ole.wkt ${WORK}/ole.april --grid-order=10)
if(NOT EXISTS ${WORK}/ole.april)
  message(FATAL_ERROR "missing ole.april")
endif()

# relate two inline polygons
execute_process(
  COMMAND ${CLI} relate "POLYGON ((0 0, 4 0, 4 4, 0 4))"
          "POLYGON ((1 1, 2 1, 2 2, 1 2))"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "contains")
  message(FATAL_ERROR "relate failed: ${out}")
endif()

# find-relation join, and a predicate join; both methods must agree on count
execute_process(COMMAND ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt
                --method=pc --grid-order=10
                RESULT_VARIABLE rc OUTPUT_VARIABLE pc_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pc join failed")
endif()
execute_process(COMMAND ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt
                --method=st2 --grid-order=10
                RESULT_VARIABLE rc OUTPUT_VARIABLE st2_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "st2 join failed")
endif()
if(NOT pc_out STREQUAL st2_out)
  message(FATAL_ERROR "P+C and ST2 joins disagree:\n--- P+C\n${pc_out}\n--- ST2\n${st2_out}")
endif()

execute_process(COMMAND ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt
                --method=pc --predicate=inside --grid-order=10
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "predicate join failed")
endif()

# The staged batch executor is a pure scheduling layer: the batched join
# must print byte-identical links to the pair-at-a-time run above, and its
# --time-stages summary must include the stage-queue telemetry.
execute_process(COMMAND ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt
                --method=pc --grid-order=10 --batch-size=64 --queue-depth=2
                --threads=4 --time-stages
                RESULT_VARIABLE rc OUTPUT_VARIABLE batched_out
                ERROR_VARIABLE batched_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "batched join failed")
endif()
if(NOT pc_out STREQUAL batched_out)
  message(FATAL_ERROR "batched join diverged from pair-at-a-time:\n--- pair\n${pc_out}\n--- batched\n${batched_out}")
endif()
if(NOT batched_err MATCHES "\\[join\\] stages: filter" OR
   NOT batched_err MATCHES "\\[join\\] batch queue: .* batches .*max depth")
  message(FATAL_ERROR "batched --time-stages summary missing queue telemetry:\n${batched_err}")
endif()

# ---- out-of-core sharded join ----

# Splits a stdout capture into a sorted line list (the sharded join prints
# links sorted by (r, s); the in-memory join prints them in candidate order,
# so equality is up to ordering).
function(sorted_lines text out_var)
  string(REPLACE "\n" ";" lines "${text}")
  list(SORT lines)
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

# The sharded join under a deliberately tiny cache budget must emit exactly
# the links of the in-memory join, and its --time-stages run must surface
# both the shard telemetry and the decoded-record cache counters (the
# sharded path reads compressed APRIL, so the decoded cache engages).
execute_process(COMMAND ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt
                --method=pc --grid-order=10 --shard-dir=${WORK}/shards
                --shard-cache-mb=1 --threads=2 --time-stages
                RESULT_VARIABLE rc OUTPUT_VARIABLE shard_out
                ERROR_VARIABLE shard_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharded join failed (${rc}):\n${shard_err}")
endif()
sorted_lines("${pc_out}" pc_sorted)
sorted_lines("${shard_out}" shard_sorted)
if(NOT pc_sorted STREQUAL shard_sorted)
  message(FATAL_ERROR "sharded join diverged from in-memory join:\n--- in-memory\n${pc_out}\n--- sharded\n${shard_out}")
endif()
if(NOT shard_err MATCHES "\\[shard\\] .*/r: .* tiles" OR
   NOT shard_err MATCHES "tasks, .* loads / .* hits")
  message(FATAL_ERROR "sharded join missing shard telemetry:\n${shard_err}")
endif()
# Geometry is decoded lazily, only for pairs that reach refinement; the
# [shard] line reports how much was decoded.
if(NOT shard_err MATCHES "\\[shard\\] .*tasks, .* [0-9]+ objects / [0-9]+ vertices decoded")
  message(FATAL_ERROR "sharded join missing decode telemetry:\n${shard_err}")
endif()
if(NOT shard_err MATCHES "\\[join\\] decoded cache: .* hits / .* misses")
  message(FATAL_ERROR "sharded --time-stages missing decoded-cache stats:\n${shard_err}")
endif()

# aprilcheck understands shard manifests: the directory and the manifest
# path both route to the shard-set audit.
run_expect(0 "shard set, .* 0 corrupt" ${CLI} aprilcheck ${WORK}/shards/r)
run_expect(0 "shard set, .* 0 corrupt"
           ${CLI} aprilcheck ${WORK}/shards/s/manifest.stj)

# Shard corruption is a distinct failure class: exit 11, naming the tile.
file(APPEND ${WORK}/shards/r/tile_000000.shard "garbage past the layout")
run_expect(11 "tile 0:" ${CLI} aprilcheck ${WORK}/shards/r)

# Predicate mode is not sharded — find-relation only; exit 2 (usage).
run_expect(2 "predicate"
           ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt --predicate=inside
           --shard-dir=${WORK}/shards2)

# ---- malformed-input exit paths ----

# A dataset with one good line, one parse error, one repairable line
# (duplicated consecutive vertex), and one unrepairable line (zero area).
file(WRITE ${WORK}/dirty.wkt
"POLYGON ((0 0, 4 0, 4 4, 0 4))
POLYGON ((0 zero, 1 0, 1 1))
POLYGON ((10 10, 12 10, 12 10, 12 12, 10 12))
POLYGON ((5 5, 6 6, 5 5, 6 6))
")

# Strict load: exit 4 (bad data), message names file, line 2, and the offset.
file(REMOVE ${WORK}/dirty.april)  # scratch dir is reused across runs
run_expect(4 "dirty.wkt:2.*expected"
           ${CLI} april ${WORK}/dirty.wkt ${WORK}/dirty.april)
if(EXISTS ${WORK}/dirty.april)
  message(FATAL_ERROR "strict load must not produce an output file")
endif()

# Permissive load: succeeds on the clean remainder and reports the triage.
run_expect(0 "1 repaired, 2 skipped"
           ${CLI} april ${WORK}/dirty.wkt ${WORK}/dirty.april --permissive)
if(NOT EXISTS ${WORK}/dirty.april)
  message(FATAL_ERROR "permissive load must produce an output file")
endif()

# Missing input file: exit 3 (I/O), message names the file.
run_expect(3 "no_such_file.wkt"
           ${CLI} april ${WORK}/no_such_file.wkt ${WORK}/x.april)

# Inline WKT parse error: exit 4 with a byte offset.
run_expect(4 "@byte" ${CLI} relate "POLYGON ((0 0, 1 0" "POINT (1 1)")

# Unknown method / predicate names: exit 5.
run_expect(5 "unknown method"
           ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt --method=warp)
run_expect(5 "unknown predicate"
           ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt --predicate=touches-ish)

# Unknown flag: exit 2 (usage).
run_expect(2 "unknown flag"
           ${CLI} join ${WORK}/ole.wkt ${WORK}/ope.wkt --frobnicate)

# aprilcheck: healthy file passes, garbage and truncated headers are
# structural errors (exit 4).
run_expect(0 "0 corrupt" ${CLI} aprilcheck ${WORK}/ole.april)

# ---- codec variants ----

# Every codec round-trips through aprilcheck cleanly; the blocked (version 3)
# file additionally passes the deep codec audit.
run_checked(${CLI} april ${WORK}/ole.wkt ${WORK}/ole_compact.april
            --grid-order=10 --codec=compact)
run_expect(0 "version 2 \\(compressed\\)"
           ${CLI} aprilcheck ${WORK}/ole_compact.april)
run_checked(${CLI} april ${WORK}/ole.wkt ${WORK}/ole_blocked.april
            --grid-order=10 --codec=blocked)
run_expect(0 "version 3 \\(blocked\\).*0 corrupt, 0 codec-corrupt"
           ${CLI} aprilcheck ${WORK}/ole_blocked.april)

# Unknown codec name: exit 5.
run_expect(5 "unknown codec"
           ${CLI} april ${WORK}/ole.wkt ${WORK}/x.april --codec=zip)
file(WRITE ${WORK}/garbage.april "this is not an april file at all")
run_expect(4 "bad magic" ${CLI} aprilcheck ${WORK}/garbage.april)
file(WRITE ${WORK}/short.april "APRL")
run_expect(4 "too short" ${CLI} aprilcheck ${WORK}/short.april)

message(STATUS "stj_cli end-to-end test passed")
