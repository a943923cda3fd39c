#!/bin/sh
# ci.sh — the tier-1 gate for this repository.
#
# Every change must pass this script before it lands. It runs, in order:
#   1. gofmt -l      (formatting)
#   2. go vet        (static checks)
#   3. go build      (everything compiles, including examples and cmds)
#   3b. examples     (every examples/* program runs to a zero exit status)
#   4. go test       (full unit/integration suite, includes the
#                     Workers ∈ {1,2,4} determinism cross-check)
#   5. go test -race (whole module under the race detector; the parallel
#                     window protocol must be data-race free)
#   6. differential harness (500 random MPI workloads of 2-8 ranks and
#                     40 of 24-128 ranks under -race,
#                     sequential vs Workers ∈ {2,4}, engine/MPI invariants
#                     enabled, including box conservation: a clean run
#                     must end with every partition's payload-box table
#                     free, each slot freed once, so no handle is lost or
#                     released twice; payload digests double as a check
#                     that data-plane pooling never leaks one message's
#                     bytes into another)
#   6b. driver equivalence (500 random MPI workloads, and 40 wide ones,
#                     under -race, closure
#                     vs program mode: both run the same step machines,
#                     one through Env.Block and one stepped by the
#                     scheduler, and their digests must agree; then the
#                     replicated stencil of the replication crossover,
#                     one Prog run through Sim.RunProgs and through
#                     Env.RunProg at Workers 1 and 2, degrees 2 and 3,
#                     with no failure, failover and replica-group
#                     exhaustion plus its restart, which must agree rank
#                     for rank; the goldens, twin tests and message-path
#                     tests that pin each side already ran under -race
#                     in 5)
#   7. fuzz smoke     (10s of coverage-guided fuzzing for every Fuzz*
#                     target of every package, found with go test -list,
#                     so a new target joins without an edit here: the
#                     parsing surfaces, the file-name/key round trip of
#                     the simulated file system, the MPI layer's intrusive
#                     list and its per-source queue index (across the move
#                     to a dense table) against slice models, the rank-list codec
#                     of ULFM's Shrink, and the replication layer's vote
#                     against a brute-force model;
#                     checked-in corpora already ran as regressions in 4)
#   8. BenchmarkHandoff allocation gate (the context-switch hot path, a
#                     coroutine switch each way between the partition
#                     worker and the VP's carrier, must stay at 0 allocs/op
#                     — Validate must cost nothing when off)
#                     and BenchmarkParallelFanIn round gate (one partition
#                     consuming a 4,095-event fan-in alone must finish it
#                     in one window: 6 rounds/op over 2 workers, where a
#                     window bounded by the global minimum takes 8,196)
#                     and BenchmarkRecord allocation gate (a trace event
#                     recorded into a full shard ring overwrites in place:
#                     0 allocs/op on the path every traced run takes once
#                     the bounded buffer has wrapped)
#   8b. BenchmarkPingPong and BenchmarkAllreduce allocation gates (the MPI
#                     data plane recycles envelopes/requests/payload
#                     buffers, point-to-point and through the collective
#                     hops; a regression that reintroduces per-message
#                     allocation fails here)
#   8c. bytes-per-VP budget gate (a 256k-rank program-mode world must
#                     stay within 469 bytes of resident memory per virtual
#                     process after one exchange step — the paper's
#                     oversubscription scaling dimension — and a 64k-rank
#                     closure-mode world within 1,463 bytes once its ranks
#                     have finished when it is the process's first, and
#                     within 451 when one of its size ran before it, which
#                     a closure-mode Env that crosses a size class fails)
#   8d. checkpointing-workload memory gate (the full Table II loop in
#                     program mode at 256k ranks must stay within 2,024
#                     bytes at the halo burst, 2,218 bytes mid-run and 683
#                     bytes of live memory after, per virtual process)
#   8e. BenchmarkHaloBurst mallocs-per-message gate (16,384 ranks post
#                     a six-neighbour exchange at one virtual instant: a
#                     message matched on arrival is a 64-byte,
#                     pointer-free queue slot and one pooled request,
#                     never five heap objects again)
#   8f. closure carrier stack gate (16,384 closure-mode ranks exchanging
#                     halos on the paper's torus: every rank's carrier
#                     coroutine stack must stay at 4 KiB, which a frame
#                     added on the send path to the event queue, or a
#                     wrapper around the coroutine body, would double;
#                     Ctx.Emit takes its 64-byte Event by value, so the
#                     event's size is part of that path's frames)
#   8g. BenchmarkCheckpointCycle allocation gate (one rank's full and
#                     incremental write of a tiered checkpoint, each with
#                     the delete of the previous one, and its restart probe
#                     and restore: a file name formatted per call or a map
#                     entry per file that comes back fails here)
#   9. campaign-service smoke (a -race build of xsim-server on a
#                     directory result store serves one campaign per
#                     kind, each result bit-for-bit the CLI's
#                     `xsim-run -campaign` output, and for table2 also
#                     the output of the same campaign spelled as
#                     `xsim-run table2 <flags> -json`: three transports,
#                     one byte string; resubmission is a cache hit with
#                     zero new simulations per /metrics; SIGTERM drains
#                     and exits cleanly; after table1's stored entry is
#                     truncated to zero bytes, a server restarted on the
#                     same directory answers table2 from its cache with
#                     no simulation, and re-runs table1 — one simulation —
#                     to the CLI's bytes again)
#  10. clock-overflow outcome (testdata/clock-overflow.json passes Validate
#                     but its call overhead carries the clocks past the
#                     end of virtual time: `xsim-run -campaign` must exit 1
#                     with the typed clock-overflow error, and must not
#                     report a deadlock)
#  11. mutant kill list (each testdata/mutants/*.patch is a seeded defect:
#                     the checks it names, tests or the footprint gates of
#                     8c, must fail on it, so Validate and the gates are
#                     shown to still fire; the whole list takes well under
#                     2 minutes)
set -eu

cd "$(dirname "$0")"

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== examples (each runs to a zero exit status)"
for ex in examples/*/; do
	echo "-- $ex"
	go run "./$ex" >/dev/null
done

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== differential harness (500 seeds, Validate on, -race)"
XSIM_DIFF_SEEDS=500 go test -race -count=1 -run '^TestDifferentialSeqVsParallel$' ./internal/mpitest/
# The same sweep on 24- to 128-rank worlds with linear collectives, whose
# fan-in roots move their matching queues to dense tables.
XSIM_WIDE_SEEDS=40 go test -race -count=1 -run '^TestWideDifferentialSeqVsParallel$' ./internal/mpitest/

echo "== driver equivalence (closure vs prog digests, 500 seeds, -race)"
# Closure and program mode run one set of step machines through two
# drivers, and must be observationally identical: the differential harness
# runs all 500 random workloads both ways (Workers in {1,2,4}; the
# override is honoured unclamped) and compares digests.
XSIM_DIFF_SEEDS=500 go test -race -count=1 -run '^TestDifferentialClosureVsProg$' ./internal/mpitest/
XSIM_WIDE_SEEDS=40 go test -race -count=1 -run '^TestWideDifferentialClosureVsProg$' ./internal/mpitest/
# The replicated stencil runs on the redundancy layer's step forms: one
# Prog through both drivers, rank for rank.
go test -race -count=1 -run '^TestReplicatedStencilDriversAgree$' .

echo "== fuzz smoke (10s per target)"
# -fuzz takes one package and one target per run, so list them first.
for pkg in $(go list ./...); do
	listed=$(go test -list '^Fuzz' "$pkg")
	for target in $(printf '%s\n' "$listed" | grep '^Fuzz' || true); do
		echo "-- $pkg $target"
		go test -run '^$' -fuzz "^$target\$" -fuzztime 10s "$pkg"
	done
done

# bench_gate <pkg> <bench-regex> <units> <maxes> <expected-rows> [benchtime]
# runs the benchmarks matching the regex once and fails when any row
# reports more than the i-th of the comma-separated <maxes> of the i-th of
# the comma-separated <units>, or when the number of rows that ran differs
# from <expected-rows> (a renamed benchmark must not pass by vanishing).
bench_gate() {
	bench=$(go test -run '^$' -bench "$2" -benchmem -benchtime "${6:-1x}" "$1")
	echo "$bench"
	echo "$bench" | awk -v units="$3" -v maxes="$4" -v want="$5" -v re="$2" '
		BEGIN { n = split(units, unit, ","); split(maxes, max, ",") }
		/^Benchmark/ {
			rows++
			for (i = 2; i <= NF; i++) {
				for (u = 1; u <= n; u++) {
					if ($i == unit[u] && $(i-1) + 0 > max[u] + 0) {
						print "FAIL: " $1 " reports " $(i-1) " " unit[u] ", want <= " max[u] > "/dev/stderr"
						exit 1
					}
				}
			}
		}
		END { if (rows != want) { print "FAIL: " rows + 0 " rows matched " re ", want " want > "/dev/stderr"; exit 1 } }
	'
}

echo "== BenchmarkHandoff allocation gate"
bench_gate ./internal/core/ '^BenchmarkHandoff$' allocs/op 0 1 1000x

echo "== BenchmarkParallelFanIn round gate"
# The count is exact (a deterministic run, not a timing): 3 rounds on each
# of 2 partitions since a window ends one lookahead past its partition's
# own first cross-partition send. Bounded by the global minimum instead,
# it was 2 per fan-in event, 8,196, growing with the rank count.
bench_gate ./internal/core/ '^BenchmarkParallelFanIn$' rounds/op 6 1 1x

echo "== BenchmarkRecord allocation gate"
# 100000 records run far past the shard's 4,096-event ring, so the
# overwrite path dominates; at 1000x the ring never fills and only the
# appends are measured.
bench_gate ./internal/trace/ '^BenchmarkRecord$' allocs/op 0 1 100000x

echo "== BenchmarkPingPong allocation gate"
# Pre-pooling the round-trip cost 20 (eager) / 26 (rendezvous) allocs/op;
# the pooled data plane ran at 6/6, 2/2 once blocking waits ran on the
# per-process step state, and 0/0 since the handler context is passed by
# value. Gate at half the old numbers so noise cannot flake the build but a
# real regression cannot hide.
bench_gate ./internal/mpi/ '^BenchmarkPingPong$/^eager$' allocs/op 10 1 1000x
bench_gate ./internal/mpi/ '^BenchmarkPingPong$/^rendezvous$' allocs/op 13 1 1000x

echo "== BenchmarkAllreduce allocation gate"
# The collective hop path: every fan of every collective posts through one
# send hop and one receive hop. 16 ranks ran at 39 allocs/op when 47 was
# chosen (half an allocation per rank of slack) and run at 16 now, so a
# give/take hook that starts capturing, or a payload built again on every
# resume, still fails here.
bench_gate ./internal/mpi/ '^BenchmarkAllreduce$' allocs/op 47 1 1000x

echo "== bytes-per-VP budget gate (program mode, 256k ranks; closure mode, 64k ranks)"
# PR 6 carried the residual cost of one virtual process from ~2.3 KB to
# under 1 KB (bounded carriers + program VPs + slimmed per-process MPI
# state), and the gate sat at 1024 bytes/vp. The row then read ~794, and
# 690 once a rank's rarely used MPI state moved behind one lazily
# allocated record and its match keys became 32-bit (its bundle 416 ->
# 320 bytes, its posted-receive block 208 -> 160); it is gated at that
# + 10 %, so a regression that reintroduces a per-VP map, goroutine, or
# unbounded pool, or a field that crosses a size class, fails loudly.
# It read 655 once the bundle fitted the 288-byte class, and 627 since a
# rank's MPI state is one Env holding its world communicator (240 bytes,
# 256 with its program), and 555 or 426 from run to run once the engine's
# slab entry was 160 bytes (232 before) and a request 96 (112): one
# collection before each read left the event-chunk pool's victim cache
# live in some runs. Read after two collections, it is 425.9-426.3 in
# eight runs; the gate is that + 10 %. A 64-byte pad on the program-mode
# rank (testdata/mutants/progenv-pad.patch) reads 489 and fails it (step 11).
gate_prog_bytes() {
	bench_gate ./internal/mpi/ '^BenchmarkBytesPerVP/prog/ranks=262144$' bytes/vp 469 1
}
gate_prog_bytes
# The closure-mode rows measure what finished ranks keep. The cold row is
# the first closure world in the process: ~920 of its bytes per rank are
# goroutine descriptors and stacks the runtime keeps for reuse. It read
# 1,511 with the 264-byte bundle in the 288-byte class, 1,467 with the
# 240-byte Env and 1,395 with the 160-byte engine slab entry, after one
# collection, and reads 1,328-1,329 after two. The warm row builds the same
# world again after one of its size has finished, so it is the Envs and
# engine VPs alone and sees the Env's size class, which nothing else
# gates: 408.4-409.5, and 488 with a 64-byte pad on the Env
# (testdata/mutants/env-pad.patch, step 11). Each is gated at its reading
# + 10 %.
bench_gate ./internal/mpi/ '^BenchmarkBytesPerVP/closure-cold/ranks=65536$' bytes/vp 1463 1
gate_closure_warm_bytes() {
	bench_gate ./internal/mpi/ '^BenchmarkBytesPerVP/closure-warm/ranks=65536$' bytes/vp 451 1
}
gate_closure_warm_bytes

echo "== checkpointing-workload memory gate (program mode, 256k ranks)"
# The full Table II loop (halo exchange + checkpoint + barrier every other
# iteration) at 256k ranks, gated twice from one run. The mid-run sample
# (bytes/vp) is taken between checkpoint rounds, with every other rank
# parked in the barrier and the halo exchange drained: per-rank state that
# sets how large a world fits on one host. It read 5,619 with 200-byte
# requests and an event queue that copied itself to grow, 3,532 with a
# pooled request per eager send, 2,700 since those share one, and 2,268
# since a heat rank is one 288-byte runner object beside a 320-byte MPI
# bundle and a 160-byte posted-receive block (1,168 bytes in seven
# objects before). The halo burst itself (burst-bytes/vp: each rank's six
# live requests and six queued messages) read 2,101. What is left once the
# run completes (retained-bytes/vp) read ~853 and then 760. With the MPI
# bundle at 288 bytes the three read 2,242, 2,067 and 725, with the Env at
# 256 bytes 2,213, 2,038 and 693, and with the engine's slab entry at 160
# bytes, a request at 96 and the heat runner at 256, 2,016, 1,840 and 621.
# Each is gated at its reading + 10 %.
bench_gate ./internal/heat/ '^BenchmarkHeatCkptBytesPerVP/prog/ranks=262144$' retained-bytes/vp,bytes/vp,burst-bytes/vp 683,2218,2024 1

echo "== BenchmarkHaloBurst mallocs-per-message gate"
# The parent of the by-value event queue read 4.2 here (request, request,
# envelope, event, message header, per message); a message matched on
# arrival now allocates nothing but what its requests miss in the pool,
# and the run reads 0.23. 2.5 fails the build if any one of the three
# objects comes back per message.
bench_gate ./internal/mpi/ '^BenchmarkHaloBurst$' mallocs/msg 2.5 1 1x

echo "== closure carrier stack gate (halo-16k-closure shape)"
# A closure-mode rank's carrier stack is sized by the deepest call the
# rank makes, and the send path (Isend -> Ctx.Emit -> route -> the event
# queue's push) runs 64-128 bytes short of where the runtime doubles a
# 4 KiB stack. Crossing it moves every carrier of
# halo-16k-closure to 8 KiB (StackInuse 65 -> 128 MiB, peak RSS 161 ->
# 225 MiB) and no other gate sees it. The carrier is an iter.Pull
# coroutine whose body is the carrier loop's method value; its entry
# frames sit under every rank's stack, so a closure wrapped around that
# body would spend the margin too. The row reads ~4,120 stack-bytes/vp
# and a doubled stack 8,192; the gate is 4 KiB + 10 %.
bench_gate ./internal/heat/ '^BenchmarkHaloStackPerVP/closure/ranks=16384$' stack-bytes/vp 4505 1

echo "== BenchmarkCheckpointCycle allocation gate"
# One rank writes a 1 MiB synthetic checkpoint (full) or a quarter-size
# delta (incremental) through the paper's tiered hierarchy and deletes the
# previous iteration's. With the store keyed by (set, iteration, rank) each
# round allocates the file, its header bytes and its drain list: 3
# allocs/op, gated at 4. Keyed by formatted name it was 10. The restart
# probe walks three candidates newest first and restores the delta chain it
# finds; every allocation is a copy of a 52-byte header or a chain slice
# (8 allocs/op, and 7 since the probe reads its header into a buffer on
# its stack, gated at 8), so a name or map entry per probe shows.
bench_gate ./internal/checkpoint/ '^BenchmarkCheckpointCycle$/^(full|incremental)$' allocs/op 4 2 10000x
bench_gate ./internal/checkpoint/ '^BenchmarkCheckpointCycle$/^restart-probe$' allocs/op 8 1 10000x

echo "== campaign-service smoke (server vs spec file vs flags bit-for-bit, cache hit, drain, restart over a torn entry)"
smoke_dir=$(mktemp -d)
server_pid=""
cleanup_smoke() {
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null
	rm -rf "$smoke_dir"
}
trap cleanup_smoke EXIT

go build -race -o "$smoke_dir/xsim-server" ./cmd/xsim-server
go build -o "$smoke_dir/xsim-run" ./cmd/xsim-run

addr=localhost:18462
start_server() {
	"$smoke_dir/xsim-server" -addr "$addr" -workers 2 -data "$smoke_dir/store" &
	server_pid=$!
	ok=""
	for _ in $(seq 1 100); do
		if curl -fsS "$addr/healthz" >/dev/null 2>&1; then ok=1; break; fi
		sleep 0.1
	done
	[ -n "$ok" ] || { echo "FAIL: xsim-server never became healthy" >&2; exit 1; }
}
# submit SPEC TENANT posts a spec file and leaves the response in
# $smoke_dir/submit.json and the campaign id in $id.
submit() {
	curl -fsS -X POST -H "X-Tenant: $2" --data-binary @"$1" "$addr/v1/campaigns" > "$smoke_dir/submit.json"
	id=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$smoke_dir/submit.json")
	[ -n "$id" ] || { echo "FAIL: submitting $1 returned no campaign id" >&2; exit 1; }
}
start_server

# A progress line's wire layout (what TestProgressEventWireBytes pins),
# with label, seed and error omitted when empty.
jstr='"([^"\\]|\\.)*"'
progress_line='^\{"data":\{"index":[0-9]+(,"label":'"$jstr"')?(,"seed":-?[0-9]+)?,"state":"(started|completed|failed)","attempt":1(,"error":'"$jstr"')?,"elapsed_ns":[0-9]+,"wait_ns":[0-9]+,"done":[0-9]+,"failed":[0-9]+,"total":[0-9]+\},"event":"progress"\}$'

# One cheap spec per campaign kind: the files whose outcome bytes
# TestCampaignSurfaceMatchesGolden pins.
kinds=0
for spec in testdata/surface/*.json; do
	kinds=$((kinds + 1))
	submit "$spec" ci
	if [ "$spec" = testdata/surface/table1.json ]; then
		table1_key=$(sed -n 's/.*"key": *"\([^"]*\)".*/\1/p' "$smoke_dir/submit.json")
	fi

	# The NDJSON stream must carry progress events, each in the wire layout,
	# and end at the terminal line.
	curl -fsS --no-buffer "$addr/v1/campaigns/$id/events" > "$smoke_dir/events.ndjson"
	grep -q '"event":"progress"' "$smoke_dir/events.ndjson"
	if grep '"event":"progress"' "$smoke_dir/events.ndjson" | grep -Ev "$progress_line" >&2; then
		echo "FAIL: $spec: progress line(s) above break the wire layout" >&2
		exit 1
	fi
	grep -q '"event":"done"' "$smoke_dir/events.ndjson"
	grep -q '"state":"completed"' "$smoke_dir/events.ndjson"

	# Transport equivalence: the served result must be bit-for-bit the CLI's.
	curl -fsS "$addr/v1/campaigns/$id/result" > "$smoke_dir/server-result.json"
	"$smoke_dir/xsim-run" -campaign "$spec" > "$smoke_dir/cli-$(basename "$spec")"
	cmp "$smoke_dir/server-result.json" "$smoke_dir/cli-$(basename "$spec")"
done

# The third transport: the table2 spec spelled as flags (the flag set is
# generated from the wire spec) must print the bytes its file form did.
"$smoke_dir/xsim-run" table2 -ranks 64 -seed 133 -iterations 200 -intervals 100,50 \
	-mttf-seconds 1000 -json > "$smoke_dir/flags-result.json"
cmp "$smoke_dir/cli-table2.json" "$smoke_dir/flags-result.json"

# Resubmitting the table2 spec (different tenant, extra execution knobs) is
# a cache hit that runs zero new simulations.
curl -fsS -X POST -H 'X-Tenant: ci2' --data-binary \
	'{"version":1,"kind":"table2","ranks":64,"seed":133,"workers":2,"pool":1,"table2":{"iterations":200,"intervals":[100,50],"mttf_seconds":[1000]}}' \
	"$addr/v1/campaigns" | grep -q '"cached": *true'
curl -fsS "$addr/metrics" > "$smoke_dir/metrics.txt"
grep -q "^xsim_sim_runs_total $kinds\$" "$smoke_dir/metrics.txt"
grep -q '^xsim_cache_hits_total 1$' "$smoke_dir/metrics.txt"
grep -q "^xsim_cache_misses_total $kinds\$" "$smoke_dir/metrics.txt"

# Graceful drain: SIGTERM must exit 0 (the -race build also verifies the
# shutdown path is data-race free).
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""

# Restart over a torn entry: a zero-length stored result (what a crash
# leaves of a file whose data never reached the disk) must not be served.
# The restarted server answers the untouched table2 spec from the
# directory without simulating, and re-runs table1 to the CLI's bytes.
[ -s "$smoke_dir/store/$table1_key.json" ] || { echo "FAIL: no stored table1 entry" >&2; exit 1; }
: > "$smoke_dir/store/$table1_key.json"
start_server
submit testdata/surface/table2.json ci
grep -q '"cached": *true' "$smoke_dir/submit.json"
curl -fsS "$addr/metrics" > "$smoke_dir/metrics.txt"
grep -q '^xsim_sim_runs_total 0$' "$smoke_dir/metrics.txt"
submit testdata/surface/table1.json ci
grep -q '"cached": *false' "$smoke_dir/submit.json"
curl -fsS --no-buffer "$addr/v1/campaigns/$id/events" > "$smoke_dir/events.ndjson"
grep -q '"state":"completed"' "$smoke_dir/events.ndjson"
curl -fsS "$addr/v1/campaigns/$id/result" > "$smoke_dir/server-result.json"
cmp "$smoke_dir/server-result.json" "$smoke_dir/cli-table1.json"
curl -fsS "$addr/metrics" > "$smoke_dir/metrics.txt"
grep -q '^xsim_sim_runs_total 1$' "$smoke_dir/metrics.txt"
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""

echo "== clock-overflow outcome (a spec that wraps the clock fails typed, not as a deadlock)"
if "$smoke_dir/xsim-run" -campaign testdata/clock-overflow.json > "$smoke_dir/overflow.txt" 2>&1; then
	status=0
else
	status=$?
fi
cat "$smoke_dir/overflow.txt"
[ "$status" -eq 1 ] || { echo "FAIL: clock-overflow spec exited $status, want 1" >&2; exit 1; }
grep -q 'clock overflow: rank [0-9]* at ' "$smoke_dir/overflow.txt" ||
	{ echo "FAIL: clock-overflow spec did not report the typed overflow" >&2; exit 1; }
if grep -qi deadlock "$smoke_dir/overflow.txt"; then
	echo "FAIL: clock-overflow spec reported a deadlock" >&2
	exit 1
fi

echo "== mutant kill list (every seeded defect fails the check it names)"
# Each testdata/mutants/NAME.patch is a small defect that git apply takes,
# headed by a "Kill:" line: the command, a go test run or a footprint gate
# function above, that must fail on it. The patches are applied one at a
# time to one copy of the tree (so unchanged packages stay in the build
# cache) and reverted after. A patched package's tests must still compile:
# a mutant is a wrong behaviour, not a build break.
mutants_start=$(date +%s)
repo=$(pwd)
mutant_tree="$smoke_dir/mutant-tree"
mkdir "$mutant_tree"
tar -c --exclude=./.git . | tar -x -C "$mutant_tree"
for patch in testdata/mutants/*.patch; do
	name=$(basename "$patch" .patch)
	kill_cmd=$(sed -n 's/^Kill: //p' "$patch")
	[ -n "$kill_cmd" ] || { echo "FAIL: mutant $name has no Kill: line" >&2; exit 1; }
	pkgs=$(sed -n 's|^+++ b/\(.*\)/[^/]*$|./\1/|p' "$patch" | sort -u)
	(cd "$mutant_tree" && git apply "$repo/$patch") ||
		{ echo "FAIL: mutant $name does not apply" >&2; exit 1; }
	(cd "$mutant_tree" && go test -count=1 -run '^$' $pkgs >/dev/null) ||
		{ echo "FAIL: mutant $name does not compile" >&2; exit 1; }
	if (cd "$mutant_tree" && eval "$kill_cmd") > "$smoke_dir/mutant.log" 2>&1; then
		cat "$smoke_dir/mutant.log"
		echo "FAIL: mutant $name survives: $kill_cmd" >&2
		exit 1
	fi
	echo "-- $name killed by: $kill_cmd"
	(cd "$mutant_tree" && git apply -R "$repo/$patch")
done
echo "mutant kill list took $(($(date +%s) - mutants_start)) s"

echo "CI OK"
