#!/bin/sh
# CI gate: build, vet, relief-lint (the project's own static-analysis
# suite, see docs/LINTING.md), optional third-party linters, full test
# suite (including the golden main-grid determinism digest), the race
# detector, allocation ceilings on one BenchmarkFig4, one
# BenchmarkScenarioContinuous and one BenchmarkDRAMStudy iteration and on
# BenchmarkDiskCacheStore (each a little above its measured count and
# below the count of the design before it) plus a bytes ceiling on the
# continuous one, vet and
# tests of the benchmark
# module (benchmark/, whose smoke test runs every workload once), then
# smoke runs of the CLIs and the serving fleet.
# Throughput is measured by benchmark/run.sh, not here.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== build"
go build ./...

echo "== vet"
go vet ./...

echo "== gofmt"
# Tracked files only, so build output such as .bench_build/ is never scanned.
test -z "$(gofmt -l $(git ls-files '*.go'))"

echo "== relief-lint"
go run ./cmd/relief-lint ./...

echo "== staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping"
fi

echo "== govulncheck"
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
else
	echo "govulncheck not installed; skipping"
fi

echo "== test"
go test ./...

echo "== race"
# The serving, tracing, and sweep-client packages run their FULL test
# suites under the race detector: they are the concurrent surface the
# lockcheck annotations document, and their long tests exercise real
# goroutine fan-out (workers, peers, sweep cells). Everything else —
# dominated by single-goroutine simulation determinism tests — keeps
# -short to bound CI time.
go test -race ./internal/serve/... ./internal/svctrace/... ./cmd/relief-sweep/...
go test -race -short $(go list ./... | grep -v -e '^relief/internal/serve' -e '^relief/internal/svctrace' -e '^relief/cmd/relief-sweep')

echo "== bench smoke"
# One iteration of the Fig. 4 grid, gated on its allocation count, which is
# deterministic to within a few dozen objects at any GOMAXPROCS. The
# ceiling sits about 10% above the 9,22x allocs/op measured once a
# finished simulation was reset and reused by the next run on its
# platform (46,81x when every run built its simulation cold, once the end
# of each run freed the iterations its horizon cut off and each shape
# kept its topological order; 48,8xx-49,01x before that; 86,1xx with a clone
# per scenario and iteration; 805,4xx with a build per scenario and a
# closure per completion; 914,881 with a map entry per node; 5,391,296
# before DMA transfer, claim and job records were recycled), so a change
# that brings back per-scenario simulations, clones or builds, or
# per-node, per-completion or per-transfer allocation, fails here.
fig4_alloc_ceiling=10200
go test -run '^$' -bench 'BenchmarkFig4$' -benchtime=1x -benchmem . >"$tmp/fig4.txt"
cat "$tmp/fig4.txt"
fig4_allocs="$(awk '/^BenchmarkFig4/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }' "$tmp/fig4.txt")"
test -n "$fig4_allocs"
if [ "$fig4_allocs" -gt "$fig4_alloc_ceiling" ]; then
	echo "BenchmarkFig4: $fig4_allocs allocs/op exceeds the ceiling $fig4_alloc_ceiling" >&2
	exit 1
fi
# One continuous-contention CGL scenario, gated the same way and on its
# bytes; the benchmark builds the per-process app templates in an untimed
# first run. Each iteration reuses a retired DAG of its shape with its
# node states, releases and completions allocate nothing, and the end of
# the run frees the iterations the horizon cut off, so the next run clones
# nothing cold, and the run takes the simulation the previous run of its
# platform reset and put back; the ceilings sit about 10% above the 26
# allocs/op and 6,200 B/op measured then (211 and 22,1xx B/op when every
# run built its simulation cold; 238 and 178,4xx B/op when every run
# cold-cloned the iterations the previous one left live; 640 allocs/op
# and 1.24 MB/op with a clone and a state slice per iteration, 15,94x
# allocs/op with a build per scenario and a closure per completion, 17,92x
# with a map entry per node, 32,22x when each iteration rebuilt its DAG),
# so a return to any of them fails here.
cont_alloc_ceiling=29
cont_bytes_ceiling=6800
go test -run '^$' -bench 'BenchmarkScenarioContinuous$' -benchtime=1x -benchmem . >"$tmp/cont.txt"
cat "$tmp/cont.txt"
cont_allocs="$(awk '/^BenchmarkScenarioContinuous/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }' "$tmp/cont.txt")"
cont_bytes="$(awk '/^BenchmarkScenarioContinuous/ { for (i = 2; i <= NF; i++) if ($i == "B/op") print $(i-1) }' "$tmp/cont.txt")"
test -n "$cont_allocs"
test -n "$cont_bytes"
if [ "$cont_allocs" -gt "$cont_alloc_ceiling" ]; then
	echo "BenchmarkScenarioContinuous: $cont_allocs allocs/op exceeds the ceiling $cont_alloc_ceiling" >&2
	exit 1
fi
if [ "$cont_bytes" -gt "$cont_bytes_ceiling" ]; then
	echo "BenchmarkScenarioContinuous: $cont_bytes B/op exceeds the ceiling $cont_bytes_ceiling" >&2
	exit 1
fi

# One detailed-DRAM study (the high-contention grid on the bank-level
# controller), gated the same way. The ceiling sits about 10% above the
# 4,39x allocs/op measured once finished simulations, the controller's
# queues and request records with them, were reused per platform (16,22x
# when every run built its simulation cold, once DAGs were recycled and
# deadlines were assigned without maps; 25,8xx before; 413,5xx with one
# queue entry per 64-byte burst and a record per request), so a return to
# per-scenario simulations or clones, per-burst or per-request allocation
# fails here.
dram_alloc_ceiling=4850
go test -run '^$' -bench 'BenchmarkDRAMStudy$' -benchtime=1x -benchmem . >"$tmp/dram.txt"
cat "$tmp/dram.txt"
dram_allocs="$(awk '/^BenchmarkDRAMStudy/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }' "$tmp/dram.txt")"
test -n "$dram_allocs"
if [ "$dram_allocs" -gt "$dram_alloc_ceiling" ]; then
	echo "BenchmarkDRAMStudy: $dram_allocs allocs/op exceeds the ceiling $dram_alloc_ceiling" >&2
	exit 1
fi

# The spill path a cold /run waits on (one ~3 KB result stored and one
# older spill file evicted per op), gated the same way. The ceiling sits
# just above the 28 allocs/op measured once the envelope was assembled
# around the one marshalled payload (31 when the envelope was marshalled
# a second time around it), so a return to the second pass fails here.
spill_alloc_ceiling=30
go test -run '^$' -bench 'BenchmarkDiskCacheStore$' -benchtime=100x -benchmem ./internal/serve >"$tmp/spill.txt"
cat "$tmp/spill.txt"
spill_allocs="$(awk '/^BenchmarkDiskCacheStore/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }' "$tmp/spill.txt")"
test -n "$spill_allocs"
if [ "$spill_allocs" -gt "$spill_alloc_ceiling" ]; then
	echo "BenchmarkDiskCacheStore: $spill_allocs allocs/op exceeds the ceiling $spill_alloc_ceiling" >&2
	exit 1
fi

echo "== benchmark module"
# benchmark/ is a module of its own, outside "go test ./..." above; it
# calls internal packages directly, so a main-module change can break it.
(cd benchmark && go vet ./... && go test ./...)

echo "== metrics smoke"
go run ./cmd/relief-sim -mix C -policy RELIEF -metrics "$tmp/m" >/dev/null
grep -q '"schema": "relief-metrics/1"' "$tmp/m.json"
test -s "$tmp/m.csv"
grep -q '^# TYPE' "$tmp/m.prom"

echo "== checkpoint smoke"
# Checkpoint/restore contract over the real CLI (docs/CHECKPOINT.md):
# warm one periodic scenario, snapshot it, fork the snapshot across three
# horizon variations, and require each forked run's summary document to be
# byte-identical to a cold uninterrupted run at that horizon. A tampered
# envelope must be rejected by its checksum, never half-restored. Interval
# sampling over the same scenario must produce a relief-estimate/1
# document that actually sampled.
go build -o "$tmp/relief-sim" ./cmd/relief-sim
"$tmp/relief-sim" -mix CG -period 5ms -horizon 20ms -warm 8ms -checkpoint "$tmp/warm.ckpt" >"$tmp/ckpt.log"
grep -q '^checkpoint: *captured at ' "$tmp/ckpt.log"
grep -q '"schema":"relief-ckpt/2"' "$tmp/warm.ckpt"
for h in 15ms 25ms 40ms; do
	"$tmp/relief-sim" -mix CG -period 5ms -horizon "$h" -restore "$tmp/warm.ckpt" >"$tmp/fork_$h.txt"
	"$tmp/relief-sim" -mix CG -period 5ms -horizon "$h" >"$tmp/cold_$h.txt"
	cmp "$tmp/fork_$h.txt" "$tmp/cold_$h.txt"
done
sed 's/"payload":"/"payload":"AAAA/' "$tmp/warm.ckpt" >"$tmp/tampered.ckpt"
if "$tmp/relief-sim" -mix CG -period 5ms -horizon 40ms -restore "$tmp/tampered.ckpt" >/dev/null 2>"$tmp/tamper.err"; then
	echo "tampered checkpoint accepted" >&2
	exit 1
fi
grep -q 'checksum' "$tmp/tamper.err"
# The fork key covers the resolved platform: a checkpoint warmed under one
# platform file must be refused under another that differs only in
# dram_gbs.
echo '{"dram_gbs": 4}' >"$tmp/dram4.json"
echo '{"dram_gbs": 12}' >"$tmp/dram12.json"
"$tmp/relief-sim" -mix CG -period 5ms -horizon 20ms -warm 8ms -platform "$tmp/dram4.json" -checkpoint "$tmp/dram4.ckpt" >/dev/null
if "$tmp/relief-sim" -mix CG -period 5ms -horizon 40ms -platform "$tmp/dram12.json" -restore "$tmp/dram4.ckpt" >/dev/null 2>"$tmp/platform.err"; then
	echo "checkpoint restored across platforms" >&2
	exit 1
fi
grep -q 'fork key mismatch' "$tmp/platform.err"
"$tmp/relief-sim" -mix CG -period 5ms -horizon 100ms -sample 4 >"$tmp/estimate.json"
grep -q '"schema": "relief-estimate/1"' "$tmp/estimate.json"
grep -q '"sampled": true' "$tmp/estimate.json"

echo "== relief-validate"
# The paper's calibration and behaviour checks, plus checkpoint restore and
# interval sampling driven through a binary; exits 1 on any FAIL.
go run ./cmd/relief-validate

echo "== serve smoke"
# End-to-end over a real socket: start on an ephemeral port, POST the
# same scenario twice (second spelled in a different field order — the
# content digest must still hit the cache), then SIGTERM and require a
# clean drain (exit 0 + the "stopped" line).
if command -v curl >/dev/null 2>&1; then
	go build -o "$tmp/relief-serve" ./cmd/relief-serve
	"$tmp/relief-serve" -addr 127.0.0.1:0 >"$tmp/serve.log" 2>&1 &
	serve_pid=$!
	addr=""
	for _ in $(seq 1 100); do
		addr="$(sed -n 's|^relief-serve: listening on http://||p' "$tmp/serve.log")"
		[ -n "$addr" ] && break
		sleep 0.1
	done
	test -n "$addr"
	curl -sf -X POST "http://$addr/run" \
		-d '{"mix":"CG","policy":"RELIEF"}' >"$tmp/serve1.json"
	grep -q '"cached": false' "$tmp/serve1.json"
	curl -sf -X POST "http://$addr/run" \
		-d '{"policy":"RELIEF","mix":"CG"}' >"$tmp/serve2.json"
	grep -q '"cached": true' "$tmp/serve2.json"
	curl -sf "http://$addr/metrics" | grep -q '^relief_serve_cache_hits_total 1$'
	# Liveness and readiness both report healthy while serving.
	curl -sf "http://$addr/healthz" | grep -qx 'ok'
	curl -sf "http://$addr/readyz" | grep -qx 'ok'
	kill -TERM "$serve_pid"
	wait "$serve_pid"
	grep -q '^relief-serve: stopped$' "$tmp/serve.log"
else
	echo "curl not installed; skipping"
fi

echo "== cluster smoke"
# Two peered replicas on pre-allocated ephemeral ports. Asserts the
# cluster contract end to end: a scenario cached anywhere in the fleet is
# served through the other replica from the owner's cache (a relayed
# cached envelope, one simulation fleet-wide), and a distributed sweep merge is byte-identical to the same
# sweep on a solo server — and to the relief-sweep client's local merge.
if command -v curl >/dev/null 2>&1; then
	test -x "$tmp/relief-serve" || go build -o "$tmp/relief-serve" ./cmd/relief-serve
	ports="$(go run ./scripts/freeports 2)"
	p1="$(echo "$ports" | sed -n 1p)"
	p2="$(echo "$ports" | sed -n 2p)"
	u1="http://127.0.0.1:$p1"
	u2="http://127.0.0.1:$p2"
	"$tmp/relief-serve" -addr "127.0.0.1:$p1" -peers "$u2" >"$tmp/peer1.log" 2>&1 &
	peer1_pid=$!
	"$tmp/relief-serve" -addr "127.0.0.1:$p2" -peers "$u1" >"$tmp/peer2.log" 2>&1 &
	peer2_pid=$!
	for log in peer1.log peer2.log; do
		for _ in $(seq 1 100); do
			grep -q '^relief-serve: listening on ' "$tmp/$log" && break
			sleep 0.1
		done
		grep -q '^relief-serve: listening on ' "$tmp/$log"
	done
	curl -sf "$u1/readyz" >/dev/null
	curl -sf "$u2/readyz" >/dev/null

	# Warm the fleet through replica 1. Whichever replica owns the digest
	# now holds the result (non-owned requests are forwarded to the owner,
	# and relayed results are not cached by the forwarder).
	curl -sf -X POST "$u1/run" -d '{"mix":"CG","policy":"RELIEF"}' >"$tmp/peer_run1.json"
	digest="$(sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' "$tmp/peer_run1.json" | head -n 1)"
	test -n "$digest"
	owner="$(curl -sf "$u1/owner/$digest" | sed -n 's/.*"owner": "\([^"]*\)".*/\1/p')"
	test -n "$owner"
	if [ "$owner" = "$u1" ]; then nonowner="$u2"; else nonowner="$u1"; fi

	# The same scenario through the non-owner must come from the owner's
	# cache, relayed by one forward — never a second simulation.
	curl -sf -D "$tmp/peer_run2.hdr" -X POST "$nonowner/run" -d '{"policy":"RELIEF","mix":"CG"}' >"$tmp/peer_run2.json"
	grep -q '"cached": true' "$tmp/peer_run2.json"
	tr -d '\r' <"$tmp/peer_run2.hdr" | grep -qiFx "X-Relief-Served-By: $owner"
	curl -sf "$owner/metrics" | grep -q '^relief_serve_cache_misses_total 1$'
	curl -sf "$nonowner/metrics" | grep -q '^relief_serve_cache_misses_total 0$'

	# Distributed sweep merge: fleet output is byte-identical to a solo
	# server's, and to the relief-sweep client's locally merged document.
	sweep_spec='{"mixes":["C","D"],"policies":["FCFS","RELIEF"]}'
	curl -sf -X POST "$u1/sweep" -d "$sweep_spec" >"$tmp/sweep_fleet.json"
	"$tmp/relief-serve" -addr 127.0.0.1:0 >"$tmp/solo.log" 2>&1 &
	solo_pid=$!
	solo_addr=""
	for _ in $(seq 1 100); do
		solo_addr="$(sed -n 's|^relief-serve: listening on http://||p' "$tmp/solo.log")"
		[ -n "$solo_addr" ] && break
		sleep 0.1
	done
	test -n "$solo_addr"
	curl -sf -X POST "http://$solo_addr/sweep" -d "$sweep_spec" >"$tmp/sweep_solo.json"
	cmp "$tmp/sweep_fleet.json" "$tmp/sweep_solo.json"
	go build -o "$tmp/relief-sweep" ./cmd/relief-sweep
	echo "$sweep_spec" | "$tmp/relief-sweep" -replicas "$u1,$u2" -q -out "$tmp/sweep_client.json"
	cmp "$tmp/sweep_client.json" "$tmp/sweep_solo.json"

	kill -TERM "$peer1_pid" "$peer2_pid" "$solo_pid"
	wait "$peer1_pid" "$peer2_pid" "$solo_pid"
	grep -q '^relief-serve: stopped$' "$tmp/peer1.log"
	grep -q '^relief-serve: stopped$' "$tmp/peer2.log"
else
	echo "curl not installed; skipping"
fi

echo "== warm-restart smoke"
# Durable-cache contract over real processes: populate the cache, SIGKILL
# the replica (no drain), restart it on the same -cache-dir, and the entry
# must come back as a verified disk hit instead of a re-simulation.
if command -v curl >/dev/null 2>&1; then
	test -x "$tmp/relief-serve" || go build -o "$tmp/relief-serve" ./cmd/relief-serve
	spill="$tmp/spill"
	"$tmp/relief-serve" -addr 127.0.0.1:0 -cache-dir "$spill" >"$tmp/restart1.log" 2>&1 &
	restart_pid=$!
	raddr=""
	for _ in $(seq 1 100); do
		raddr="$(sed -n 's|^relief-serve: listening on http://||p' "$tmp/restart1.log")"
		[ -n "$raddr" ] && break
		sleep 0.1
	done
	test -n "$raddr"
	curl -sf -X POST "http://$raddr/run" -d '{"mix":"CG","policy":"RELIEF"}' >"$tmp/restart_run1.json"
	grep -q '"source": "run"' "$tmp/restart_run1.json"
	kill -KILL "$restart_pid"
	wait "$restart_pid" 2>/dev/null || true

	"$tmp/relief-serve" -addr 127.0.0.1:0 -cache-dir "$spill" >"$tmp/restart2.log" 2>&1 &
	restart_pid=$!
	raddr=""
	for _ in $(seq 1 100); do
		raddr="$(sed -n 's|^relief-serve: listening on http://||p' "$tmp/restart2.log")"
		[ -n "$raddr" ] && break
		sleep 0.1
	done
	test -n "$raddr"
	# The prose keeps its shape; the line now also carries structured
	# dir=/restored= attributes, so no $ anchor.
	grep -q '^relief-serve: disk cache .* (1 entries restored)' "$tmp/restart2.log"
	curl -sf -X POST "http://$raddr/run" -d '{"policy":"RELIEF","mix":"CG"}' >"$tmp/restart_run2.json"
	grep -q '"source": "disk"' "$tmp/restart_run2.json"
	curl -sf "http://$raddr/metrics" | grep -q '^relief_serve_disk_cache_hits_total 1$'
	kill -TERM "$restart_pid"
	wait "$restart_pid"
	grep -q '^relief-serve: stopped$' "$tmp/restart2.log"
else
	echo "curl not installed; skipping"
fi

echo "== tracing smoke"
# Distributed-trace contract over real processes: a request forwarded
# between two peered replicas runs under one client-supplied trace ID —
# the same ID lands in both replicas' structured JSON logs and the entry
# replica's GET /trace/{id} document shows the forward span. "trace": true
# additionally captures kernel events, rendered by relief-trace into one
# service + kernel Chrome timeline, and -debug-addr serves net/http/pprof
# on its own listener.
if command -v curl >/dev/null 2>&1; then
	test -x "$tmp/relief-serve" || go build -o "$tmp/relief-serve" ./cmd/relief-serve
	ports="$(go run ./scripts/freeports 2)"
	t1="$(echo "$ports" | sed -n 1p)"
	t2="$(echo "$ports" | sed -n 2p)"
	w1="http://127.0.0.1:$t1"
	w2="http://127.0.0.1:$t2"
	"$tmp/relief-serve" -addr "127.0.0.1:$t1" -peers "$w2" -log-format json -debug-addr 127.0.0.1:0 >"$tmp/trace1.log" 2>&1 &
	trace1_pid=$!
	"$tmp/relief-serve" -addr "127.0.0.1:$t2" -peers "$w1" -log-format json >"$tmp/trace2.log" 2>&1 &
	trace2_pid=$!
	for log in trace1.log trace2.log; do
		for _ in $(seq 1 100); do
			grep -q '"msg":"listening on ' "$tmp/$log" && break
			sleep 0.1
		done
		grep -q '"msg":"listening on ' "$tmp/$log"
	done
	curl -sf "$w1/readyz" >/dev/null
	curl -sf "$w2/readyz" >/dev/null

	# Hunt a scenario whose digest replica 2 owns: posted to replica 1
	# under a fixed trace ID, it must leave a forward span in replica 1's
	# trace document (about half the seeds land on either owner).
	tid=""
	for seed in $(seq 1 40); do
		cand="$(printf '%032x' "$seed")"
		curl -sf -X POST "$w1/run" -H "X-Relief-Trace: $cand" \
			-d "{\"mix\":\"C\",\"fault_rate\":0.01,\"fault_seed\":$seed}" >/dev/null
		if curl -sf "$w1/trace/$cand" | grep -q '"stage": "forward"'; then
			tid="$cand"
			break
		fi
	done
	test -n "$tid"

	# One distributed trace: the same ID in both replicas' structured logs.
	grep -q "\"trace_id\":\"$tid\"" "$tmp/trace1.log"
	grep -q "\"trace_id\":\"$tid\"" "$tmp/trace2.log"

	# "trace": true captures kernel events on whichever replica ran the
	# request; its service-trace document renders through relief-trace.
	ktid="$(printf '%032x' 4242)"
	curl -sf -X POST "$w1/run" -H "X-Relief-Trace: $ktid" \
		-d '{"mix":"CG","trace":true}' >/dev/null
	curl -sf "$w1/trace/$ktid" >"$tmp/svctrace1.json" || true
	curl -sf "$w2/trace/$ktid" >"$tmp/svctrace2.json" || true
	if grep -q '"kernel_events"' "$tmp/svctrace1.json" 2>/dev/null; then
		svcdoc="$tmp/svctrace1.json"
	else
		svcdoc="$tmp/svctrace2.json"
	fi
	grep -q '"kernel_events"' "$svcdoc"
	go build -o "$tmp/relief-trace" ./cmd/relief-trace
	"$tmp/relief-trace" -serve-trace "$svcdoc" -o "$tmp/svctimeline.json" >/dev/null
	grep -q '"service"' "$tmp/svctimeline.json"
	grep -q '"compute"' "$tmp/svctimeline.json"
	# The server renders the same combined timeline itself.
	curl -sf "$w1/trace/$tid?format=chrome" | grep -q '"service"'

	# pprof answers on the separate -debug-addr listener, never the
	# service port.
	dbg="$(sed -n 's|.*"msg":"debug listening on http://\([^"]*\)".*|\1|p' "$tmp/trace1.log" | head -n 1)"
	test -n "$dbg"
	curl -sf "http://$dbg/debug/pprof/cmdline" >/dev/null
	! curl -sf "$w1/debug/pprof/cmdline" >/dev/null 2>&1

	kill -TERM "$trace1_pid" "$trace2_pid"
	wait "$trace1_pid" "$trace2_pid"
	grep -q '"msg":"stopped"' "$tmp/trace1.log"
	grep -q '"msg":"stopped"' "$tmp/trace2.log"
else
	echo "curl not installed; skipping"
fi

echo "== chaos smoke"
# Resilience contract over real processes: three peered replicas, one
# SIGKILLed mid-sweep. The streamed sweep must finish every cell with zero
# error lines, the relief-sweep client's merged document over the two
# survivors must be byte-identical to a solo server's, and the killed
# peer's circuit breaker must be observably open on a survivor.
if command -v curl >/dev/null 2>&1; then
	test -x "$tmp/relief-serve" || go build -o "$tmp/relief-serve" ./cmd/relief-serve
	test -x "$tmp/relief-sweep" || go build -o "$tmp/relief-sweep" ./cmd/relief-sweep
	ports="$(go run ./scripts/freeports 3)"
	c1="$(echo "$ports" | sed -n 1p)"
	c2="$(echo "$ports" | sed -n 2p)"
	c3="$(echo "$ports" | sed -n 3p)"
	v1="http://127.0.0.1:$c1"
	v2="http://127.0.0.1:$c2"
	v3="http://127.0.0.1:$c3"
	fleet="$v1,$v2,$v3"
	"$tmp/relief-serve" -addr "127.0.0.1:$c1" -peers "$fleet" -breaker-threshold 1 >"$tmp/chaos1.log" 2>&1 &
	chaos1_pid=$!
	"$tmp/relief-serve" -addr "127.0.0.1:$c2" -peers "$fleet" -breaker-threshold 1 >"$tmp/chaos2.log" 2>&1 &
	chaos2_pid=$!
	"$tmp/relief-serve" -addr "127.0.0.1:$c3" -peers "$fleet" -breaker-threshold 1 >"$tmp/chaos3.log" 2>&1 &
	chaos3_pid=$!
	for log in chaos1.log chaos2.log chaos3.log; do
		for _ in $(seq 1 100); do
			grep -q '^relief-serve: listening on ' "$tmp/$log" && break
			sleep 0.1
		done
		grep -q '^relief-serve: listening on ' "$tmp/$log"
	done

	# Stream a sweep through replica 1 and SIGKILL replica 3 once cells
	# start landing: no client-visible cell error is allowed.
	chaos_spec='{"mixes":["C","D","G","L"],"policies":["FCFS","RELIEF"]}'
	chaos_stream='{"mixes":["C","D","G","L"],"policies":["FCFS","RELIEF"],"stream":true}'
	curl -sfN -X POST "$v1/sweep" -d "$chaos_stream" >"$tmp/chaos_stream.ndjson" &
	stream_pid=$!
	for _ in $(seq 1 200); do
		[ "$(wc -l <"$tmp/chaos_stream.ndjson")" -ge 3 ] && break
		sleep 0.05
	done
	kill -KILL "$chaos3_pid"
	wait "$chaos3_pid" 2>/dev/null || true
	wait "$stream_pid"
	grep -q '"done":true' "$tmp/chaos_stream.ndjson"
	grep -q '"errors":0' "$tmp/chaos_stream.ndjson"
	! grep -q '"error":' "$tmp/chaos_stream.ndjson"

	# Force a request whose digest the dead replica owns: the survivor must
	# answer locally and open the dead peer's breaker (threshold 1), visible
	# on /metrics and in the readyz detail lines.
	dead_owned=""
	for seed in $(seq 1 40); do
		cand="{\"mix\":\"C\",\"fault_rate\":0.01,\"fault_seed\":$seed}"
		curl -sf -X POST "$v1/run" -d "$cand" >"$tmp/chaos_probe.json"
		cdigest="$(sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' "$tmp/chaos_probe.json" | head -n 1)"
		cowner="$(curl -sf "$v1/owner/$cdigest" | sed -n 's/.*"owner": "\([^"]*\)".*/\1/p')"
		if [ "$cowner" = "$v3" ]; then dead_owned="$cand"; break; fi
	done
	test -n "$dead_owned"
	curl -sf "$v1/metrics" | grep -q "^relief_serve_peer_breaker_opens_total{peer=\"$v3\"} [1-9]"
	curl -sf "$v1/readyz" | grep -q "^peer $v3 breaker=\(open\|half-open\)$"

	# The surviving fleet still produces the canonical merged document:
	# byte-identical to a solo server's sweep of the same grid.
	"$tmp/relief-serve" -addr 127.0.0.1:0 >"$tmp/chaos_solo.log" 2>&1 &
	chaos_solo_pid=$!
	solo2_addr=""
	for _ in $(seq 1 100); do
		solo2_addr="$(sed -n 's|^relief-serve: listening on http://||p' "$tmp/chaos_solo.log")"
		[ -n "$solo2_addr" ] && break
		sleep 0.1
	done
	test -n "$solo2_addr"
	curl -sf -X POST "http://$solo2_addr/sweep" -d "$chaos_spec" >"$tmp/chaos_solo.json"
	echo "$chaos_spec" | "$tmp/relief-sweep" -replicas "$v1,$v2" -q -out "$tmp/chaos_fleet.json"
	cmp "$tmp/chaos_fleet.json" "$tmp/chaos_solo.json"

	kill -TERM "$chaos1_pid" "$chaos2_pid" "$chaos_solo_pid"
	wait "$chaos1_pid" "$chaos2_pid" "$chaos_solo_pid"
else
	echo "curl not installed; skipping"
fi

echo "== relief-bench smoke"
go run ./cmd/relief-bench -exp fig12 >/dev/null
