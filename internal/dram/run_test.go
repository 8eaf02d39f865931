package dram

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"relief/internal/sim"
)

// burstRunScenario drives one randomized controller workload — mixed
// request sizes, staggered arrivals, chained dependent requests, random
// policy/window/channel/refresh configuration — and renders the complete
// completion order with timestamps, mid-flight busy samples, and final
// statistics into a canonical string. build makes the controller under
// test, as in diffScenario.
func burstRunScenario(seed int64, build func(k *sim.Kernel, cfg Config) (queueModel, modelHooks)) string {
	rng := rand.New(rand.NewSource(seed))
	k := sim.NewKernel()
	cfg := LPDDR5()
	cfg.Policy = Policy(rng.Intn(2))
	cfg.WindowBursts = []int{0, 4, 64}[rng.Intn(3)]
	cfg.Channels = 1 + rng.Intn(2)
	switch rng.Intn(3) {
	case 0:
		cfg.TREFI = 0 // no refresh
	case 1:
		cfg.TREFI = 500 * sim.Nanosecond // frequent refresh crossings
	}
	c, hooks := build(k, cfg)

	out := fmt.Sprintf("policy=%s win=%d ch=%d refi=%d\n",
		cfg.Policy, cfg.WindowBursts, cfg.Channels, int64(cfg.TREFI))
	// Lines emitted within one tick are sorted before being appended: with
	// a single channel at most one completion lands per tick so this is a
	// no-op, and with interleaved channels it canonicalizes the one
	// relaxation batching allows — the relative delivery order of distinct
	// channels' completions at the same tick (see serve).
	lastT := sim.Time(-1)
	var tickLines []string
	flush := func() {
		sort.Strings(tickLines)
		for _, l := range tickLines {
			out += l
		}
		tickLines = tickLines[:0]
	}
	emit := func(line string) {
		if t := k.Now(); t != lastT {
			flush()
			lastT = t
		}
		tickLines = append(tickLines, line)
	}
	record := func(tag string) func() {
		return func() { emit(fmt.Sprintf("%s@%d\n", tag, int64(k.Now()))) }
	}

	// Independent requests at staggered times.
	n := 4 + rng.Intn(8)
	for i := 0; i < n; i++ {
		i := i
		size := int64(1 + rng.Intn(4096*4))
		at := sim.Time(rng.Int63n(int64(8 * sim.Microsecond)))
		k.At(at, func() { c.Enqueue(size, record(fmt.Sprintf("r%d", i))) })
	}
	// A chained stream: each completion immediately enqueues the next
	// request, so arrivals land mid-run from inside done callbacks.
	chain := 3 + rng.Intn(5)
	var link func(i int)
	link = func(i int) {
		size := int64(1 + rng.Intn(4096*2))
		c.Enqueue(size, func() {
			emit(fmt.Sprintf("c%d@%d\n", i, int64(k.Now())))
			if i+1 < chain {
				link(i + 1)
			}
		})
	}
	k.At(sim.Time(rng.Int63n(int64(2*sim.Microsecond))), func() { link(0) })
	// Busy-time probes: exact even while a run is in flight.
	for i := 0; i < 3; i++ {
		at := sim.Time(rng.Int63n(int64(10 * sim.Microsecond)))
		k.At(at, func() { emit(fmt.Sprintf("busy=%d@%d\n", int64(c.BusyTime()), int64(k.Now()))) })
	}
	end := k.Run()
	flush()
	st := hooks.counters()
	out += fmt.Sprintf("end=%d bytes=%d busy=%d q=%d hits=%d misses=%d refr=%d\n",
		int64(end), c.BytesServed(), int64(c.BusyTime()), c.QueueLen(), st[0], st[1], st[2])
	return out
}

// TestBurstRunMatchesPerBurstReference is the batching oracle: across
// randomized workloads and controller configurations, resolving burst runs
// virtually must reproduce the completion order, completion times, busy
// accounting, and row/refresh statistics of refController serving one
// burst per event.
func TestBurstRunMatchesPerBurstReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		ref := burstRunScenario(seed, refModel(true))
		opt := burstRunScenario(seed, segmentModel)
		if ref != opt {
			t.Fatalf("seed %d: burst-run batching diverged from per-burst reference\nreference:\n%s\nbatched:\n%s", seed, ref, opt)
		}
	}
}

// TestBurstRunEventReduction: a large streaming request must not cost one
// event per 64-byte burst.
func TestBurstRunEventReduction(t *testing.T) {
	k := sim.NewKernel()
	c := NewController(k, "dram", LPDDR5())
	done := 0
	const bytes = 1 << 20 // 16384 bursts
	c.Enqueue(bytes, func() { done++ })
	k.Run()
	if done != 1 {
		t.Fatalf("request completed %d times", done)
	}
	// A run ends at each refresh-free row-hit stretch at worst; the whole
	// megabyte needs only the row-miss and refresh boundaries' worth of
	// events, orders of magnitude below per-burst.
	if fired := k.Fired(); fired > 1<<20/64/8 {
		t.Fatalf("streaming request fired %d events; burst runs should batch row-hit stretches", fired)
	}
}
