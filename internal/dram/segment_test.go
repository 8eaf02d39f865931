package dram

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"relief/internal/sim"
)

// queueModel is what the differential tests drive on both controllers.
type queueModel interface {
	Enqueue(n int64, done func())
	SetFault(fn func(n int64) sim.Time)
	BusyTime() sim.Time
	BytesServed() int64
	QueueLen() int
	ChannelQueueLen(i int) int
}

// modelHooks reach into a controller's unexported state: its row and
// refresh counters, and a seek that moves its synthetic address cursor.
type modelHooks struct {
	counters func() [3]int64
	seek     func(addr int64)
}

// diffScenario drives one randomized workload against the controller that
// build returns and renders everything observable into a string: each
// completion with its time, QueueLen and BusyTime samples taken at random
// instants and inside completions, the row and refresh counters, the final
// clock and the kernel's event count. The random draws depend only on
// seed, so two controllers that behave alike render the same string.
//
// Requests normally take fresh addresses, so the only page two requests
// share is the one where the first ends and the second begins, and they
// sit next to each other in the queue. Some requests therefore first seek
// the cursor back into a small region: their pages are then rows other
// queued requests may have open, which is what makes FR-FCFS reorder and
// its window matter.
func diffScenario(seed int64, build func(k *sim.Kernel, cfg Config) (queueModel, modelHooks)) string {
	rng := rand.New(rand.NewSource(seed))
	k := sim.NewKernel()
	cfg := LPDDR5()
	cfg.Policy = Policy(rng.Intn(2))
	cfg.WindowBursts = []int{0, 4, 64}[rng.Intn(3)]
	cfg.Channels = 1 + rng.Intn(3)
	if rng.Intn(2) == 0 {
		cfg.PageBytes = 512 // more page crossings per request
	}
	hit := cfg.TBurst + cfg.TGap
	switch rng.Intn(5) {
	case 0:
		cfg.TREFI = 0
	case 1:
		cfg.TREFI = 500 * sim.Nanosecond
	case 2:
		// Every latency is a whole number of bursts, so a run that starts
		// on the burst grid picks exactly at its refresh boundaries.
		cfg.TREFI = 8 * hit
		cfg.TRFC, cfg.TRP, cfg.TRCD = 2*hit, 2*hit, 2*hit
	case 3:
		// Shorter than one burst: several refreshes fall inside every
		// burst, so every pick refreshes and misses. tRFC stays below
		// tREFI, or each burst's stall would outgrow the one before.
		cfg.TREFI = hit - 1
		cfg.TRFC = sim.Nanosecond
	}
	c, hooks := build(k, cfg)
	var out strings.Builder
	fmt.Fprintf(&out, "policy=%s win=%d ch=%d page=%d refi=%d rfc=%d\n",
		cfg.Policy, cfg.WindowBursts, cfg.Channels, cfg.PageBytes, int64(cfg.TREFI), int64(cfg.TRFC))
	if rng.Intn(2) == 0 {
		frng := rand.New(rand.NewSource(seed ^ 0x5eed))
		c.SetFault(func(n int64) sim.Time {
			if frng.Intn(3) == 0 {
				return sim.Time(frng.Int63n(int64(200 * sim.Nanosecond)))
			}
			return 0
		})
	}
	sample := func(tag string) {
		fmt.Fprintf(&out, "%s@%d q=%d busy=%d", tag, int64(k.Now()), c.QueueLen(), int64(c.BusyTime()))
		for i := 0; i < cfg.Channels; i++ {
			fmt.Fprintf(&out, " q%d=%d", i, c.ChannelQueueLen(i))
		}
		out.WriteByte('\n')
	}
	size := func(max int) int64 { return int64(1 + rng.Intn(max)) }
	// enqueue returns an Enqueue of sz bytes, after a seek if the draw
	// says so.
	enqueue := func(sz int64) func(done func()) {
		if rng.Intn(2) == 0 {
			return func(done func()) { c.Enqueue(sz, done) }
		}
		addr := rng.Int63n(16 * cfg.PageBytes * int64(cfg.Channels))
		return func(done func()) {
			hooks.seek(addr)
			c.Enqueue(sz, done)
		}
	}

	// Independent requests, some arriving in the same tick, with unaligned
	// sizes up to 16 KiB.
	n := 4 + rng.Intn(12)
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			at += sim.Time(rng.Int63n(int64(2 * sim.Microsecond)))
		}
		tag, enq := fmt.Sprintf("r%d", i), enqueue(size(4096*4))
		k.At(at, func() { enq(func() { sample(tag) }) })
	}
	// Chained streams: each completion enqueues the next request, so
	// arrivals land while a virtual run is in flight.
	for s := 0; s < 1+rng.Intn(2); s++ {
		chain := 2 + rng.Intn(6)
		enqs := make([]func(func()), chain)
		for i := range enqs {
			enqs[i] = enqueue(size(4096 * 2))
		}
		var link func(i int)
		link = func(i int) {
			enqs[i](func() {
				sample(fmt.Sprintf("s%dc%d", s, i))
				if i+1 < chain {
					link(i + 1)
				}
			})
		}
		k.At(sim.Time(rng.Int63n(int64(4*sim.Microsecond))), func() { link(0) })
	}
	for i := 0; i < 4; i++ {
		k.At(sim.Time(rng.Int63n(int64(12*sim.Microsecond))), func() { sample("probe") })
	}
	end := k.Run()
	st := hooks.counters()
	fmt.Fprintf(&out, "end=%d fired=%d busy=%d q=%d hits=%d misses=%d refr=%d\n",
		int64(end), k.Fired(), int64(c.BusyTime()), c.QueueLen(), st[0], st[1], st[2])
	return out.String()
}

func segmentModel(k *sim.Kernel, cfg Config) (queueModel, modelHooks) {
	c := NewController(k, "dram", cfg)
	return c, modelHooks{
		counters: func() [3]int64 { return [3]int64{c.RowHits, c.RowMisses, c.Refreshes} },
		seek:     func(addr int64) { c.cursor = addr },
	}
}

// refModel builds the reference controller: batched like Controller, or
// serving one burst per event if perBurst is set.
func refModel(perBurst bool) func(k *sim.Kernel, cfg Config) (queueModel, modelHooks) {
	return func(k *sim.Kernel, cfg Config) (queueModel, modelHooks) {
		c := newRefController(k, cfg)
		c.perBurst = perBurst
		return c, modelHooks{
			counters: func() [3]int64 { return [3]int64{c.RowHits, c.RowMisses, c.Refreshes} },
			seek:     func(addr int64) { c.cursor = addr },
		}
	}
}

// TestSegmentQueueMatchesBurstQueue is the differential test of the
// segment queue against the per-burst queue it replaced (refController,
// batched): over random seeds covering unaligned sizes, fault stalls, one
// to three channels, windows 0/4/64, refresh off, every 500 ns, every
// 3.9 us, every eight bursts with all latencies on the burst grid (picks
// land exactly on refresh boundaries) and more often than once a burst,
// both must complete the same requests in the same order at the same
// times, report the same queue lengths and busy times at every sample,
// count the same row hits, misses and refreshes, and fire the same number
// of events.
func TestSegmentQueueMatchesBurstQueue(t *testing.T) {
	seeds := int64(2000)
	if testing.Short() {
		seeds = 300
	}
	for seed := int64(0); seed < seeds; seed++ {
		want := diffScenario(seed, refModel(false))
		got := diffScenario(seed, segmentModel)
		if got != want {
			t.Fatalf("seed %d: segment queue diverged from the per-burst queue\nper-burst:\n%s\nsegments:\n%s",
				seed, want, got)
		}
	}
}

// TestEnqueueSteadyStateDoesNotAllocate: once the queues and the request
// free list have grown, enqueueing a request and running it to completion
// allocates nothing.
func TestEnqueueSteadyStateDoesNotAllocate(t *testing.T) {
	for _, channels := range []int{1, 2} {
		k := sim.NewKernel()
		cfg := LPDDR5()
		cfg.Channels = channels
		c := NewController(k, "dram", cfg)
		done := 0
		doneFn := func() { done++ }
		run := func() {
			c.Enqueue(4096, doneFn)
			c.Enqueue(1000, doneFn)
			k.Run()
		}
		for i := 0; i < 4; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%d channels: %v allocations per enqueue-and-complete, want 0", channels, allocs)
		}
		if done != 2*(4+101) {
			t.Fatalf("%d channels: %d completions, want %d", channels, done, 2*(4+101))
		}
	}
}
