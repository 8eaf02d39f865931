package dram

import (
	"math/rand"
	"testing"

	"relief/internal/sim"
)

// TestIdleRefreshNotCharged: refresh boundaries that fall in an idle gap
// must not be billed to the first burst after the gap. A single 64-byte
// burst arriving after 20 tREFI of silence costs one burst slot plus an
// activate — not 20 tRFC of refresh backlog.
func TestIdleRefreshNotCharged(t *testing.T) {
	k := sim.NewKernel()
	cfg := LPDDR5()
	c := NewController(k, "dram", cfg)
	gap := 20 * cfg.TREFI
	var start, end sim.Time
	k.At(gap, func() {
		start = k.Now()
		c.Enqueue(64, func() { end = k.Now() })
	})
	k.Run()
	want := cfg.TBurst + cfg.TGap + cfg.TRCD // cold bank: activate, no precharge
	if got := end - start; got != want {
		t.Fatalf("burst after %v idle took %v, want %v (idle refreshes billed?)", gap, got, want)
	}
	if c.Refreshes != 0 {
		t.Fatalf("idle refreshes charged: %d", c.Refreshes)
	}
	if c.BusyTime() != want {
		t.Fatalf("BusyTime = %v, want %v", c.BusyTime(), want)
	}
}

// TestIdleRefreshClosesRows: the idle-time refreshes are free but still
// close rows — a row opened before the gap must miss again after it.
func TestIdleRefreshClosesRows(t *testing.T) {
	k := sim.NewKernel()
	cfg := LPDDR5()
	c := NewController(k, "dram", cfg)
	c.Enqueue(64, func() {}) // opens row 0 of bank 0
	k.Run()
	if c.RowMisses != 1 || c.RowHits != 0 {
		t.Fatalf("warmup: hits=%d misses=%d", c.RowHits, c.RowMisses)
	}
	c.cursor = 0 // next burst lands on the same row
	k.At(2*cfg.TREFI, func() { c.Enqueue(64, func() {}) })
	k.Run()
	if c.RowMisses != 2 {
		t.Fatalf("row survived an idle refresh: hits=%d misses=%d", c.RowHits, c.RowMisses)
	}
}

type arrival struct {
	at   sim.Time
	size int64
}

// busyLoad runs the arrival list against a fresh controller, probing busy
// time at every completion and at randomized instants. It asserts the two
// pointwise invariants — busy never exceeds the current time and never
// decreases — and returns the final per-channel busy times and makespan.
func busyLoad(t *testing.T, cfg Config, load []arrival, probes []sim.Time) (final []sim.Time, end sim.Time) {
	t.Helper()
	k := sim.NewKernel()
	c := NewController(k, "dram", cfg)
	prev := sim.Time(0)
	check := func() {
		now := k.Now()
		b := c.BusyTime()
		if b > now {
			t.Fatalf("BusyTime %v exceeds now %v", b, now)
		}
		if b < prev {
			t.Fatalf("BusyTime went backwards: %v after %v", b, prev)
		}
		prev = b
		for i := 0; i < c.Channels(); i++ {
			if cb := c.ChannelBusyTime(i); cb > now {
				t.Fatalf("channel %d busy %v exceeds now %v", i, cb, now)
			}
		}
	}
	for _, a := range load {
		a := a
		k.At(a.at, func() { c.Enqueue(a.size, check) })
	}
	for _, at := range probes {
		k.At(at, check)
	}
	end = k.Run()
	check()
	if c.BusyTime() > end {
		t.Fatalf("final BusyTime %v exceeds makespan %v", c.BusyTime(), end)
	}
	final = make([]sim.Time, c.Channels())
	for i := range final {
		final[i] = c.ChannelBusyTime(i)
	}
	return final, end
}

func randomBusyConfig(rng *rand.Rand) Config {
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
	return cfg
}

// randomBusyLoad spreads small-to-page-sized requests over a long window so
// runs include both saturated stretches and idle gaps spanning many tREFI.
func randomBusyLoad(rng *rand.Rand) []arrival {
	n := 4 + rng.Intn(10)
	load := make([]arrival, n)
	for i := range load {
		load[i] = arrival{
			at:   sim.Time(rng.Int63n(int64(60 * sim.Microsecond))),
			size: int64(1 + rng.Intn(4096*2)),
		}
	}
	return load
}

// TestBusyTimeProperties: across randomized loads and configurations,
// BusyTime obeys busy <= now at every probe point (so it can never exceed
// the final makespan) and is monotone in simulated time, even while a
// virtual burst run is in flight.
func TestBusyTimeProperties(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomBusyConfig(rng)
		load := randomBusyLoad(rng)
		probes := make([]sim.Time, 6)
		for i := range probes {
			probes[i] = sim.Time(rng.Int63n(int64(80 * sim.Microsecond)))
		}
		busyLoad(t, cfg, load, probes)
	}
}

// TestBusyTimeMonotoneInAddedLoad: appending extra requests to a workload
// never reduces any channel's final busy time. Extras arrive after the last
// base arrival so the base requests keep their synthetic addresses (the
// allocation cursor advances in enqueue order) — the comparison is then a
// strict superset of the same bursts, and serving more data can only add
// bus time.
func TestBusyTimeMonotoneInAddedLoad(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomBusyConfig(rng)
		base := randomBusyLoad(rng)
		last := sim.Time(0)
		for _, a := range base {
			if a.at > last {
				last = a.at
			}
		}
		more := append(append([]arrival{}, base...), arrival{
			at:   last + sim.Time(rng.Int63n(int64(10*sim.Microsecond))),
			size: int64(1 + rng.Intn(4096*2)),
		})
		baseBusy, _ := busyLoad(t, cfg, base, nil)
		moreBusy, _ := busyLoad(t, cfg, more, nil)
		for i := range baseBusy {
			if moreBusy[i] < baseBusy[i] {
				t.Fatalf("seed %d: channel %d busy fell from %v to %v after adding load",
					seed, i, baseBusy[i], moreBusy[i])
			}
		}
	}
}
