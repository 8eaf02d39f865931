package mem

import (
	"reflect"
	"testing"

	"relief/internal/sim"
)

// recycleRig is a two-resource path with a union tracker on the second
// stage (a DRAM -> bus read) plus one reusable done callback, so the
// transfers it starts allocate nothing of their own.
type recycleRig struct {
	k    *sim.Kernel
	a, b *Resource
	occ  *Occupancy
	res  []TransferResult
	done func(TransferResult)
}

func newRecycleRig() *recycleRig {
	k := sim.NewKernel()
	g := &recycleRig{
		k:   k,
		a:   NewResource(k, "dram", 6.4*GB),
		b:   NewResource(k, "bus", 14.9*GB),
		occ: NewOccupancy(k),
		res: make([]TransferResult, 0, 8),
	}
	g.b.SetOccupancy(g.occ)
	g.done = func(tr TransferResult) { g.res = append(g.res, tr) }
	return g
}

// corruptFirst corrupts the first transfer it sees and no other, so a
// recycled record that forgot to clear its verdict shows up as a second
// corrupt result.
type corruptFirst struct{ seen int }

func (c *corruptFirst) Transfer(int64) (sim.Time, bool) {
	c.seen++
	return 0, c.seen == 1
}

// contended runs one contended sequence from the kernel's current instant
// and returns the results with times relative to that instant:
//   - C: dram only, 3 chunks, begins at 11us while A holds dram;
//   - A: dram -> bus, claimed on an idle path, 40 chunks, corrupted;
//   - B: bus only, arrives mid-claim and materializes A.
//
// C and A share a home resource and C finishes first, so on a second run
// C (acquired first) draws A's corrupted two-stage record and A draws C's
// one-stage record and must grow it.
func (g *recycleRig) contended() []TransferResult {
	g.res = g.res[:0]
	t0 := g.k.Now()
	var fi corruptFirst
	StartTransfer(g.k, []Server{g.a}, 3*DefaultChunkBytes, 11*sim.Microsecond, g.done)
	StartTransferFI(g.k, []Server{g.a, g.b}, 40*DefaultChunkBytes, sim.Microsecond, &fi, g.done)
	StartTransfer(g.k, []Server{g.b}, 17*DefaultChunkBytes+123, 9*sim.Microsecond, g.done)
	g.k.Run()
	out := make([]TransferResult, len(g.res))
	for i, r := range g.res {
		r.Start -= t0
		r.End -= t0
		out[i] = r
	}
	return out
}

// counters snapshots everything the reuse test compares across runs.
type counters struct {
	busyA, busyB   sim.Time
	bytesA, bytesB int64
	claims, confl  int64
}

func (g *recycleRig) counters() counters {
	return counters{
		busyA: g.a.BusyTime(), busyB: g.b.BusyTime(),
		bytesA: g.a.BytesServed(), bytesB: g.b.BytesServed(),
		claims: g.occ.Claims, confl: g.occ.Conflicts,
	}
}

func (c counters) minus(o counters) counters {
	return counters{
		c.busyA - o.busyA, c.busyB - o.busyB,
		c.bytesA - o.bytesA, c.bytesB - o.bytesB,
		c.claims - o.claims, c.confl - o.confl,
	}
}

// TestTransferSteadyStateDoesNotAllocate locks the transfer record free
// list: once a kernel is warm, neither a claimed two-stage transfer nor a
// contended pair whose claim materializes allocates.
func TestTransferSteadyStateDoesNotAllocate(t *testing.T) {
	g := newRecycleRig()
	path, bus := []Server{g.a, g.b}, []Server{g.b}
	// Warm the records, the kernel's event pool and the FIFOs.
	StartTransfer(g.k, path, 40*DefaultChunkBytes, sim.Microsecond, g.done)
	g.k.Run()
	g.contended()

	claimed := testing.AllocsPerRun(100, func() {
		g.res = g.res[:0]
		StartTransfer(g.k, path, 40*DefaultChunkBytes, sim.Microsecond, g.done)
		g.k.Run()
	})
	if claimed != 0 {
		t.Errorf("claimed two-stage transfer allocated %.1f times, want 0", claimed)
	}

	before := g.occ.Conflicts
	contended := testing.AllocsPerRun(100, func() {
		g.res = g.res[:0]
		StartTransfer(g.k, path, 40*DefaultChunkBytes, sim.Microsecond, g.done)
		StartTransfer(g.k, bus, 17*DefaultChunkBytes, 9*sim.Microsecond, g.done)
		g.k.Run()
	})
	if contended != 0 {
		t.Errorf("contended pair allocated %.1f times, want 0", contended)
	}
	// AllocsPerRun makes one warm-up call plus the 100 measured ones; each
	// must have folded the claim back.
	if got := g.occ.Conflicts - before; got != 101 {
		t.Fatalf("claim conflicts = %d over 101 contended pairs, want 101", got)
	}
}

// TestTransferRecordReuse: the contended sequence run a second time on one
// kernel draws every record from the free lists (swapping the one- and
// two-stage records, see contended) and must reproduce the first run on a
// fresh kernel exactly: results, busy time, bytes and claim counters.
func TestTransferRecordReuse(t *testing.T) {
	fresh := newRecycleRig()
	want := fresh.contended()
	wantC := fresh.counters()
	corrupt := 0
	for _, r := range want {
		if r.Corrupt {
			corrupt++
		}
	}
	if len(want) != 3 || corrupt != 1 {
		t.Fatalf("fresh run results %+v: want 3 with one corrupt", want)
	}
	if wantC.confl != 1 {
		t.Fatalf("fresh run conflicts = %d, want 1 (B must materialize A's claim)", wantC.confl)
	}

	g := newRecycleRig()
	g.contended()
	if g.a.free == nil || g.a.free.freeNext == nil || g.b.free == nil {
		t.Fatal("first run left fewer recycled records than transfers")
	}
	before := g.counters()
	got := g.contended()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recycled run results\n%+v\nwant\n%+v", got, want)
	}
	if d := g.counters().minus(before); d != wantC {
		t.Errorf("recycled run counter deltas %+v, want %+v", d, wantC)
	}
}
