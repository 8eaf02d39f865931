package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond != 1000*Nanosecond || Millisecond != 1000*Microsecond || Second != 1000*Millisecond {
		t.Fatal("unit ladder broken")
	}
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds = %v, want 1.5", got)
	}
	if got := (2500 * Nanosecond).Microseconds(); got != 2.5 {
		t.Errorf("Microseconds = %v, want 2.5", got)
	}
	if got := (3 * Second).Seconds(); got != 3 {
		t.Errorf("Seconds = %v, want 3", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000us"},
		{4 * Millisecond, "4.000ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestKernelFiresInTimeOrder(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		k.Schedule(d, func() { fired = append(fired, k.Now()) })
	}
	k.Run()
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
	if k.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", k.Fired())
	}
}

func TestKernelSameTickFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(7, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-tick events fired out of schedule order: %v", order)
		}
	}
}

func TestKernelNegativeDelayClamps(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Schedule(10, func() {
		k.Schedule(-5, func() { ran = true })
		if e := k.At(3, func() {}); e.At() != 10 {
			t.Errorf("At in the past scheduled for %v, want clamped to 10", e.At())
		}
	})
	k.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	e := k.Schedule(10, func() { ran = true })
	k.Cancel(e)
	k.Cancel(e) // double-cancel is a no-op
	k.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", k.Pending())
	}
}

func TestKernelCancelFromHandler(t *testing.T) {
	k := NewKernel()
	ran := false
	var victim *Event
	k.Schedule(5, func() { k.Cancel(victim) })
	victim = k.Schedule(10, func() { ran = true })
	k.Run()
	if ran {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{10, 20, 30} {
		k.Schedule(d, func() { fired = append(fired, k.Now()) })
	}
	end := k.RunUntil(20)
	if end != 20 {
		t.Fatalf("RunUntil returned %v, want 20", end)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before limit, want 2", len(fired))
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
	// Resuming picks up the remaining event.
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel()
	if end := k.RunUntil(100); end != 100 {
		t.Fatalf("idle RunUntil returned %v, want 100", end)
	}
	if k.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", k.Now())
	}
}

func TestHalt(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 0; i < 10; i++ {
		k.Schedule(Time(i), func() {
			count++
			if count == 3 {
				k.Halt()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Halt, want 3", count)
	}
	if k.Pending() != 7 {
		t.Fatalf("Pending() = %d, want 7", k.Pending())
	}
}

func TestNilEventFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling nil fn did not panic")
		}
	}()
	NewKernel().Schedule(1, nil)
}

// TestQuickEventOrdering is a property test: for any set of delays, events
// fire in non-decreasing time order, ties broken by scheduling order, and
// the clock never moves backwards.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			i, d := i, d
			k.Schedule(Time(d), func() { fired = append(fired, rec{k.Now(), i}) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNestedScheduling: handlers that schedule further events preserve
// global time ordering.
func TestQuickNestedScheduling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var last Time
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if k.Now() < last {
				ok = false
			}
			last = k.Now()
			if depth <= 0 {
				return
			}
			n := rng.Intn(3)
			for i := 0; i < n; i++ {
				d := Time(rng.Intn(100))
				k.Schedule(d, func() { spawn(depth - 1) })
			}
		}
		for i := 0; i < 5; i++ {
			k.Schedule(Time(rng.Intn(50)), func() { spawn(4) })
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWeakEventsFireOnlyAmongOrdinaryWork(t *testing.T) {
	k := NewKernel()
	var weakAt []Time
	var rearm func()
	rearm = func() {
		weakAt = append(weakAt, k.Now())
		k.ScheduleWeak(10, rearm)
	}
	k.ScheduleWeak(10, rearm)
	if k.Pending() != 0 {
		t.Fatalf("weak events must not count toward Pending, got %d", k.Pending())
	}
	k.Schedule(25, func() {})
	end := k.Run()
	// Weak ticks at 10 and 20 have the ordinary event at 25 behind them and
	// fire; the re-armed tick at 30 outlives all ordinary work and must be
	// discarded without firing or advancing the clock.
	if want := []Time{10, 20}; len(weakAt) != 2 || weakAt[0] != want[0] || weakAt[1] != want[1] {
		t.Fatalf("weak ticks fired at %v, want %v", weakAt, want)
	}
	if end != 25 {
		t.Fatalf("trailing weak event advanced the clock: end = %v, want 25", end)
	}
}

func TestWeakEventCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	e := k.ScheduleWeak(5, func() { ran = true })
	k.Schedule(10, func() {})
	k.Cancel(e)
	if k.Pending() != 1 {
		t.Fatalf("cancelling a weak event disturbed Pending: %d", k.Pending())
	}
	k.Run()
	if ran {
		t.Fatal("cancelled weak event ran")
	}
}

// TestRestoreStateBoundsSeq: a restored sequence number must leave
// headroom. At the bound, same-instant events still dispatch in the order
// they were scheduled; above it, restore refuses the state instead of
// letting later numbers wrap past MaxUint64 and reorder dispatch.
func TestRestoreStateBoundsSeq(t *testing.T) {
	for _, seq := range []uint64{maxRestoreSeq + 1, math.MaxUint64} {
		if err := NewKernel().RestoreState(KernelState{Now: Microsecond, Seq: seq}); err == nil {
			t.Errorf("sequence number %d restored without error", seq)
		}
	}
	k := NewKernel()
	if err := k.RestoreState(KernelState{Now: Microsecond, Seq: maxRestoreSeq}); err != nil {
		t.Fatal(err)
	}
	var order []int
	for i := 0; i < 3; i++ {
		k.Schedule(Nanosecond, func() { order = append(order, i) })
	}
	k.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("same-instant events after restoring at the bound fired in order %v, want [0 1 2]", order)
	}
}
