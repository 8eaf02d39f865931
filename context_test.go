package relief_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"relief"
)

func loopSystem(t *testing.T, opts ...relief.Option) *relief.System {
	t.Helper()
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"}, opts...)
	for _, name := range []string{"canny", "gru", "lstm"} {
		d, err := relief.BuildWorkload(name)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		if err := sys.SubmitLoop(d, 0); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
	}
	return sys
}

// TestRunForContextCancelledMidRun: cancelling from another goroutine while
// the kernel is dispatching must abort the run with a clean wrapped context
// error and no Report — never partial statistics. Run under -race this also
// proves the cancellation poll is race-free.
//
// A wall-clock sleep would race the (fast) event loop, so the test gates on
// the simulation itself: a metrics probe — sampled on the simulation
// goroutine mid-run — parks the run until a second goroutine has cancelled
// the context, guaranteeing the cancellation lands while events remain.
func TestRunForContextCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	gate := make(chan struct{})      // closed by the probe: simulation mid-run
	cancelled := make(chan struct{}) // closed once cancel() has run
	go func() {
		<-gate
		cancel()
		close(cancelled)
	}()
	reg := relief.NewMetricsRegistry()
	reg.GaugeFunc("test_cancel_gate", "parks the first probe until cancelled", func() float64 {
		once.Do(func() {
			close(gate)
			<-cancelled
		})
		return 0
	})
	sys := loopSystem(t, relief.WithMetrics(reg))
	rep, err := sys.RunForContext(ctx, 50*relief.Millisecond)
	if err == nil {
		t.Fatal("cancelled run returned no error (cancel landed too late?)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if rep != nil {
		t.Fatalf("cancelled run leaked a report: %+v", rep)
	}
}

// TestRunContextCompletesWithoutCancel: an unexercised context changes
// nothing — the run completes and reports normally.
func TestRunContextCompletesWithoutCancel(t *testing.T) {
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"})
	d, err := relief.BuildWorkload("canny")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if rep == nil || rep.NodesDone == 0 {
		t.Fatal("completed run reported nothing")
	}
	// And the uncancellable Background context installed no interrupt, so
	// the report matches a plain Run bit-for-bit.
	ref := relief.NewSystem(relief.Config{Policy: "RELIEF"})
	d2, _ := relief.BuildWorkload("canny")
	if err := ref.Submit(d2, 0); err != nil {
		t.Fatal(err)
	}
	if want := ref.Run(); want.Makespan != rep.Makespan || want.NodesDone != rep.NodesDone {
		t.Fatalf("context-aware run diverged: makespan %v vs %v", rep.Makespan, want.Makespan)
	}
}

// TestRunContextPreCancelled: an already-cancelled context never starts the
// simulation.
func TestRunContextPreCancelled(t *testing.T) {
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"})
	d, err := relief.BuildWorkload("canny")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := sys.RunContext(ctx)
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("pre-cancelled run: rep=%v err=%v", rep, err)
	}
}
