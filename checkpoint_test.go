package relief_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"relief"
)

// submitFrames releases canny and gru every 5 ms until 40 ms: a periodic
// schedule that quiesces between frames, so it can be checkpointed.
func submitFrames(t *testing.T, sys *relief.System) {
	t.Helper()
	for _, app := range []string{"canny", "gru"} {
		d, err := relief.BuildWorkload(app)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SubmitPeriodic(d, 5*relief.Millisecond, 40*relief.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFacadeCheckpointRoundTrip drives the public checkpoint API end to
// end: WithCheckpoint captures a warmed system, RunFrom restores it, and
// the resumed run reports exactly what an uninterrupted run does. Restore
// refuses tracing, tampered envelopes and cancelled contexts.
func TestFacadeCheckpointRoundTrip(t *testing.T) {
	cfg := relief.Config{Policy: "RELIEF"}
	const horizon = 40 * relief.Millisecond

	cold := relief.NewSystem(cfg)
	submitFrames(t, cold)
	want := cold.RunFor(horizon)

	warm := relief.NewSystem(cfg, relief.WithCheckpoint(8*relief.Millisecond))
	submitFrames(t, warm)
	warm.RunFor(horizon)
	env, err := warm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	restored, at, err := relief.RunFrom(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if at < 8*relief.Millisecond || at >= horizon {
		t.Fatalf("captured at %v, want in [8ms, %v)", at, horizon)
	}
	submitFrames(t, restored)
	got := restored.RunFor(horizon)
	if got.NodesDone != want.NodesDone || got.NodesMetDeadline != want.NodesMetDeadline ||
		got.DRAMBytes != want.DRAMBytes || got.Makespan != want.Makespan {
		t.Fatalf("restored run diverged from cold run:\n got  done=%d met=%d dram=%d makespan=%v\n want done=%d met=%d dram=%d makespan=%v",
			got.NodesDone, got.NodesMetDeadline, got.DRAMBytes, got.Makespan,
			want.NodesDone, want.NodesMetDeadline, want.DRAMBytes, want.Makespan)
	}

	traced := cfg
	traced.Trace = relief.NewTraceRecorder()
	if _, _, err := relief.RunFrom(traced, env); err == nil {
		t.Error("RunFrom accepted a tracing configuration")
	}

	tampered := bytes.Replace(env, []byte(`"payload":"`), []byte(`"payload":"AAAA`), 1)
	if _, _, err := relief.RunFrom(cfg, tampered); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("tampered envelope: err=%v, want checksum mismatch", err)
	}

	again, _, err := relief.RunFrom(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	submitFrames(t, again)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rep, err := again.RunForContext(ctx, horizon); !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("cancelled restored run: rep=%v err=%v", rep, err)
	}
}

// TestFacadeLoopNeverCheckpoints: a looping DAG's later iterations are
// released when the previous one finishes, which a restored run cannot
// re-derive, so arming a checkpoint after the loop starts captures nothing
// even when the loop runs alone and quiesces between iterations.
func TestFacadeLoopNeverCheckpoints(t *testing.T) {
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"}, relief.WithCheckpoint(relief.Millisecond))
	d, err := relief.BuildWorkload("gru")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitLoop(d, 0); err != nil {
		t.Fatal(err)
	}
	if rep := sys.RunFor(30 * relief.Millisecond); rep.Apps["gru"].Iterations < 2 {
		t.Fatalf("loop finished %d iterations, want >= 2", rep.Apps["gru"].Iterations)
	}
	if _, err := sys.Checkpoint(); err == nil {
		t.Fatal("a loop's dynamic release was captured; a restored run could not re-derive it")
	}
}
