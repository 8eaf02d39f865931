package relief_test

import (
	"bytes"
	"strings"
	"testing"

	"relief"
)

func TestSubmitPeriodicFacade(t *testing.T) {
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"})
	d, err := relief.BuildWorkload("canny")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitPeriodic(d, 16600*relief.Microsecond, 50*relief.Millisecond); err != nil {
		t.Fatal(err)
	}
	rep := sys.RunFor(60 * relief.Millisecond)
	a := rep.Apps["canny"]
	if a.Iterations != 4 { // releases at 0, 16.6, 33.2, 49.8 ms
		t.Fatalf("periodic canny finished %d frames, want 4", a.Iterations)
	}
	if a.DeadlinesMet != 4 {
		t.Errorf("uncontended periodic canny missed deadlines: %d/4", a.DeadlinesMet)
	}
}

// TestSubmitSameDAGTwiceFails: a DAG runs once. Every later submit of it,
// to the same system or another, is an error rather than a silently
// dropped release; a clone runs as a new iteration.
func TestSubmitSameDAGTwiceFails(t *testing.T) {
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"})
	d, err := relief.BuildWorkload("canny")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	other := relief.NewSystem(relief.Config{Policy: "RELIEF"})
	for name, submit := range map[string]func() error{
		"Submit":                func() error { return sys.Submit(d, relief.Millisecond) },
		"SubmitLoop":            func() error { return sys.SubmitLoop(d, relief.Millisecond) },
		"SubmitPeriodic":        func() error { return sys.SubmitPeriodic(d, relief.Millisecond, 5*relief.Millisecond) },
		"Submit to another":     func() error { return other.Submit(d, 0) },
		"SubmitLoop to another": func() error { return other.SubmitLoop(d, 0) },
	} {
		if err := submit(); err == nil {
			t.Errorf("%s of an already submitted DAG returned nil", name)
		}
	}
	if d.Loop {
		t.Error("a refused SubmitLoop marked the DAG as looping")
	}
	if err := sys.Submit(d.Clone(), relief.Millisecond); err != nil {
		t.Fatalf("submitting a clone: %v", err)
	}
	rep := sys.Run()
	if a := rep.Apps["canny"]; a.Iterations != 2 || rep.NodesDone != 2*len(d.Nodes) {
		t.Errorf("finished %d iterations and %d nodes, want 2 and %d", a.Iterations, rep.NodesDone, 2*len(d.Nodes))
	}
}

func TestTraceThroughFacade(t *testing.T) {
	rec := relief.NewTraceRecorder()
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF", Trace: rec})
	d, _ := relief.BuildWorkload("gru")
	if err := sys.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if rec.Len() == 0 {
		t.Fatal("trace recorded nothing")
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || buf.Bytes()[0] != '[' {
		t.Fatal("chrome trace output malformed")
	}
}

func TestWriteGem5StatsFacade(t *testing.T) {
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"})
	d, _ := relief.BuildWorkload("canny")
	if err := sys.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	var buf bytes.Buffer
	if err := sys.WriteGem5Stats(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sim_ticks") || !strings.Contains(out, "system.app.canny.iterations") {
		t.Fatalf("gem5 stats incomplete:\n%s", out[:200])
	}
}

func TestMetricsThroughFacade(t *testing.T) {
	reg := relief.NewMetricsRegistry()
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"},
		relief.WithMetrics(reg), relief.WithMetricsInterval(20*relief.Microsecond))
	d, _ := relief.BuildWorkload("canny")
	if err := sys.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if reg.Samples() == 0 {
		t.Fatal("probes collected no samples")
	}
	at := reg.Attribution()
	if at == nil || at.Total.Nodes == 0 {
		t.Fatal("attribution recorded no nodes")
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema": "relief-metrics/1"`) {
		t.Fatal("JSON summary missing schema header")
	}
}
