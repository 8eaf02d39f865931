package exp

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"relief/internal/accel"
	"relief/internal/ckpt"
	"relief/internal/dram"
	"relief/internal/fault"
	"relief/internal/manager"
	"relief/internal/metrics"
	"relief/internal/sim"
	"relief/internal/workload"
)

// periodicScenario is the checkpoint test grid's base point: a two-app mix
// released every 5 ms until 20 ms, which quiesces between iterations (each
// iteration's makespan is ~3.7 ms).
func periodicScenario(t *testing.T) Scenario {
	t.Helper()
	mix, err := workload.ParseMix("CG")
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Mix:        mix,
		Contention: workload.Contention(len(mix)),
		Policy:     "RELIEF",
		Period:     5 * sim.Millisecond,
		Horizon:    20 * sim.Millisecond,
	}
}

// summaryDoc renders the run summary document — the restore contract's unit
// of comparison (relief-sim stdout, the serving layer's Text field).
func summaryDoc(t *testing.T, sc Scenario, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteSummary(&b, sc, res.Stats); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// restoreIdentical asserts the heart of the checkpoint contract: warming sc
// to a checkpoint at warmAt, restoring, and running to the horizon yields a
// summary document byte-identical to an uninterrupted cold run.
func restoreIdentical(t *testing.T, sc Scenario, warmAt sim.Time) {
	t.Helper()
	ctx := context.Background()
	env, err := RunToCheckpoint(ctx, sc, warmAt)
	if err != nil {
		t.Fatalf("RunToCheckpoint: %v", err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatalf("ckpt.Open: %v", err)
	}
	if opened.Key != ScenarioKey(sc) || opened.ForkKey != ForkKey(sc) {
		t.Fatalf("envelope keys: key=%q fork=%q", opened.Key, opened.ForkKey)
	}
	warm, err := RunFromCheckpoint(ctx, sc, opened)
	if err != nil {
		t.Fatalf("RunFromCheckpoint: %v", err)
	}
	cold, err := Run(sc)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if w, c := summaryDoc(t, sc, warm), summaryDoc(t, sc, cold); w != c {
		t.Errorf("restored run diverged from cold run (captured at %v):\nwarm:\n%s\ncold:\n%s",
			sim.Time(opened.CapturedPs), w, c)
	}
}

// TestCheckpointRestoreGrid pins restore byte-identity across the platform
// knobs whose state the checkpoint carries: the scheduling policy, the
// crossbar interconnect, the bank-level DRAM controller, a stateful
// bandwidth predictor, and the base configuration.
func TestCheckpointRestoreGrid(t *testing.T) {
	base := periodicScenario(t)
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"base", func(sc *Scenario) {}},
		{"fcfs", func(sc *Scenario) { sc.Policy = "FCFS" }},
		{"crossbar", func(sc *Scenario) { sc.Platform.Topology = "xbar" }},
		{"detailed-dram", func(sc *Scenario) { sc.Platform.DetailedDRAM = true }},
		{"ewma-predictor", func(sc *Scenario) { sc.Platform.BWPredictor = "ewma" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			tc.mutate(&sc)
			restoreIdentical(t, sc, 8*sim.Millisecond)
		})
	}
}

// TestCheckpointRestoreWithFaults covers the fault injector's PRNG draw
// position: the restored injector must continue the random sequence exactly
// where the warm run left it, including scripted instance deaths on either
// side of the capture instant (satellite: fault-plan round-trip).
func TestCheckpointRestoreWithFaults(t *testing.T) {
	cases := []struct {
		name    string
		plan    *fault.Plan
		warm    sim.Time
		horizon sim.Time
	}{
		// Stochastic plans keep iterations busy longer (retries, slowdowns),
		// so not every release instant quiesces; a longer horizon leaves the
		// capture room to land at a later release.
		{"profile", fault.Profile(0.02, 7), 15 * sim.Millisecond, 40 * sim.Millisecond},
		{"death-before-capture", &fault.Plan{Seed: 3, DieAt: map[int]sim.Time{0: 2 * sim.Millisecond}}, 8 * sim.Millisecond, 0},
		{"death-after-capture", &fault.Plan{Seed: 3, DieAt: map[int]sim.Time{0: 12 * sim.Millisecond}}, 8 * sim.Millisecond, 0},
		{"slow-tasks", &fault.Plan{Seed: 42, Rates: fault.Rates{TaskSlow: 0.15, SlowFactor: 4}}, 8 * sim.Millisecond, 100 * sim.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := periodicScenario(t)
			sc.Faults = tc.plan
			if tc.horizon > 0 {
				sc.Horizon = tc.horizon
			}
			restoreIdentical(t, sc, tc.warm)
		})
	}
}

// TestCheckpointMetricsNeutral asserts the capture itself is bit-neutral:
// warming with a metrics registry attached (probe events consume kernel
// sequence numbers but read state only) and restoring yields the same
// summary as a plain cold run without metrics (satellite: metrics
// round-trip).
func TestCheckpointMetricsNeutral(t *testing.T) {
	ctx := context.Background()
	sc := periodicScenario(t)

	metricised := sc
	metricised.Metrics = metrics.NewRegistry()
	metricised.MetricsInterval = sc.Period
	env, err := RunToCheckpoint(ctx, metricised, 8*sim.Millisecond)
	if err != nil {
		t.Fatalf("metricised RunToCheckpoint: %v", err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunFromCheckpoint(ctx, sc, opened)
	if err != nil {
		t.Fatalf("RunFromCheckpoint: %v", err)
	}
	cold, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if w, c := summaryDoc(t, sc, warm), summaryDoc(t, sc, cold); w != c {
		t.Errorf("metricised warm + restore diverged from plain cold run:\nwarm:\n%s\ncold:\n%s", w, c)
	}
}

// TestCheckpointHorizonFork pins the fork-key contract: one checkpoint
// captured under a 20 ms horizon restores bit-identically into runs with
// any horizon beyond its capture instant, because pending future releases
// cannot affect earlier state.
func TestCheckpointHorizonFork(t *testing.T) {
	ctx := context.Background()
	sc := periodicScenario(t)
	env, err := RunToCheckpoint(ctx, sc, 8*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, horizon := range []sim.Time{15 * sim.Millisecond, 25 * sim.Millisecond, 40 * sim.Millisecond} {
		fork := sc
		fork.Horizon = horizon
		warm, err := RunFromCheckpoint(ctx, fork, opened)
		if err != nil {
			t.Fatalf("fork to %v: %v", horizon, err)
		}
		cold, err := Run(fork)
		if err != nil {
			t.Fatal(err)
		}
		if w, c := summaryDoc(t, fork, warm), summaryDoc(t, fork, cold); w != c {
			t.Errorf("horizon fork %v diverged:\nwarm:\n%s\ncold:\n%s", horizon, w, c)
		}
	}
	// A horizon at or before the capture instant has nothing left to run.
	tooShort := sc
	tooShort.Horizon = sim.Time(opened.CapturedPs)
	if _, err := RunFromCheckpoint(ctx, tooShort, opened); err == nil {
		t.Error("fork to a horizon at the capture instant should fail")
	}
}

// TestCheckpointEnvelopeTamper pins the envelope integrity checks: payload
// corruption, schema drift, and malformed framing are all rejected.
func TestCheckpointEnvelopeTamper(t *testing.T) {
	sc := periodicScenario(t)
	env, err := RunToCheckpoint(context.Background(), sc, 8*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Open(env); err != nil {
		t.Fatalf("pristine envelope rejected: %v", err)
	}

	tampered := bytes.Replace(env, []byte(`"payload":"`), []byte(`"payload":"AAAA`), 1)
	if bytes.Equal(tampered, env) {
		t.Fatal("tamper did not change the envelope")
	}
	if _, err := ckpt.Open(tampered); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("payload tamper: err=%v, want checksum mismatch", err)
	}

	wrongSchema := bytes.Replace(env, []byte(ckpt.Schema), []byte("relief-ckpt/9"), 1)
	if _, err := ckpt.Open(wrongSchema); err == nil {
		t.Error("unknown schema accepted")
	}

	if _, err := ckpt.Open([]byte("not json")); err == nil {
		t.Error("malformed envelope accepted")
	}

	// The checksum guards integrity, not authenticity: a re-sealed payload
	// with out-of-range instance state opens fine, so restore itself must
	// refuse it with an error, never a panic or a silently wrong state.
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*manager.InstanceState){
		"next partition": func(is *manager.InstanceState) { is.NextPart = 99 },
		"health":         func(is *manager.InstanceState) { is.Health = 258 },
	} {
		bad := resealCheckpoint(t, opened, func(ck *manager.Checkpoint) { mutate(&ck.Instances[0]) })
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: restore panicked: %v", name, p)
				}
			}()
			if _, err := RunFromCheckpoint(context.Background(), sc, bad); err == nil {
				t.Errorf("%s: out-of-range instance state restored without error", name)
			}
		}()
	}
}

// resealCheckpoint decodes a checkpoint payload, applies mutate, and
// re-encodes and re-seals it: a crafted checkpoint that passes the
// envelope's integrity check, so only restore itself can refuse it.
func resealCheckpoint(t *testing.T, opened *ckpt.Envelope, mutate func(*manager.Checkpoint)) *ckpt.Envelope {
	t.Helper()
	var ck manager.Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(opened.Payload)).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	mutate(&ck)
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&ck); err != nil {
		t.Fatal(err)
	}
	resealed, err := ckpt.Seal(opened.Key, opened.ForkKey, opened.CapturedPs, payload.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := ckpt.Open(resealed)
	if err != nil {
		t.Fatalf("re-sealed envelope rejected by Open: %v", err)
	}
	return bad
}

// TestCheckpointRestoreRejectsMovedClock: a checkpoint whose kernel clock
// differs from its capture instant is refused. Moving the clock forward
// used to be accepted and silently halved the edges the run reported.
func TestCheckpointRestoreRejectsMovedClock(t *testing.T) {
	sc := periodicScenario(t)
	env, err := RunToCheckpoint(context.Background(), sc, 8*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	for name, shift := range map[string]sim.Time{"forward": 20 * sim.Millisecond, "backward": -sim.Millisecond} {
		bad := resealCheckpoint(t, opened, func(ck *manager.Checkpoint) { ck.Kernel.Now += shift })
		if _, err := RunFromCheckpoint(context.Background(), sc, bad); err == nil || !strings.Contains(err.Error(), "kernel clock") {
			t.Errorf("%s: restore error = %v, want a kernel clock mismatch", name, err)
		}
	}
}

// TestCheckpointRestoreRejectsImpossibleState: manager state that no
// quiescent capture can produce is refused with an error. Each case used to
// restore without one.
func TestCheckpointRestoreRejectsImpossibleState(t *testing.T) {
	sc := periodicScenario(t)
	env, err := RunToCheckpoint(context.Background(), sc, 8*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*manager.Checkpoint)
		want   string
	}{
		{"deaths without a dead instance", func(ck *manager.Checkpoint) { ck.Deaths = 1 }, "instance deaths"},
		{"negative deaths", func(ck *manager.Checkpoint) { ck.Deaths = -3 }, "instance deaths"},
		{"uncounted dead instance", func(ck *manager.Checkpoint) { ck.Instances[0].Health = int(accel.Dead) }, "instance deaths"},
		{"negative free-at", func(ck *manager.Checkpoint) { ck.FreeAt = -1 }, "manager times"},
		{"free-at after capture", func(ck *manager.Checkpoint) { ck.FreeAt = ck.CapturedAt + 1 }, "manager times"},
		{"negative last-done", func(ck *manager.Checkpoint) { ck.LastDone = -1 }, "manager times"},
		{"last-done after capture", func(ck *manager.Checkpoint) { ck.LastDone = math.MaxInt64 }, "manager times"},
		{"negative compute busy", func(ck *manager.Checkpoint) { ck.Instances[0].ComputeBusy = -1 }, "compute busy"},
		// Sequence numbers would wrap a few events into the restored run.
		{"sequence number without headroom", func(ck *manager.Checkpoint) { ck.Kernel.Seq = math.MaxUint64 - 1 }, "sequence number"},
		// The payload stays self-consistent, so only the envelope, whose
		// instant the horizon check reads, disagrees with it.
		{"capture instant other than the envelope's", func(ck *manager.Checkpoint) {
			ck.CapturedAt += 5 * sim.Millisecond
			ck.Kernel.Now += 5 * sim.Millisecond
		}, "envelope"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := resealCheckpoint(t, opened, c.mutate)
			if _, err := RunFromCheckpoint(context.Background(), sc, bad); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("restore error = %v, want one naming %q", err, c.want)
			}
		})
	}
}

// TestCheckpointRestoreRejectsImpossibleDRAMState: DRAM controller state
// that no quiescent capture can produce is refused with an error. Each case
// used to restore without one. (The refresh-off bound, a non-zero next
// refresh, has no case here: every platform runs refresh; the dram
// package's own restore test covers it.)
func TestCheckpointRestoreRejectsImpossibleDRAMState(t *testing.T) {
	sc := periodicScenario(t)
	sc.Platform.DetailedDRAM = true
	env, err := RunToCheckpoint(context.Background(), sc, 8*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	trefi := dram.LPDDR5().TREFI
	cases := []struct {
		name   string
		mutate func(*manager.Checkpoint)
		want   string
	}{
		{"next refresh off the tREFI grid", func(ck *manager.Checkpoint) { ck.DRAM.Channels[0].NextRefresh += sim.Nanosecond }, "multiple of tREFI"},
		{"next refresh past capture", func(ck *manager.Checkpoint) {
			ck.DRAM.Channels[0].NextRefresh = (ck.CapturedAt/trefi + 2) * trefi
		}, "past the capture"},
		{"open row beyond cursor", func(ck *manager.Checkpoint) {
			ck.DRAM.Channels[0].Banks[0] = dram.BankState{OpenRow: 1 << 40, Valid: true}
		}, "last the cursor has addressed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := resealCheckpoint(t, opened, c.mutate)
			if _, err := RunFromCheckpoint(context.Background(), sc, bad); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("restore error = %v, want one naming %q", err, c.want)
			}
		})
	}
	// The unaltered checkpoint still restores.
	if _, err := RunFromCheckpoint(context.Background(), sc, opened); err != nil {
		t.Errorf("restoring the captured checkpoint: %v", err)
	}
}

// TestCheckpointRequiresPeriodic pins the mode restrictions: checkpointing
// is periodic-only, and tracing cannot cross a checkpoint.
func TestCheckpointRequiresPeriodic(t *testing.T) {
	ctx := context.Background()
	sc := periodicScenario(t)

	aperiodic := sc
	aperiodic.Period = 0
	if _, err := RunToCheckpoint(ctx, aperiodic, 8*sim.Millisecond); err == nil {
		t.Error("aperiodic RunToCheckpoint should fail")
	}

	env, err := RunToCheckpoint(ctx, sc, 8*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFromCheckpoint(ctx, aperiodic, opened); err == nil {
		t.Error("aperiodic RunFromCheckpoint should fail")
	}

	// A scenario differing in more than the horizon has a different fork key.
	other := sc
	other.Policy = "FCFS"
	if _, err := RunFromCheckpoint(ctx, other, opened); err == nil {
		t.Error("fork-key mismatch accepted")
	}
}

// TestCheckpointRejectsOtherPlatform: warmed state is only reusable under
// the platform that produced it, so the fork key covers the resolved
// platform — another spelling of the same platform restores, a different
// one is refused.
func TestCheckpointRejectsOtherPlatform(t *testing.T) {
	ctx := context.Background()
	sc := periodicScenario(t)
	sc.Platform = PlatformSpec{DRAMGBs: 4}
	env, err := RunToCheckpoint(ctx, sc, 8*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	same := sc
	same.Platform = PlatformSpec{DRAMGBs: 4, BWPredictor: "max", Instances: map[string]int{"isp": 1}}
	if _, err := RunFromCheckpoint(ctx, same, opened); err != nil {
		t.Errorf("restore under an equal platform: %v", err)
	}
	other := sc
	other.Platform = PlatformSpec{DRAMGBs: 12, SchedBaseNS: 900}
	if _, err := RunFromCheckpoint(ctx, other, opened); err == nil || !strings.Contains(err.Error(), "fork key mismatch") {
		t.Errorf("restore across platforms: err=%v, want a fork key mismatch", err)
	}
}

// TestCheckpointBytesDeterministic: one warm run writes one envelope. The
// payload carries Stats.Apps as a name-sorted slice because gob encodes a
// map in iteration order, which differs from run to run.
func TestCheckpointBytesDeterministic(t *testing.T) {
	sc := periodicScenario(t)
	mix, err := workload.ParseMix("CGL")
	if err != nil {
		t.Fatal(err)
	}
	sc.Mix, sc.Contention = mix, workload.Contention(len(mix))
	sc.Period, sc.Horizon = 10*sim.Millisecond, 40*sim.Millisecond
	var first []byte
	for i := 0; i < 24; i++ {
		env, err := RunToCheckpoint(context.Background(), sc, 16*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = env
		} else if !bytes.Equal(env, first) {
			t.Fatalf("capture %d differs from capture 0 (%d vs %d bytes)", i, len(env), len(first))
		}
	}
}
