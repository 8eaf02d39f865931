package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"relief/internal/sim"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry must report disabled")
	}
	r.SetPolicy("X")
	r.CounterFunc("cf", "", func() float64 { return 1 })
	r.GaugeFunc("gf", "", func() float64 { return 1 })
	r.Histogram("h", "").Observe(5)
	r.ObserveNodeLatency("app", 1, 2, 3, 4, 5)
	r.StartProbes(sim.NewKernel(), 0)
	r.FinalSample(0)
	if r.Samples() != 0 || r.Policy() != "" || r.Attribution() != nil {
		t.Fatal("nil registry must collect nothing")
	}
}

func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	var c, g float64
	r.CounterFunc("relief_c", "help", func() float64 { return c })
	r.GaugeFunc("relief_g", "help", func() float64 { return g })
	// Exports read the live values, not those at registration.
	c, g = 5, 2.5
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "relief_c 5") {
		t.Errorf("counter value wrong:\n%s", out)
	}
	if !strings.Contains(out, "relief_g 2.5") {
		t.Errorf("gauge value wrong:\n%s", out)
	}
}

func TestRegisterShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	one := func() float64 { return 1 }
	r.CounterFunc("m", "", one)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.GaugeFunc("m", "", one)
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "")
	for v := 1.0; v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("Max = %v", h.Max())
	}
	// Log buckets give upper-bound estimates: p50 of 1..1000 is in (256,512].
	if q := h.Quantile(0.5); q < 500 || q > 512 {
		t.Errorf("p50 = %v, want in [500,512]", q)
	}
	// The top quantiles cap at the exact max.
	if q := h.Quantile(0.99); q != 1000 {
		t.Errorf("p99 = %v, want 1000 (capped at max)", q)
	}
	if m := h.Mean(); m < 500 || m > 501 {
		t.Errorf("Mean = %v, want 500.5", m)
	}
	// Empty histogram quantile is 0.
	if q := r.Histogram("empty", "").Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

func TestProbeSamplingAndTermination(t *testing.T) {
	k := sim.NewKernel()
	r := NewRegistry()
	var ticks int
	r.GaugeFunc("relief_ticks", "", func() float64 { return float64(ticks) })
	// Simulated work: an event every 30us until 200us.
	var arm func(at sim.Time)
	arm = func(at sim.Time) {
		if at > 200*sim.Microsecond {
			return
		}
		k.At(at, func() {
			ticks++
			arm(at + 30*sim.Microsecond)
		})
	}
	arm(0)
	r.StartProbes(k, 50*sim.Microsecond)
	k.Run() // must drain: probes only re-arm while other events are pending
	r.FinalSample(k.Now())
	if r.Interval() != 50*sim.Microsecond {
		t.Fatalf("Interval = %v", r.Interval())
	}
	if r.Samples() < 4 {
		t.Fatalf("Samples = %d, want >= 4 over a 210us run at 50us", r.Samples())
	}
	// FinalSample at an already-sampled instant must not duplicate.
	n := r.Samples()
	r.FinalSample(k.Now())
	if r.Samples() != n {
		t.Fatal("FinalSample duplicated the last row")
	}
}

func TestCSVShape(t *testing.T) {
	k := sim.NewKernel()
	r := NewRegistry()
	r.GaugeFunc("b_metric", "", func() float64 { return 2 })
	r.GaugeFunc("a_metric", "", func() float64 { return 1 })
	k.At(120*sim.Microsecond, func() {})
	r.StartProbes(k, 50*sim.Microsecond)
	k.Run()
	r.FinalSample(k.Now())
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_us,a_metric,b_metric" {
		t.Fatalf("header = %q (columns must be name-sorted)", lines[0])
	}
	if len(lines) != 1+r.Samples() {
		t.Fatalf("%d data lines for %d samples", len(lines)-1, r.Samples())
	}
	if !strings.HasSuffix(lines[1], ",1,2") {
		t.Fatalf("row values wrong: %q", lines[1])
	}
}

func TestJSONSummary(t *testing.T) {
	r := NewRegistry()
	r.SetPolicy("RELIEF")
	r.CounterFunc("relief_c", "", func() float64 { return 3 })
	r.ObserveNodeLatency("canny", 10, 20, 30, 40, 0)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc["schema"] != SchemaJSON {
		t.Fatalf("schema = %v, want %s", doc["schema"], SchemaJSON)
	}
	if doc["policy"] != "RELIEF" {
		t.Fatalf("policy = %v", doc["policy"])
	}
	attr := doc["attribution"].(map[string]any)
	apps := attr["apps"].(map[string]any)
	if _, ok := apps["canny"]; !ok {
		t.Fatalf("attribution.apps missing canny: %v", apps)
	}
	// Emitting twice must yield identical bytes (deterministic key order).
	var buf2 bytes.Buffer
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("JSON export is not deterministic")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("relief_nodes_total", "nodes done", func() float64 { return 7 })
	r.GaugeFunc("relief_q{kind=\"isp\"}", "queue", func() float64 { return 2 })
	r.GaugeFunc("relief_q{kind=\"conv\"}", "queue", func() float64 { return 3 })
	h := r.Histogram("relief_lat_us", "latency")
	h.Observe(10)
	h.Observe(20)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE relief_nodes_total counter",
		"relief_nodes_total 7",
		"# TYPE relief_q gauge",
		`relief_q{kind="isp"} 2`,
		"# TYPE relief_lat_us summary",
		`relief_lat_us{quantile="0.5"}`,
		"relief_lat_us_sum 30",
		"relief_lat_us_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The labelled family must emit its TYPE header exactly once.
	if strings.Count(out, "# TYPE relief_q gauge") != 1 {
		t.Errorf("family TYPE emitted more than once:\n%s", out)
	}
}

func TestAttributionSums(t *testing.T) {
	r := NewRegistry()
	r.ObserveNodeLatency("a", 1, 2, 3, 4, 5)
	r.ObserveNodeLatency("a", 10, 0, 0, 30, 0)
	r.ObserveNodeLatency("b", 0, 0, 50, 50, 0)
	at := r.Attribution()
	if at.Total.Nodes != 3 || at.Total.Total != 155 {
		t.Fatalf("total bucket = %+v", at.Total)
	}
	b := at.Apps["b"]
	if b.StallShare() != 50 {
		t.Fatalf("b stall share = %v, want 50", b.StallShare())
	}
	wait, pure, stall, comp, wb := at.Apps["a"].Shares()
	if sum := wait + pure + stall + comp + wb; sum < 99.9 || sum > 100.1 {
		t.Fatalf("shares sum to %v, want 100", sum)
	}
	if r.FindHistogram("relief_node_latency_us").Count() != 3 {
		t.Fatal("node latency histogram not fed")
	}
}
