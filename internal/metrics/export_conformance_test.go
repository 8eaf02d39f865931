package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestEscapeLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"http://peer:8080/a,b", "http://peer:8080/a,b"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"tab\tstays", "tab\tstays"},             // spec: tabs are NOT escaped
		{"unicode µs stays", "unicode µs stays"}, // spec: UTF-8 raw
		{`all"three\of
them`, `all\"three\\of\nthem`},
	}
	for _, c := range cases {
		if got := EscapeLabelValue(c.in); got != c.want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestLabelHelper(t *testing.T) {
	if got, want := Label("m"), "m"; got != want {
		t.Errorf("Label no kvs = %q, want %q", got, want)
	}
	got := Label("m", "peer", `u"r\l`, "stage", "run")
	want := `m{peer="u\"r\\l",stage="run"}`
	if got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
}

// TestPrometheusLabelEscapingGolden locks the exposition bytes for label
// values carrying every character the text format requires escaped —
// a peer URL can legally contain quotes, backslashes, and (via header
// smuggling bugs) newlines, and the scrape must stay parseable.
func TestPrometheusLabelEscapingGolden(t *testing.T) {
	r := NewRegistry()
	hostile := "http://pe\"er\\8080\nx"
	r.CounterFunc(Label("relief_peer_hits_total", "peer", hostile), "peer cache hits",
		func() float64 { return 2 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP relief_peer_hits_total peer cache hits\n" +
		"# TYPE relief_peer_hits_total counter\n" +
		`relief_peer_hits_total{peer="http://pe\"er\\8080\nx"} 2` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// No raw newline may survive inside a sample line.
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "http://pe") && !strings.Contains(line, `\n`) {
			t.Errorf("raw newline leaked into exposition line %q", line)
		}
	}
}

// TestBucketHistogramExposition locks the TYPE histogram rendering:
// cumulative le buckets, +Inf, _sum/_count, labels preserved before the
// suffix.
func TestBucketHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.BucketHistogram(Label("relief_serve_stage_latency_ms", "stage", "run"),
		"per-stage latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 3, 50, 1000} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP relief_serve_stage_latency_ms per-stage latency\n" +
		"# TYPE relief_serve_stage_latency_ms histogram\n" +
		`relief_serve_stage_latency_ms_bucket{stage="run",le="1"} 2` + "\n" +
		`relief_serve_stage_latency_ms_bucket{stage="run",le="10"} 3` + "\n" +
		`relief_serve_stage_latency_ms_bucket{stage="run",le="100"} 4` + "\n" +
		`relief_serve_stage_latency_ms_bucket{stage="run",le="+Inf"} 5` + "\n" +
		`relief_serve_stage_latency_ms_sum{stage="run"} 1054.5` + "\n" +
		`relief_serve_stage_latency_ms_count{stage="run"} 5` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestBucketHistogramFamilyHeaderOnce: several labelled series of one
// family share a single HELP/TYPE header.
func TestBucketHistogramFamilyHeaderOnce(t *testing.T) {
	r := NewRegistry()
	for _, stage := range []string{"cache", "run"} {
		r.BucketHistogram(Label("relief_serve_stage_latency_ms", "stage", stage),
			"per-stage latency", []float64{1}).Observe(0.5)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "# TYPE relief_serve_stage_latency_ms histogram"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1:\n%s", n, buf.String())
	}
}

func TestBucketHistogramNilAndMisuse(t *testing.T) {
	var h *BucketHistogram
	h.Observe(1) // no-op, no panic
	if h.Count() != 0 || h.Sum() != 0 || h.Name() != "" {
		t.Error("nil BucketHistogram not a no-op")
	}
	r := NewRegistry()
	r.BucketHistogram("x", "h", []float64{1, 2})
	// Same name + same bounds fetches the existing histogram.
	if r.BucketHistogram("x", "h", []float64{1, 2}) == nil {
		t.Error("re-fetch returned nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering with different bounds did not panic")
		}
	}()
	r.BucketHistogram("x", "h", []float64{1, 3})
}

// TestBucketHistogramExcludedFromJSON: the relief-metrics/1 document (and
// its golden digest) must not change when bucket histograms exist.
func TestBucketHistogramExcludedFromJSON(t *testing.T) {
	r1 := NewRegistry()
	r2 := NewRegistry()
	r2.BucketHistogram("relief_serve_stage_latency_ms", "x", []float64{1}).Observe(5)
	var b1, b2 bytes.Buffer
	if err := r1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("bucket histogram leaked into JSON summary:\n%s", b2.String())
	}
	var c1, c2 bytes.Buffer
	if err := r1.WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if c1.String() != c2.String() {
		t.Errorf("bucket histogram leaked into CSV:\n%s", c2.String())
	}
}
