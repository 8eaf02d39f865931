package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// SchemaJSON identifies the JSON summary layout. Bump on incompatible
// change; the golden digest test locks the rendered bytes.
const SchemaJSON = "relief-metrics/1"

// WriteCSV renders the probe time series: one header row (time_us plus
// every sampled column, sorted by name) and one row per probe tick. Values
// use shortest-round-trip formatting, so the output is deterministic.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	cols := r.cols
	if cols == nil {
		cols = r.sortedMetrics()
	}
	var b strings.Builder
	b.WriteString("time_us")
	for _, m := range cols {
		b.WriteByte(',')
		b.WriteString(csvEscape(m.name))
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for i, row := range r.rows {
		b.Reset()
		b.WriteString(strconv.FormatFloat(r.times[i].Microseconds(), 'g', -1, 64))
		for _, v := range row {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// csvEscape quotes a field if it contains CSV metacharacters (metric names
// with label strings contain quotes and commas).
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// histJSON is a histogram's summary in the JSON export.
type histJSON struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// attrJSON is one attribution bucket in the JSON export (microseconds).
type attrJSON struct {
	Nodes         int     `json:"nodes"`
	SchedWaitUS   float64 `json:"sched_wait_us"`
	DMAPureUS     float64 `json:"dma_transfer_us"`
	DMAStallUS    float64 `json:"dma_stall_us"`
	ComputeUS     float64 `json:"compute_us"`
	WritebackUS   float64 `json:"writeback_us"`
	TotalUS       float64 `json:"total_us"`
	StallSharePct float64 `json:"stall_share_pct"`
}

func bucketJSON(b *AttrBucket) attrJSON {
	return attrJSON{
		Nodes:         b.Nodes,
		SchedWaitUS:   b.SchedWait.Microseconds(),
		DMAPureUS:     b.DMAPure.Microseconds(),
		DMAStallUS:    b.DMAStall.Microseconds(),
		ComputeUS:     b.Compute.Microseconds(),
		WritebackUS:   b.Writeback.Microseconds(),
		TotalUS:       b.Total.Microseconds(),
		StallSharePct: b.StallShare(),
	}
}

// summaryJSON is the relief-metrics/1 document. Maps are used for all
// name-keyed sections: encoding/json sorts map keys, so the byte output is
// deterministic and golden-digest friendly.
type summaryJSON struct {
	Schema          string              `json:"schema"`
	Policy          string              `json:"policy"`
	ProbeIntervalUS float64             `json:"probe_interval_us"`
	ProbeSamples    int                 `json:"probe_samples"`
	Metrics         map[string]float64  `json:"metrics"`
	Histograms      map[string]histJSON `json:"histograms"`
	Attribution     struct {
		Apps  map[string]attrJSON `json:"apps"`
		Total attrJSON            `json:"total"`
	} `json:"attribution"`
}

// WriteJSON renders the end-of-run summary: final counter/gauge values,
// histogram percentiles, and the latency attribution record, under schema
// relief-metrics/1 with stable key order.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	doc := summaryJSON{
		Schema:          SchemaJSON,
		Policy:          r.policy,
		ProbeIntervalUS: r.interval.Microseconds(),
		ProbeSamples:    len(r.times),
		Metrics:         make(map[string]float64, len(r.metrics)),
		Histograms:      make(map[string]histJSON, len(r.hists)),
	}
	for _, m := range r.metrics {
		doc.Metrics[m.name] = m.fn()
	}
	for _, h := range r.hists {
		doc.Histograms[h.name] = histJSON{
			Count: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			Max: h.Max(),
		}
	}
	doc.Attribution.Apps = make(map[string]attrJSON, len(r.attr.Apps))
	for app, b := range r.attr.Apps {
		doc.Attribution.Apps[app] = bucketJSON(b)
	}
	doc.Attribution.Total = bucketJSON(&r.attr.Total)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format: counters and gauges with their final values, histograms as
// summaries with p50/p95/p99 quantiles. Metric names may carry baked-in
// labels ({k="v"}); HELP/TYPE headers are emitted once per metric family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.sortedMetrics() {
		fam := familyOf(m.name)
		if fam != lastFamily {
			lastFamily = fam
			typ := "gauge"
			if m.counter {
				typ = "counter"
			}
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", fam, m.help, fam, typ)
		}
		fmt.Fprintf(&b, "%s %s\n", m.name, fmtFloat(m.fn()))
	}
	for _, h := range r.sortedHists() {
		fam := familyOf(h.name)
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s summary\n", fam, h.help, fam)
		for _, q := range []struct {
			label string
			v     float64
		}{
			{"0.5", h.Quantile(0.50)},
			{"0.95", h.Quantile(0.95)},
			{"0.99", h.Quantile(0.99)},
		} {
			fmt.Fprintf(&b, "%s %s\n", withLabel(h.name, "quantile", q.label), fmtFloat(q.v))
		}
		fmt.Fprintf(&b, "%s %s\n", suffixed(h.name, "_sum"), fmtFloat(h.Sum()))
		fmt.Fprintf(&b, "%s %d\n", suffixed(h.name, "_count"), h.Count())
	}
	lastFamily = ""
	for _, h := range r.sortedBucketHists() {
		fam := familyOf(h.name)
		if fam != lastFamily {
			lastFamily = fam
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", fam, h.help, fam)
		}
		var cum uint64
		for i, ub := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(&b, "%s %d\n", withLabel(suffixed(h.name, "_bucket"), "le", fmtFloat(ub)), cum)
		}
		fmt.Fprintf(&b, "%s %d\n", withLabel(suffixed(h.name, "_bucket"), "le", "+Inf"), h.count)
		fmt.Fprintf(&b, "%s %s\n", suffixed(h.name, "_sum"), fmtFloat(h.sum))
		fmt.Fprintf(&b, "%s %d\n", suffixed(h.name, "_count"), h.count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// familyOf strips a baked-in label set from a metric name.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// EscapeLabelValue escapes a label value per the Prometheus text exposition
// format: exactly backslash, double-quote, and line-feed are escaped —
// nothing else. (strconv.Quote is not spec-conformant here: it would also
// escape tabs, control bytes, and non-ASCII runes, which Prometheus expects
// raw.)
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Label renders a metric name with baked-in labels, escaping values per the
// exposition spec: Label("x", "peer", u) -> `x{peer="..."}`. kvs alternate
// key, value; keys must already be valid label names.
func Label(name string, kvs ...string) string {
	if len(kvs) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kvs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kvs[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(kvs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLabel appends (or merges) one label into a possibly-labelled name.
func withLabel(name, key, val string) string {
	esc := `"` + EscapeLabelValue(val) + `"`
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + key + "=" + esc + "}"
	}
	return name + "{" + key + "=" + esc + "}"
}

// suffixed inserts a family suffix before a baked-in label set:
// suffixed(`x{peer="p"}`, "_sum") -> `x_sum{peer="p"}`.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}
