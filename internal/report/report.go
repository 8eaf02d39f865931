package report

import (
	"html/template"
	"io"
	"math"

	"relief/internal/exp"
	"relief/internal/workload"
)

// Generate runs the high-contention evaluation and writes a self-contained
// HTML report reproducing the artifact's five figures: forwards (Fig. 4c),
// data movement (Fig. 5c), accelerator occupancy (Fig. 7c), slowdown
// (Fig. 9a), and deadlines met (Figs. 8c and 9b).
func Generate(s *exp.Sweep, w io.Writer) error {
	charts, err := buildCharts(s)
	if err != nil {
		return err
	}
	// The per-node latency decomposition of the CGL high-contention mix
	// under every policy — the "where does the time go" view that
	// complements the figures. Metricised runs bypass the sweep cache by
	// design, so this costs six extra simulations of one mix.
	attr, _, err := exp.AttributionStudy("CGL", exp.PolicyNames, 0)
	if err != nil {
		return err
	}
	data := struct {
		Charts []template.HTML
		Attr   *exp.Table
	}{Attr: attr}
	for _, c := range charts {
		data.Charts = append(data.Charts, template.HTML(c.SVG()))
	}
	return pageTmpl.Execute(w, data)
}

func buildCharts(s *exp.Sweep) ([]*Chart, error) {
	mixes := workload.Mixes(workload.High)
	groups := make([]string, len(mixes))
	for i, m := range mixes {
		groups[i] = workload.MixName(m)
	}
	bars := []*Chart{{
		Title:  "Figure 4c: forwards and colocations per edge (high contention)",
		YLabel: "% of edges", Groups: groups, YMax: 100,
	}, {
		Title:  "Figure 5c: data movement (% of all-DRAM baseline; light = SPAD-to-SPAD)",
		YLabel: "% of baseline", Groups: groups, YMax: 100,
	}, {
		Title:  "Figure 7c: accelerator occupancy (high contention)",
		YLabel: "occupancy", Groups: groups, RefLine: 1,
	}, {
		Title:  "Figure 8c: node deadlines met (high contention)",
		YLabel: "% met", Groups: groups, YMax: 100,
	}}
	// A figure's first series is the bar and its second, if any, the
	// segment stacked on it.
	for i, fig := range []exp.PolicyFigure{exp.Figure4, exp.Figure5, exp.Figure7, exp.Figure8} {
		vals, err := fig.Values(s, workload.High)
		if err != nil {
			return nil, err
		}
		for p, perMix := range vals {
			ser := Series{Name: exp.PolicyNames[p]}
			for _, v := range perMix {
				ser.Values = append(ser.Values, v[0])
				if len(v) > 1 {
					ser.Stack = append(ser.Stack, v[1])
				}
			}
			bars[i].Series = append(bars[i].Series, ser)
		}
	}

	slow := &Chart{
		Title:  "Figure 9a: application slowdown spread (high contention; line = median)",
		YLabel: "runtime / deadline", Groups: groups, RefLine: 1,
		BoxSer: exp.FairnessPolicyNames,
	}
	dagDL := &Chart{
		Title:  "Figure 9b: DAG deadlines met (high contention)",
		YLabel: "% met", Groups: groups, YMax: 100,
	}
	for _, p := range exp.FairnessPolicyNames {
		var boxes []Box
		sd := Series{Name: p}
		for _, mix := range mixes {
			res, err := s.Get(exp.Scenario{Mix: mix, Contention: workload.High, Policy: p})
			if err != nil {
				return nil, err
			}
			mn, md, mx, _ := res.Stats.SlowdownSpread()
			b := Box{Min: mn, Median: md, Max: mx}
			if math.IsInf(mx, 1) {
				b.Starved = true
				b.Max = 3
				if math.IsInf(md, 1) {
					b.Median = 3
				}
			}
			boxes = append(boxes, b)
			sd.Values = append(sd.Values, res.Stats.DAGDeadlinePct())
		}
		slow.Boxes = append(slow.Boxes, boxes)
		dagDL.Series = append(dagDL.Series, sd)
	}
	return append(bars, slow, dagDL), nil
}

var pageTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>RELIEF reproduction report</title>
<style>
 body { font-family: sans-serif; max-width: 960px; margin: 24px auto; color: #222; }
 h1 { font-size: 20px; } p { line-height: 1.4; }
 figure { margin: 24px 0; border: 1px solid #e5e5e5; border-radius: 6px; padding: 8px; }
 h2 { font-size: 16px; margin-top: 32px; }
 table { border-collapse: collapse; }
 th, td { border: 1px solid #e5e5e5; padding: 4px 10px; font-size: 13px; text-align: right; }
 th:first-child, td:first-child { text-align: left; }
</style></head><body>
<h1>RELIEF: Data Movement-Aware Accelerator Scheduling — reproduction report</h1>
<p>High-contention evaluation regenerated by the Go reproduction of
Gupta &amp; Dwarkadas, HPCA 2024. These are the five figures the paper's
artifact scripts plot; see EXPERIMENTS.md for the full paper-vs-measured
record and cmd/relief-bench for every other table and figure.</p>
{{range .Charts}}<figure>{{.}}</figure>
{{end}}
{{with .Attr}}<h2>{{.Title}}</h2>
<p>{{.Note}}</p>
<table>
<tr>{{range .Cols}}<th>{{.}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>
{{end}}</table>
{{end}}
</body></html>
`))
