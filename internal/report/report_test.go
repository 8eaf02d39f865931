package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/xml"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"relief/internal/exp"
)

func TestChartSVGBars(t *testing.T) {
	c := &Chart{
		Title:  "test & chart",
		YLabel: "%",
		Groups: []string{"A", "B"},
		Series: []Series{
			{Name: "one", Values: []float64{10, 20}, Stack: []float64{5, 5}},
			{Name: "two", Values: []float64{30, 40}},
		},
		YMax: 100,
	}
	svg := c.SVG()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(svg, "test &amp; chart") {
		t.Error("title not escaped")
	}
	// 2 series x 2 groups bars + 2 stacked segments = 6 rects + 2 legend
	// swatches.
	if got := strings.Count(svg, "<rect"); got != 8 {
		t.Errorf("rect count = %d, want 8", got)
	}
	if err := xml.Unmarshal([]byte(svg), new(any)); err != nil {
		t.Fatalf("SVG is not well-formed XML: %v", err)
	}
}

func TestChartSVGBoxes(t *testing.T) {
	c := &Chart{
		Title:  "boxes",
		Groups: []string{"A"},
		Boxes: [][]Box{
			{{Min: 0.5, Median: 1.0, Max: 2.0}},
			{{Min: 0.2, Median: 0.9, Max: 3, Starved: true}},
		},
		BoxSer: []string{"p1", "p2"},
	}
	svg := c.SVG()
	if !strings.Contains(svg, "inf") {
		t.Error("starvation marker missing")
	}
	if err := xml.Unmarshal([]byte(svg), new(any)); err != nil {
		t.Fatalf("box SVG not well-formed: %v", err)
	}
}

func TestChartAutoMax(t *testing.T) {
	c := &Chart{
		Groups: []string{"A"},
		Series: []Series{{Name: "s", Values: []float64{3}, Stack: []float64{2}}},
	}
	if got := c.autoMax(); got != 5 {
		t.Errorf("autoMax = %v, want 5 (stack included)", got)
	}
	c2 := &Chart{Boxes: [][]Box{{{Min: 0, Median: 1, Max: math.Inf(1)}}}}
	if got := c2.autoMax(); math.IsInf(got, 1) {
		t.Error("autoMax must ignore infinities")
	}
}

func TestChartEmpty(t *testing.T) {
	c := &Chart{Title: "empty"}
	if svg := c.SVG(); !strings.Contains(svg, "</svg>") {
		t.Fatal("empty chart must still render")
	}
}

func TestGenerateReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	var buf bytes.Buffer
	if err := Generate(exp.NewSweep(), &buf); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	if got := strings.Count(html, "<svg"); got != 6 {
		t.Fatalf("report has %d charts, want 6", got)
	}
	for _, want := range []string{"Figure 4c", "Figure 5c", "Figure 7c", "Figure 8c", "Figure 9a", "Figure 9b"} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Every embedded SVG must be well-formed XML.
	for i, m := range regexp.MustCompile(`(?s)<svg.*?</svg>`).FindAllString(html, -1) {
		if err := xml.Unmarshal([]byte(m), new(any)); err != nil {
			t.Fatalf("chart %d malformed: %v", i, err)
		}
	}
	// The report is deterministic: pin its bytes so the charts cannot drift
	// from the figures they plot.
	const want = "7fbe23dbf44699d229f07f042e4ffb70a6f73e7d4e011663b69d14e3350a3be3"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("report sha256 = %s, want %s", got, want)
	}
}
