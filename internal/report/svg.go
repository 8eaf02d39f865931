// Package report renders the evaluation as a self-contained HTML report
// with inline SVG charts — the counterpart of the paper artifact's
// matplotlib scripts (plot_forwards.py, plot_data_movement.py,
// plot_accelerator_occupancy.py, plot_slowdown.py, plot_deadlines_met.py),
// built on the standard library only. The Fig. 4c, 5c, 7c and 8c bars plot
// the values of exp.Figure4, Figure5, Figure7 and Figure8, the same
// definitions relief-bench renders as tables.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted quantity across all groups. For stacked bars,
// Stack holds the upper segment (e.g. colocations on top of forwards).
type Series struct {
	Name   string
	Values []float64
	Stack  []float64 // optional second segment, stacked on Values
}

// Box is one box-glyph (slowdown spreads): min/median/max per group.
type Box struct {
	Min, Median, Max float64
	Starved          bool // max was infinite
}

// Chart is a grouped bar chart (optionally stacked) or a box plot.
type Chart struct {
	Title  string
	YLabel string
	Groups []string // x-axis categories (mixes)
	Series []Series // bar mode
	Boxes  [][]Box  // box mode: [series][group]
	BoxSer []string // series names for box mode
	// YMax fixes the axis (0 = auto).
	YMax float64
	// RefLine draws a horizontal reference (e.g. 1.0 for normalised data;
	// 0 disables).
	RefLine float64
}

// palette holds colourblind-safe series colours (Okabe-Ito).
var palette = []string{
	"#0072B2", "#E69F00", "#009E73", "#CC79A7", "#56B4E9", "#D55E00",
	"#F0E442", "#999999",
}

// stackShade lightens a colour for the stacked segment.
func stackShade(hex string) string {
	var r, g, b int
	fmt.Sscanf(hex, "#%02x%02x%02x", &r, &g, &b)
	l := func(v int) int { return v + (255-v)*55/100 }
	return fmt.Sprintf("#%02x%02x%02x", l(r), l(g), l(b))
}

const (
	chartW  = 880
	chartH  = 300
	marginL = 56
	marginR = 12
	marginT = 28
	marginB = 64
)

// SVG renders the chart.
func (c *Chart) SVG() string {
	var sb strings.Builder
	plotW := float64(chartW - marginL - marginR)
	plotH := float64(chartH - marginT - marginB)
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d" font-family="sans-serif" font-size="11">`,
		chartW, chartH+24*((c.seriesCount()+5)/6))
	fmt.Fprintf(&sb, `<text x="%d" y="16" font-size="13" font-weight="bold">%s</text>`, marginL, esc(c.Title))

	ymax := c.YMax
	if ymax <= 0 {
		ymax = c.autoMax() * 1.08
	}
	if ymax <= 0 {
		ymax = 1
	}
	y := func(v float64) float64 {
		if v < 0 {
			v = 0
		}
		if v > ymax {
			v = ymax
		}
		return float64(marginT) + plotH*(1-v/ymax)
	}

	// Axes and y ticks.
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#444"/>`,
		marginL, marginT, marginL, chartH-marginB)
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#444"/>`,
		marginL, chartH-marginB, chartW-marginR, chartH-marginB)
	for i := 0; i <= 4; i++ {
		v := ymax * float64(i) / 4
		fmt.Fprintf(&sb, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`,
			marginL, y(v), chartW-marginR, y(v))
		fmt.Fprintf(&sb, `<text x="%d" y="%.1f" text-anchor="end">%s</text>`,
			marginL-4, y(v)+4, trimNum(v))
	}
	fmt.Fprintf(&sb, `<text x="14" y="%.1f" transform="rotate(-90 14 %.1f)" text-anchor="middle">%s</text>`,
		float64(marginT)+plotH/2, float64(marginT)+plotH/2, esc(c.YLabel))
	if c.RefLine > 0 && c.RefLine < ymax {
		fmt.Fprintf(&sb, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#a00" stroke-dasharray="4 3"/>`,
			marginL, y(c.RefLine), chartW-marginR, y(c.RefLine))
	}

	nG := len(c.Groups)
	if nG == 0 {
		sb.WriteString("</svg>")
		return sb.String()
	}
	groupW := plotW / float64(nG)
	// Group labels.
	for gi, g := range c.Groups {
		fmt.Fprintf(&sb, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`,
			float64(marginL)+groupW*(float64(gi)+0.5), chartH-marginB+16, esc(g))
	}

	switch {
	case len(c.Series) > 0:
		nS := len(c.Series)
		barW := groupW * 0.8 / float64(nS)
		for si, s := range c.Series {
			color := palette[si%len(palette)]
			for gi := range c.Groups {
				if gi >= len(s.Values) {
					continue
				}
				x := float64(marginL) + groupW*float64(gi) + groupW*0.1 + barW*float64(si)
				v := s.Values[gi]
				fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s %s: %.1f</title></rect>`,
					x, y(v), barW, y(0)-y(v), color, esc(s.Name), esc(c.Groups[gi]), v)
				if s.Stack != nil && gi < len(s.Stack) {
					top := v + s.Stack[gi]
					fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s %s (stack): %.1f</title></rect>`,
						x, y(top), barW, y(v)-y(top), stackShade(color), esc(s.Name), esc(c.Groups[gi]), s.Stack[gi])
				}
			}
		}
	case len(c.Boxes) > 0:
		nS := len(c.Boxes)
		slotW := groupW * 0.8 / float64(nS)
		for si, boxes := range c.Boxes {
			color := palette[si%len(palette)]
			for gi, b := range boxes {
				if gi >= nG {
					continue
				}
				x := float64(marginL) + groupW*float64(gi) + groupW*0.1 + slotW*float64(si)
				w := slotW * 0.85
				top, bot := y(b.Max), y(b.Min)
				fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" fill-opacity="0.55" stroke="%s"><title>%s %s: %.2f/%.2f/%.2f</title></rect>`,
					x, top, w, math.Max(bot-top, 1), color, color,
					esc(c.boxName(si)), esc(c.Groups[gi]), b.Min, b.Median, b.Max)
				fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#000"/>`,
					x, y(b.Median), x+w, y(b.Median))
				if b.Starved {
					fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" text-anchor="middle" fill="#a00" font-weight="bold">inf</text>`,
						x+w/2, top-3)
				}
			}
		}
	}

	// Legend.
	lx, ly := marginL, chartH-marginB+32
	for i := 0; i < c.seriesCount(); i++ {
		name := c.seriesName(i)
		if lx+10*len(name)+40 > chartW-marginR {
			lx = marginL
			ly += 18
		}
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`,
			lx, ly, palette[i%len(palette)])
		fmt.Fprintf(&sb, `<text x="%d" y="%d">%s</text>`, lx+16, ly+10, esc(name))
		lx += 16 + 7*len(name) + 18
	}
	sb.WriteString("</svg>")
	return sb.String()
}

func (c *Chart) seriesCount() int {
	if len(c.Series) > 0 {
		return len(c.Series)
	}
	return len(c.Boxes)
}

func (c *Chart) seriesName(i int) string {
	if len(c.Series) > 0 {
		return c.Series[i].Name
	}
	return c.boxName(i)
}

func (c *Chart) boxName(i int) string {
	if i < len(c.BoxSer) {
		return c.BoxSer[i]
	}
	return fmt.Sprintf("series %d", i)
}

func (c *Chart) autoMax() float64 {
	max := 0.0
	for _, s := range c.Series {
		for i, v := range s.Values {
			t := v
			if s.Stack != nil && i < len(s.Stack) {
				t += s.Stack[i]
			}
			if t > max {
				max = t
			}
		}
	}
	for _, boxes := range c.Boxes {
		for _, b := range boxes {
			if !math.IsInf(b.Max, 1) && b.Max > max {
				max = b.Max
			}
		}
	}
	return max
}

func trimNum(v float64) string {
	s := fmt.Sprintf("%.1f", v)
	return strings.TrimSuffix(s, ".0")
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
