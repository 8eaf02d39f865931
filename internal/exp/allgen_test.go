package exp

import (
	"bytes"
	"testing"

	"relief/internal/workload"
)

// TestAllGeneratorsEndToEnd runs every paper figure/table generator and
// every extension study once on a shared sweep — the full relief-bench
// surface — checking each renders non-trivially in both text and CSV.
// Skipped under -short; this is the multi-second full evaluation.
func TestAllGeneratorsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation sweep")
	}
	s := NewSweep()
	s.Warm(MainGrid(), 4)

	var tables []*Table
	add := func(name string, tbl *Table, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tbl.Rows) == 0 || len(tbl.Cols) == 0 {
			t.Fatalf("%s: empty table", name)
		}
		tables = append(tables, tbl)
	}

	tbl, err := Table2()
	add("table2", tbl, err)
	for _, lvl := range []workload.Contention{workload.Low, workload.Medium, workload.High, workload.Continuous} {
		tbl, err = Fig4(s, lvl)
		add("fig4", tbl, err)
		tbl, err = Fig5(s, lvl)
		add("fig5", tbl, err)
		tbl, err = Fig7(s, lvl)
		add("fig7", tbl, err)
		tbl, err = Fig8(s, lvl)
		add("fig8", tbl, err)
	}
	tbl, err = Fig6(s)
	add("fig6", tbl, err)
	a, b, err := Fig9(s, workload.High)
	add("fig9a", a, err)
	add("fig9b", b, err)
	a, b, err = Fig9(s, workload.Continuous)
	add("fig10a", a, err)
	add("fig10b", b, err)
	tbl, err = Table7(s)
	add("table7", tbl, err)
	tbl, err = Table8(s)
	add("table8", tbl, err)
	tbl, err = Fig11(s)
	add("fig11", tbl, err)
	tbl, err = Fig12(s)
	add("fig12", tbl, err)
	tbl, err = Fig13(s)
	add("fig13", tbl, err)
	tbl, err = Ablation(s)
	add("ablation", tbl, err)
	tbl, err = DRAMStudy(s)
	add("dram", tbl, err)
	tbl, err = EnergyStudy(s)
	add("energy", tbl, err)
	tbl, err = ScalingStudy(s)
	add("scaling", tbl, err)

	for _, tbl := range tables {
		var txt, csv bytes.Buffer
		tbl.Render(&txt)
		if txt.Len() == 0 {
			t.Fatalf("%s: empty text rendering", tbl.Title)
		}
		if err := tbl.RenderCSV(&csv); err != nil {
			t.Fatalf("%s: csv: %v", tbl.Title, err)
		}
		if csv.Len() == 0 {
			t.Fatalf("%s: empty csv", tbl.Title)
		}
	}

	var js bytes.Buffer
	if err := s.DumpJSON(&js); err != nil {
		t.Fatal(err)
	}
	if js.Len() < 1000 {
		t.Fatal("JSON dump suspiciously small")
	}
}
