// relief-bench regenerates the paper's evaluation tables and figures as
// text tables.
//
// Usage:
//
//	relief-bench                 # run every experiment
//	relief-bench -exp fig4       # one experiment
//	relief-bench -list           # list experiment names
//
// Measuring the simulator itself is the job of the benchmark module
// (benchmark/README.md) and of the testing.B targets in bench_test.go.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"relief/internal/exp"
	"relief/internal/metrics"
	"relief/internal/workload"
)

type generator func(*exp.Sweep) ([]*exp.Table, error)

func one(fn func(*exp.Sweep) (*exp.Table, error)) generator {
	return func(s *exp.Sweep) ([]*exp.Table, error) {
		t, err := fn(s)
		if err != nil {
			return nil, err
		}
		return []*exp.Table{t}, nil
	}
}

// noSweep adapts a study that runs its own scenarios outside the sweep.
func noSweep(fn func() (*exp.Table, error)) generator {
	return one(func(*exp.Sweep) (*exp.Table, error) { return fn() })
}

func perLevel(fn func(*exp.Sweep, workload.Contention) (*exp.Table, error)) generator {
	return func(s *exp.Sweep) ([]*exp.Table, error) {
		var out []*exp.Table
		for _, lvl := range []workload.Contention{workload.Low, workload.Medium, workload.High, workload.Continuous} {
			t, err := fn(s, lvl)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	}
}

// fairness is Fig. 9 (high contention) or Fig. 10 (continuous).
func fairness(level workload.Contention) generator {
	return func(s *exp.Sweep) ([]*exp.Table, error) {
		a, b, err := exp.Fig9(s, level)
		if err != nil {
			return nil, err
		}
		return []*exp.Table{a, b}, nil
	}
}

type experiment struct {
	name string
	gen  generator
}

// experiments lists every experiment in its -exp all presentation order.
var experiments = []experiment{
	{"table2", noSweep(exp.Table2)},
	{"fig4", perLevel(exp.Fig4)},
	{"fig5", perLevel(exp.Fig5)},
	{"fig6", one(exp.Fig6)},
	{"fig7", perLevel(exp.Fig7)},
	{"fig8", perLevel(exp.Fig8)},
	{"fig9", fairness(workload.High)},
	{"fig10", fairness(workload.Continuous)},
	{"table7", one(exp.Table7)},
	{"table8", one(exp.Table8)},
	{"fig11", one(exp.Fig11)},
	{"fig12", one(exp.Fig12)},
	{"fig13", one(exp.Fig13)},
	{"ablation", one(exp.Ablation)},
	{"dram", one(exp.DRAMStudy)},
	{"periodic", noSweep(exp.PeriodicStudy)},
	{"tiled", noSweep(exp.TiledStudy)},
	{"energy", one(exp.EnergyStudy)},
	{"scaling", one(exp.ScalingStudy)},
	{"faults", one(exp.FaultStudy)},
	{"attribution", func(*exp.Sweep) ([]*exp.Table, error) {
		t, regs, err := exp.AttributionStudy("CGL", exp.PolicyNames, 0)
		if err != nil {
			return nil, err
		}
		if metricsPrefix != "" {
			if err := exportRegistries(regs, metricsPrefix); err != nil {
				return nil, err
			}
		}
		return []*exp.Table{t}, nil
	}},
}

func lookup(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// metricsPrefix is the -metrics flag value; when set, the attribution
// experiment writes each policy's registry as <prefix>-<policy>.{csv,json,prom}.
var metricsPrefix string

func exportRegistries(regs map[string]*metrics.Registry, prefix string) error {
	for policy, reg := range regs {
		base := prefix + "-" + policy
		for suffix, fn := range map[string]func(io.Writer) error{
			".csv":  reg.WriteCSV,
			".json": reg.WriteJSON,
			".prom": reg.WritePrometheus,
		} {
			f, err := os.Create(base + suffix)
			if err != nil {
				return err
			}
			if err := fn(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	expFlag := flag.String("exp", "all", "experiment to run (see -list)")
	format := flag.String("format", "text", "output format: text or csv")
	var jobs int
	flag.IntVar(&jobs, "jobs", runtime.GOMAXPROCS(0), "parallel simulations while prefetching the scenario grid")
	flag.IntVar(&jobs, "j", runtime.GOMAXPROCS(0), "shorthand for -jobs")
	jsonOut := flag.String("json", "", "also dump every raw scenario result as JSON to this file")
	list := flag.Bool("list", false, "list experiment names and exit")
	flag.StringVar(&metricsPrefix, "metrics", "",
		"with the attribution experiment: write per-policy telemetry as <prefix>-<policy>.{csv,json,prom}")
	flag.Parse()

	if *list {
		names := make([]string, 0, len(experiments))
		for _, e := range experiments {
			names = append(names, e.name)
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}
	if _, ok := lookup(*expFlag); !ok && *expFlag != "all" {
		fmt.Fprintf(os.Stderr, "relief-bench: unknown experiment %q (use -list)\n", *expFlag)
		os.Exit(2)
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "relief-bench: unknown format %q (want text or csv)\n", *format)
		os.Exit(2)
	}
	if err := run(os.Stdout, *expFlag, *format, *jsonOut, jobs); err != nil {
		fmt.Fprintf(os.Stderr, "relief-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, expName, format, jsonOut string, jobs int) error {
	todo := experiments
	if expName != "all" {
		e, ok := lookup(expName)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", expName)
		}
		todo = []experiment{e}
	}
	sweep := exp.NewSweep()
	if expName == "all" && jobs > 1 {
		sweep.Warm(exp.MainGrid(), jobs)
		if err := sweep.Err(); err != nil {
			return err
		}
	}
	for _, e := range todo {
		tables, err := e.gen(sweep)
		if err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		for _, t := range tables {
			switch format {
			case "csv":
				if err := t.RenderCSV(w); err != nil {
					return err
				}
				fmt.Fprintln(w)
			default:
				t.Render(w)
			}
		}
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sweep.DumpJSON(f); err != nil {
			return err
		}
	}
	return nil
}
