// relief-bench regenerates the paper's evaluation tables and figures as
// text tables.
//
// Usage:
//
//	relief-bench                 # run every experiment
//	relief-bench -exp fig4       # one experiment
//	relief-bench -list           # list experiment names
//
// Profiling and benchmarking the simulator itself:
//
//	relief-bench -cpuprofile cpu.out   # pprof CPU profile of the run
//	relief-bench -memprofile mem.out   # heap profile at exit
//	relief-bench -trace trace.out      # runtime execution trace
//	relief-bench -benchjson auto       # BENCH_<date>.json trajectory report
//	relief-bench -benchjson auto -sweepbench   # + distributed sweep throughput
//
// The -benchjson report records, per experiment, the harness wall time,
// how many scenarios were newly simulated, kernel events dispatched and
// Event heap allocations for those scenarios, and the resulting events/sec
// throughput; see docs/MODEL.md for the schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"time"

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

var experiments = map[string]generator{
	"table2": func(*exp.Sweep) ([]*exp.Table, error) {
		t, err := exp.Table2()
		if err != nil {
			return nil, err
		}
		return []*exp.Table{t}, nil
	},
	"fig4": perLevel(exp.Fig4),
	"fig5": perLevel(exp.Fig5),
	"fig6": one(exp.Fig6),
	"fig7": perLevel(exp.Fig7),
	"fig8": perLevel(exp.Fig8),
	"fig9": func(s *exp.Sweep) ([]*exp.Table, error) {
		a, b, err := exp.Fig9(s, workload.High)
		if err != nil {
			return nil, err
		}
		return []*exp.Table{a, b}, nil
	},
	"fig10": func(s *exp.Sweep) ([]*exp.Table, error) {
		a, b, err := exp.Fig9(s, workload.Continuous)
		if err != nil {
			return nil, err
		}
		return []*exp.Table{a, b}, nil
	},
	"table7":   one(exp.Table7),
	"table8":   one(exp.Table8),
	"fig11":    one(exp.Fig11),
	"fig12":    one(exp.Fig12),
	"fig13":    one(exp.Fig13),
	"ablation": one(exp.Ablation),
	"dram":     one(exp.DRAMStudy),
	"energy":   one(exp.EnergyStudy),
	"faults":   one(exp.FaultStudy),
	"scaling":  one(exp.ScalingStudy),
	"periodic": func(*exp.Sweep) ([]*exp.Table, error) {
		t, err := exp.PeriodicStudy()
		if err != nil {
			return nil, err
		}
		return []*exp.Table{t}, nil
	},
	"tiled": func(*exp.Sweep) ([]*exp.Table, error) {
		t, err := exp.TiledStudy()
		if err != nil {
			return nil, err
		}
		return []*exp.Table{t}, nil
	},
	"attribution": func(*exp.Sweep) ([]*exp.Table, error) {
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
	},
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

// order fixes a presentation order for -exp all.
var order = []string{
	"table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"table7", "table8", "fig11", "fig12", "fig13", "ablation", "dram",
	"periodic", "tiled", "energy", "scaling", "faults", "attribution",
}

// benchEntry is one experiment's row in the -benchjson report.
type benchEntry struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	// Scenarios newly simulated while this experiment ran (scenarios
	// already in the sweep cache cost nothing and are not recounted).
	Scenarios    int     `json:"scenarios"`
	EventsFired  uint64  `json:"events_fired"`
	EventAllocs  uint64  `json:"event_allocs"`
	EventsPerSec float64 `json:"events_per_second"`
}

// benchReport is the top-level -benchjson document (schema relief-bench/1).
type benchReport struct {
	Schema      string       `json:"schema"`
	Date        string       `json:"date"`
	GoVersion   string       `json:"go"`
	Jobs        int          `json:"jobs"`
	Experiments []benchEntry `json:"experiments"`
	Total       benchEntry   `json:"total"`
	// Sweep reports distributed sweep throughput (-sweepbench).
	Sweep *sweepBenchReport `json:"sweep,omitempty"`
}

// sample charges everything newly simulated since the previous sample to
// the named experiment.
func (r *benchReport) sample(name string, wall time.Duration, s *exp.Sweep) {
	scen, events, allocs := s.CostTotals()
	e := benchEntry{
		Name:        name,
		WallSeconds: wall.Seconds(),
		Scenarios:   scen - r.Total.Scenarios,
		EventsFired: events - r.Total.EventsFired,
		EventAllocs: allocs - r.Total.EventAllocs,
	}
	if e.WallSeconds > 0 {
		e.EventsPerSec = float64(e.EventsFired) / e.WallSeconds
	}
	r.Experiments = append(r.Experiments, e)
	r.Total.WallSeconds += e.WallSeconds
	r.Total.Scenarios = scen
	r.Total.EventsFired = events
	r.Total.EventAllocs = allocs
}

func main() {
	expFlag := flag.String("exp", "all", "experiment to run (see -list)")
	format := flag.String("format", "text", "output format: text or csv")
	var jobs int
	flag.IntVar(&jobs, "jobs", runtime.GOMAXPROCS(0), "parallel simulations while prefetching the scenario grid")
	flag.IntVar(&jobs, "j", runtime.GOMAXPROCS(0), "shorthand for -jobs")
	jsonOut := flag.String("json", "", "also dump every raw scenario result as JSON to this file")
	benchJSON := flag.String("benchjson", "", `write a benchmark-trajectory report to this file ("auto" = BENCH_<date>.json)`)
	sweepBench := flag.Bool("sweepbench", false,
		"with -benchjson: also measure POST /sweep throughput against in-process fleets of 1 and 3 replicas")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file")
	list := flag.Bool("list", false, "list experiment names and exit")
	flag.StringVar(&metricsPrefix, "metrics", "",
		"with the attribution experiment: write per-policy telemetry as <prefix>-<policy>.{csv,json,prom}")
	flag.Parse()

	if *list {
		names := make([]string, 0, len(experiments))
		for n := range experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}
	if _, ok := experiments[*expFlag]; !ok && *expFlag != "all" {
		fmt.Fprintf(os.Stderr, "relief-bench: unknown experiment %q (use -list)\n", *expFlag)
		os.Exit(2)
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "relief-bench: unknown format %q (want text or csv)\n", *format)
		os.Exit(2)
	}
	if err := run(*expFlag, *format, *jsonOut, *benchJSON, *cpuProfile, *memProfile, *traceOut, jobs, *sweepBench); err != nil {
		fmt.Fprintf(os.Stderr, "relief-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(expName, format, jsonOut, benchJSON, cpuProfile, memProfile, traceOut string, jobs int, sweepBench bool) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return err
		}
		defer trace.Stop()
	}

	names := order
	if expName != "all" {
		if _, ok := experiments[expName]; !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", expName)
		}
		names = []string{expName}
	}
	report := &benchReport{
		Schema:    "relief-bench/1",
		Date:      time.Now().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Jobs:      jobs,
	}
	sweep := exp.NewSweep()
	if expName == "all" && jobs > 1 {
		t0 := time.Now()
		sweep.Warm(exp.MainGrid(), jobs)
		if err := sweep.Err(); err != nil {
			return err
		}
		report.sample("warm", time.Since(t0), sweep)
	}
	for _, name := range names {
		t0 := time.Now()
		tables, err := experiments[name](sweep)
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		report.sample(name, time.Since(t0), sweep)
		for _, t := range tables {
			switch format {
			case "csv":
				if err := t.RenderCSV(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
			default:
				t.Render(os.Stdout)
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
	if benchJSON != "" {
		if sweepBench {
			sb, err := runSweepBench()
			if err != nil {
				return err
			}
			report.Sweep = sb
		}
		report.Total.Name = "total"
		if report.Total.WallSeconds > 0 {
			report.Total.EventsPerSec = float64(report.Total.EventsFired) / report.Total.WallSeconds
		}
		if benchJSON == "auto" {
			benchJSON = "BENCH_" + time.Now().Format("2006-01-02") + ".json"
		}
		f, err := os.Create(benchJSON)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}
