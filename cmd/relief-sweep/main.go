// relief-sweep drives a relief-serve fleet through one sweep: it streams a
// grid spec to a coordinator replica (POST /sweep with "stream": true),
// watches per-cell NDJSON results land, and merges them locally into the
// same sorted relief-metrics cell document a single-process exp sweep
// dumps — byte-identical regardless of fleet size or which replica computed
// each cell.
//
// The client is resumable: finished cells are kept (deduplicated by content
// digest) across stream failures, so when a coordinator dies mid-sweep the
// client re-issues the sweep to the next replica and only the missing cells
// cost anything — the fleet's caches already hold the rest. A sweep fails
// only when every replica is unreachable or the -timeout budget expires.
//
// Usage:
//
//	relief-sweep -replicas http://127.0.0.1:8081,http://127.0.0.1:8082 -spec sweep.json
//	echo '{"contention":["low"]}' | relief-sweep -replicas http://127.0.0.1:8081 -out cells.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"relief/internal/exp"
	"relief/internal/serve"
	"relief/internal/svctrace"
)

// maxPasses bounds how many full rounds over the replica list the client
// makes before giving up (each pass only recomputes still-missing cells).
const maxPasses = 3

// sweepClient issues the sweep streams. Attempts are bounded by the
// -timeout context on each request, not a client-wide timeout (a streamed
// sweep legitimately stays open for the whole grid).
var sweepClient = &http.Client{}

// line mirrors the server's NDJSON framing: the header carries schema/cells,
// per-cell lines carry index/digest/source and the result or error, the
// trailer carries done/ok/errors.
type line struct {
	Schema string        `json:"schema"`
	Cells  int           `json:"cells"`
	Index  *int          `json:"index"`
	Digest string        `json:"digest"`
	Source string        `json:"source"`
	Error  string        `json:"error"`
	Result *serve.Result `json:"result"`
	Done   bool          `json:"done"`
	OK     int           `json:"ok"`
	Errors int           `json:"errors"`
}

func main() {
	replicasFlag := flag.String("replicas", "", "comma-separated replica base URLs (tried in order)")
	specPath := flag.String("spec", "-", `sweep spec JSON file ("-" = stdin)`)
	outPath := flag.String("out", "-", `merged cell document destination ("-" = stdout)`)
	timeout := flag.Duration("timeout", 10*time.Minute, "overall budget across all replica attempts")
	quiet := flag.Bool("q", false, "suppress per-source progress on stderr")
	flag.Parse()

	var replicas []string
	for _, r := range strings.Split(*replicasFlag, ",") {
		if r = strings.TrimRight(strings.TrimSpace(r), "/"); r != "" {
			replicas = append(replicas, r)
		}
	}
	if len(replicas) == 0 {
		fatal(fmt.Errorf("no replicas (use -replicas http://host:port,...)"))
	}

	specBytes, err := readSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	var spec serve.SweepSpec
	if err := json.Unmarshal(specBytes, &spec); err != nil {
		fatal(fmt.Errorf("parsing sweep spec: %w", err))
	}
	spec.Stream = true
	body, err := json.Marshal(spec)
	if err != nil {
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	cells, err := fleetSweep(ctx, replicas, body, *quiet)
	if err != nil {
		fatal(err)
	}

	out := io.Writer(os.Stdout)
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := exp.WriteCells(out, cells); err != nil {
		fatal(err)
	}
}

// sweeper accumulates finished cells across replica attempts. Cells are
// keyed by content digest, so a cell replayed by a second coordinator
// (already computed fleet-side, served from cache) merges into the same
// slot instead of duplicating.
type sweeper struct {
	have     map[string]exp.Cell
	total    int // grid size from the stream header; -1 until seen
	quiet    bool
	bySource map[string]int
	// traceID is the sweep's one distributed trace ID, minted client-side
	// and sent as X-Relief-Trace on every attempt, so one failed-over sweep
	// correlates across every coordinator's logs and GET /trace/{id} docs.
	traceID string
}

func newSweeper(quiet bool) *sweeper {
	return &sweeper{have: map[string]exp.Cell{}, total: -1, quiet: quiet, bySource: map[string]int{}, traceID: svctrace.NewID()}
}

// complete reports whether every grid cell has landed.
func (sw *sweeper) complete() bool { return sw.total >= 0 && len(sw.have) == sw.total }

// cells returns the merged cell set (WriteCells sorts it canonically).
func (sw *sweeper) cells() []exp.Cell {
	out := make([]exp.Cell, 0, len(sw.have))
	for _, c := range sw.have { //lint:allow maporder exp.WriteCells sorts the document by scenario key
		out = append(out, c)
	}
	return out
}

// fleetSweep runs the sweep to completion across the replica list: stream
// from the first reachable coordinator, and on a mid-stream death carry the
// finished cells over to the next replica. Per-cell errors are tolerated
// per attempt (the cell retries on a later pass); the sweep succeeds when
// every cell has landed.
func fleetSweep(ctx context.Context, replicas []string, body []byte, quiet bool) ([]exp.Cell, error) {
	sw := newSweeper(quiet)
	if !quiet {
		fmt.Fprintf(os.Stderr, "relief-sweep: trace %s\n", sw.traceID)
	}
	var lastErr error
	for pass := 0; pass < maxPasses; pass++ {
		for _, replica := range replicas {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sweep budget exhausted with %d/%d cells: %w", len(sw.have), sw.total, err)
			}
			before := len(sw.have)
			err := sw.stream(ctx, replica, body)
			if sw.complete() {
				if !quiet {
					fmt.Fprintf(os.Stderr, "relief-sweep: %d cells done (%s)\n", sw.total, sourceSummary(sw.bySource))
				}
				return sw.cells(), nil
			}
			if err != nil {
				lastErr = err
				fmt.Fprintf(os.Stderr, "relief-sweep: %s: %v — %d/%d cells held, resuming on next replica (trace %s)\n",
					replica, err, len(sw.have), sw.total, sw.traceID)
				continue
			}
			if len(sw.have) == before {
				// A clean stream that added nothing will not converge by
				// repetition (cells erroring deterministically): remember why.
				lastErr = fmt.Errorf("%s: stream completed but %d/%d cells still missing", replica, sw.total-len(sw.have), sw.total)
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no replica produced a complete sweep")
	}
	return nil, fmt.Errorf("sweep incomplete after %d passes (%d/%d cells): %w", maxPasses, len(sw.have), sw.total, lastErr)
}

// stream runs one sweep attempt through one coordinator, folding finished
// cells into sw. Transport errors, a broken stream, and a missing trailer
// are attempt errors (the caller resumes elsewhere); per-cell errors are
// recorded but do not abort the attempt.
func (sw *sweeper) stream(ctx context.Context, replica string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, replica+"/sweep", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(svctrace.Header, sw.traceID)
	resp, err := sweepClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}

	seen, cellErrs := 0, 0
	gotTrailer := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("bad stream line: %w", err)
		}
		switch {
		case l.Schema != "":
			if l.Schema != serve.SweepSchema {
				return fmt.Errorf("unexpected stream schema %q", l.Schema)
			}
			if sw.total >= 0 && l.Cells != sw.total {
				return fmt.Errorf("grid size changed across attempts: %d then %d cells", sw.total, l.Cells)
			}
			sw.total = l.Cells
		case l.Done:
			gotTrailer = true
		case l.Index != nil:
			seen++
			if l.Error != "" {
				cellErrs++
				// The replica URL and trace ID name which coordinator's logs
				// (and GET /trace/{id} doc) explain this cell's failure.
				fmt.Fprintf(os.Stderr, "relief-sweep: cell %d (%.12s) failed on %s: %s (will retry, trace %s)\n",
					*l.Index, l.Digest, replica, l.Error, sw.traceID)
				continue
			}
			if l.Result == nil || l.Result.Cell == nil {
				cellErrs++
				continue
			}
			if _, dup := sw.have[l.Digest]; !dup {
				sw.have[l.Digest] = *l.Result.Cell
				sw.bySource[l.Source]++
			}
			if !sw.quiet {
				fmt.Fprintf(os.Stderr, "relief-sweep: [%d/%d] %.12s %s\n", len(sw.have), sw.total, l.Digest, l.Source)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !gotTrailer {
		return fmt.Errorf("stream ended without trailer (%d cells this attempt)", seen)
	}
	if cellErrs > 0 {
		return fmt.Errorf("%d of %d cells failed this attempt", cellErrs, sw.total)
	}
	return nil
}

func sourceSummary(bySource map[string]int) string {
	var parts []string
	for _, src := range []string{"run", "cache", "disk", "forward"} {
		if n := bySource[src]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", src, n))
		}
	}
	if len(parts) == 0 {
		return "no cells"
	}
	return strings.Join(parts, ", ")
}

func readSpec(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "relief-sweep: %v\n", err)
	os.Exit(1)
}
