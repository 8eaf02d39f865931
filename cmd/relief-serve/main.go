// relief-serve exposes the simulator as an HTTP/JSON service: POST a
// scenario to /run and get the same summary and relief-metrics/1 document
// the CLIs produce, deduplicated across concurrent identical requests and
// cached by content digest. See docs/SERVING.md.
//
// With -peers the replica joins a fleet: every scenario digest is placed on
// one owner by consistent hashing, non-owned requests are forwarded to the
// owner (which answers from its cache or simulates), and POST /sweep fans a
// whole grid out across the fleet (see "Cluster mode" in docs/SERVING.md).
//
// With -cache-dir the result cache spills write-through to disk, so a
// restarted replica warm-starts from its previous results instead of
// re-simulating them.
//
// Every request runs under a distributed trace (X-Relief-Trace); spans are
// logged as structured records (-log-format json for machine-readable
// output) and served on GET /trace/{id}. -debug-addr exposes net/http/pprof
// on a separate listener (see "Service tracing" in docs/OBSERVABILITY.md).
//
// Usage:
//
//	relief-serve -addr 127.0.0.1:8080
//	relief-serve -addr 127.0.0.1:0 -workers 4 -cache 256
//	relief-serve -addr 127.0.0.1:8081 -peers http://127.0.0.1:8082,http://127.0.0.1:8083
//	relief-serve -addr 127.0.0.1:8080 -cache-dir /var/lib/relief/cache
//	relief-serve -log-format json -debug-addr 127.0.0.1:6060
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"relief/internal/serve"
	"relief/internal/svctrace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue capacity (full queue returns 429)")
	cacheCap := flag.Int("cache", 128, "result cache capacity in entries")
	cacheDir := flag.String("cache-dir", "", "durable result-cache directory (write-through spill; restart warm-starts from it)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-simulation wall-clock budget")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM/SIGINT before cancelling runs")
	peers := flag.String("peers", "", "comma-separated peer base URLs; enables cluster mode")
	self := flag.String("self", "", "this replica's advertised base URL in cluster mode (default http://<listen addr>)")
	breaker := flag.Int("breaker-threshold", 0, "consecutive peer failures that open its circuit breaker (0 = default 3)")
	logFormat := flag.String("log-format", "text", "log output format: text (grep-friendly lines) or json (one slog record per line)")
	traceCap := flag.Int("trace-cap", 0, "finished traces retained for GET /trace/{id} (0 = default 256)")
	debugAddr := flag.String("debug-addr", "", "listen address for the net/http/pprof debug server (off when empty)")
	flag.Parse()

	if *logFormat != "text" && *logFormat != "json" {
		fatal(fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat))
	}
	log := svctrace.NewLogger(os.Stdout, *logFormat, "relief-serve")

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	s := serve.New(serve.Config{
		Workers:          *workers,
		QueueCap:         *queue,
		CacheCap:         *cacheCap,
		Timeout:          *timeout,
		BreakerThreshold: *breaker,
		Logger:           log,
		TraceCap:         *traceCap,
	})
	if *cacheDir != "" {
		restored, err := s.EnableDiskCache(*cacheDir)
		if err != nil {
			fatal(fmt.Errorf("opening -cache-dir: %w", err))
		}
		// The count rides as a structured attribute so monitors assert on
		// restored=N instead of parsing prose.
		log.Info(fmt.Sprintf("disk cache %s (%d entries restored)", *cacheDir, restored),
			"dir", *cacheDir, "restored", restored)
	}
	if *peers != "" {
		adv := *self
		if adv == "" {
			adv = "http://" + l.Addr().String()
		}
		var ps []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				ps = append(ps, p)
			}
		}
		s.ConfigureCluster(adv, ps)
		log.Info(fmt.Sprintf("cluster mode, self=%s peers=%s", adv, strings.Join(ps, ",")))
	}
	if *debugAddr != "" {
		startDebugServer(log, *debugAddr)
	}
	// Logged before serving so scripts using an ephemeral port can scrape
	// the actual address. The address stays in the message (no attrs) so
	// the existing "listening on " sed extraction keeps working in both
	// log formats' text form.
	log.Info(fmt.Sprintf("listening on http://%s", l.Addr()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve(l) }()

	select {
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
		log.Info("draining")
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Drain(dctx); err != nil {
			fatal(err)
		}
		<-errCh // http.ErrServerClosed
		log.Info("stopped")
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

// startDebugServer serves net/http/pprof on its own listener, kept apart
// from the service mux so profiling is never exposed on the service port.
func startDebugServer(log *slog.Logger, addr string) {
	dl, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(fmt.Errorf("opening -debug-addr: %w", err))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Info(fmt.Sprintf("debug listening on http://%s", dl.Addr()))
	go func() {
		if err := http.Serve(dl, mux); err != nil {
			log.Warn("debug server stopped", "err", err.Error())
		}
	}()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "relief-serve: %v\n", err)
	os.Exit(1)
}
