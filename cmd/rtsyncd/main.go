// Command rtsyncd is a long-running admission-control service: it loads a
// distributed system, analyzes it once, then answers task-set change
// requests ("can this task be added/modified/removed and stay
// schedulable?") over JSON HTTP, serving each from the cheapest exact path
// — memoized result cache, incremental dirty-processor re-analysis, or a
// full analysis (see internal/admission).
//
// Usage:
//
//	rtsyncd -listen 127.0.0.1:8080 system.json
//	rtsyncd -listen 127.0.0.1:0 -algo sapm -example 2
//
// The bound address is announced on stderr (useful with port 0). Routes:
// POST /v1/delta, POST /v1/analyze, GET /v1/system, /healthz, /metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rtsync/internal/admission"
	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rtsyncd:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rtsyncd", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:8080", "serve the admission API on this address")
		algo      = fs.String("algo", "sads", "default analysis answering deltas: sapm, sads, holistic, mpcp or dpcp")
		example   = fs.Int("example", 0, "use built-in example system (1 or 2) instead of a file")
		factor    = fs.Int64("failure-factor", 300, "bound > factor*period counts as infinite")
		cacheSize = fs.Int("cache", 256, "result-cache entry limit")
	)
	cli := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopObs, err := cli.Start("rtsyncd", fs)
	if err != nil {
		return err
	}
	defer stopObs()

	var sys *model.System
	switch {
	case *example == 1:
		sys = model.Example1()
	case *example == 2:
		sys = model.Example2()
	case *example != 0:
		return fmt.Errorf("unknown example %d (want 1 or 2)", *example)
	case fs.NArg() == 1:
		sys, err = model.LoadFile(fs.Arg(0))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: rtsyncd [flags] system.json (or -example N)")
	}

	opts := analysis.DefaultOptions()
	opts.FailureFactor = *factor

	stats := obs.NewAnalysisStats()
	cli.AttachAnalysisStats(stats)
	ws, err := admission.NewWorkspace(sys, admission.Config{
		Algo:      *algo,
		Options:   opts,
		CacheSize: *cacheSize,
		Stats:     stats,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "rtsyncd: serving admission API on http://%s/\n", ln.Addr())
	srv := &http.Server{Handler: admission.NewService(ws), ReadHeaderTimeout: 5 * time.Second}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	case s := <-sig:
		fmt.Fprintf(w, "rtsyncd: %v, shutting down\n", s)
		srv.Close()
		<-done
		return nil
	}
}
