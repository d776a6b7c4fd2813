// Command bbrserve runs the sweep service: a long-lived HTTP API over the
// simulation harness that memoizes by canonical scenario key, coalesces
// duplicate submissions, sheds overload, and survives crashes.
//
// Usage:
//
//	bbrserve -addr 127.0.0.1:8080 -cache results.json -resume journal.jsonl
//	bbrserve -addr 127.0.0.1:0 -workers 4 -queue 64 -timeout 30s -retries 2
//
// Submit a scenario:
//
//	curl -d @examples/mix-3bbr-2cubic.json localhost:8080/run
//
// The service answers a repeated spec from the cache without re-simulating,
// runs at most one simulation per canonical key no matter how many clients
// submit it concurrently, and answers every one of them with the same
// bytes. A full queue sheds submissions with 429 + Retry-After instead of
// growing without bound.
//
// -resume makes the service crash-safe: completed runs are journaled and
// fsynced before clients are answered, so a kill -9 loses only in-flight
// work. Restarting with the same flags replays the journal and resubmitted
// specs are answered byte-identically without re-simulating
// (scripts/serve_smoke.sh proves this end to end). The advisory store lock
// makes a second bbrserve on the same cache or journal fail loudly at
// startup instead of corrupting it.
//
// SIGINT/SIGTERM drain gracefully: admission stops (readyz turns 503),
// in-flight runs finish and journal, queued submissions are failed so no
// client hangs, and the cache (and any -cpuprofile profile) is persisted.
// -drain-timeout bounds the drain; past it, in-flight runs are
// hard-cancelled (their journaled predecessors stay durable). The actual
// listen address is printed on startup — with -addr :0 the kernel picks a
// free port — and /healthz, /readyz and /stats expose liveness, readiness
// and the full counter set.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"bbrnash/internal/cli"
	"bbrnash/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	env := cli.New("bbrserve", cli.Profile|cli.Strict|cli.Trace|cli.Report)
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port; the actual address is printed)")
		queueDepth   = flag.Int("queue", 0, "submission queue depth; a full queue sheds with 429 (0 = 256)")
		deadline     = flag.Duration("deadline", 0, "how long one request waits for its result before 504 (0 = 2m; the run continues)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound on SIGTERM; past it in-flight runs are cancelled")
	)
	env.Parse()

	defer func() { env.Close(code) }()
	if err := env.Open(); err != nil {
		return env.Fail(err)
	}
	srv := serve.New(serve.Config{
		Cache:          env.Cache,
		Journal:        env.Journal,
		Recorder:       env.Trace,
		Audit:          env.Audit,
		Pool:           env.Pool,
		QueueDepth:     *queueDepth,
		RequestTimeout: *deadline,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return env.Fail(err)
	}
	// The actual address, so -addr :0 callers (tests, the smoke script) can
	// find the port. Printed to stdout and flushed before serving begins.
	fmt.Printf("bbrserve: listening on http://%s (%d replayed journal entries, %d cached results)\n",
		ln.Addr(), env.Journal.Len(), env.Cache.Len())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-env.Ctx.Done():
		env.StopSignals()
		fmt.Fprintln(os.Stderr, "bbrserve: draining")
	case err := <-serveErr:
		return env.Fail(err)
	}

	// Graceful drain: stop accepting connections, finish (and journal) what
	// is in flight, answer or fail every waiter, then persist the cache via
	// the deferred Close.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "bbrserve: http shutdown:", err)
	}
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "bbrserve: drain cut short:", err)
		return 1
	}
	st := srv.Stats()
	fmt.Printf("bbrserve: drained (%d completed, %d failed, %d shed)\n", st.Completed, st.Failed, st.Shed)
	return 0
}
