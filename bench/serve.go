package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bbrnash/internal/serve"
)

// serve_mixed: each pass is one round. A round starts a fresh bbrserve on
// an empty store, pushes the seeded request stream through it from two
// closed-loop clients, reads /stats, and stops the server. Rounds replay
// the same stream, so every round must return the same bytes per key.

const (
	clients      = 2                      // closed-loop client goroutines, each waiting for its reply
	statsEvery   = 100 * time.Millisecond // /stats poll interval
	readyTimeout = 30 * time.Second
)

func prepareServe(o options) (*prepared, error) {
	in, err := serveInputs(o.seed, o.smoke)
	if err != nil {
		return nil, err
	}
	if err := validate(in.Specs); err != nil {
		return nil, err
	}
	if o.bbrserve == "" {
		return nil, errors.New("bench: serve_mixed needs -bbrserve, the path of a built cmd/bbrserve")
	}
	first := map[string][]byte{} // the first body returned for each key, across rounds
	pass := func(ctx context.Context, tr *Tracer, root int) (passOut, error) {
		return serveRound(ctx, o, in, first, tr, root)
	}
	setup := func(ctx context.Context) (float64, error) { return serverSetup(ctx, o) }
	return &prepared{pass: pass, specs: in.Specs, external: true, setup: setup}, nil
}

// serverSetup starts bbrserve on an empty store and stops it again, and
// returns its exec-to-ready time in seconds.
func serverSetup(ctx context.Context, o options) (float64, error) {
	dir, err := os.MkdirTemp(o.workdir, "serve-setup-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	srv, err := startServer(ctx, o.bbrserve, dir, nil, 0)
	if err != nil {
		return 0, err
	}
	// Nothing needs draining, and a SIGTERM this soon after /readyz can
	// arrive before bbrserve installs its handler, so the probe server is
	// killed outright; stop only reaps it, and its error is the kill.
	srv.cmd.Process.Kill()
	srv.stop()
	return srv.setup.Seconds(), nil
}

type reply struct {
	lat    float64
	status int
	hit    bool
	body   []byte
	err    error
}

func serveRound(ctx context.Context, o options, in serveInput, first map[string][]byte, tr *Tracer, root int) (passOut, error) {
	dir, err := os.MkdirTemp(o.workdir, "serve-*")
	if err != nil {
		return passOut{}, err
	}
	defer os.RemoveAll(dir)
	srv, err := startServer(ctx, o.bbrserve, dir, tr, root)
	if err != nil {
		return passOut{}, err
	}
	defer srv.stop()

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	// The poller has its own connection so that it never queues behind, or
	// takes a connection from, the load.
	statsClient := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer statsClient.CloseIdleConnections()

	var depthMax atomic.Int64
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(statsEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				if st, err := getStats(ctx, statsClient, srv.url); err == nil && int64(st.QueueDepth) > depthMax.Load() {
					depthMax.Store(int64(st.QueueDepth))
				}
			}
		}
	}()

	replies := make([]reply, len(in.Order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(replies) || ctx.Err() != nil {
					return
				}
				replies[i] = post(ctx, client, srv.url, in.Bodies[in.Order[i]], tr, root, int64(i+1))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	close(stopPoll)
	pollWG.Wait()
	st, err := getStats(ctx, statsClient, srv.url)
	if err != nil {
		return passOut{}, fmt.Errorf("bench: reading /stats: %w", err)
	}
	// The server's own peak is read while it runs: the rusage of an exited
	// child also counts the benchmark's memory, which Linux charges to the
	// child at exec.
	rss, rssErr := peakRSSMB(fmt.Sprint(srv.cmd.Process.Pid))
	ru, err := srv.stop()
	if err != nil {
		return passOut{}, err
	}
	if rssErr != nil {
		rss = maxRSSMB(ru) // no /proc: the rusage peak is the best there is
	}

	out := passOut{
		counters: map[string]float64{},
		samples:  map[string][]float64{},
		wallS:    wall,
		rssMB:    rss,
	}
	var missSum float64
	var misses int
	var violations int
	round := map[string]bool{}
	for i, r := range replies {
		out.ops = append(out.ops, r.lat)
		key := in.Keys[in.Order[i]]
		if r.err != nil || r.status != http.StatusOK {
			if bytes.Contains(r.body, []byte("strict audit")) {
				violations++
			}
			out.fail(fmt.Errorf("request %d (%s): status %d err %v: %s", i, key, r.status, r.err, bytes.TrimSpace(r.body)))
			continue
		}
		if r.hit {
			out.samples["serve.hit_latency"] = append(out.samples["serve.hit_latency"], r.lat)
		} else {
			out.samples["serve.miss_latency"] = append(out.samples["serve.miss_latency"], r.lat)
			missSum += r.lat
			misses++
		}
		var env struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(r.body, &env); err != nil || env.Key != key {
			out.problems = append(out.problems, fmt.Sprintf("request %d: reply key %q, want %q (%v)", i, env.Key, key, err))
			continue
		}
		if prev, ok := first[key]; !ok {
			first[key] = r.body
		} else if !bytes.Equal(prev, r.body) {
			out.problems = append(out.problems, fmt.Sprintf("request %d: body for %s differs from its first response", i, key))
		}
		round[key] = true
	}
	keys := make([]string, 0, len(round))
	for k := range round {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var all bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&all, "%s\n%s\n", k, first[k])
	}
	out.digest = digestOf(all.Bytes())

	m := out.counters
	m["serve.instant"] = float64(st.Instant)
	m["serve.enqueued"] = float64(st.Enqueued)
	m["serve.deduped"] = float64(st.Deduped)
	m["serve.shed"] = float64(st.Shed)
	m["serve.failed"] = float64(st.Failed)
	m["serve.queue_depth_max"] = float64(max(depthMax.Load(), int64(st.QueueDepth)))
	m["serve.flight_mean_ms"] = float64(st.LatencyMeanNS) / 1e6
	if misses > 0 {
		m["serve.http_overhead_ms"] = missSum/float64(misses)*1e3 - m["serve.flight_mean_ms"]
	}
	m["runner.pool.retries"] = float64(st.Retries)
	m["runner.pool.stalls"] = float64(st.Stalls)
	m["runner.cache.hits"] = float64(st.CacheHits)
	m["runner.cache.misses"] = float64(st.CacheMisses)
	m["runner.cache.hit_rate"] = st.CacheHitRate
	m["runner.journal.records"] = float64(st.JournalLen)
	m["check.violations"] = float64(violations)
	m["proc.cpu_s"] = cpuSeconds(ru)
	return out, nil
}

func post(ctx context.Context, client *http.Client, url string, body []byte, tr *Tracer, root int, req int64) reply {
	id := tr.Begin(root, "http.POST /run", req)
	defer tr.End(id)
	start := time.Now()
	var r reply
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/run", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hr)
	if err == nil {
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
		r.hit = resp.Header.Get("X-Cache") == "hit"
	}
	r.err = err
	r.lat = time.Since(start).Seconds()
	return r
}

func getStats(ctx context.Context, c *http.Client, url string) (serve.Stats, error) {
	var st serve.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// server is one bbrserve child process.
type server struct {
	cmd    *exec.Cmd
	out    *bufio.Reader
	stderr bytes.Buffer
	url    string
	setup  time.Duration // exec to the first 200 from /readyz
	ru     *syscall.Rusage
	err    error
	once   sync.Once
}

// startServer execs bbrserve on a fresh store in dir with two workers, the
// journal and the strict audit, and waits until /readyz answers 200.
func startServer(ctx context.Context, bin, dir string, tr *Tracer, root int) (*server, error) {
	s := &server{}
	s.cmd = exec.CommandContext(ctx, bin,
		"-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers),
		"-cache", filepath.Join(dir, "cache.json"), "-resume", filepath.Join(dir, "journal.jsonl"), "-strict")
	s.cmd.Stderr = &s.stderr
	pipe, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.out = bufio.NewReader(pipe)
	id := tr.Begin(root, "bbrserve.start", 0)
	defer tr.End(id)
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	line, err := s.out.ReadString('\n')
	_, addr, found := strings.Cut(line, "listening on ")
	addr, _, _ = strings.Cut(addr, " ")
	if err != nil || !found {
		s.stop()
		return nil, fmt.Errorf("bench: bbrserve did not report its address (%v): %s%s", err, line, s.stderr.String())
	}
	s.url = addr
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/readyz", nil)
		if err != nil {
			s.stop()
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > readyTimeout || ctx.Err() != nil {
			s.stop()
			return nil, fmt.Errorf("bench: bbrserve not ready after %v: %v", time.Since(start), err)
		}
		time.Sleep(time.Millisecond)
	}
	s.setup = time.Since(start)
	http.DefaultClient.CloseIdleConnections()
	return s, nil
}

// stop drains the server with SIGTERM, waits for it to exit and returns its
// resource usage. Safe to call more than once.
func (s *server) stop() (*syscall.Rusage, error) {
	s.once.Do(func() {
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			s.cmd.Process.Kill()
		}
		io.Copy(io.Discard, s.out)
		if err := s.cmd.Wait(); err != nil {
			s.err = fmt.Errorf("bench: bbrserve exited: %v: %s", err, s.stderr.String())
		}
		if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.ru = ru
		} else if s.err == nil {
			s.err = errors.New("bench: no resource usage for bbrserve")
		}
	})
	return s.ru, s.err
}
