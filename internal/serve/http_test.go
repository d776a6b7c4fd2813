package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"

	"bbrnash/internal/exp"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
)

// postSpec submits sp to the test server and returns the response.
func postSpec(t *testing.T, ts *httptest.Server, sp scenario.Spec, query string) *http.Response {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// TestHTTPRunAndResult: the sync path — submit, get the envelope; submit
// again, get the identical envelope from cache with the hit header; fetch
// it a third way through /result.
func TestHTTPRunAndResult(t *testing.T) {
	s := newFakeServer(t, Config{
		Pool: runner.NewPool(2),
		Run: fake(func(_ context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			return fakeResult(sp), nil
		}),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sp := testSpec(3)
	wantResult, _ := json.Marshal(fakeResult(sp))

	resp := postSpec(t, ts, sp, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run status = %d", resp.StatusCode)
	}
	env := decodeBody[resultEnvelope](t, resp)
	if env.Key != sp.Key() {
		t.Errorf("key = %q, want %q", env.Key, sp.Key())
	}
	if !bytes.Equal(env.Result, wantResult) {
		t.Errorf("result = %s, want %s", env.Result, wantResult)
	}

	resp = postSpec(t, ts, sp, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat run status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Error("repeat submission did not answer from cache")
	}
	env2 := decodeBody[resultEnvelope](t, resp)
	if !bytes.Equal(env2.Result, env.Result) {
		t.Errorf("cache answer differs from first answer:\n%s\n%s", env2.Result, env.Result)
	}

	resp, err := http.Get(ts.URL + "/result?key=" + url.QueryEscape(sp.Key()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/result status = %d", resp.StatusCode)
	}
	env3 := decodeBody[resultEnvelope](t, resp)
	if !bytes.Equal(env3.Result, env.Result) {
		t.Errorf("/result bytes differ from /run bytes")
	}
}

// TestHTTPAsyncSubmit: ?wait=0 returns 202 immediately; /result reports 202
// while the flight is open and 200 with the bytes once it closes.
func TestHTTPAsyncSubmit(t *testing.T) {
	release := make(chan struct{})
	s := newFakeServer(t, Config{
		Pool: runner.NewPool(1),
		Run: fake(func(ctx context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return exp.SpecResult{}, ctx.Err()
			}
			return fakeResult(sp), nil
		}),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sp := testSpec(4)

	resp := postSpec(t, ts, sp, "?wait=0")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d, want 202", resp.StatusCode)
	}
	st := decodeBody[statusEnvelope](t, resp)
	if st.Key != sp.Key() {
		t.Errorf("key = %q, want %q", st.Key, sp.Key())
	}

	resp, err := http.Get(ts.URL + "/result?key=" + url.QueryEscape(sp.Key()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("open flight /result status = %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()

	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get(ts.URL + "/result?key=" + url.QueryEscape(sp.Key()))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("result never became available")
		}
		time.Sleep(10 * time.Millisecond)
	}
	env := decodeBody[resultEnvelope](t, resp)
	want, _ := json.Marshal(fakeResult(sp))
	if !bytes.Equal(env.Result, want) {
		t.Errorf("result = %s, want %s", env.Result, want)
	}
}

// TestHTTPShed: a full queue answers 429 with Retry-After instead of
// accepting unbounded work.
func TestHTTPShed(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := newFakeServer(t, Config{
		Pool:       runner.NewPool(1),
		QueueDepth: 1,
		Run: fake(func(ctx context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return exp.SpecResult{}, ctx.Err()
			}
			return fakeResult(sp), nil
		}),
	})
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSpec(t, ts, testSpec(1), "?wait=0") // occupies the worker
	resp.Body.Close()
	<-started
	resp = postSpec(t, ts, testSpec(2), "?wait=0") // occupies the queue slot
	resp.Body.Close()

	resp = postSpec(t, ts, testSpec(3), "?wait=0") // must shed
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()
	if s.Stats().Shed != 1 {
		t.Errorf("shed = %d, want 1", s.Stats().Shed)
	}
}

// TestHTTPBadRequests: malformed and invalid specs, and missing keys, are
// rejected with 400/404 rather than admitted.
func TestHTTPBadRequests(t *testing.T) {
	s := newFakeServer(t, Config{
		Pool: runner.NewPool(1),
		Run: fake(func(_ context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			return fakeResult(sp), nil
		}),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/run", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec status = %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/result", "/watch"} {
		resp, err = http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s without key status = %d, want 400", path, resp.StatusCode)
		}
		resp, err = http.Get(ts.URL + path + "?key=unknown")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s unknown key status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHTTPRejectsTrailingBytes: a body is one spec and nothing else, as a
// scenario file is. A single Decoder.Decode call used to accept a valid
// spec followed by junk or by a second object, which scenario.Load
// rejects; trailing whitespace stays fine.
func TestHTTPRejectsTrailingBytes(t *testing.T) {
	s := newFakeServer(t, Config{
		Pool: runner.NewPool(1),
		Run: fake(func(_ context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			return fakeResult(sp), nil
		}),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec, err := os.ReadFile("../../examples/mix-3bbr-2cubic.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, tail string
		want       int
	}{
		{"nothing", "", http.StatusOK},
		{"whitespace", " \n\t\n", http.StatusOK},
		{"junk", " trailing junk", http.StatusBadRequest},
		{"a second spec", "\n" + string(spec), http.StatusBadRequest},
		{"an empty object", "{}", http.StatusBadRequest},
		{"a stray bracket", "]", http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(string(spec)+c.tail))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("spec followed by %s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

// TestHTTPHealthReadyStats: liveness stays 200, readiness flips to 503 on
// drain, and /stats is a machine-readable snapshot with sane counters.
func TestHTTPHealthReadyStats(t *testing.T) {
	s := newFakeServer(t, Config{
		Pool: runner.NewPool(1),
		Run: fake(func(_ context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			return fakeResult(sp), nil
		}),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s status = %d, want %d", path, resp.StatusCode, want)
		}
	}

	resp := postSpec(t, ts, testSpec(1), "")
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[Stats](t, resp)
	if st.Workers != 1 || st.QueueCapacity != 256 {
		t.Errorf("stats workers/queue = %d/%d", st.Workers, st.QueueCapacity)
	}
	if st.Enqueued != 1 || st.Completed != 1 {
		t.Errorf("stats enqueued/completed = %d/%d, want 1/1", st.Enqueued, st.Completed)
	}
	if st.UptimeNS <= 0 {
		t.Error("uptime not reported")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz status = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz status = %d, want 200 (the process is alive)", resp.StatusCode)
	}
}

// TestHTTPWatch: the SSE stream ends with a done event carrying the same
// bytes every other reader of the key sees.
func TestHTTPWatch(t *testing.T) {
	release := make(chan struct{})
	s := newFakeServer(t, Config{
		Pool: runner.NewPool(1),
		Run: fake(func(ctx context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return exp.SpecResult{}, ctx.Err()
			}
			return fakeResult(sp), nil
		}),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sp := testSpec(9)

	resp := postSpec(t, ts, sp, "?wait=0")
	resp.Body.Close()

	watch, err := http.Get(ts.URL + "/watch?key=" + url.QueryEscape(sp.Key()))
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	if ct := watch.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type = %q", ct)
	}
	close(release)

	var event string
	var data []byte
	sc := bufio.NewScanner(watch.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") && event == "done" {
			data = []byte(strings.TrimPrefix(line, "data: "))
			break
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if event != "done" {
		t.Fatalf("stream ended without done event (last event %q)", event)
	}
	var env resultEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(fakeResult(sp))
	if !bytes.Equal(env.Result, want) {
		t.Errorf("watch result = %s, want %s", env.Result, want)
	}

	// A completed key streams a single done event immediately.
	watch2, err := http.Get(ts.URL + "/watch?key=" + url.QueryEscape(sp.Key()))
	if err != nil {
		t.Fatal(err)
	}
	defer watch2.Body.Close()
	first, err := bufio.NewReader(watch2.Body).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(first, "event: done") {
		t.Errorf("completed-key watch first line = %q, want done event", first)
	}
}
