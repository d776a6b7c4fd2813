package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"bbrnash/internal/exp"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
)

// FuzzServeBodies drives the HTTP surface with arbitrary POST /run bodies,
// the input a bbrserve client controls in full. With pad set, the body is
// padded with spaces to one byte past maxSpecBody, which keeps a valid spec
// valid JSON, so the size bound is fuzzed without megabyte inputs. A stub
// Config.Run answers every admitted spec at once, so no simulation runs.
// No input may panic a handler. POST /run must answer 200 exactly when the
// body fits in maxSpecBody and json.Unmarshal into a Spec plus Validate
// accept it, with that spec's Key in the reply, and 400 otherwise. /result
// and /watch, given the unpadded body as the key, must never answer 5xx.
// Once the server drains, no flight may be left queued or in flight, and
// every enqueued flight must have completed or failed. The seed corpus
// under testdata/fuzz/FuzzServeBodies holds the example specs, a spec with
// trailing bytes, a padded (oversize) spec and invalid JSON.
func FuzzServeBodies(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, pad bool) {
		post := body
		if pad && len(body) <= maxSpecBody {
			post = append(bytes.Clone(body), bytes.Repeat([]byte(" "), maxSpecBody+1-len(body))...)
		}
		s := New(Config{
			Cache: runner.NewCache(),
			Pool:  runner.NewPool(1),
			Run: fake(func(_ context.Context, sp scenario.Spec) (exp.SpecResult, error) {
				return fakeResult(sp), nil
			}),
		})
		h := s.Handler()
		var want scenario.Spec
		accept := len(post) <= maxSpecBody && json.Unmarshal(post, &want) == nil && want.Validate() == nil

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(post)))
		switch {
		case accept && rec.Code != http.StatusOK:
			t.Fatalf("valid spec answered %d: %s", rec.Code, rec.Body)
		case accept:
			var env resultEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Key != want.Key() {
				t.Fatalf("reply %s (%v), want key %q", rec.Body, err, want.Key())
			}
		case rec.Code != http.StatusBadRequest:
			t.Fatalf("rejected body answered %d, want 400: %.512s", rec.Code, rec.Body)
		}

		key := "?key=" + url.QueryEscape(string(body))
		for _, path := range []string{"/result", "/watch"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+key, nil))
			if rec.Code >= 500 {
				t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
			}
		}

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if st := s.Stats(); st.InFlight != 0 || st.QueueDepth != 0 || st.Completed+st.Failed != st.Enqueued {
			t.Fatalf("after drain: %d in flight, %d queued, %d completed + %d failed of %d enqueued",
				st.InFlight, st.QueueDepth, st.Completed, st.Failed, st.Enqueued)
		}
	})
}
