package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzSpecJSON treats the spec file form as the trust boundary it is
// (bbrserve bodies, bbrsim -scenario files): any input that decodes and
// validates must marshal, re-parse, validate again and keep its canonical
// key, so the spec a run emits reproduces that run. Any other input must
// fail with an error; a panic anywhere fails the fuzz. The seed corpus
// under testdata/fuzz/FuzzSpecJSON holds the example specs, a multi-link
// spec with a reverse twin, and regression inputs for an infinite capacity
// and a negative-zero loss rate.
func FuzzSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			return
		}
		key := sp.Key()
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("valid spec %q does not marshal: %v", key, err)
		}
		var back Spec
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("emitted spec %s does not re-parse: %v", out, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("emitted spec %s fails Validate: %v", out, err)
		}
		if got := back.Key(); got != key {
			t.Fatalf("key drifts through %s:\n got %q\nwant %q", out, got, key)
		}
	})
}
