package cc_test

import (
	"sort"
	"testing"

	"bbrnash/internal/cc"
	_ "bbrnash/internal/cc/bbr"
	_ "bbrnash/internal/cc/bbrv2"
	_ "bbrnash/internal/cc/copa"
	_ "bbrnash/internal/cc/cubic"
	_ "bbrnash/internal/cc/reno"
	_ "bbrnash/internal/cc/vivace"
)

// TestRegistryNames: the six shipped algorithms self-register and come back
// sorted, once each.
func TestRegistryNames(t *testing.T) {
	names := cc.Algorithms()
	want := []string{"bbr", "bbrv2", "copa", "cubic", "reno", "vivace"}
	if len(names) != len(want) {
		t.Fatalf("Algorithms() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Algorithms() = %v, want %v", names, want)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Algorithms() not sorted: %v", names)
	}
}

// TestRegistryLookup: names resolve to working constructors; unknown names
// are rejected with the available set in the error.
func TestRegistryLookup(t *testing.T) {
	ctor, err := cc.AlgorithmByName("bbr")
	if err != nil {
		t.Fatal(err)
	}
	if alg := ctor(cc.Params{}); alg == nil {
		t.Fatal("constructor returned nil algorithm")
	}
	if _, err := cc.AlgorithmByName("hybla"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
