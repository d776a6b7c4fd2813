package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"bbrnash/internal/rng"
	"bbrnash/internal/units"
)

// parkingLotSpec is a three-link chain with one long-path group crossing
// all links and one cross-traffic group per link — the classic parking-lot
// shape the topology layer exists for.
func parkingLotSpec() Spec {
	link := func(name string, mbps float64) Link {
		c := units.Rate(mbps) * units.Mbps
		return Link{Name: name, Capacity: c, Buffer: units.BufferBytes(c, 40*time.Millisecond, 2)}
	}
	return Spec{
		AckJitter:   DefaultAckJitter,
		StartJitter: DefaultStartJitter,
		Duration:    30 * time.Second,
		Seed:        7,
		Links:       []Link{link("l0", 100), link("l1", 80), link("l2", 100)},
		Groups: []Group{
			{Algorithm: "bbr", Count: 2, RTT: 60 * time.Millisecond, Path: []string{"l0", "l1", "l2"}},
			{Algorithm: "cubic", Count: 1, RTT: 20 * time.Millisecond, Path: []string{"l0"}},
			{Algorithm: "cubic", Count: 1, RTT: 20 * time.Millisecond, Path: []string{"l1"}},
			{Algorithm: "cubic", Count: 1, RTT: 20 * time.Millisecond, Path: []string{"l2"}},
		},
	}
}

// TestKeyLegacyEquivalence: a legacy scalar spec and its explicit one-link
// spelling are the same scenario and must share a canonical key.
func TestKeyLegacyEquivalence(t *testing.T) {
	legacy := validSpec()
	legacy.Faults = Faults{LossRate: 0.01}

	explicit := legacy
	explicit.Links = []Link{{
		Name:     DefaultLinkName,
		Capacity: legacy.Capacity,
		Buffer:   legacy.Buffer,
		Faults:   legacy.Faults,
	}}
	explicit.Capacity, explicit.Buffer, explicit.Faults = 0, 0, Faults{}
	explicit.Groups = append([]Group(nil), legacy.Groups...)
	for i := range explicit.Groups {
		explicit.Groups[i].Path = []string{DefaultLinkName}
	}

	if err := explicit.Validate(); err != nil {
		t.Fatalf("explicit one-link spec rejected: %v", err)
	}
	if legacy.Key() != explicit.Key() {
		t.Errorf("legacy and explicit one-link keys differ:\n legacy   %q\n explicit %q",
			legacy.Key(), explicit.Key())
	}
}

// TestTopologyKeyGolden pins the multi-link tp= encoding, including a
// reverse twin and per-link faults.
func TestTopologyKeyGolden(t *testing.T) {
	sp := Spec{
		Duration: 10 * time.Second,
		Seed:     3,
		Links: []Link{
			{Name: "access", Capacity: 20 * units.Mbps, Buffer: 50000,
				RevCapacity: 2 * units.Mbps, RevBuffer: 6400},
			{Name: "core", Capacity: 100 * units.Mbps, Buffer: 250000,
				Faults: Faults{LossRate: 0.01}},
		},
		Groups: []Group{
			{Algorithm: "bbr", Count: 1, RTT: 40 * time.Millisecond, Path: []string{"access", "core"}},
			{Algorithm: "cubic", Count: 1, RTT: 40 * time.Millisecond, Path: []string{"core"}},
		},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	const want = "scenario|v5|bk=packet|mss=0x1.6dp+10|aj=0|sj=0|dur=10000000000|seed=3|" +
		"tp=access:0x1.312dp+24:0x1.86ap+15:0x0p+00:0x0p+00:0:0x0p+00:0:0:0x1.e848p+20:0x1.9p+12;" +
		"core:0x1.7d784p+26:0x1.e848p+17:0x1.47ae147ae147bp-07:0x0p+00:0:0x0p+00:0:0:0x0p+00:0x0p+00|" +
		"g=bbr:1:40000000:0:access+core,cubic:1:40000000:0:core"
	if got := sp.Key(); got != want {
		t.Errorf("Key() =\n %q\nwant\n %q", got, want)
	}
}

// TestTopologyJSONRoundTrip: topology specs re-encode byte-identically
// (marshal → unmarshal → marshal), and the round trip preserves the key.
func TestTopologyJSONRoundTrip(t *testing.T) {
	specs := []Spec{parkingLotSpec()}
	withRev := parkingLotSpec()
	withRev.Links[0].RevCapacity = 10 * units.Mbps
	withRev.Links[0].RevBuffer = 12800
	withRev.Links[1].Faults = Faults{AckLossRate: 0.02, BurstEvery: 5 * time.Second, BurstLen: 3}
	specs = append(specs, withRev)

	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("spec %d: %v (json %s)", i, err, data)
		}
		if back.Key() != sp.Key() {
			t.Fatalf("spec %d: round-trip key drift\n got %q\nwant %q", i, back.Key(), sp.Key())
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("spec %d: re-encode not byte-identical\n first  %s\n second %s", i, data, again)
		}
	}
}

// randomTopologySpec draws an arbitrary multi-link spec for the fuzzing
// round trip.
func randomTopologySpec(r *rng.Source) Spec {
	algs := []string{"bbr", "bbrv2", "copa", "cubic", "reno", "vivace"}
	nl := 1 + r.Intn(4)
	sp := Spec{
		MSS:         units.Bytes(r.Intn(3000)),
		AckJitter:   time.Duration(r.Intn(int(5 * time.Millisecond))),
		StartJitter: time.Duration(r.Intn(int(50 * time.Millisecond))),
		Duration:    time.Duration(r.Intn(int(5*time.Minute))) + 1,
		Seed:        r.Uint64(),
	}
	names := []string{"a", "b.1", "c_2", "d-3"}
	for i := 0; i < nl; i++ {
		l := Link{
			Name:     names[i],
			Capacity: units.Rate(r.Float64()*1e9) + 1,
			Buffer:   units.Bytes(r.Float64() * 1e7),
		}
		if r.Float64() < 0.4 {
			l.Faults = Faults{
				LossRate:    r.Float64() * 0.5,
				AckLossRate: r.Float64() * 0.5,
				FlapPeriod:  time.Duration(r.Intn(int(10*time.Second))) + 1,
				FlapDepth:   r.Float64() * 0.9,
				BurstEvery:  time.Duration(r.Intn(int(time.Minute))) + 1,
				BurstLen:    r.Intn(20),
			}
		}
		if r.Float64() < 0.3 {
			l.RevCapacity = units.Rate(r.Float64()*1e8) + 1
			l.RevBuffer = units.Bytes(r.Float64()*1e5) + units.AckBytes
		}
		sp.Links = append(sp.Links, l)
	}
	ng := 1 + r.Intn(4)
	for i := 0; i < ng; i++ {
		// A contiguous slice of the chain, always non-empty.
		lo := r.Intn(nl)
		hi := lo + 1 + r.Intn(nl-lo)
		var path []string
		for _, l := range sp.Links[lo:hi] {
			path = append(path, l.Name)
		}
		sp.Groups = append(sp.Groups, Group{
			Algorithm: algs[r.Intn(len(algs))],
			Count:     r.Intn(10),
			RTT:       time.Duration(r.Intn(int(400*time.Millisecond))) + 1,
			Start:     time.Duration(r.Intn(int(10 * time.Second))),
			Path:      path,
		})
	}
	return sp
}

// TestTopologyJSONRoundTripRandom fuzzes the topology round trip the same
// way TestJSONRoundTrip fuzzes the legacy form.
func TestTopologyJSONRoundTripRandom(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 200; i++ {
		sp := randomTopologySpec(r)
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("spec %d: %v (json %s)", i, err, data)
		}
		if back.Key() != sp.Key() {
			t.Fatalf("spec %d: round-trip key drift\n got %q\nwant %q\njson %s",
				i, back.Key(), sp.Key(), data)
		}
	}
}

// TestTopologyValidate covers the topology rejection cases.
func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"unknown link id", func(s *Spec) { s.Groups[0].Path = []string{"l0", "nosuch"} }, "unknown link"},
		{"empty path", func(s *Spec) { s.Groups[1].Path = nil }, "empty path"},
		{"duplicate link names", func(s *Spec) { s.Links[2].Name = "l0" }, "duplicate link name"},
		{"invalid link name", func(s *Spec) { s.Links[0].Name = "l 0" }, "invalid name"},
		{"empty link name", func(s *Spec) { s.Links[0].Name = "" }, "invalid name"},
		{"path repeats link", func(s *Spec) { s.Groups[0].Path = []string{"l0", "l1", "l0"} }, "repeats link"},
		{"links plus capacity", func(s *Spec) { s.Capacity = units.Mbps }, "mutually exclusive"},
		{"links plus buffer", func(s *Spec) { s.Buffer = 1e6 }, "mutually exclusive"},
		{"links plus faults", func(s *Spec) { s.Faults.LossRate = 0.1 }, "mutually exclusive"},
		{"zero link capacity", func(s *Spec) { s.Links[1].Capacity = 0 }, "non-positive capacity"},
		{"sub-MSS link buffer", func(s *Spec) { s.Links[1].Buffer = 100 }, "below one segment"},
		{"bad link faults", func(s *Spec) { s.Links[1].Faults.LossRate = 1 }, "outside [0,1)"},
		{"negative reverse capacity", func(s *Spec) { s.Links[0].RevCapacity = -1 }, "negative reverse capacity"},
		{"sub-ACK reverse buffer", func(s *Spec) {
			s.Links[0].RevCapacity = units.Mbps
			s.Links[0].RevBuffer = 10
		}, "below one ACK"},
		{"reverse buffer without capacity", func(s *Spec) { s.Links[0].RevBuffer = 1000 }, "reverse buffer without reverse capacity"},
		{"NaN link capacity", func(s *Spec) { s.Links[1].Capacity = units.Rate(math.NaN()) }, "non-finite capacity"},
		{"infinite link buffer", func(s *Spec) { s.Links[1].Buffer = units.Bytes(math.Inf(1)) }, "non-finite buffer"},
		{"infinite reverse capacity", func(s *Spec) {
			s.Links[0].RevCapacity = units.Rate(math.Inf(1))
			s.Links[0].RevBuffer = 6400
		}, "non-finite reverse capacity"},
		{"NaN reverse buffer", func(s *Spec) {
			s.Links[0].RevCapacity = units.Mbps
			s.Links[0].RevBuffer = units.Bytes(math.NaN())
		}, "non-finite reverse buffer"},
	}
	for _, tc := range cases {
		sp := parkingLotSpec()
		tc.mutate(&sp)
		err := sp.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := parkingLotSpec().Validate(); err != nil {
		t.Errorf("valid topology spec rejected: %v", err)
	}
	// A path on a legacy spec is rejected: paths name explicit links.
	legacy := validSpec()
	legacy.Groups[0].Path = []string{DefaultLinkName}
	if err := legacy.Validate(); err == nil || !strings.Contains(err.Error(), "defines no links") {
		t.Errorf("path without links: err=%v", err)
	}
}

// TestTopologyHelpers covers the canonicalization and path-aggregate
// helpers the audit and CLIs use.
func TestTopologyHelpers(t *testing.T) {
	legacy := validSpec()
	topo := legacy.Topology()
	if len(topo) != 1 || topo[0].Name != DefaultLinkName ||
		topo[0].Capacity != legacy.Capacity || topo[0].Buffer != legacy.Buffer {
		t.Errorf("legacy Topology() = %+v", topo)
	}
	if legacy.MultiLink() {
		t.Error("legacy spec reported as multi-link")
	}
	if got := legacy.PathOf(0); len(got) != 1 || got[0] != DefaultLinkName {
		t.Errorf("legacy PathOf(0) = %v", got)
	}

	sp := parkingLotSpec()
	if !sp.MultiLink() {
		t.Error("parking-lot spec not multi-link")
	}
	if _, ok := sp.LinkByName("l1"); !ok {
		t.Error("LinkByName(l1) not found")
	}
	if _, ok := sp.LinkByName("nosuch"); ok {
		t.Error("LinkByName(nosuch) found")
	}
	if got, want := sp.PathMinCapacity(0), 80*units.Mbps; got != want {
		t.Errorf("PathMinCapacity(0) = %v, want %v", got, want)
	}
	wantBuf := sp.Links[0].Buffer + sp.Links[1].Buffer + sp.Links[2].Buffer
	if got := sp.PathBufferSum(0); got != wantBuf {
		t.Errorf("PathBufferSum(0) = %v, want %v", got, wantBuf)
	}
	// The chain's delay bound strictly exceeds any single link's.
	if sp.PathQueueDelayBound(0) <= sp.PathQueueDelayBound(1) {
		t.Errorf("chain delay bound %v not above single-link bound %v",
			sp.PathQueueDelayBound(0), sp.PathQueueDelayBound(1))
	}
	// A reverse twin adds reverse drain time to the bound.
	rev := parkingLotSpec()
	rev.Links[0].RevCapacity = units.Mbps
	rev.Links[0].RevBuffer = 6400
	if rev.PathQueueDelayBound(1) <= sp.PathQueueDelayBound(1) {
		t.Error("reverse twin did not increase the delay bound")
	}
	// A single-link explicit topology with no reverse twin is not
	// multi-link: it is the legacy special case spelled out.
	one := Spec{
		Duration: time.Second, Seed: 1,
		Links:  []Link{{Name: "only", Capacity: units.Mbps, Buffer: 1e6}},
		Groups: []Group{{Algorithm: "bbr", Count: 1, RTT: time.Millisecond, Path: []string{"only"}}},
	}
	if err := one.Validate(); err != nil {
		t.Fatal(err)
	}
	if one.MultiLink() {
		t.Error("single explicit link reported as multi-link")
	}
}
