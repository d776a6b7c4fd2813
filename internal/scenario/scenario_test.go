package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"bbrnash/internal/rng"
	"bbrnash/internal/units"

	// Validate resolves algorithm names through the registry; link the
	// full built-in set for the tests. (The package itself cannot link
	// them — see the Algorithms doc comment.)
	_ "bbrnash/internal/cc/bbr"
	_ "bbrnash/internal/cc/bbrv2"
	_ "bbrnash/internal/cc/copa"
	_ "bbrnash/internal/cc/cubic"
	_ "bbrnash/internal/cc/reno"
	_ "bbrnash/internal/cc/vivace"
)

func validSpec() Spec {
	sp := Mix("bbr", 3, 2, 100*units.Mbps,
		units.BufferBytes(100*units.Mbps, 40*time.Millisecond, 2),
		40*time.Millisecond, 2*time.Minute)
	sp.Seed = 42
	return sp
}

// TestKeyGolden pins the canonical encoding byte for byte. If this test
// fails, the key format changed: bump KeyVersion and update the golden
// string — silent drift is exactly what the pin exists to catch.
func TestKeyGolden(t *testing.T) {
	const want = "scenario|v5|" +
		"bk=packet|" +
		"mss=0x1.6dp+10|" +
		"aj=1000000|sj=10000000|dur=120000000000|seed=42|" +
		"tp=bottleneck:0x1.7d784p+26:0x1.e848p+19:" +
		"0x0p+00:0x0p+00:0:0x0p+00:0:0:0x0p+00:0x0p+00|" +
		"g=bbr:3:40000000:0:bottleneck,cubic:2:40000000:0:bottleneck"
	if got := validSpec().Key(); got != want {
		t.Errorf("Key() =\n %q\nwant\n %q", got, want)
	}
}

// TestKeyGoldenFaults pins the fault fields' encoding: exact hex rates and
// depth, nanosecond periods, integer burst length.
func TestKeyGoldenFaults(t *testing.T) {
	sp := validSpec()
	sp.Faults = Faults{
		LossRate:    0.02,
		AckLossRate: 0.01,
		FlapPeriod:  2 * time.Second,
		FlapDepth:   0.5,
		BurstEvery:  30 * time.Second,
		BurstLen:    8,
	}
	const want = "scenario|v5|" +
		"bk=packet|" +
		"mss=0x1.6dp+10|" +
		"aj=1000000|sj=10000000|dur=120000000000|seed=42|" +
		"tp=bottleneck:0x1.7d784p+26:0x1.e848p+19:" +
		"0x1.47ae147ae147bp-06:0x1.47ae147ae147bp-07:" +
		"2000000000:0x1p-01:30000000000:8:0x0p+00:0x0p+00|" +
		"g=bbr:3:40000000:0:bottleneck,cubic:2:40000000:0:bottleneck"
	if got := sp.Key(); got != want {
		t.Errorf("Key() =\n %q\nwant\n %q", got, want)
	}
	if sp.Key() == validSpec().Key() {
		t.Error("faulted and clean specs share a key")
	}
}

// TestKeyBackend: the backend is part of the scenario's identity — the
// packet and fluid engines must never share a cache entry — while an empty
// Backend resolves to the packet default and shares its key.
func TestKeyBackend(t *testing.T) {
	pkt := validSpec()
	fl := validSpec()
	fl.Backend = BackendFluid
	if pkt.Key() == fl.Key() {
		t.Fatalf("packet and fluid specs share a key: %q", pkt.Key())
	}
	if !strings.Contains(fl.Key(), "|bk=fluid|") {
		t.Errorf("fluid key missing bk=fluid field: %q", fl.Key())
	}
	explicit := validSpec()
	explicit.Backend = BackendPacket
	if pkt.Key() != explicit.Key() {
		t.Errorf("zero-Backend key %q != explicit-packet key %q", pkt.Key(), explicit.Key())
	}
}

// TestValidateBackend: unknown backends are rejected; both registered
// backends validate.
func TestValidateBackend(t *testing.T) {
	for _, bk := range Backends() {
		sp := validSpec()
		sp.Backend = bk
		if err := sp.Validate(); err != nil {
			t.Errorf("backend %q: %v", bk, err)
		}
	}
	sp := validSpec()
	sp.Backend = "quantum"
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("unknown backend validated: err=%v", err)
	}
}

// TestJSONBackendRoundTrip: the backend survives the file form.
func TestJSONBackendRoundTrip(t *testing.T) {
	sp := validSpec()
	sp.Backend = BackendFluid
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Backend != BackendFluid {
		t.Errorf("round-tripped backend %q, want %q", back.Backend, BackendFluid)
	}
	// The default stays out of the file form entirely.
	data, err = json.Marshal(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "backend") {
		t.Errorf("zero backend serialized: %s", data)
	}
}

// TestKeyDefaultsResolved: an explicit default MSS and a zero MSS are the
// same scenario and must share a key.
func TestKeyDefaultsResolved(t *testing.T) {
	a := validSpec()
	b := validSpec()
	b.MSS = units.MSS
	if a.Key() != b.Key() {
		t.Errorf("zero-MSS key %q != explicit-default key %q", a.Key(), b.Key())
	}
	if !strings.HasPrefix(a.Key(), KeyPrefix) {
		t.Errorf("key %q lacks prefix %q", a.Key(), KeyPrefix)
	}
}

// TestKeyNegativeZero: a field written as -0 is the same scenario as one
// written as 0 (or left out). Both bodies share one key, and the key
// survives the file form, which omits zero fields.
func TestKeyNegativeZero(t *testing.T) {
	const groups = `"groups": [{"algorithm": "bbr", "count": 1, "rtt": "40ms"}]`
	const link = `"links": [{"name": "l0", "capacity_mbps": 50, "buffer_bytes": 100000, "reverse": {"capacity_bps": %s}}],
		"groups": [{"algorithm": "bbr", "count": 1, "rtt": "40ms", "path": ["l0"]}]`
	for _, form := range []string{
		`{"capacity_mbps": 50, "buffer_bytes": 100000, "duration": "1s", "faults": {"loss_rate": %s}, ` + groups + `}`,
		`{"capacity_mbps": 50, "buffer_bytes": 100000, "duration": "1s", "faults": {"ack_loss_rate": %s}, ` + groups + `}`,
		`{"capacity_mbps": 50, "buffer_bytes": 100000, "duration": "1s", "faults": {"flap_depth": %s}, ` + groups + `}`,
		`{"duration": "1s", ` + link + `}`,
	} {
		keys := make([]string, 2)
		for i, zero := range []string{"-0", "0"} {
			body := fmt.Sprintf(form, zero)
			var sp Spec
			if err := json.Unmarshal([]byte(body), &sp); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			keys[i] = sp.Key()
			data, err := json.Marshal(sp)
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			var back Spec
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("%s: %v", data, err)
			}
			if got := back.Key(); got != keys[i] {
				t.Errorf("%s: key drifts through %s:\n got %q\nwant %q", body, data, got, keys[i])
			}
		}
		if keys[0] != keys[1] {
			t.Errorf("-0 and 0 key apart:\n %q\n %q", keys[0], keys[1])
		}
	}
}

// randomSpec draws a structurally arbitrary spec — including values no
// experiment would use — to exercise the JSON round-trip.
func randomSpec(r *rng.Source) Spec {
	algs := []string{"bbr", "bbrv2", "copa", "cubic", "reno", "vivace"}
	sp := Spec{
		Capacity:    units.Rate(r.Float64()*1e9) + 1,
		Buffer:      units.Bytes(r.Float64() * 1e7),
		MSS:         units.Bytes(r.Intn(3000)),
		AckJitter:   time.Duration(r.Intn(int(5 * time.Millisecond))),
		StartJitter: time.Duration(r.Intn(int(50 * time.Millisecond))),
		Duration:    time.Duration(r.Intn(int(5*time.Minute))) + 1,
		Seed:        r.Uint64(),
	}
	if r.Float64() < 0.5 {
		sp.Faults = Faults{
			LossRate:    r.Float64() * 0.5,
			AckLossRate: r.Float64() * 0.5,
			FlapPeriod:  time.Duration(r.Intn(int(10*time.Second))) + 1,
			FlapDepth:   r.Float64() * 0.9,
			BurstEvery:  time.Duration(r.Intn(int(time.Minute))) + 1,
			BurstLen:    r.Intn(20),
		}
	}
	n := 1 + r.Intn(5)
	for i := 0; i < n; i++ {
		sp.Groups = append(sp.Groups, Group{
			Algorithm: algs[r.Intn(len(algs))],
			Count:     r.Intn(10),
			RTT:       time.Duration(r.Intn(int(400*time.Millisecond))) + 1,
			Start:     time.Duration(r.Intn(int(10 * time.Second))),
		})
	}
	return sp
}

// TestJSONRoundTrip: for arbitrary specs, Marshal→Unmarshal reproduces the
// spec exactly — same struct, same canonical key — so the spec a run emits
// reproduces that run.
func TestJSONRoundTrip(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		sp := randomSpec(r)
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

// TestJSONConveniences: the human-friendly input spellings decode to the
// intended base-unit values.
func TestJSONConveniences(t *testing.T) {
	const in = `{
		"capacity_mbps": 100,
		"buffer_bdp": 2, "buffer_bdp_rtt": "40ms",
		"duration": "2m", "seed": 1,
		"groups": [
			{"algorithm": "bbr", "count": 3, "rtt": "40ms"},
			{"algorithm": "cubic", "count": 2, "rtt": "80ms", "start": "1s"}
		]
	}`
	var sp Spec
	if err := json.Unmarshal([]byte(in), &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Capacity != 100*units.Mbps {
		t.Errorf("Capacity = %v", sp.Capacity)
	}
	if want := units.BufferBytes(100*units.Mbps, 40*time.Millisecond, 2); sp.Buffer != want {
		t.Errorf("Buffer = %v, want %v", sp.Buffer, want)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Groups[1].Start != time.Second || sp.Groups[1].RTT != 80*time.Millisecond {
		t.Errorf("group 1 = %+v", sp.Groups[1])
	}
	// Ambiguous spellings are rejected.
	for _, bad := range []string{
		`{"capacity_bps": 1, "capacity_mbps": 1}`,
		`{"buffer_bytes": 1, "buffer_bdp": 1}`,
		`{"buffer_bdp": 2}`,
	} {
		var s Spec
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

// TestValidate covers the rejection cases.
func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero capacity", func(s *Spec) { s.Capacity = 0 }},
		{"sub-MSS buffer", func(s *Spec) { s.Buffer = 100 }},
		{"zero duration", func(s *Spec) { s.Duration = 0 }},
		{"negative ack jitter", func(s *Spec) { s.AckJitter = -1 }},
		{"negative start jitter", func(s *Spec) { s.StartJitter = -1 }},
		{"empty groups", func(s *Spec) { s.Groups = nil }},
		{"unnamed algorithm", func(s *Spec) { s.Groups[0].Algorithm = "" }},
		{"unknown algorithm", func(s *Spec) { s.Groups[0].Algorithm = "hybla" }},
		{"negative count", func(s *Spec) { s.Groups[0].Count = -1 }},
		{"zero RTT", func(s *Spec) { s.Groups[0].RTT = 0 }},
		{"negative start", func(s *Spec) { s.Groups[0].Start = -time.Second }},
		{"no flows", func(s *Spec) { s.Groups[0].Count = 0; s.Groups[1].Count = 0 }},
		{"loss rate one", func(s *Spec) { s.Faults.LossRate = 1 }},
		{"negative loss rate", func(s *Spec) { s.Faults.LossRate = -0.1 }},
		{"ack loss rate one", func(s *Spec) { s.Faults.AckLossRate = 1 }},
		{"flap depth one", func(s *Spec) { s.Faults.FlapDepth = 1; s.Faults.FlapPeriod = time.Second }},
		{"flap depth without period", func(s *Spec) { s.Faults.FlapDepth = 0.5 }},
		{"flap period under 2ns", func(s *Spec) { s.Faults.FlapDepth = 0.5; s.Faults.FlapPeriod = time.Nanosecond }},
		{"negative flap period", func(s *Spec) { s.Faults.FlapPeriod = -time.Second }},
		{"burst length without interval", func(s *Spec) { s.Faults.BurstLen = 4 }},
		{"negative burst length", func(s *Spec) { s.Faults.BurstLen = -1; s.Faults.BurstEvery = time.Second }},
		{"negative burst interval", func(s *Spec) { s.Faults.BurstEvery = -time.Second }},
		{"NaN capacity", func(s *Spec) { s.Capacity = units.Rate(math.NaN()) }},
		{"NaN buffer", func(s *Spec) { s.Buffer = units.Bytes(math.NaN()) }},
	}
	for _, tc := range cases {
		sp := validSpec()
		tc.mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Bodies that decode but must not validate: capacities and buffers
	// that overflow to +Inf, top-level, per link and on a reverse twin.
	// A spec holding +Inf has no JSON form to be emitted in.
	const groups = `"groups": [{"algorithm": "bbr", "count": 1, "rtt": "40ms"}]`
	const linkGroups = `"groups": [{"algorithm": "bbr", "count": 1, "rtt": "40ms", "path": ["l0"]}]`
	for _, body := range []string{
		`{"capacity_mbps": 1e303, "buffer_bytes": 100000, "duration": "1s", ` + groups + `}`,
		`{"capacity_mbps": 50, "buffer_bdp": 1e306, "buffer_bdp_rtt": "40ms", "duration": "1s", ` + groups + `}`,
		`{"duration": "1s", "links": [{"name": "l0", "capacity_mbps": 1e303, "buffer_bytes": 100000}], ` + linkGroups + `}`,
		`{"duration": "1s", "links": [{"name": "l0", "capacity_mbps": 50, "buffer_bdp": 1e306, "buffer_bdp_rtt": "40ms"}], ` + linkGroups + `}`,
		`{"duration": "1s", "links": [{"name": "l0", "capacity_mbps": 50, "buffer_bytes": 100000,
			"reverse": {"capacity_mbps": 1e303, "buffer_bytes": 6400}}], ` + linkGroups + `}`,
	} {
		var sp Spec
		if err := json.Unmarshal([]byte(body), &sp); err != nil {
			t.Errorf("%s: decode: %v", body, err)
			continue
		}
		if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: err = %v, want a non-finite rejection", body, err)
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	// Zero-count groups are legal as long as some flow exists: sweeps keep
	// empty classes so group indices stay stable.
	sp := validSpec()
	sp.Groups[0].Count = 0
	if err := sp.Validate(); err != nil {
		t.Errorf("zero-count group rejected: %v", err)
	}
}

func TestParseGroups(t *testing.T) {
	gs, err := ParseGroups("bbr:2, cubic:3", 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 || gs[0].Algorithm != "bbr" || gs[0].Count != 2 ||
		gs[1].Algorithm != "cubic" || gs[1].Count != 3 ||
		gs[0].RTT != 40*time.Millisecond {
		t.Errorf("ParseGroups = %+v", gs)
	}
	if gs, err = ParseGroups("vivace,copa", time.Millisecond); err != nil || gs[0].Count != 1 || gs[1].Count != 1 {
		t.Errorf("bare names: %+v, %v", gs, err)
	}
	for _, bad := range []string{"", "  ", "bbr:", "bbr:0", "bbr:-1", "bbr:x", "unknownalg:2", "bbr:2,,cubic:1"} {
		if _, err := ParseGroups(bad, time.Millisecond); err == nil {
			t.Errorf("list %q accepted", bad)
		}
	}
}

// TestFaultsHelpers covers the audit-bound helpers: the lowest effective
// rate under a flap and the exact time-average over a window.
func TestFaultsHelpers(t *testing.T) {
	f := Faults{FlapPeriod: 2 * time.Second, FlapDepth: 0.5}
	c := 100 * units.Mbps
	if got := f.MinCapacity(c); got != 50*units.Mbps {
		t.Errorf("MinCapacity = %v, want 50Mbps", got)
	}
	if got := (Faults{}).MinCapacity(c); got != c {
		t.Errorf("clean MinCapacity = %v, want %v", got, c)
	}
	cases := []struct {
		dur  time.Duration
		want units.Rate
	}{
		// Whole periods average to (1 − depth/2)·C.
		{4 * time.Second, 75 * units.Mbps},
		// Half a period is all up-phase.
		{time.Second, 100 * units.Mbps},
		// 1.5 periods: 2s up, 1s down → (2·100 + 1·50)/3.
		{3 * time.Second, units.Rate(float64(250*units.Mbps) / 3)},
	}
	for _, tc := range cases {
		if got := f.MeanCapacityOver(c, tc.dur); !closeRate(got, tc.want) {
			t.Errorf("MeanCapacityOver(%v) = %v, want %v", tc.dur, got, tc.want)
		}
	}
	if got := (Faults{}).MeanCapacityOver(c, time.Minute); got != c {
		t.Errorf("clean MeanCapacityOver = %v, want %v", got, c)
	}
	// A valid faulted spec passes Validate, and Active distinguishes the
	// clean zero value.
	sp := validSpec()
	sp.Faults = Faults{LossRate: 0.02, FlapPeriod: 2 * time.Second, FlapDepth: 0.5}
	if err := sp.Validate(); err != nil {
		t.Errorf("valid faulted spec rejected: %v", err)
	}
	if !sp.Faults.Active() || (Faults{}).Active() {
		t.Errorf("Active: faulted %v, clean %v", sp.Faults.Active(), (Faults{}).Active())
	}
}

func closeRate(a, b units.Rate) bool {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*float64(b)
}
