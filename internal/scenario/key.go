package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// KeyVersion is the canonical-encoding generation. Every cache entry, audit
// violation and UnitError carries it as the second |-separated key field;
// bump it here — and only here — whenever the encoding or the simulation
// semantics behind it change, and stores written by older generations are
// skipped on load (runner.OpenCache) instead of silently mixed in.
//
// v5 replaced the single-bottleneck fields (cap/buf and the top-level fault
// fields) with a topology section (tp=) of named per-link records plus
// per-group paths — a legacy scalar spec canonicalizes to the one-link
// "bottleneck" form, so the legacy and explicit spellings of the same
// scenario share a key. v4 added the execution-backend field (bk) so
// packet-level and fluid-model results can never collide; v3 added the
// fault-injection fields. Stores written by older generations are accepted
// by OpenCache's version filter in the sense that opening them is not an
// error — their entries are skipped and pruned on the next save.
const KeyVersion = "v5"

// KeyPrefix starts every canonical scenario key.
const KeyPrefix = "scenario|" + KeyVersion + "|"

// fx renders a float64 exactly (hex mantissa), keeping keys canonical.
// Negative zero renders as zero: the file form omits a zero field, so a
// spec read with -0 re-parses as 0, and both must be one scenario.
func fx(v float64) string {
	if v == 0 {
		v = 0 // -0 == 0, so this turns -0 into +0
	}
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// Key is the canonical deterministic encoding of the spec — everything a
// simulation's output is a function of, in one fixed order. It is *the*
// identity every layer keys by: runner.Cache entries, check.Auditor
// violations and runner.UnitError all use this exact string, so "which
// scenario was that" has one answer across the whole stack. Floats are
// encoded as exact hex mantissas and durations as nanosecond integers; the
// golden test in scenario_test.go pins the format.
//
// The topology section (tp=) lists the canonical links in declaration
// order, each as name:cap:buf:fl:al:fp:fd:be:bl:rcap:rbuf; each group
// carries its resolved path as +-joined link names. Both come from
// Topology/PathOf, so a legacy scalar spec and its explicit one-link
// equivalent encode identically.
func (s Spec) Key() string {
	s = s.WithDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "%sbk=%s|mss=%s|aj=%d|sj=%d|dur=%d|seed=%d|tp=",
		KeyPrefix, s.Backend, fx(float64(s.MSS)),
		int64(s.AckJitter), int64(s.StartJitter), int64(s.Duration), s.Seed)
	for i, l := range s.Topology() {
		if i > 0 {
			b.WriteByte(';')
		}
		f := l.Faults
		fmt.Fprintf(&b, "%s:%s:%s:%s:%s:%d:%s:%d:%d:%s:%s",
			l.Name, fx(float64(l.Capacity)), fx(float64(l.Buffer)),
			fx(f.LossRate), fx(f.AckLossRate), int64(f.FlapPeriod),
			fx(f.FlapDepth), int64(f.BurstEvery), f.BurstLen,
			fx(float64(l.RevCapacity)), fx(float64(l.RevBuffer)))
	}
	b.WriteString("|g=")
	for i, g := range s.Groups {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d:%d:%d:%s",
			g.Algorithm, g.Count, int64(g.RTT), int64(g.Start),
			strings.Join(s.PathOf(i), "+"))
	}
	return b.String()
}
