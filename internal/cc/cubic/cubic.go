// Package cubic implements TCP CUBIC congestion control following RFC 8312
// and the Linux implementation's constants: C = 0.4, β = 0.7 (the window
// shrinks to 0.7·Wmax on loss — the property the paper's model is built on),
// fast convergence, and the TCP-friendly (Reno-emulation) region.
package cubic

import (
	"math"
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/eventsim"
	"bbrnash/internal/units"
)

// Constants from RFC 8312 §5 / Linux tcp_cubic.c.
const (
	// ScalingC is CUBIC's scaling constant C in (segments/second³)^(1/3)
	// terms: W(t) = C·(t−K)³ + Wmax with W in segments and t in seconds.
	ScalingC = 0.4
	// Beta is the multiplicative decrease factor: cwnd ← Beta·cwnd on loss.
	Beta = 0.7
	// fastConvergenceFactor shrinks the remembered Wmax when a flow backs
	// off before regaining its previous peak, releasing bandwidth faster:
	// (1+Beta)/2.
	fastConvergenceFactor = (1 + Beta) / 2
)

// Option customizes a CUBIC instance.
type Option func(*Cubic)

// WithoutFastConvergence disables the fast-convergence heuristic (used by
// ablation benchmarks; the kernel default is on).
func WithoutFastConvergence() Option {
	return func(c *Cubic) { c.fastConvergence = false }
}

// WithoutTCPFriendliness disables the Reno-emulation region.
func WithoutTCPFriendliness() Option {
	return func(c *Cubic) { c.tcpFriendly = false }
}

// Cubic is a CUBIC congestion-control instance.
type Cubic struct {
	mss      units.Bytes
	cwnd     units.Bytes
	ssthresh units.Bytes

	fastConvergence bool
	tcpFriendly     bool

	// Cubic epoch state (reset on every loss backoff).
	epochStart eventsim.Time // zero value means "no epoch yet"
	hasEpoch   bool
	wMax       float64 // segments
	k          float64 // seconds
	originW    float64 // cwnd in segments at epoch start

	// Reno-emulation state.
	wEst      float64 // segments
	renoAcked units.Bytes

	// Loss-episode bookkeeping.
	recoverSeq uint64
	inRecovery bool
	maxSeqSent uint64

	// Smoothed RTT for the friendly region's per-RTT increments.
	srtt time.Duration
}

// New constructs a CUBIC instance with kernel defaults. It satisfies
// cc.Constructor.
func New(p cc.Params) cc.Algorithm { return NewWithOptions(p) }

func init() { cc.Register("cubic", New) }

// NewWithOptions constructs a CUBIC instance with options applied.
func NewWithOptions(p cc.Params, opts ...Option) *Cubic {
	p = p.WithDefaults()
	c := &Cubic{
		mss:             p.MSS,
		cwnd:            p.InitialCwnd,
		ssthresh:        1 << 40,
		fastConvergence: true,
		tcpFriendly:     true,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Name implements cc.Algorithm.
func (c *Cubic) Name() string { return "cubic" }

// OnSent implements cc.Algorithm.
func (c *Cubic) OnSent(e cc.SendEvent) {
	if e.Seq > c.maxSeqSent {
		c.maxSeqSent = e.Seq
	}
}

// OnAck implements cc.Algorithm.
func (c *Cubic) OnAck(e cc.AckEvent) {
	if c.srtt == 0 {
		c.srtt = e.RTT
	} else {
		c.srtt = (7*c.srtt + e.RTT) / 8
	}
	if c.inRecovery && e.Seq > c.recoverSeq {
		c.inRecovery = false
	}
	if c.cwnd < c.ssthresh {
		c.cwnd += e.Bytes
		return
	}
	c.congestionAvoidance(e)
}

func (c *Cubic) congestionAvoidance(e cc.AckEvent) {
	segs := float64(c.cwnd / c.mss)
	if !c.hasEpoch {
		// First CA epoch (e.g. after slow start without a remembered Wmax):
		// treat the current window as the plateau.
		c.beginEpoch(e.Now, segs, segs)
	}
	t := e.Now.Sub(c.epochStart).Seconds()
	// The cube by multiplication is bit-identical to the standard
	// library's Pow(d, 3), which squares and multiplies the frexp mantissa
	// for an integer exponent and scales by an exact power of two, at a
	// fraction of the cost. The explicit conversion keeps the compiler
	// from fusing the last product into the multiply-add.
	d := t - c.k
	target := ScalingC*float64(d*d*d) + c.wMax

	// RFC 8312 §4.4: limit target growth to 1.5x cwnd per RTT.
	if target > 1.5*segs {
		target = 1.5 * segs
	}

	var increment float64 // segments per ACK
	if target > segs {
		increment = (target - segs) / segs
	} else {
		// In the TCP-friendly/plateau region cwnd still creeps up very
		// slowly (Linux uses 1% per ACK bound); keep it effectively flat.
		increment = 0.01 / segs
	}

	if c.tcpFriendly {
		// RFC 8312 §4.2: W_est(t) = Wmax·β + 3(1−β)/(1+β) · t/RTT.
		rtt := c.srtt.Seconds()
		if rtt > 0 {
			c.wEst = c.wMax*Beta + 3*(1-Beta)/(1+Beta)*(t/rtt)
			if c.wEst > segs && c.wEst > target {
				// Grow at Reno-emulation speed: (wEst−cwnd)/cwnd per ACK.
				increment = (c.wEst - segs) / segs
			}
		}
	}

	c.cwnd += units.Bytes(increment * float64(e.Bytes/c.mss) * float64(c.mss))
}

func (c *Cubic) beginEpoch(now eventsim.Time, wMax, origin float64) {
	c.hasEpoch = true
	c.epochStart = now
	c.wMax = wMax
	c.originW = origin
	diff := (wMax - origin) / ScalingC
	if diff < 0 {
		diff = 0
	}
	c.k = math.Cbrt(diff)
	c.wEst = origin
}

// OnLoss implements cc.Algorithm.
func (c *Cubic) OnLoss(e cc.LossEvent) {
	if c.inRecovery && e.Seq <= c.recoverSeq {
		return // same loss episode
	}
	c.inRecovery = true
	c.recoverSeq = c.maxSeqSent

	segs := float64(c.cwnd / c.mss)
	wMax := segs
	if c.fastConvergence && wMax < c.wMax {
		// Backed off below the previous plateau: release bandwidth faster.
		wMax *= fastConvergenceFactor
	}
	c.cwnd = units.Bytes(float64(c.cwnd) * Beta)
	if c.cwnd < 2*c.mss {
		c.cwnd = 2 * c.mss
	}
	c.ssthresh = c.cwnd
	c.beginEpoch(e.Now, wMax, float64(c.cwnd/c.mss))
}

// CongestionWindow implements cc.Algorithm.
func (c *Cubic) CongestionWindow() units.Bytes { return c.cwnd }

// PacingRate implements cc.Algorithm. CUBIC is ack-clocked.
func (c *Cubic) PacingRate() units.Rate { return 0 }

// WMax returns the remembered plateau window in segments (for tests and the
// model-validation experiments).
func (c *Cubic) WMax() float64 { return c.wMax }

// InSlowStart reports whether the window is still below ssthresh.
func (c *Cubic) InSlowStart() bool { return c.cwnd < c.ssthresh }
