// Package units provides the quantity types shared by the simulator, the
// analytical model, and the experiment harness: byte counts, data rates,
// durations, and bandwidth-delay-product arithmetic.
//
// All conversions are explicit. Internally, rates are stored in bits per
// second and byte counts in bytes, both as float64: the analytical model in
// internal/core is continuous, and the packet simulator quantizes to whole
// packets only at its own boundary.
package units

import (
	"fmt"
	"math"
	"time"
)

// Bytes is an amount of data in bytes. It is deliberately a float64: buffer
// shares and window sizes in the model are continuous quantities.
type Bytes float64

// Common byte quantities.
const (
	Byte Bytes = 1
	KB   Bytes = 1e3
	MB   Bytes = 1e6
	GB   Bytes = 1e9
)

// MSS is the maximum segment size assumed throughout the repository,
// matching a 1500-byte Ethernet MTU minus 40 bytes of IP/TCP headers.
const MSS Bytes = 1460

// AckBytes is the wire size assumed for a pure acknowledgment: 40 bytes of
// IP/TCP headers plus room for timestamp/SACK options. Reverse-direction
// links in a topology serialize ACKs at this size.
const AckBytes Bytes = 64

// Packets reports how many MSS-sized packets b corresponds to (fractional).
func (b Bytes) Packets() float64 { return float64(b / MSS) }

// WholePackets reports b as a whole number of MSS-sized packets, rounding
// to nearest and never returning a negative count.
func (b Bytes) WholePackets() int {
	if b <= 0 {
		return 0
	}
	return int(math.Round(float64(b / MSS)))
}

func (b Bytes) String() string {
	switch {
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b/GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b/MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b/KB))
	default:
		return fmt.Sprintf("%.0fB", float64(b))
	}
}

// PacketsBytes returns the byte size of n MSS-sized packets.
func PacketsBytes(n int) Bytes { return Bytes(n) * MSS }

// Rate is a data rate in bits per second.
type Rate float64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps         Rate = 1e3
	Mbps         Rate = 1e6
	Gbps         Rate = 1e9
)

// BytesPerSecond reports the rate in bytes per second.
func (r Rate) BytesPerSecond() float64 { return float64(r) / 8 }

// Mbit reports the rate in megabits per second (the unit used in the
// paper's figures).
func (r Rate) Mbit() float64 { return float64(r / Mbps) }

func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2fGbps", float64(r/Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.2fMbps", float64(r/Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.2fKbps", float64(r/Kbps))
	default:
		return fmt.Sprintf("%.0fbps", float64(r))
	}
}

// BytesIn reports how many bytes are transmitted at rate r over d.
func (r Rate) BytesIn(d time.Duration) Bytes {
	return Bytes(r.BytesPerSecond() * seconds(d))
}

// seconds returns d.Seconds() bit for bit, cheaper for the sub-second
// durations the per-ACK rate arithmetic sees. Seconds splits d into whole
// seconds and a remainder and returns float64(sec) + float64(nsec)/1e9;
// below one second sec is 0, and adding zero to the remainder's quotient
// leaves it unchanged, so one division gives the same float.
func seconds(d time.Duration) float64 {
	if -time.Second < d && d < time.Second {
		return float64(d) / 1e9
	}
	return d.Seconds()
}

// TimeToSend reports how long transmitting b bytes takes at rate r.
// It returns a very large duration for non-positive rates.
func (r Rate) TimeToSend(b Bytes) time.Duration {
	if r <= 0 {
		return time.Duration(math.MaxInt64)
	}
	sec := float64(b) / r.BytesPerSecond()
	return time.Duration(sec * float64(time.Second))
}

// RateOver reports the rate at which b bytes were moved over duration d.
// It returns 0 for non-positive durations.
func RateOver(b Bytes, d time.Duration) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(float64(b) * 8 / seconds(d))
}

// BDP reports the bandwidth-delay product of a path with bottleneck rate c
// and round-trip propagation delay rtt.
func BDP(c Rate, rtt time.Duration) Bytes {
	return c.BytesIn(rtt)
}

// BufferBytes reports the size in bytes of a buffer holding bdpMultiple
// bandwidth-delay products on a path with bottleneck rate c and base RTT rtt.
func BufferBytes(c Rate, rtt time.Duration, bdpMultiple float64) Bytes {
	return Bytes(float64(BDP(c, rtt)) * bdpMultiple)
}

// InBDP expresses b as a multiple of the path's bandwidth-delay product.
// It returns 0 when the BDP itself is non-positive.
func InBDP(b Bytes, c Rate, rtt time.Duration) float64 {
	bdp := BDP(c, rtt)
	if bdp <= 0 {
		return 0
	}
	return float64(b / bdp)
}
