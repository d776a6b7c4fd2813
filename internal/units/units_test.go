package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"bbrnash/internal/rng"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

func TestBytesPackets(t *testing.T) {
	tests := []struct {
		name string
		b    Bytes
		want float64
	}{
		{"zero", 0, 0},
		{"one mss", MSS, 1},
		{"ten mss", 10 * MSS, 10},
		{"half mss", MSS / 2, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.b.Packets(); !almost(got, tt.want, 1e-12) {
				t.Errorf("Packets() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestWholePackets(t *testing.T) {
	tests := []struct {
		b    Bytes
		want int
	}{
		{-MSS, 0},
		{0, 0},
		{MSS, 1},
		{MSS * 1.4, 1},
		{MSS * 1.6, 2},
		{MSS * 100, 100},
	}
	for _, tt := range tests {
		if got := tt.b.WholePackets(); got != tt.want {
			t.Errorf("WholePackets(%v) = %d, want %d", tt.b, got, tt.want)
		}
	}
}

func TestPacketsBytesRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		if got := PacketsBytes(n).WholePackets(); got != n {
			t.Errorf("round trip %d packets = %d", n, got)
		}
	}
}

func TestRateConversions(t *testing.T) {
	r := 100 * Mbps
	if got := r.BytesPerSecond(); got != 12.5e6 {
		t.Errorf("BytesPerSecond = %v, want 12.5e6", got)
	}
	if got := r.Mbit(); got != 100 {
		t.Errorf("Mbit = %v, want 100", got)
	}
}

func TestRateBytesIn(t *testing.T) {
	// 8 Mbps for one second moves exactly 1 MB.
	if got := (8 * Mbps).BytesIn(time.Second); got != 1e6 {
		t.Errorf("BytesIn = %v, want 1e6", got)
	}
	// 100 ms at 80 Mbps is 1 MB.
	if got := (80 * Mbps).BytesIn(100 * time.Millisecond); !almost(float64(got), 1e6, 1e-9) {
		t.Errorf("BytesIn = %v, want 1e6", got)
	}
}

// TestSecondsMatchesDurationSeconds pins seconds to Duration.Seconds bit
// for bit, so RateOver and BytesIn give the floats they gave when they
// called Seconds: at zero, around the one-second split and at the int64
// extremes, then on seeded draws across the sub-second range and the full
// int64 range.
func TestSecondsMatchesDurationSeconds(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := seconds(d), d.Seconds(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seconds(%d) = %v (%#x), Seconds() = %v (%#x)",
				int64(d), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, d := range []time.Duration{
		0, 1, -1,
		time.Second - 1, -(time.Second - 1),
		time.Second, -time.Second,
		time.Second + 1, -(time.Second + 1),
		math.MinInt64, math.MaxInt64,
	} {
		check(d)
	}
	r := rng.New(1)
	for i := 0; i < 500_000; i++ {
		check(time.Duration(r.Intn(int(2*time.Second-1))) - (time.Second - 1))
		check(time.Duration(r.Uint64()))
	}
}

func TestTimeToSend(t *testing.T) {
	// 1250 bytes at 10 Mbps (1.25 MB/s) takes 1 ms.
	got := (10 * Mbps).TimeToSend(1250)
	if got != time.Millisecond {
		t.Errorf("TimeToSend = %v, want 1ms", got)
	}
	if got := Rate(0).TimeToSend(1); got < time.Duration(math.MaxInt64) {
		t.Errorf("TimeToSend at zero rate should be huge, got %v", got)
	}
}

func TestRateOver(t *testing.T) {
	if got := RateOver(1.25e6, time.Second); got != 10*Mbps {
		t.Errorf("RateOver = %v, want 10Mbps", got)
	}
	if got := RateOver(100, 0); got != 0 {
		t.Errorf("RateOver with zero duration = %v, want 0", got)
	}
	if got := RateOver(100, -time.Second); got != 0 {
		t.Errorf("RateOver with negative duration = %v, want 0", got)
	}
}

func TestBDP(t *testing.T) {
	// 100 Mbps * 40 ms = 500 KB.
	got := BDP(100*Mbps, 40*time.Millisecond)
	if !almost(float64(got), 500e3, 1e-9) {
		t.Errorf("BDP = %v, want 500e3", got)
	}
}

func TestBufferBytesAndInBDP(t *testing.T) {
	c, rtt := 50*Mbps, 80*time.Millisecond
	for _, mult := range []float64{0.5, 1, 3, 10, 250} {
		b := BufferBytes(c, rtt, mult)
		if got := InBDP(b, c, rtt); !almost(got, mult, 1e-9) {
			t.Errorf("InBDP(BufferBytes(%v)) = %v", mult, got)
		}
	}
	if got := InBDP(100, 0, time.Second); got != 0 {
		t.Errorf("InBDP with zero capacity = %v, want 0", got)
	}
}

func TestRoundTripRateBytesProperty(t *testing.T) {
	// RateOver(r.BytesIn(d), d) == r for positive rates and durations.
	f := func(mbps uint16, ms uint16) bool {
		r := Rate(mbps%1000+1) * Mbps
		d := time.Duration(ms%5000+1) * time.Millisecond
		back := RateOver(r.BytesIn(d), d)
		return almost(float64(back), float64(r), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeToSendInverseProperty(t *testing.T) {
	// BytesIn(TimeToSend(b)) == b within nanosecond quantization error:
	// TimeToSend truncates to a whole nanosecond, so the round trip may
	// miss b by up to the bytes one nanosecond carries at r (plus float
	// rounding). A relative tolerance cannot express that: 1 ns of a 1 KB
	// transfer at 1 Gbps is 1.25e-4 of it.
	f := func(kb uint16, mbps uint16) bool {
		b := Bytes(kb%10000+1) * KB
		r := Rate(mbps%1000+1) * Mbps
		back := r.BytesIn(r.TimeToSend(b))
		return math.Abs(float64(back-b)) <= float64(r.BytesIn(time.Nanosecond))+1e-12*float64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{(100 * Mbps).String(), "100.00Mbps"},
		{(2 * Gbps).String(), "2.00Gbps"},
		{(5 * Kbps).String(), "5.00Kbps"},
		{Rate(12).String(), "12bps"},
		{Bytes(1500).String(), "1.50KB"},
		{(3 * MB).String(), "3.00MB"},
		{(2 * GB).String(), "2.00GB"},
		{Bytes(12).String(), "12B"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}
