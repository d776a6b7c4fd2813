package bench

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// procStat is the process-wide counters a batch pass is charged with.
type procStat struct {
	cpu   float64 // user+system seconds
	alloc uint64  // cumulative heap bytes allocated
	gc    uint32
}

func procNow() procStat {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStat{cpu: cpuSeconds(&ru), alloc: ms.TotalAlloc, gc: ms.NumGC}
}

func (a procStat) into(m map[string]float64, b procStat) {
	m["proc.cpu_s"] = b.cpu - a.cpu
	m["proc.alloc_mb"] = float64(b.alloc-a.alloc) / (1 << 20)
	m["proc.gc_cycles"] = float64(b.gc - a.gc)
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMB converts getrusage's peak resident set size, which Linux reports
// in KiB and Darwin in bytes, to MiB.
func maxRSSMB(ru *syscall.Rusage) float64 {
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / (1 << 10)
}

// resetPeakRSS returns freed heap to the operating system and restarts the
// kernel's peak-RSS counter (Linux clear_refs), so that the next
// passPeakRSSMB covers one pass that started from a clean heap. It reports
// false where the counter cannot be reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// passPeakRSSMB reads this process's peak resident set size since the last
// reset, in MiB.
func passPeakRSSMB() (float64, error) { return peakRSSMB("self") }

// peakRSSMB reads the peak resident set size (VmHWM) of process pid, or
// "self", in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("bench: parsing VmHWM %q: %w", v, err)
			}
			return kb / (1 << 10), nil
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc/self/status")
}

// selfMaxRSSMB is the process's peak RSS over its whole life, the fallback
// where the per-pass counter is unavailable.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return maxRSSMB(&ru)
}

// setupProbesPerGap is how many fresh processes measure a workload's
// set-up time in each calibration gap; the median over the run is
// reported. Exec-to-ready takes a few milliseconds, where scheduling noise
// is large, hence the count and the spread over the run.
const setupProbesPerGap = 4

// readyLine is what a set-up probe prints once its inputs are built.
const readyLine = "ready"

// setupProbe starts a copy of this program in set-up-only mode and times
// it from exec until it reports ready: process start, package
// initialisation, input generation and validation. It returns seconds.
func setupProbe(ctx context.Context, o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, append(o.childArgs(), "-setup-only")...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(pipe).ReadString('\n')
	d := time.Since(start)
	io.Copy(io.Discard, pipe)
	werr := cmd.Wait()
	if rerr != nil || strings.TrimSpace(line) != readyLine || werr != nil {
		return 0, fmt.Errorf("bench: set-up probe failed: %q %v %v", line, rerr, werr)
	}
	return d.Seconds(), nil
}

// hostInfo describes the machine a run was measured on.
func hostInfo() Host {
	h := Host{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
