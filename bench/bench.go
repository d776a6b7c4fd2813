// Package bench is the repository's end-to-end benchmark: four workloads
// that are the workflows people run — regenerating figures, an NE search,
// an adoption-dynamics run and a bbrserve burst — each timed end to end
// and split by layer from outside, by timing the calls the benchmark makes
// into each module's public functions. See README.md.
package bench

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are one invocation's settings; a worker child receives them as
// flags.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	smoke    bool
	bbrserve string
	workdir  string
}

// childArgs are the flags that make a child process run o's workload.
func (o options) childArgs() []string {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds.Seconds()), "-trace", trace,
		"-bbrserve", o.bbrserve, "-workdir", o.workdir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	return args
}

// Result is one workload's outcome in one run.
type Result struct {
	Workload  string              `json:"workload"`
	Correct   bool                `json:"correct"`
	Problems  []string            `json:"problems,omitempty"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Passes    int                 `json:"passes"`
	Digest    string              `json:"digest"`
	Metrics   map[string]float64  `json:"metrics"`
	SelfTime  map[string]SelfTime `json:"self_time,omitempty"`
}

// Host is the machine a run was measured on.
type Host struct {
	CPU       string `json:"cpu"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

// Run is one invocation of the benchmark.
type Run struct {
	Seed    uint64   `json:"seed"`
	Seconds float64  `json:"seconds"`
	Trace   bool     `json:"trace"`
	Smoke   bool     `json:"smoke"`
	Host    Host     `json:"host"`
	Results []Result `json:"results"`
}

// RunSet is a results file: the runs -out appended to it, which -compare
// reads as one side.
type RunSet struct {
	Runs []Run `json:"runs"`
}

// childOut is a worker's last line of standard output.
type childOut struct {
	Result Result `json:"result"`
	Spans  []Span `json:"spans,omitempty"`
}

//go:embed golden.json
var goldenJSON []byte

// goldenKey names a workload's seed-1 digest in golden.json.
func goldenKey(workload string, smoke bool) string {
	if smoke {
		return workload + "/smoke"
	}
	return workload
}

// Main runs the bbrbench command and returns its exit code.
func Main(args []string) int {
	fs := flag.NewFlagSet("bbrbench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workloadF := fs.String("workload", "all", "all, or one of "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "input seed: equal seeds give byte-identical inputs")
	seconds := fs.Float64("seconds", 34, "each workload's timed phase in seconds: a pass starts only if it is expected to end within it")
	trace := fs.Int("trace", 0, "1: alternate traced passes, run the layer probe and report per-layer metrics")
	spansPath := fs.String("spans", "", "with -trace 1, write every span and the per-layer self times to this JSON file")
	outPath := fs.String("out", "", "append this run to a results file (one side of -compare)")
	smoke := fs.Bool("smoke", false, "small inputs through the same code paths, one pass per workload unless -seconds is set")
	bbrserve := fs.String("bbrserve", "", "path of a built cmd/bbrserve (serve_mixed starts it)")
	workdir := fs.String("workdir", os.TempDir(), "directory for temporary stores")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	updateGolden := fs.String("update-golden", "", "write this seed-1 run's digests into the golden file at this path")
	child := fs.Bool("child", false, "internal: run one workload in this process")
	setupOnly := fs.Bool("setup-only", false, "internal: with -child, build the inputs, print ready and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bbrbench: -compare needs two results files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	o := options{workload: *workloadF, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, smoke: *smoke, bbrserve: *bbrserve, workdir: *workdir}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bbrbench: -trace takes 0 or 1")
		return 2
	}
	if o.smoke && !flagSet(fs, "seconds") {
		o.seconds = 0
	}
	if abs, err := filepath.Abs(o.workdir); err == nil {
		o.workdir = abs
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *child {
		return runChild(ctx, o, *setupOnly)
	}
	if *updateGolden != "" && o.seed != 1 {
		fmt.Fprintln(os.Stderr, "bbrbench: golden digests are for seed 1")
		return 2
	}
	return runParent(ctx, o, *spansPath, *outPath, *updateGolden)
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runChild runs one workload in this process and prints its childOut.
func runChild(ctx context.Context, o options, setupOnly bool) int {
	w, err := workloadByName(o.workload)
	if err != nil {
		return fail(err)
	}
	if setupOnly {
		if _, err := w.prepare(o); err != nil {
			return fail(err)
		}
		fmt.Println(readyLine)
		return 0
	}
	out, err := runWorker(ctx, o, w)
	if err != nil {
		return fail(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bbrbench:", err)
	return 1
}

// maxProblems caps the correctness problems a result lists; a systematic
// fault would otherwise repeat one message per request.
const maxProblems = 20

// runWorker times passes of one workload within the timed phase and
// assembles its metrics. A gap before the first pass and after each one
// runs set-up probes and the calibration loop, so that both sample the
// whole phase rather than one moment of it. wall_cal divides each pass's
// wall time by the mean calibration sample of the gaps on both sides. A
// pass starts only if it and its gap are expected to end within the phase,
// judged by the last pass and gap. With tracing, odd passes are traced and
// the layer probe runs afterwards; end-to-end numbers come from the
// untraced passes only.
func runWorker(ctx context.Context, o options, w workload) (childOut, error) {
	p, err := w.prepare(o)
	if err != nil {
		return childOut{}, err
	}
	setup := p.setup
	if setup == nil {
		setup = func(ctx context.Context) (float64, error) { return setupProbe(ctx, o) }
	}
	var tr *Tracer
	minPasses := 1
	if o.trace {
		tr, minPasses = newTracer(), 2
	}

	res := Result{Workload: w.name, Metrics: map[string]float64{}}
	var walls, wallCals, tracedWalls, ops, rss, setups, cals []float64
	counters := map[string][]float64{}
	samples := map[string][]float64{}
	gap := func(d time.Duration) ([]float64, error) {
		for i := 0; i < setupProbesPerGap; i++ {
			s, err := setup(ctx)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		g := calGap(d)
		cals = append(cals, g...)
		return g, nil
	}
	start := time.Now()
	first := firstGap
	if o.smoke {
		first = 0
	}
	before, err := gap(first)
	if err != nil {
		return childOut{}, err
	}
	var span time.Duration // the last pass and its gap
	for i := 0; i < minPasses || time.Since(start)+span <= o.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return childOut{}, err
		}
		traced := o.trace && i%2 == 1
		var ptr *Tracer
		if traced {
			ptr = tr
		}
		perPassRSS := !p.external && resetPeakRSS()
		root := ptr.Begin(0, "pass", 0)
		procBefore := procNow()
		t := time.Now()
		out, err := p.pass(ctx, ptr, root)
		wall := time.Since(t).Seconds()
		procAfter := procNow()
		ptr.End(root)
		if err != nil {
			return childOut{}, err
		}
		if !p.external {
			procBefore.into(out.counters, procAfter)
			if perPassRSS {
				if out.rssMB, err = passPeakRSSMB(); err != nil {
					return childOut{}, err
				}
			}
		} else {
			wall = out.wallS
		}
		after, err := gap(time.Duration(calShare * wall * float64(time.Second)))
		if err != nil {
			return childOut{}, err
		}
		span = time.Since(t)
		wallCal := wall / mean(before, after)
		before = after
		res.Passes++
		res.Attempted += len(out.ops)
		res.Failed += out.failed
		res.Problems = append(res.Problems, out.problems...)
		if v := out.counters["check.violations"]; v > 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("pass %d: %v invariant violations", i, v))
		}
		switch {
		case i == 0:
			res.Digest = out.digest
		case out.digest != res.Digest:
			res.Problems = append(res.Problems, fmt.Sprintf("pass %d digest %s differs from pass 0's %s", i, out.digest, res.Digest))
		}
		for k, v := range out.counters {
			counters[k] = append(counters[k], v)
		}
		if traced {
			tracedWalls = append(tracedWalls, wall)
			continue
		}
		walls = append(walls, wall)
		wallCals = append(wallCals, wallCal)
		if out.rssMB > 0 {
			rss = append(rss, out.rssMB)
		}
		ops = append(ops, out.ops...)
		for k, v := range out.samples {
			samples[k] = append(samples[k], v...)
		}
	}

	m := res.Metrics
	m["setup_s"] = Median(setups)
	m["wall_s"] = Median(walls)
	m["wall_cal"] = Median(wallCals)
	m["cal_s"] = Median(cals)
	lat := Summarize(ops, 99)
	m["latency_p50_ms"] = lat.P50 * 1e3
	m["latency_n"] = float64(lat.N)
	if lat.TailPct > 0 {
		m["latency_p99_ms"] = lat.Tail * 1e3
	}
	if len(rss) > 0 {
		m["peak_rss_mb"] = Median(rss)
	} else {
		m["peak_rss_mb"] = selfMaxRSSMB()
	}
	sum := 0.0
	for _, x := range walls {
		sum += x
	}
	m["throughput_per_s"] = float64(len(ops)) / sum
	m["error_rate"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	for k, xs := range samples {
		s := Summarize(xs, 99)
		m[k+"_p50_ms"] = s.P50 * 1e3
		if s.TailPct > 0 {
			m[k+"_p99_ms"] = s.Tail * 1e3
		}
	}

	var spans []Span
	if o.trace {
		for k, xs := range counters {
			m[k] = Median(xs)
		}
		m["trace.overhead_pct"] = 100 * (Median(tracedWalls)/Median(walls) - 1)
		root := tr.Begin(0, "probe", 0)
		pm, err := probe(ctx, p.specs, o.workdir, tr, root)
		tr.End(root)
		if err != nil {
			return childOut{}, err
		}
		for k, v := range pm {
			m[k] = v
		}
		// A layer the workload never reaches did no work: report zero.
		for _, d := range perLayer {
			if _, ok := m[d.Name]; !ok {
				m[d.Name] = 0
			}
		}
		res.SelfTime = tr.SelfTimes()
		spans = tr.spans
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return childOut{}, fmt.Errorf("bench: %s measured %v", k, v)
		}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	if n := len(res.Problems); n > maxProblems {
		res.Problems = append(res.Problems[:maxProblems], fmt.Sprintf("and %d more problems", n-maxProblems))
	}
	return childOut{Result: res, Spans: spans}, nil
}

// runParent runs each selected workload in its own child process, so that
// peak memory is per workload, then reports.
func runParent(ctx context.Context, o options, spansPath, outPath, updateGolden string) int {
	var selected []workload
	if o.workload == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(o.workload)
		if err != nil {
			return fail(err)
		}
		selected = []workload{w}
	}
	golden := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fail(fmt.Errorf("golden.json: %w", err))
	}
	run := Run{Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace, Smoke: o.smoke, Host: hostInfo()}
	spans := map[string]any{}
	for _, w := range selected {
		wo := o
		wo.workload = w.name
		out, err := spawnWorker(ctx, wo)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		r := out.Result
		if want, ok := golden[goldenKey(w.name, o.smoke)]; o.seed == 1 && updateGolden == "" && (!ok || want != r.Digest) {
			r.Correct = false
			r.Problems = append(r.Problems, fmt.Sprintf("digest %s does not match golden %q", r.Digest, want))
		}
		run.Results = append(run.Results, r)
		if o.trace {
			spans[w.name] = map[string]any{"spans": out.Spans, "self_time": r.SelfTime}
		}
	}

	ok := report(os.Stdout, run, o.workload == "all")
	if outPath != "" {
		if err := appendRun(outPath, run); err != nil {
			return fail(err)
		}
	}
	if spansPath != "" && o.trace {
		if err := writeJSON(spansPath, spans); err != nil {
			return fail(err)
		}
	}
	if updateGolden != "" {
		if err := writeGolden(updateGolden, run); err != nil {
			return fail(err)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// spawnWorker runs one workload in a child process and decodes its result
// from the child's last line of output. The child is killed if the
// benchmark is interrupted or the child overruns its timed phase by far.
func spawnWorker(ctx context.Context, o options) (childOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return childOut{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, o.seconds+150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, o.childArgs()...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return childOut{}, err
	}
	if err := cmd.Start(); err != nil {
		return childOut{}, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		last = sc.Text()
	}
	scanErr := sc.Err()
	io.Copy(io.Discard, pipe)
	if err := cmd.Wait(); err != nil {
		return childOut{}, fmt.Errorf("worker: %w", err)
	}
	if scanErr != nil {
		return childOut{}, scanErr
	}
	var out childOut
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return childOut{}, fmt.Errorf("worker output: %w", err)
	}
	return out, nil
}

// valueUnit is one metric in the final line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric as "workload metric value unit", then the
// summary line: the end-to-end metrics, or with tracing the per-layer ones,
// keyed "workload/metric" when several workloads ran. It reports whether
// every workload was correct and nothing failed.
func report(w io.Writer, run Run, prefixed bool) bool {
	selected := endToEnd
	if run.Trace {
		selected = perLayer
	}
	final := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, r := range run.Results {
		for _, p := range r.Problems {
			fmt.Fprintf(os.Stderr, "bbrbench: %s: %s\n", r.Workload, p)
		}
		fmt.Fprintf(w, "%s correct %v attempted %d failed %d passes %d\n", r.Workload, r.Correct, r.Attempted, r.Failed, r.Passes)
		names := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			unit := ""
			if d, ok := metricByName(k); ok {
				unit = d.Unit
			}
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, k, r.Metrics[k], unit)
		}
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for _, d := range selected {
			key := d.Name
			if prefixed {
				key = r.Workload + "/" + d.Name
			}
			final.Metrics[key] = valueUnit{r.Metrics[d.Name], d.Unit}
		}
	}
	b, _ := json.Marshal(final)
	fmt.Fprintln(w, string(b))
	return final.Correct && final.Failed == 0
}

// appendRun adds run to the results file at path, creating it if needed.
func appendRun(path string, run Run) error {
	var set RunSet
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &set); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	set.Runs = append(set.Runs, run)
	return writeJSON(path, set)
}

// writeJSON writes v indented, through a temporary file and a rename so a
// failed write never leaves a truncated file.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// writeGolden records run's digests in the golden file at path.
func writeGolden(path string, run Run) error {
	golden := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, r := range run.Results {
		if !r.Correct {
			return fmt.Errorf("not recording %s's digest: the run was not correct", r.Workload)
		}
		golden[goldenKey(r.Workload, run.Smoke)] = r.Digest
	}
	return writeJSON(path, golden)
}
