package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints, for each (workload, bounded metric) pair present on
// both sides, each side's median and interquartile range over its runs and
// whether the medians agree within the metric's bound in either direction.
// It returns 1 when any pair disagrees.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadRunSet(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return fail(err)
	}
	ok := compareSets(w, a, b)
	if !ok {
		return 1
	}
	return 0
}

func loadRunSet(path string) (RunSet, error) {
	var set RunSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// values collects one metric of one workload across a set's runs.
func (s RunSet) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range s.Runs {
		for _, r := range run.Results {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, v)
			}
		}
	}
	return out
}

func compareSets(w io.Writer, a, b RunSet) bool {
	fmt.Fprintf(w, "%-15s %-18s %-5s %12s %7s %12s %7s %8s %7s %s\n",
		"workload", "metric", "unit", "median_a", "iqr_a%", "median_b", "iqr_b%", "diff%", "bound%", "agree")
	all := true
	for _, wl := range workloads {
		for _, d := range append(append([]Metric(nil), endToEnd...), extra...) {
			if d.Bound == nil {
				continue
			}
			va, vb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := Median(va), Median(vb)
			agree := d.Bound.Within(ma, mb, "lower") && d.Bound.Within(ma, mb, "higher")
			all = all && agree
			diff := 0.0
			if ma != 0 {
				diff = 100 * (mb - ma) / ma
			}
			fmt.Fprintf(w, "%-15s %-18s %-5s %12.6g %7s %12.6g %7s %8.2f %7s %v\n",
				wl.name, d.Name, d.Unit, ma, iqrPct(va), mb, iqrPct(vb), diff, boundPct(*d.Bound, ma), agree)
		}
	}
	return all
}

// iqrPct is the interquartile range as a percentage of the median.
func iqrPct(xs []float64) string {
	q1, q3, err := Quartiles(xs)
	m := Median(xs)
	if err != nil || m == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", 100*(q3-q1)/m)
}

// boundPct is the allowance at base as a percentage of base.
func boundPct(b Bound, base float64) string {
	if base == 0 {
		return fmt.Sprintf("+%g", b.Abs)
	}
	return fmt.Sprintf("%.1f", 100*b.Allowed(base)/math.Abs(base))
}
