package bench

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one HTTP
// request share Req; Parent is 0 for a root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, which is how untraced passes run. Safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(parent int, name string, req int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Time runs fn inside a span and returns fn's duration, which is measured
// whether or not the tracer is nil.
func (t *Tracer) Time(parent int, name string, fn func()) time.Duration {
	id := t.Begin(parent, name, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.End(id)
	return d
}

// SelfTime is one span name's totals: how often it ran, its summed
// duration, and its self time — duration minus the part of it that its
// child spans cover.
type SelfTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// SelfTimes aggregates closed spans by name.
func (t *Tracer) SelfTimes() map[string]SelfTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]Span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]SelfTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		st.Count++
		st.TotalS += float64(s.End-s.Start) / 1e9
		st.SelfS += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's; concurrent children (two HTTP clients) overlap.
func covered(parent Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64 = 0, 0, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}
