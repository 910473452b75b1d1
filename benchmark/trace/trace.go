// Package trace is the benchmark's span recorder. The benchmark wraps
// its calls into each layer's public functions in spans, keeps them in
// memory, and writes them out when the run ends; nothing inside the
// program under test is instrumented.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call. Parent is the ID of the span that caused it
// (-1 for a root) and Op identifies the operation all spans of one
// request share. Start and End are nanoseconds since the recorder was
// made.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder collects spans. A nil *Recorder records nothing, so the
// untraced run pays a nil check per call site.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// New returns an empty recorder whose clock starts now.
func New() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its ID, -1 on a nil recorder.
func (r *Recorder) Start(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	r.mu.Unlock()
	return id
}

// End closes the span and returns its duration.
func (r *Recorder) End(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	d := r.spans[id].Duration()
	r.mu.Unlock()
	return d
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Self is one span name's aggregate over a trace.
type Self struct {
	Name  string
	Calls int
	Total time.Duration // summed span durations
	Self  time.Duration // Total minus the time covered by child spans
}

// SelfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval its children cover; children
// that overlap each other (two clients under one parent) are merged
// first so no instant is subtracted twice.
func SelfTimes(spans []Span) []Self {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*Self)
	var order []string
	for _, s := range spans {
		agg := byName[s.Name]
		if agg == nil {
			agg = &Self{Name: s.Name}
			byName[s.Name] = agg
			order = append(order, s.Name)
		}
		agg.Calls++
		agg.Total += s.Duration()
		agg.Self += s.Duration() - covered(s, children[s.ID])
	}
	out := make([]Self, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p Span, kids []Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	end := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, p.End)
		if hi > lo {
			sum += hi - lo
			end = hi
		}
	}
	return time.Duration(sum)
}

// Cover is the share of the root spans named root that their direct
// children account for: close to 1 when the layers traced sum to the
// whole, lower when time passes between them unattributed.
func Cover(spans []Span, root string) float64 {
	roots := make(map[int]bool)
	var whole, parts int64
	for _, s := range spans {
		if s.Parent < 0 && s.Name == root {
			roots[s.ID] = true
			whole += s.End - s.Start
		}
	}
	for _, s := range spans {
		if roots[s.Parent] {
			parts += s.End - s.Start
		}
	}
	if whole == 0 {
		return 0
	}
	return float64(parts) / float64(whole)
}

// WriteJSON writes the spans to path as a JSON array.
func WriteJSON(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
