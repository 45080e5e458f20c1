// Package trace is the benchmark's span recorder. The harness wraps each
// call it makes into a layer in a span; spans stay in memory until the run
// ends and are then written out as JSON. Spans inside the program are a
// later change: these are recorded from the benchmark's own files.
package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call. Parent is the index of the span that caused it,
// -1 for a root; ID is shared by all spans of one pass, message or feed.
// Start and End are nanoseconds since the recorder was made.
type Span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder collects spans and counts. A nil *Recorder records nothing, so
// an untraced run pays one nil check per call site.
type Recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []Span
	counts map[string]int64
}

// NewRecorder starts an empty recording.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), counts: make(map[string]int64)}
}

// Begin opens a span and returns its index, to be passed to End and used as
// the Parent of the spans it causes.
func (r *Recorder) Begin(name string, id int64, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, ID: id, Parent: parent, Start: now, End: now})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// End closes the span Begin returned.
func (r *Recorder) End(span int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[span].End = now
	r.mu.Unlock()
}

// Now is the recorder's clock: nanoseconds since it was made.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Add records a completed span from the recorder's clock, for calls too
// frequent to record one by one: the caller sums their durations and adds
// them as one span of length d starting at start.
func (r *Recorder) Add(name string, id int64, parent int, start int64, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, ID: id, Parent: parent, Start: start, End: start + int64(d)})
	r.mu.Unlock()
}

// Count adds n to a named count taken at the same boundary as the spans.
func (r *Recorder) Count(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// Spans returns a copy of what was recorded.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Total is the time spent in and below the spans of one name, and the part
// of it that no child span covers.
type Total struct {
	Calls    int   `json:"calls"`
	Duration int64 `json:"duration_ns"`
	Self     int64 `json:"self_ns"`
}

// SelfTimes sums, per span name, duration and self time. A span's self time
// is its duration minus the part of its interval that its child spans
// cover: overlapping children are counted once, and a child is clipped to
// its parent.
func SelfTimes(spans []Span) map[string]Total {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]Total)
	for i, s := range spans {
		t := out[s.Name]
		t.Calls++
		t.Duration += s.End - s.Start
		t.Self += s.End - s.Start - covered(children[i], s.Start, s.End)
		out[s.Name] = t
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	at := lo
	for _, v := range iv {
		a, b := v[0], v[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// file is the layout of a written trace.
type file struct {
	Workload string           `json:"workload"`
	Totals   map[string]Total `json:"totals"`
	Counts   map[string]int64 `json:"counts"`
	Spans    []Span           `json:"spans"`
}

// WriteFile writes the recording, with its per-name totals, to path.
func (r *Recorder) WriteFile(path, workload string) error {
	spans := r.Spans()
	r.mu.Lock()
	counts := make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	r.mu.Unlock()
	data, err := json.Marshal(file{Workload: workload, Totals: SelfTimes(spans), Counts: counts, Spans: spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
