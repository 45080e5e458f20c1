// Package obs is the dependency-free telemetry layer: a concurrent metric
// registry (counters and gauges sampled from a function at scrape time,
// plus atomic fixed-bucket histograms), Prometheus-text and JSON
// exposition, a bounded structured event journal, and an embedded HTTP
// server exposing /metrics, /healthz, /events and /debug/pprof.
//
// The paper's method is only trustworthy at IXP scale under sustained
// visibility into per-class traffic shares (Table 1) over weeks of flow
// data; the reproducibility study of this paper (arXiv:1911.05164) shows
// how silently a drifting pipeline invalidates results. Everything the
// runtime already counts becomes scrapeable here, from one source of
// truth: func-backed metrics read the same snapshot the Go-level Stats()
// methods return, so the scrape endpoint and the bespoke snapshots can
// never disagree.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one name="value" metric dimension (e.g. class="bogon").
type Label struct {
	Name  string
	Value string
}

// Kind discriminates metric families.
type Kind int

// Metric kinds, in Prometheus vocabulary.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// sample is one (labels → value source) instance within a family.
type sample struct {
	labels    []Label
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// family groups every sample sharing a metric name (one HELP/TYPE block).
type family struct {
	name    string
	help    string
	kind    Kind
	samples map[string]*sample // keyed by serialized labels
}

// Registry is a concurrent metric registry. Histogram registration is
// get-or-create: asking for an existing (name, labels) pair returns the
// same instance, so independent components can share a family; func-backed
// registrations replace an earlier function under the same key (the newest
// owner wins, which lets tests and restarted components re-instrument).
// Registering a name under a different kind panics — that is a programming
// error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns the family for name, creating it with help/kind.
func (r *Registry) familyFor(name, help string, kind Kind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, samples: make(map[string]*sample)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// labelKey serializes labels into a canonical (sorted) map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// sortedLabels returns a sorted copy for stable exposition.
func sortedLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

// Histogram returns the fixed-bucket histogram registered under
// (name, labels); buckets are upper bounds in increasing order (+Inf is
// implicit) and are fixed by the first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, KindHistogram)
	key := labelKey(labels)
	if s, ok := f.samples[key]; ok && s.hist != nil {
		return s.hist
	}
	h := NewHistogram(buckets)
	f.samples[key] = &sample{labels: sortedLabels(labels), hist: h}
	return h
}

// CounterFunc registers a counter whose value is sampled from fn at scrape
// time — the bridge that turns an existing Stats() struct into a metric
// without a second counter that could drift from it.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, KindCounter)
	f.samples[labelKey(labels)] = &sample{labels: sortedLabels(labels), counterFn: fn}
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, KindGauge)
	f.samples[labelKey(labels)] = &sample{labels: sortedLabels(labels), gaugeFn: fn}
}

// Unregister removes the sample registered under (name, labels), and the
// whole family once its last sample is gone. It exists for series with a
// bounded lifetime — a released shard's cursor gauge — so a long-lived
// registry does not accumulate tombstones.
// Unregistering an unknown sample is a no-op.
func (r *Registry) Unregister(name string, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return
	}
	delete(f.samples, labelKey(labels))
	if len(f.samples) == 0 {
		delete(r.families, name)
	}
}

// famView is an immutable scrape-time view of one family: the structure is
// copied under the registry lock, but the value reads (func calls and
// histogram snapshots) happen outside it so a slow func-backed metric
// cannot wedge registration. The sample structs themselves are write-once,
// so sharing their pointers is safe.
type famView struct {
	name    string
	help    string
	kind    Kind
	samples []*sample
}

// snapshotFamilies copies the family/sample structure under the lock,
// sorted by family name and label key for deterministic exposition.
func (r *Registry) snapshotFamilies() []famView {
	r.mu.Lock()
	views := make([]famView, 0, len(r.families))
	for _, f := range r.families {
		v := famView{name: f.name, help: f.help, kind: f.kind}
		keys := make([]string, 0, len(f.samples))
		for k := range f.samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v.samples = append(v.samples, f.samples[k])
		}
		views = append(views, v)
	}
	r.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
	return views
}

// value samples a counter/gauge's function.
func (s *sample) value() float64 {
	switch {
	case s.counterFn != nil:
		return float64(s.counterFn())
	case s.gaugeFn != nil:
		return s.gaugeFn()
	}
	return 0
}
