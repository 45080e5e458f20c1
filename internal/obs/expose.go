package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, samples by label key,
// histograms as cumulative _bucket/_sum/_count series. Func-backed metrics
// are sampled here, outside the registry lock.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.samples {
			var err error
			if f.kind == KindHistogram {
				err = writeHistogram(w, f.name, s)
			} else {
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, formatLabels(s.labels), formatValue(s.value()))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s *sample) error {
	snap := s.hist.Snapshot()
	var cum uint64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		labels := append(append([]Label(nil), s.labels...), Label{"le", formatValue(bound)})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(labels), cum); err != nil {
			return err
		}
	}
	infLabels := append(append([]Label(nil), s.labels...), Label{"le", "+Inf"})
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(infLabels), snap.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, formatLabels(s.labels), formatValue(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, formatLabels(s.labels), snap.Count)
	return err
}

// formatValue renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

// JSONSample is one metric instance in the JSON exposition.
type JSONSample struct {
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     *float64           `json:"value,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// JSONFamily is one metric family in the JSON exposition.
type JSONFamily struct {
	Name    string       `json:"name"`
	Help    string       `json:"help,omitempty"`
	Kind    string       `json:"kind"`
	Samples []JSONSample `json:"samples"`
}

// Export returns the registry's current state as JSON-ready families —
// the machine-readable twin of the Prometheus text format, and the
// programmatic scrape API (benchmarks read histogram summaries from it).
func (r *Registry) Export() []JSONFamily {
	fams := r.snapshotFamilies()
	out := make([]JSONFamily, 0, len(fams))
	for _, f := range fams {
		jf := JSONFamily{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, s := range f.samples {
			js := JSONSample{}
			if len(s.labels) > 0 {
				js.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					js.Labels[l.Name] = l.Value
				}
			}
			if f.kind == KindHistogram {
				snap := s.hist.Snapshot()
				js.Histogram = &snap
			} else {
				v := s.value()
				js.Value = &v
			}
			jf.Samples = append(jf.Samples, js)
		}
		out = append(out, jf)
	}
	return out
}

// WriteJSON renders Export as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Export())
}
