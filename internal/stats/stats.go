// Package stats provides the small statistical toolkit the experiment
// drivers share: weighted empirical distributions (CDF/CCDF/quantiles),
// three-set Venn accounting, and plain-text table and series rendering for
// terminal reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Distribution is a weighted empirical distribution.
type Distribution struct {
	xs     []float64
	ws     []float64
	sumW   float64
	sorted bool
}

// Add inserts a sample with weight w (w <= 0 is ignored).
func (d *Distribution) Add(x, w float64) {
	if w <= 0 {
		return
	}
	d.xs = append(d.xs, x)
	d.ws = append(d.ws, w)
	d.sumW += w
	d.sorted = false
}

// AddN inserts a sample with weight 1.
func (d *Distribution) AddN(x float64) { d.Add(x, 1) }

// Len returns the number of samples.
func (d *Distribution) Len() int { return len(d.xs) }

func (d *Distribution) sort() {
	if d.sorted {
		return
	}
	idx := make([]int, len(d.xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return d.xs[idx[a]] < d.xs[idx[b]] })
	xs := make([]float64, len(d.xs))
	ws := make([]float64, len(d.ws))
	for i, j := range idx {
		xs[i], ws[i] = d.xs[j], d.ws[j]
	}
	d.xs, d.ws = xs, ws
	d.sorted = true
}

// CDF returns P(X <= x).
func (d *Distribution) CDF(x float64) float64 {
	if d.sumW == 0 {
		return 0
	}
	d.sort()
	i := sort.SearchFloat64s(d.xs, math.Nextafter(x, math.Inf(1)))
	var w float64
	for j := 0; j < i; j++ {
		w += d.ws[j]
	}
	// Clamp: summation order differs from sumW's accumulation order, so
	// the ratio can exceed 1 by an ulp.
	if w > d.sumW {
		w = d.sumW
	}
	return w / d.sumW
}

// CCDF returns P(X > x).
func (d *Distribution) CCDF(x float64) float64 { return 1 - d.CDF(x) }

// Quantile returns the smallest x with CDF(x) >= q, for q in (0, 1].
func (d *Distribution) Quantile(q float64) float64 {
	if d.sumW == 0 || len(d.xs) == 0 {
		return math.NaN()
	}
	d.sort()
	target := q * d.sumW
	var acc float64
	for i, w := range d.ws {
		acc += w
		if acc >= target {
			return d.xs[i]
		}
	}
	return d.xs[len(d.xs)-1]
}

// Max returns the largest sample.
func (d *Distribution) Max() float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	d.sort()
	return d.xs[len(d.xs)-1]
}

// Venn3 counts membership combinations across three sets (A, B, C).
type Venn3 struct {
	Counts [8]int // index bit0=A, bit1=B, bit2=C
	Total  int
}

// Add records one element's memberships.
func (v *Venn3) Add(a, b, c bool) {
	i := 0
	if a {
		i |= 1
	}
	if b {
		i |= 2
	}
	if c {
		i |= 4
	}
	v.Counts[i]++
	v.Total++
}

// Fraction returns the share of elements with exactly the given membership.
func (v *Venn3) Fraction(a, b, c bool) float64 {
	if v.Total == 0 {
		return 0
	}
	i := 0
	if a {
		i |= 1
	}
	if b {
		i |= 2
	}
	if c {
		i |= 4
	}
	return float64(v.Counts[i]) / float64(v.Total)
}

// Table renders aligned plain-text tables.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders floats compactly (4 significant-ish digits).
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.001:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Render produces the aligned text table.
func (t *Table) Render() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", width[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Sparkline renders a series as a compact unicode bar chart.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		if max == 0 {
			b.WriteRune(bars[0])
			continue
		}
		i := int(v / max * float64(len(bars)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(bars) {
			i = len(bars) - 1
		}
		b.WriteRune(bars[i])
	}
	return b.String()
}

// Percent formats a ratio as a percentage string.
func Percent(x float64) string {
	switch {
	case math.IsNaN(x):
		return "-"
	case x != 0 && x < 0.0001:
		return fmt.Sprintf("%.2e%%", x*100)
	default:
		return fmt.Sprintf("%.2f%%", x*100)
	}
}

// Downsample reduces a series to n points by summing within windows
// (useful for rendering long time series).
func Downsample(values []uint64, n int) []float64 {
	if n <= 0 || len(values) == 0 {
		return nil
	}
	if n > len(values) {
		n = len(values)
	}
	out := make([]float64, n)
	for i, v := range values {
		out[i*n/len(values)] += float64(v)
	}
	return out
}

// SpikinessRatio measures how bursty a series is: the ratio of the 99.9th
// percentile to the median of the non-zero values. Regular diurnal traffic
// stays near 1-3; attack-driven series are far higher.
func SpikinessRatio(values []uint64) float64 {
	var d Distribution
	for _, v := range values {
		if v > 0 {
			d.AddN(float64(v))
		}
	}
	if d.Len() == 0 {
		return math.NaN()
	}
	med := d.Quantile(0.5)
	if med == 0 {
		return math.Inf(1)
	}
	return d.Quantile(0.999) / med
}
