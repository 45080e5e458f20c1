package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistributionBasics(t *testing.T) {
	var d Distribution
	for i := 1; i <= 100; i++ {
		d.AddN(float64(i))
	}
	if d.Len() != 100 || d.sumW != 100 {
		t.Fatalf("len=%d w=%v", d.Len(), d.sumW)
	}
	if got := d.CDF(50); math.Abs(got-0.5) > 0.01 {
		t.Errorf("CDF(50) = %v", got)
	}
	if got := d.CCDF(50); math.Abs(got-0.5) > 0.01 {
		t.Errorf("CCDF(50) = %v", got)
	}
	if got := d.Quantile(0.25); got != 25 {
		t.Errorf("Q(0.25) = %v", got)
	}
	if got := d.Max(); got != 100 {
		t.Errorf("Max = %v", got)
	}
}

func TestDistributionWeighted(t *testing.T) {
	var d Distribution
	d.Add(1, 9)
	d.Add(10, 1)
	if got := d.CDF(1); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("CDF(1) = %v", got)
	}
	if got := d.Quantile(0.5); got != 1 {
		t.Errorf("median = %v", got)
	}
	// Non-positive weights ignored.
	d.Add(100, 0)
	d.Add(100, -3)
	if d.Len() != 2 {
		t.Fatalf("bad weights accepted: %d", d.Len())
	}
}

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if d.CDF(5) != 0 || d.CCDF(5) != 1 {
		t.Error("empty CDF/CCDF wrong")
	}
	if !math.IsNaN(d.Quantile(0.5)) || !math.IsNaN(d.Max()) {
		t.Error("empty distribution must return NaN")
	}
}

func TestDistributionCDFMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var d Distribution
		for i := 0; i < 50; i++ {
			d.Add(rng.Float64()*100, rng.Float64()*5)
		}
		prev := -1.0
		for x := -10.0; x <= 110; x += 5 {
			c := d.CDF(x)
			if c < prev-1e-12 || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVenn3(t *testing.T) {
	var v Venn3
	v.Add(true, false, false)
	v.Add(true, true, true)
	v.Add(false, false, false)
	v.Add(false, false, false)
	if v.Total != 4 {
		t.Fatalf("Total = %d", v.Total)
	}
	if got := v.Fraction(true, false, false); got != 0.25 {
		t.Errorf("Fraction(A only) = %v", got)
	}
	if got := v.Fraction(true, true, true); got != 0.25 {
		t.Errorf("Fraction(ABC) = %v", got)
	}
	if got := v.Fraction(false, false, false); got != 0.5 {
		t.Errorf("Fraction(none) = %v", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("b", 42)
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[2], "3.142") {
		t.Fatalf("bad render:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		42:      "42",
		3.14159: "3.142",
		1e7:     "1e+07",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q want %q", in, got, want)
		}
	}
	if got := FormatFloat(math.NaN()); got != "-" {
		t.Errorf("NaN = %q", got)
	}
	if got := FormatFloat(0.00001); !strings.Contains(got, "e") {
		t.Errorf("tiny float = %q", got)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty sparkline")
	}
	s := Sparkline([]float64{0, 1, 2, 4, 8})
	if len([]rune(s)) != 5 {
		t.Fatalf("sparkline length: %q", s)
	}
	rs := []rune(s)
	if rs[0] >= rs[4] {
		t.Fatalf("sparkline not increasing: %q", s)
	}
	flat := Sparkline([]float64{0, 0})
	if []rune(flat)[0] != '▁' {
		t.Fatalf("flat zero series: %q", flat)
	}
}

func TestDownsample(t *testing.T) {
	in := []uint64{1, 2, 3, 4, 5, 6}
	out := Downsample(in, 3)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	var sum float64
	for _, v := range out {
		sum += v
	}
	if sum != 21 {
		t.Fatalf("mass not preserved: %v", out)
	}
	if Downsample(nil, 3) != nil {
		t.Error("nil input")
	}
	if got := Downsample(in, 100); len(got) != len(in) {
		t.Errorf("oversample len = %d", len(got))
	}
}

func TestSpikinessRatio(t *testing.T) {
	flat := make([]uint64, 100)
	for i := range flat {
		flat[i] = 100
	}
	if r := SpikinessRatio(flat); r != 1 {
		t.Errorf("flat spikiness = %v", r)
	}
	spiky := make([]uint64, 100)
	for i := range spiky {
		spiky[i] = 1
	}
	spiky[50] = 100000
	if r := SpikinessRatio(spiky); r < 100 {
		t.Errorf("spiky spikiness = %v", r)
	}
	if !math.IsNaN(SpikinessRatio(nil)) {
		t.Error("empty spikiness")
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.1234); got != "12.34%" {
		t.Errorf("Percent = %q", got)
	}
	if got := Percent(0.0000001); !strings.Contains(got, "e") {
		t.Errorf("tiny percent = %q", got)
	}
}
