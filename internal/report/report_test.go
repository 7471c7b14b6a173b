package report

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {-5, 1}, {120, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Input must not be mutated.
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestMedian(t *testing.T) {
	if Median([]float64{9, 1, 5}) != 5 {
		t.Error("median wrong")
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if FractionAtLeast(xs, 3) != 0.5 {
		t.Error("FractionAtLeast wrong")
	}
	if FractionAtMost(xs, 2) != 0.5 {
		t.Error("FractionAtMost wrong")
	}
	if FractionAtLeast(nil, 1) != 0 || FractionAtMost(nil, 1) != 0 {
		t.Error("empty fractions should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.Add("alpha", 1.5)
	tab.Add("b", 42)
	var buf bytes.Buffer
	tab.Write(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[2], "1.50") {
		t.Errorf("bad render:\n%s", out)
	}
	// Columns align: every line at least as wide as the widest cell.
	if len(lines[1]) < len("name")+len("value") {
		t.Error("separator too narrow")
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		p := r.Float64() * 100
		v := Percentile(xs, p)
		// Result is always one of the samples and within [min, max].
		return v >= sorted[0] && v <= sorted[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
