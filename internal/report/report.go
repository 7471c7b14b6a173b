// Package report provides the small statistics and tabulation helpers the
// paper's figures share: percentiles, the fractions of samples above or
// below a value, and fixed-width table rendering for regenerating the
// figures as text.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0..100) of xs using nearest-rank
// on a sorted copy. An empty input yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(p/100*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// FractionAtLeast returns the fraction of samples >= x.
func FractionAtLeast(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, v := range xs {
		if v >= x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionAtMost returns the fraction of samples <= x.
func FractionAtMost(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, v := range xs {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Table renders rows as a fixed-width text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row of cells formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
