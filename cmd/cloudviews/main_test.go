package main

import (
	"strings"
	"testing"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/plan"
)

// TestWriteSelectedShortSignature pins that a selected view whose
// signature is shorter than the printed prefix — possible in a repository
// read with -load — prints whole instead of panicking, and that a long one
// is cut to 16 characters.
func TestWriteSelectedShortSignature(t *testing.T) {
	long := strings.Repeat("0123456789", 4)
	var out strings.Builder
	writeSelected(&out, []analyzer.Candidate{
		{NormSig: "abc", RootOp: plan.OpFilter, Frequency: 3, Tags: []string{"t"}},
		{NormSig: long, RootOp: plan.OpHashGbAgg, Frequency: 2, Tags: []string{"u"}},
	})
	got := out.String()
	if !strings.Contains(got, "abc") {
		t.Errorf("3-character signature missing from\n%s", got)
	}
	if !strings.Contains(got, long[:16]) || strings.Contains(got, long[:17]) {
		t.Errorf("40-character signature not cut to 16 characters in\n%s", got)
	}
}
