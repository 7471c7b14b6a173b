package main

import (
	"os"
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

// TestFiguresUnknownName pins that an unknown figure name fails and lists
// every valid one.
func TestFiguresUnknownName(t *testing.T) {
	var out strings.Builder
	err := figures(&out, []string{"nosuch"})
	if err == nil {
		t.Fatal("figures nosuch succeeded")
	}
	for _, name := range []string{"1", "5", "11-12", "13", "overheads", "ablations"} {
		if !strings.Contains(err.Error(), " "+name) {
			t.Errorf("error %q does not name figure %s", err, name)
		}
	}
	if out.Len() != 0 {
		t.Errorf("figures nosuch printed %q", out.String())
	}
}

// TestFiguresPrintsGolden pins `cloudviews figures 4` to the golden the
// bench package's Figure 4 test checks.
func TestFiguresPrintsGolden(t *testing.T) {
	want, err := os.ReadFile("../../internal/bench/testdata/figure_4.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := figures(&out, []string{"4"}); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("figures 4 printed\n%s\nwant\n%s", out.String(), want)
	}
}
