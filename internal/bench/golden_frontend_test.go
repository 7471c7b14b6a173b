package bench

// Golden pin of the frontend: the exact signatures the signature package
// computes and the exact Decisions the optimizer takes on the two paper
// workloads (§7.1 production and §7.2 TPC-DS). The files under testdata/
// were recorded before the frontend fast path landed; any byte-level drift
// in signature computation, view matching, cost-based rejection, or
// materialization injection fails these tests. Regenerate deliberately with
//
//	go test ./internal/bench -run TestGoldenFrontend -update
//
// Each test reads the reuse-on pass of its figure's harness, which runs
// serially: the golden contract includes decision order, which concurrent
// submission legitimately perturbs.

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cloudviews/internal/core"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

func TestGoldenFrontendProduction(t *testing.T) {
	runs, err := productionRuns()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_frontend_production.txt", frontendLines(runs.cv))
}

func TestGoldenFrontendTPCDS(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-DS golden run; skipped in -short mode")
	}
	runs, err := tpcdsQueryRuns()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_frontend_tpcds.txt", frontendLines(runs.cv))
}

// frontendLines pins each reuse-on job, in submission order: its
// signatures, then the optimizer's Decision.
func frontendLines(rs []*core.JobResult) []string {
	comp := signature.NewComputer()
	var lines []string
	for _, r := range rs {
		id := r.Spec.Meta.JobID
		lines = append(lines, sigLine(comp, id, r.Spec.Root), decLine(id, r.Decision))
	}
	return lines
}

// sigLine pins every signature of the job: the root pair verbatim plus a
// digest over all subgraph pairs in post-order, so any byte drift in any
// subgraph signature shows up.
func sigLine(comp *signature.Computer, jobID string, root *plan.Node) string {
	subs := comp.AllSubgraphs(root)
	h := sha256.New()
	for _, s := range subs {
		h.Write([]byte(s.Sig.Precise))
		h.Write([]byte{'|'})
		h.Write([]byte(s.Sig.Normalized))
		h.Write([]byte{'\n'})
	}
	rootSig := comp.Of(root)
	return fmt.Sprintf("sig %s root=%s/%s subgraphs=%d all=%s",
		jobID, rootSig.Precise, rootSig.Normalized, len(subs),
		hex.EncodeToString(h.Sum(nil))[:16])
}

func decLine(jobID string, d *optimizer.Decision) string {
	used := make([]string, len(d.ViewsUsed))
	for i, v := range d.ViewsUsed {
		used[i] = v.PreciseSig
	}
	built := make([]string, len(d.ViewsBuilt))
	for i, v := range d.ViewsBuilt {
		built[i] = v.PreciseSig
	}
	// Order is part of the contract: ViewsUsed in match order, ViewsBuilt
	// in injection (post-order) order, rejections in match order.
	return fmt.Sprintf("dec %s used=%s built=%s rejected=%s cost=%s",
		jobID,
		strings.Join(used, ","),
		strings.Join(built, ","),
		strings.Join(d.ViewsRejected, ","),
		strconv.FormatFloat(d.EstimatedCost, 'x', -1, 64))
}

func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines)", path, len(lines))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to record): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", name, i+1, g, w)
		}
	}
	t.Fatalf("%s differs in trailing whitespace", name)
}
