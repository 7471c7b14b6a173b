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
// Both workloads run fully serially here — the golden contract includes
// decision order, which concurrent submission legitimately perturbs.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/core"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/tpcds"
	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

func TestGoldenFrontendProduction(t *testing.T) {
	cfg := DefaultProdConfig()
	w := workgen.Generate(cfg.Profile)

	// History instance, serially: the analyzer input must be identical to
	// RunProduction's (it is order-insensitive, but serial keeps the golden
	// run self-contained and deterministic).
	hist := core.NewService(w.Catalog, core.Config{Enabled: false})
	for _, j := range w.JobsForInstance(0) {
		if _, err := hist.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root}); err != nil {
			t.Fatal(err)
		}
	}
	an := analyzer.New(hist.Repo).Analyze(analyzer.Config{
		MinFrequency: cfg.MinFrequency,
		MinCostRatio: cfg.MinCostRatio,
		MaxPerJob:    1,
		TopK:         cfg.TopViews,
	})
	if len(an.Selected) == 0 {
		t.Fatal("analyzer selected no views")
	}

	w.DeliverInstance(1)
	jobs := w.JobsForInstance(1)

	// Same relevant-job picking as RunProduction: per selected view, in
	// group order.
	comp := signature.NewComputer()
	var picks []workgen.Job
	seen := map[string]bool{}
	for g, c := range an.Selected {
		groupCap := 0
		if g < len(cfg.GroupSizes) {
			groupCap = cfg.GroupSizes[g]
		}
		inGroup := 0
		for _, j := range jobs {
			if seen[j.Meta.JobID] {
				continue
			}
			if planContainsNorm(comp, j, c.NormSig) {
				picks = append(picks, j)
				seen[j.Meta.JobID] = true
				inGroup++
				if groupCap > 0 && inGroup >= groupCap {
					break
				}
				if cfg.MaxJobs > 0 && len(picks) >= cfg.MaxJobs {
					break
				}
			}
		}
		if cfg.MaxJobs > 0 && len(picks) >= cfg.MaxJobs {
			break
		}
	}
	if len(picks) < 2 {
		t.Fatalf("only %d relevant jobs", len(picks))
	}

	cv := core.NewService(w.Catalog, core.Config{Enabled: true, MaxViewsPerJob: 1})
	cv.Meta.LoadAnalysis(an.Annotations)

	var lines []string
	for _, j := range picks {
		lines = append(lines, sigLine(comp, j.Meta.JobID, j.Root))
		r, err := cv.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, decLine(j.Meta.JobID, r.Decision))
	}
	checkGolden(t, "golden_frontend_production.txt", lines)
}

func TestGoldenFrontendTPCDS(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-DS golden run; skipped in -short mode")
	}
	cfg := DefaultTPCDSConfig()
	cat := tpcds.Generate(cfg.Scale, cfg.Seed)
	builder := &tpcds.Builder{Cat: cat}
	queries := builder.Queries()

	meta := func(q tpcds.Query) workload.JobMeta {
		return workload.JobMeta{
			JobID: q.Name, Cluster: "tpcds", BusinessUnit: "tpcds",
			VC: "tpcds_vc", User: "bench", TemplateID: q.Name, Period: 1,
		}
	}

	base := core.NewService(cat, core.Config{Enabled: false})
	for _, q := range queries {
		if _, err := base.Run(context.Background(), core.JobSpec{Meta: meta(q), Root: q.Root}); err != nil {
			t.Fatal(err)
		}
	}
	an := analyzer.New(base.Repo).Analyze(analyzer.Config{
		MinFrequency: 3,
		MinCostRatio: 0.05,
		TopK:         cfg.TopViews,
	})
	if len(an.Selected) == 0 {
		t.Fatal("analyzer selected no views")
	}

	cv := core.NewService(cat, core.Config{Enabled: true, MaxViewsPerJob: 1})
	cv.Meta.LoadAnalysis(an.Annotations)
	order := coordinateOrder(queries, an.JobOrder)

	comp := signature.NewComputer()
	var lines []string
	for _, q := range order {
		lines = append(lines, sigLine(comp, q.Name, q.Root))
		r, err := cv.Run(context.Background(), core.JobSpec{Meta: meta(q), Root: q.Root})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, decLine(q.Name, r.Decision))
	}
	checkGolden(t, "golden_frontend_tpcds.txt", lines)
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
