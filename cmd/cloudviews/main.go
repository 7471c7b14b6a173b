// Command cloudviews is the admin interface of paper §5.5: it runs the
// CloudViews analyzer over a cluster's workload with custom constraints,
// prints the overlap summary, drills into the most overlapping
// computations (the Power BI dashboard stand-in), and emits the selected
// annotations and job-coordination hints.
//
// The workload is a generated cluster (this repository's substitute for a
// SCOPE workload repository); all analyzer knobs are exposed:
//
//	cloudviews -templates 200 -topk 10 -minfreq 3 -ratio 0.2
//	cloudviews -vc bu0_vc1 -strategy pack -budget 1000000
//	cloudviews -drilldown 20
//
// `cloudviews figures [name ...]` instead regenerates the paper's figures
// at their committed configs and seeds: the named ones, or all of them in
// paper order when no name is given.
//
//	cloudviews figures          # every figure
//	cloudviews figures 4 13     # Figure 4, then Figure 13
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/bench"
	"cloudviews/internal/report"
	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cloudviews: ")

	if len(os.Args) > 1 && os.Args[1] == "figures" {
		if err := figures(os.Stdout, os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}

	seed := flag.Int64("seed", 1, "workload seed")
	templates := flag.Int("templates", 150, "recurring templates in the cluster")
	loadPath := flag.String("load", "", "load a saved workload repository instead of generating one")
	savePath := flag.String("save", "", "save the analyzed workload repository to this file")
	vcs := flag.String("vc", "", "comma-separated VC filter (empty = all)")
	bus := flag.String("bu", "", "comma-separated business-unit filter")
	windowFrom := flag.Int64("from", 0, "analysis window start (instance)")
	windowTo := flag.Int64("to", 0, "analysis window end (0 = open)")
	minFreq := flag.Int("minfreq", 2, "minimum overlap frequency")
	ratio := flag.Float64("ratio", 0, "minimum view-to-job cost ratio")
	minRuntime := flag.Float64("minruntime", 0, "minimum subgraph runtime (cost-s)")
	topK := flag.Int("topk", 10, "views to select (0 = unlimited)")
	maxPerJob := flag.Int("maxperjob", 0, "1 = at most one view per job")
	strategy := flag.String("strategy", "utility", "selection strategy: utility | density | pack | packopt")
	budget := flag.Int64("budget", 0, "storage budget in bytes (pack strategy)")
	drill := flag.Int("drilldown", 10, "top-N computations to drill into")
	flag.Parse()

	var repo *workload.Repository
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		repo, err = workload.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded workload repository %s: %d jobs\n\n", *loadPath, repo.NumJobs())
	} else {
		p := workgen.DefaultProfile("admincluster", *seed)
		p.Templates = *templates
		w := workgen.Generate(p)
		var err error
		repo, err = bench.RunWorkload(w, 0)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := repo.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved workload repository to %s\n\n", *savePath)
	}

	cfg := analyzer.Config{
		WindowFrom:   *windowFrom,
		WindowTo:     *windowTo,
		MinFrequency: *minFreq,
		MinCostRatio: *ratio,
		MinRuntime:   *minRuntime,
		MaxPerJob:    *maxPerJob,
		TopK:         *topK,
	}
	if *vcs != "" {
		cfg.VCs = strings.Split(*vcs, ",")
	}
	if *bus != "" {
		cfg.BusinessUnits = strings.Split(*bus, ",")
	}
	switch *strategy {
	case "utility":
		cfg.Strategy = analyzer.TopKUtility
	case "density":
		cfg.Strategy = analyzer.TopKUtilityPerByte
	case "pack":
		cfg.Strategy = analyzer.PackStorageBudget
		cfg.StorageBudget = *budget
	case "packopt":
		cfg.Strategy = analyzer.PackStorageBudgetOptimal
		cfg.StorageBudget = *budget
	default:
		log.Fatalf("unknown strategy %q", *strategy)
	}

	a := analyzer.New(repo)
	an := a.Analyze(cfg)
	st := a.OverlapStats(cfg)

	fmt.Printf("== Overlap summary (%d jobs, %d subgraph occurrences) ==\n", st.TotalJobs, st.TotalOccurrences)
	fmt.Printf("jobs overlapping:      %.1f%%\n", st.PctJobsOverlapping)
	fmt.Printf("users with overlap:    %.1f%%\n", st.PctUsersOverlapping)
	fmt.Printf("subgraphs overlapping: %.1f%% (avg frequency %.2f)\n\n",
		st.PctSubgraphsOverlapping, st.AvgFrequency)

	fmt.Printf("== Top-%d overlapping computations ==\n", *drill)
	t := &report.Table{Header: []string{"#", "root", "freq", "jobs", "users",
		"avg cost", "avg bytes", "cost ratio", "net utility", "expiry", "multi-design"}}
	for i, c := range an.Candidates {
		if i >= *drill {
			break
		}
		t.Add(i+1, c.RootOp.String(), c.Frequency, c.JobCount, c.UserCount,
			c.AvgCost, c.AvgBytes, c.CostRatio, c.Utility, c.ExpiryDelta, c.MultiDesign)
	}
	t.Write(os.Stdout)

	writeSelected(os.Stdout, an.Selected)

	if len(an.JobOrder) > 0 {
		fmt.Printf("\n== Job coordination hints (submit first, in order) ==\n")
		for i, j := range an.JobOrder {
			fmt.Printf("%2d. %s\n", i+1, j)
		}
	}
}

// figures prints the named figures, or every figure in paper order when
// names is empty. Every name is checked before any figure runs.
func figures(w io.Writer, names []string) error {
	var figs []bench.Figure
	for _, name := range names {
		f, ok := bench.Lookup(name)
		if !ok {
			valid := make([]string, len(bench.Figures))
			for i, f := range bench.Figures {
				valid[i] = f.Name
			}
			return fmt.Errorf("unknown figure %q; valid figures: %s", name, strings.Join(valid, " "))
		}
		figs = append(figs, f)
	}
	if len(names) == 0 {
		figs = bench.Figures
	}
	for _, f := range figs {
		r, err := f.Run()
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.Name, err)
		}
		f.Write(w, r)
	}
	return nil
}

// writeSelected prints the selected views as a table, with each signature
// cut to its first 16 characters and the tags to 48.
func writeSelected(w io.Writer, selected []analyzer.Candidate) {
	fmt.Fprintf(w, "\n== Selected views (%d) ==\n", len(selected))
	ts := &report.Table{Header: []string{"#", "signature", "root", "freq", "utility", "partitioning", "tags"}}
	for i, c := range selected {
		tags := strings.Join(c.Tags, ",")
		if len(tags) > 48 {
			tags = tags[:45] + "..."
		}
		ts.Add(i+1, prefix(c.NormSig, 16), c.RootOp.String(), c.Frequency, c.Utility,
			fmt.Sprintf("%s%v x%d", c.Props.Part.Kind, c.Props.Part.Cols, c.Props.Part.Count), tags)
	}
	ts.Write(w)
}

// prefix returns the first n bytes of s, or all of s when it is shorter: a
// repository read with -load may carry signatures of any length.
func prefix(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
