// Command benchmark is the repository's macro benchmark: six named
// workloads replayed against the job service, end-to-end metrics measured
// around Service.Run with tracing off, and — in a separate traced run —
// per-layer metrics taken from outside, around the calls into each layer.
// README.md has the workload and metric tables.
//
//	go run ./benchmark                      every workload, untraced then traced
//	go run ./benchmark -workload tpcds      one untraced run
//	go run ./benchmark -workload tpcds -trace 1
//	go run ./benchmark -repeat 5 -results a.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo is recorded with every run: a parallel figure means nothing
// without the processor count it was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func host() hostInfo {
	return hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// runRecord is one run as the results file keeps it.
type runRecord struct {
	Env hostInfo `json:"env"`
	report
}

// resultsFile is what -results writes and -compare reads.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

// detailPrefix marks the stdout line that carries a run's full record
// (sample counts, tallies, environment) for the suite's parent process.
const detailPrefix = "detail "

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (default: all of them, each in its own process)")
		seed     = fs.Int64("seed", 11, "seed of the generated data")
		seconds  = fs.Float64("seconds", 10, "size of a run: about this many seconds of timed work on the 2-core reference box")
		trace    = fs.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
		smoke    = fs.Bool("smoke", false, "tiny sizes, for tests")
		outDir   = fs.String("out", filepath.Join("benchmark", "out"), "directory for trace and result files")
		repeat   = fs.Int("repeat", 1, "suite mode: run the whole suite this many times into one results file")
		results  = fs.String("results", "", "suite mode: results file (default <out>/results.json)")
		compare  = fs.Bool("compare", false, "compare two results files given as arguments, using the bounds in -contract")
		contract = fs.String("contract", "BENCHMARK.json", "the benchmark contract, for -compare")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two results files")
			return 2
		}
		if err := compareFiles(stdout, *contract, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	case *workload != "":
		o := runOptions{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			smoke: *smoke, outDir: *outDir, corruptOracle: -1}
		rep, err := runWorkload(context.Background(), o)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if err := printRun(stdout, rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		return exitCode(rep)
	}
	path := *results
	if path == "" {
		path = filepath.Join(*outDir, "results.json")
	}
	return runSuite(stdout, stderr, suiteOptions{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir, repeat: *repeat, results: path})
}

// exitCode is non-zero for a run with a failed operation: an error, an
// output that differs from the reuse-off oracle, a split that does not
// add up.
func exitCode(rep *report) int {
	if rep.Correct {
		return 0
	}
	return 1
}

// printRun prints every metric by name with its unit and sample count, the
// detail line, and last the one-line result object the driver reads.
func printRun(w io.Writer, rep *report) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "end-to-end, tracing off"
	if rep.Trace {
		mode = "per-layer, traced"
	}
	h := host()
	fmt.Fprintf(w, "%s seed=%d seconds=%g (%s) nproc=%d GOMAXPROCS=%d %s\n", rep.Workload, rep.Seed, rep.Seconds, mode, h.NProc, h.GOMAXPROCS, h.Go)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %-7s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	if !rep.Trace {
		if n := rep.Metrics["job_ms_p50"].Samples; n > 0 {
			fmt.Fprintf(w, "  pooled job walls resolve up to p%g (n=%d)\n", supportedPercentile(n)*100, n)
		}
	}
	counts := make([]string, 0, len(rep.Counts))
	for n := range rep.Counts {
		counts = append(counts, n)
	}
	sort.Strings(counts)
	for _, n := range counts {
		fmt.Fprintf(w, "  count %-30s %d\n", n, rep.Counts[n])
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  PROBLEM %s\n", p)
	}
	if rep.TraceFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", rep.TraceFile)
	}
	detail, err := json.Marshal(runRecord{Env: h, report: *rep})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", detailPrefix, detail)

	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]outMetric{}}
	for n, m := range rep.Metrics {
		out.Metrics[n] = outMetric{m.Value, m.Unit}
	}
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

type suiteOptions struct {
	seed    int64
	seconds float64
	smoke   bool
	outDir  string
	repeat  int
	results string
}

// runSuite runs every workload, untraced then traced, each run in a
// process of its own so that heap, GC state and the process-wide signature
// intern table start fresh, and writes all records to one results file.
func runSuite(stdout, stderr io.Writer, o suiteOptions) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	var file resultsFile
	code := 0
	for rep := 0; rep < o.repeat; rep++ {
		for _, name := range workloadNames() {
			if name == "recurring_batch" && runtime.GOMAXPROCS(0) < 2 {
				fmt.Fprintf(stdout, "%s skipped: GOMAXPROCS is 1\n", name)
				continue
			}
			for _, trace := range []int{0, 1} {
				args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
					"-trace", fmt.Sprint(trace), "-out", o.outDir}
				if o.smoke {
					args = append(args, "-smoke")
				}
				rec, err := runChild(self, args, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
					code = 1
					continue
				}
				if !rec.Correct {
					code = 1
				}
				file.Runs = append(file.Runs, *rec)
			}
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(o.results), 0o755); err == nil {
			err = os.WriteFile(o.results, b, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%d runs written to %s\n", len(file.Runs), o.results)
	return code
}

// runChild runs one workload in a child process, echoes its report and
// returns the record on its detail line. A child that reports a failed
// operation exits 1 and still yields its record.
func runChild(self string, args []string, stdout, stderr io.Writer) (*runRecord, error) {
	cmd := exec.Command(self, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var rec *runRecord
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, detailPrefix):
			rec = &runRecord{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, detailPrefix)), rec); err != nil {
				return nil, fmt.Errorf("bad detail line: %w", err)
			}
		case strings.HasPrefix(line, "{"):
			// the driver's line; the detail line carries the same numbers
		default:
			fmt.Fprintln(stdout, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rec == nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, errors.New("child printed no detail line")
	}
	return rec, nil
}
