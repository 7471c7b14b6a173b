package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// singleClient lists the workloads whose tallies repeat exactly for a seed.
var singleClient = []string{"recurring_small", "recurring_large", "recurring_cold", "tpcds", "analyzer_mine"}

var smokeRuns sync.Map // "workload/trace/seed" → *report

func smokeOptions(t *testing.T, workload string, trace bool, seed int64) runOptions {
	return runOptions{workload: workload, seed: seed, seconds: 10, trace: trace, smoke: true,
		outDir: t.TempDir(), corruptOracle: -1}
}

// smoke runs a workload at -smoke size, once per (workload, mode, seed).
func smoke(t *testing.T, workload string, trace bool, seed int64) *report {
	t.Helper()
	key := fmt.Sprintf("%s/%v/%d", workload, trace, seed)
	if rep, ok := smokeRuns.Load(key); ok {
		return rep.(*report)
	}
	rep, err := runWorkload(context.Background(), smokeOptions(t, workload, trace, seed))
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if !rep.Correct {
		t.Fatalf("%s: %d of %d operations failed: %v", key, rep.Failed, rep.Attempted, rep.Problems)
	}
	smokeRuns.Store(key, rep)
	return rep
}

func metricNames(ms []contractMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func emitted(rep *report) []string {
	var out []string
	for n := range rep.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Every metric BENCHMARK.json names is emitted, by every workload, with the
// unit it names, and nothing else is.
func TestContractMetricsAreEmitted(t *testing.T) {
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	for _, m := range append(append([]contractMetric(nil), c.EndToEnd...), c.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if _, dup := units[m.Name]; dup {
			t.Errorf("metric %q named twice", m.Name)
		}
		units[m.Name] = m.Unit
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, the program has %v", names, workloadNames())
	}
	for _, w := range names {
		for _, mode := range []struct {
			trace bool
			want  []string
		}{{false, metricNames(c.EndToEnd)}, {true, metricNames(c.PerLayer)}} {
			rep := smoke(t, w, mode.trace, 11)
			if got := emitted(rep); !reflect.DeepEqual(got, mode.want) {
				t.Errorf("%s trace=%v emits %v, BENCHMARK.json names %v", w, mode.trace, got, mode.want)
			}
			for n, m := range rep.Metrics {
				if m.Unit != units[n] {
					t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w, n, m.Unit, units[n])
				}
				if !mode.trace && m.Value == 0 {
					t.Errorf("%s %s is 0: an end-to-end metric must never be", w, n)
				}
			}
		}
	}
}

// One client makes every tally repeat exactly for a seed; another seed
// gives other data and other tallies.
func TestCountsRepeatForASeed(t *testing.T) {
	for _, w := range singleClient {
		first := smoke(t, w, false, 11)
		again, err := runWorkload(context.Background(), smokeOptions(t, w, false, 11))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Counts, again.Counts) {
			t.Errorf("%s: same seed, other counts:\n%v\n%v", w, first.Counts, again.Counts)
		}
		for _, n := range []string{"view_bytes_per_logical_byte", "sim_cpu_saved_pct"} {
			if first.Metrics[n].Value != again.Metrics[n].Value {
				t.Errorf("%s: %s differs between two runs of one seed", w, n)
			}
		}
		other := smoke(t, w, false, 12)
		if reflect.DeepEqual(first.Counts, other.Counts) {
			t.Errorf("%s: seeds 11 and 12 give the same counts %v", w, first.Counts)
		}
	}
}

// The staged pipeline of a traced run must do what Service.Run did in the
// untraced run: same decisions, same outputs, same cache traffic.
func TestTracedRunAgreesWithUntraced(t *testing.T) {
	for _, w := range singleClient {
		plain, traced := smoke(t, w, false, 11), smoke(t, w, true, 11)
		if !reflect.DeepEqual(plain.Counts, traced.Counts) {
			t.Errorf("%s: untraced %v, traced %v", w, plain.Counts, traced.Counts)
		}
		ratio := traced.Metrics["core.parts_sum_ratio"].Value
		if ratio < 0.97 || ratio > 1.03 {
			t.Errorf("%s: stages sum to %.4f of the job", w, ratio)
		}
	}
}

// A traced run leaves its spans in the out directory: one root span per
// job, every other span pointing at a parent of the same job.
func TestTraceFile(t *testing.T) {
	rep, err := runWorkload(context.Background(), smokeOptions(t, "recurring_small", true, 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(rep.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for i, s := range tf.Spans {
		switch {
		case s.Parent < 0:
			roots++
			if s.Name != "job" {
				t.Errorf("span %d: root named %q", i, s.Name)
			}
		case s.Parent >= len(tf.Spans) || tf.Spans[s.Parent].Job != s.Job:
			t.Errorf("span %d (%s): parent %d is not a span of job %d", i, s.Name, s.Parent, s.Job)
		case s.Start < tf.Spans[s.Parent].Start || s.End > tf.Spans[s.Parent].End:
			t.Errorf("span %d (%s) is not inside its parent", i, s.Name)
		}
	}
	if int64(roots) != rep.Counts["jobs"] {
		t.Errorf("%d job spans for %d jobs", roots, rep.Counts["jobs"])
	}
}

// A wrong answer is a failed operation and the command exits non-zero.
func TestCorruptedOracleFailsTheRun(t *testing.T) {
	for _, w := range []string{"recurring_small"} {
		o := smokeOptions(t, w, false, 11)
		o.corruptOracle = 3
		rep, err := runWorkload(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed != 1 || exitCode(rep) == 0 {
			t.Errorf("%s: one corrupted comparison gave correct=%v failed=%d exit=%d", w, rep.Correct, rep.Failed, exitCode(rep))
		}
		if exitCode(smoke(t, w, false, 11)) != 0 {
			t.Errorf("%s: the untouched run must exit 0", w)
		}
	}
}

func TestBatchRefusesOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := runWorkload(context.Background(), smokeOptions(t, "recurring_batch", false, 11)); err == nil {
		t.Error("recurring_batch ran with GOMAXPROCS=1")
	}
}

// The last line of a run is the object the driver reads: exactly these
// keys, every metric exactly a value and a unit.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "recurring_small", "--seed", "5", "--seconds", "10", "--trace", "0",
		"-smoke", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for n, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s has keys %v, want value and unit", n, m)
		}
	}
	if !strings.Contains(stdout.String(), "nproc=") || !strings.Contains(stdout.String(), runtime.Version()) {
		t.Error("the run does not print nproc, GOMAXPROCS and the Go version")
	}
	if code := realMain([]string{"-workload", "no_such"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload must exit non-zero")
	}
}

func TestVerdicts(t *testing.T) {
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", []float64{100, 101, 99}, []float64{100, 102, 98}, false, 0.1, "within-bound"},
		{"slower", []float64{100, 101, 99}, []float64{120, 121, 119}, false, 0.1, "worse"},
		{"faster", []float64{100, 101, 99}, []float64{80, 81, 79}, false, 0.1, "better"},
		{"less throughput", []float64{100, 101, 99}, []float64{80, 81, 79}, true, 0.1, "worse"},
		{"more throughput", []float64{100, 101, 99}, []float64{120, 121, 119}, true, 0.1, "better"},
		{"noisy and overlapping", []float64{100, 130, 70}, []float64{105, 75, 135}, false, 0.1, "unresolved"},
		{"noisy but apart", []float64{100, 130, 70}, []float64{20, 30, 10}, false, 0.1, "better"},
		{"small gain inside the spread", []float64{100, 104, 96}, []float64{95, 99, 91}, false, 0.1, "within-bound"},
		{"single runs", []float64{100}, []float64{105}, false, 0.1, "within-bound"},
	} {
		if got, _ := verdict(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, jobMs float64) string {
		var f resultsFile
		for i := 0; i < 3; i++ {
			f.Runs = append(f.Runs, runRecord{Env: host(), report: report{Workload: "tpcds",
				Metrics: map[string]metricValue{"job_ms_p50": {Value: jobMs + float64(i), Unit: "ms"}}}})
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), write("a.json", 100), write("b.json", 150)); err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "tpcds" && f[1] == "job_ms_p50" {
			row = line
		}
	}
	for _, want := range []string{"101 [100, 102] (3)", "151 [150, 152] (3)", "1.4950 (101)", "worse"} {
		if !strings.Contains(row, want) {
			t.Errorf("row %q lacks %q", row, want)
		}
	}
	if !strings.Contains(out.String(), "missing") {
		t.Error("a metric with no runs must be reported as missing")
	}
}
