package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the harness into a layer. Times are
// nanoseconds since the recorder was created; Parent indexes the span list
// (-1 for a job's root span); spans of one job share Job.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// recorder keeps spans in memory until the run ends. It is used by one
// goroutine at a time; concurrent clients each own one and the lists are
// merged afterwards. A nil recorder records nothing, which is how the
// staged pipeline runs without spans.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

func (r *recorder) begin(name string, parent, job int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Job: job})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.t0))
}

// add records a span whose interval was taken elsewhere (a callback that
// ran on an executor goroutine).
func (r *recorder) add(name string, parent, job int, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Parent: parent, Job: job})
}

// mergeSpans concatenates the clients' span lists, rebasing parent indexes.
func mergeSpans(recs []*recorder) []span {
	var out []span
	for _, r := range recs {
		if r == nil {
			continue
		}
		base := len(out)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// spanStats is what the per-layer metrics need from a span list.
type spanStats struct {
	// byName holds every span's duration in nanoseconds, keyed by name.
	byName map[string][]float64
	// jobOf gives each duration's job, parallel to byName.
	jobOf map[string][]int
	// jobTotal and partsTotal are Σ job spans and Σ of their direct
	// children; partsTotal ÷ jobTotal is core.parts_sum_ratio.
	jobTotal, partsTotal float64
}

func summarizeSpans(spans []span) spanStats {
	st := spanStats{byName: map[string][]float64{}, jobOf: map[string][]int{}}
	childSum := make([]float64, len(spans))
	for _, s := range spans {
		d := float64(s.End - s.Start)
		st.byName[s.Name] = append(st.byName[s.Name], d)
		st.jobOf[s.Name] = append(st.jobOf[s.Name], s.Job)
		if s.Parent >= 0 {
			childSum[s.Parent] += d
		}
	}
	for i, s := range spans {
		if s.Parent < 0 {
			st.jobTotal += float64(s.End - s.Start)
			st.partsTotal += childSum[i]
		}
	}
	return st
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", tf.Workload))
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
