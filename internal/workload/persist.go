package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// persist.go makes the repository durable: observations stream out as
// JSON-lines and load back into a repository the analyzer can mine. This
// is how the production system works — the workload repository is durable
// cluster state, and the CloudViews analyzer is an offline tool that runs
// over it (§4, Figure 6) — and it lets the admin CLI analyze yesterday's
// history without re-executing anything.

// persistHeader identifies the stream format.
type persistHeader struct {
	Format  string
	Version int
}

const (
	persistFormat  = "cloudviews-workload"
	persistVersion = 1
)

// Save streams every observation to w as JSON lines, preceded by a header
// line. The repository holds no plans, so none are persisted: signatures
// and statistics are what the analyzer needs.
func (r *Repository) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(persistHeader{Format: persistFormat, Version: persistVersion}); err != nil {
		return fmt.Errorf("workload: write header: %w", err)
	}
	obs := r.Snapshot()
	for i := range obs {
		if err := enc.Encode(&obs[i]); err != nil {
			return fmt.Errorf("workload: write observation %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Load reads a stream written by Save into a fresh repository.
func Load(rd io.Reader) (*Repository, error) {
	dec := json.NewDecoder(bufio.NewReader(rd))
	var h persistHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("workload: read header: %w", err)
	}
	if h.Format != persistFormat {
		return nil, fmt.Errorf("workload: not a workload stream (format %q)", h.Format)
	}
	if h.Version != persistVersion {
		return nil, fmt.Errorf("workload: unsupported version %d", h.Version)
	}
	repo := NewRepository()
	for {
		var o Observation
		if err := dec.Decode(&o); err == io.EOF {
			return repo, nil
		} else if err != nil {
			return nil, fmt.Errorf("workload: read observation: %w", err)
		}
		repo.Append(o)
	}
}
