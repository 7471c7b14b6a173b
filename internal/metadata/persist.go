package metadata

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// persist.go makes the service state durable. The production metadata
// service is backed by AzureSQL, so annotations and view registrations
// survive restarts; here the same durability comes from a JSON journal.
// Build locks are deliberately NOT persisted: a restart behaves like lock
// expiry — in-flight builders re-propose, and the fault-tolerance path of
// §6.1 takes over.
//
// Format v2 is a line journal: a header line identifying the format,
// followed by one JSON record per line (annotations, then views). The
// point of the line granularity is crash recovery — a snapshot torn
// mid-write (truncated file, corrupted tail) restores to
// the valid prefix instead of erroring the whole service, so the metadata
// service always comes back up; at worst it forgets the most recently
// journaled views, which consumers then rebuild. Files that are not
// metadata snapshots at all (wrong format tag, unknown version, leading
// garbage) still fail loudly — silently booting empty off a foreign file
// would be data loss, not recovery.

// header is the journal's first line. It embeds the legacy v1 payload
// fields so an old single-object snapshot decodes through the same struct.
// A v1 snapshot's retired OfflineVCs list is ignored.
type header struct {
	Format  string
	Version int

	// v1 payload (whole-state single object); unused in v2 headers.
	Annotations []Annotation `json:",omitempty"`
	Views       []ViewInfo   `json:",omitempty"`
}

// record is one v2 journal line; exactly one field is set. A line written
// by an older build that carries a retired field (an offline-VC flag)
// decodes to an empty record, which Restore skips.
type record struct {
	Ann  *Annotation `json:",omitempty"`
	View *ViewInfo   `json:",omitempty"`
}

const (
	snapshotFormat  = "cloudviews-metadata"
	snapshotVersion = 2
)

// Save writes a journal snapshot of the service's durable state. Reading
// one published state generation makes the snapshot internally consistent
// without blocking concurrent writers.
func (s *Service) Save(w io.Writer) error {
	st := s.cur.Load()
	var anns []Annotation
	for _, a := range st.annotations {
		anns = append(anns, *a)
	}
	var views []ViewInfo
	for _, v := range st.views {
		views = append(views, *v)
	}
	sort.Slice(anns, func(i, j int) bool { return anns[i].NormSig < anns[j].NormSig })
	sort.Slice(views, func(i, j int) bool { return views[i].PreciseSig < views[j].PreciseSig })

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Format: snapshotFormat, Version: snapshotVersion}); err != nil {
		return fmt.Errorf("metadata: save: %w", err)
	}
	for i := range anns {
		if err := enc.Encode(record{Ann: &anns[i]}); err != nil {
			return fmt.Errorf("metadata: save: %w", err)
		}
	}
	for i := range views {
		if err := enc.Encode(record{View: &views[i]}); err != nil {
			return fmt.Errorf("metadata: save: %w", err)
		}
	}
	return bw.Flush()
}

// Restore loads a snapshot written by Save into a fresh service. A
// malformed header (not a metadata snapshot, or an unknown version) is an
// error; a torn record tail is not — the valid prefix is loaded and the
// rest is dropped, which is how the service recovers from a crash mid-Save
// or a truncated file.
func Restore(r io.Reader) (*Service, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("metadata: restore: %w", err)
	}
	if h.Format != snapshotFormat {
		return nil, fmt.Errorf("metadata: not a metadata snapshot (format %q)", h.Format)
	}
	anns, views := h.Annotations, h.Views
	switch h.Version {
	case 1:
		// Legacy single-object snapshot: the payload rode in the header.
	case snapshotVersion:
		for {
			var rec record
			if err := dec.Decode(&rec); err != nil {
				// io.EOF is the clean end; anything else is a torn or
				// corrupted tail — keep the valid prefix (recovery, not
				// failure: better to forget the newest records than to
				// refuse to start).
				break
			}
			switch {
			case rec.Ann != nil:
				anns = append(anns, *rec.Ann)
			case rec.View != nil:
				views = append(views, *rec.View)
			}
		}
	default:
		return nil, fmt.Errorf("metadata: unsupported snapshot version %d", h.Version)
	}
	s := NewService()
	s.LoadAnalysis(anns)
	s.installViews(views)
	return s, nil
}
