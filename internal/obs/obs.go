// Package obs is the service's zero-dependency observability layer:
// per-job span traces plus counters and histograms, both expressed on
// the *simulated* logical clock so that everything they report is as
// deterministic as the cost model producing it.
//
// Tracing: every job gets a span tree (submit → admission → optimize →
// execute with per-vertex children → publish/retract). Spans
// carry logical start/end ticks and string attributes (signatures, cache
// hit/miss verdicts, breaker state, fault injections). Export is
// order-normalized — children are sorted by (start, name, attributes)
// before marshaling — so the JSON bytes for a fixed seed are identical in
// every run. Traces live in a bounded TraceStore ring keyed by job ID.
//
// Metrics: cache-line-padded atomic counters and power-of-two
// logical-tick histograms. The owner holds them as plain fields and names
// them when it builds a MetricsSnapshot, so a bump is one atomic add and
// nothing is looked up by name.
//
// The package has no dependencies beyond the standard library and is
// wired into the layers (core, exec, storage, metadata, analyzer) through
// small hook seams with nil-able hooks, exactly like internal/fault: a
// service that uninstalls its observer pays only a nil check.
package obs

// Attr is one key/value attribute on a span. Values are strings so export
// is trivially stable; callers format numbers with strconv (never %v on
// floats, whose formatting could drift).
type Attr struct {
	Key   string
	Value string
}

// A returns an Attr — sugar for building attribute lists in place.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }
