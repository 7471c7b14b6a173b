package cloudviews

// cloudviews_api_test.go pins the public API surface: the exact exported
// method set of *Service, the absence of every deleted duplicate entry
// point on the layers below it, the re-exported observability symbols, and
// the service's settable knobs. A re-added wrapper or knob fails here.

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"slices"
	"testing"

	"cloudviews/internal/breaker"
	"cloudviews/internal/exec"
	"cloudviews/internal/metadata"
	"cloudviews/internal/storage"
)

// TestAPISurface is part compile-time contract (assigning each method to
// an explicitly typed variable fails the build if a signature drifts),
// part reflection: one way in (Run/RunBatch), one way to read (Snapshot).
func TestAPISurface(t *testing.T) {
	cat := facadeCatalog(t)
	svc := NewService(cat, Config{Enabled: true})

	var run func(context.Context, JobSpec) (*JobResult, error) = svc.Run
	var runBatch func(context.Context, []JobSpec, BatchOptions) ([]*JobResult, error) = svc.RunBatch
	var snapshot func() ServiceStats = svc.Snapshot
	var trace func(string) (*Trace, bool) = svc.Trace
	var setObserver func(*ServiceObserver) = svc.SetObserver
	for _, fn := range []any{run, runBatch, snapshot, trace, setObserver} {
		if fn == nil {
			t.Fatal("nil method value")
		}
	}

	want := []string{
		"BeginInstance", "Drain", "Draining", "InFlight",
		"InstallFaults", "ReclaimStorage", "Replay", "Run",
		"RunAnalyzer", "RunBatch", "SetObserver",
		"Snapshot", "Trace", "ViewProvenance",
	}
	if got := methodNames(svc); !slices.Equal(got, want) {
		t.Errorf("*Service exported methods:\n got %v\nwant %v", got, want)
	}

	// The layers below keep only the ctx-first, error-returning forms, the
	// store retires no view on its own (the service does, in §5.4 order),
	// no layer keeps an accessor that only its own tests call, staleness is
	// read from Snapshot, and the per-VC offline mode is gone.
	deleted := []string{
		"Run", "Write", "Consume", "RelevantViews", "Recovery", "StorageStats",
		"Submit", "SubmitCtx", "SubmitBatch", "SubmitBatchCtx",
		"Purge", "ReclaimLowestUtility", "LookupPrecise", "CacheBudget", "PartitionCount",
		"AnalysisStale", "ViewsBuiltLastInstance", "RunOfflinePhase", "SetOfflineVC",
	}
	for _, v := range []any{&exec.Executor{}, &storage.Store{}, &storage.View{}, &metadata.Service{}, &metadata.Client{}} {
		for _, name := range methodNames(v) {
			if slices.Contains(deleted, name) {
				t.Errorf("%T has deleted method %s", v, name)
			}
		}
	}
	src, err := os.ReadFile("cloudviews.go")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(src, []byte("\nfunc Submit")) {
		t.Error("cloudviews.go declares a Submit* convenience func; Service.Run/RunBatch are the only way in")
	}

	// Re-exported observability types must be usable as values.
	var st ServiceStats = svc.Snapshot()
	if st.SchemaVersion != StatsSchemaVersion {
		t.Fatalf("SchemaVersion = %d, want %d", st.SchemaVersion, StatsSchemaVersion)
	}
	var _ RecoveryStats = st.Recovery
	var _ StorageStats = st.Storage
	var _ SchedulerStats = st.Scheduler
	var _ []BreakerStats = st.Breakers
	var _ Metrics = st.Metrics
	var _ *ServiceObserver = NewObserver(0)

	res, err := svc.Run(context.Background(), JobSpec{Meta: facadeMeta("api-job"),
		Root: Scan("purchases", "v1", mustSchema(cat, t)).Output("all")})
	if err != nil || res == nil {
		t.Fatalf("Run: %v", err)
	}
	tr, ok := svc.Trace("api-job")
	if !ok {
		t.Fatal("Trace returned no trace for a completed job")
	}
	var root *Span = tr.Root
	if root.Name != "submit" {
		t.Fatalf("root span %q, want submit", root.Name)
	}
	if !bytes.Contains(tr.JSON(), []byte(`"outcome":"ok"`)) {
		t.Fatalf("trace outcome missing: %s", tr.JSON())
	}
}

// methodNames lists v's exported methods (reflection returns them sorted).
func methodNames(v any) []string {
	typ := reflect.TypeOf(v)
	names := make([]string, typ.NumMethod())
	for i := range names {
		names[i] = typ.Method(i).Name
	}
	return names
}

// TestKnobSurface pins every setting a caller can turn: Config's exact
// fields, a JobSpec that carries only the job and its deadline, a Service
// whose exported fields are its components and Config, an Executor
// with nothing beyond its catalog, store and three hooks, and a breaker
// with no exported field (its transitions are read through its
// counters, not a callback). A knob exists
// only while a non-test caller sets it, so adding one means changing
// this list on purpose.
func TestKnobSurface(t *testing.T) {
	for _, c := range []struct {
		name string
		v    any
		want []string
	}{
		{"Config", Config{}, []string{"Enabled", "MaxViewsPerJob", "ValidateResults", "LatePublish", "CacheBytes"}},
		{"JobSpec", JobSpec{}, []string{"Meta", "Root", "Tags", "Deadline"}},
		{"Service", Service{}, []string{"Catalog", "Store", "Meta", "Repo", "Clock", "Exec", "Opt", "Config"}},
		{"exec.Executor", exec.Executor{}, []string{"Catalog", "Store", "OnViewMaterialized", "Faults", "Obs"}},
		{"storage.Store", storage.Store{}, []string{"Faults", "Gate", "OnConsume", "Obs"}},
		{"breaker.Breaker", breaker.Breaker{}, nil},
		{"storage.View", storage.View{}, []string{"Path", "PreciseSig", "NormSig", "ProducerJobID", "ExpiresAt",
			"Schema", "Props", "Encoded", "Bytes", "LogicalBytes", "Rows", "Checksum"}},
	} {
		if got := fieldNames(c.v); !slices.Equal(got, c.want) {
			t.Errorf("%s fields:\n got %v\nwant %v", c.name, got, c.want)
		}
	}
}

// fieldNames lists the struct v's exported fields in declaration order.
func fieldNames(v any) []string {
	typ := reflect.TypeOf(v)
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			names = append(names, f.Name)
		}
	}
	return names
}
