package optimizer

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"cloudviews/internal/metadata"
	"cloudviews/internal/signature"
)

// TestDistributedOptimizersOverHTTP wires two optimizer instances (two
// "compiler machines") to one metadata service through its HTTP front end
// — the deployment shape of the production system, where SCOPE compilers
// talk to an AzureSQL-backed service. The Figure 9 protocol must hold
// across the wire: one builder wins the lock, the view published by its
// job manager becomes visible to the other machine's optimizer, and the
// rewrite uses the actual view statistics.
func TestDistributedOptimizersOverHTTP(t *testing.T) {
	env := newEnv(t) // in-process service backs the HTTP handler
	agg := pipeline("g1")
	sig := annotate(t, env, agg)

	srv := httptest.NewServer(metadata.Handler(env.meta))
	defer srv.Close()

	mk := func() *Optimizer {
		return &Optimizer{
			Meta:                 metadata.NewClient(srv.URL),
			Est:                  &Estimator{Catalog: env.cat},
			MaxMaterializePerJob: 1,
		}
	}
	optA, optB := mk(), mk()
	anns, err := optA.Meta.TryRelevantViews("vc1", []string{"logs"})
	if err != nil || len(anns) != 1 {
		t.Fatalf("annotations over HTTP = %d, %v", len(anns), err)
	}

	// Both machines optimize concurrently: exactly one wins the build lock.
	var wg sync.WaitGroup
	decs := make([]*Decision, 2)
	for i, o := range []*Optimizer{optA, optB} {
		wg.Add(1)
		go func(i int, o *Optimizer) {
			defer wg.Done()
			job := []string{"jobA", "jobB"}[i]
			_, decs[i] = o.Optimize(pipeline("g1").Output("o"), job, anns, 0)
		}(i, o)
	}
	wg.Wait()
	builds := len(decs[0].ViewsBuilt) + len(decs[1].ViewsBuilt)
	if builds != 1 {
		t.Fatalf("%d builders across machines, want 1", builds)
	}

	// The winner's job manager executes and reports over HTTP. Re-optimizing
	// under the winner's job ID re-acquires its own lock (owner re-proposal
	// is idempotent), yielding the executable plan with the Materialize.
	var winner *Decision
	winnerJob := "jobA"
	for i, d := range decs {
		if len(d.ViewsBuilt) == 1 {
			winner = d
			winnerJob = []string{"jobA", "jobB"}[i]
		}
	}
	p, _ := env.opt.Optimize(pipeline("g1").Output("o"), winnerJob, anns, 0)
	if _, err := env.ex.RunCtx(context.Background(), p, winnerJob, 0, 0); err != nil {
		t.Fatal(err)
	}
	v, err := env.st.Get(winner.ViewsBuilt[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	client := metadata.NewClient(srv.URL)
	client.ReportMaterialized(metadata.ViewInfo{
		PreciseSig: v.PreciseSig, NormSig: v.NormSig, Path: v.Path,
		Schema: v.Schema, Rows: v.Rows, Bytes: v.LogicalBytes, EncodedBytes: v.Bytes, ExpiresAt: 100,
	})

	// Machine B's next optimization sees and uses the view, with actual
	// statistics injected across the wire.
	p2, d2 := optB.Optimize(pipeline("g1").Output("o"), "jobB2", anns, 1)
	if len(d2.ViewsUsed) != 1 {
		t.Fatalf("machine B did not reuse: %+v", d2)
	}
	res, err := env.ex.RunCtx(context.Background(), p2, "jobB2", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["o"]) == 0 {
		t.Error("empty reused result")
	}
	// Signature identity across machines.
	if signature.Of(agg).Precise != sig.Precise {
		t.Error("signature drift")
	}
}
