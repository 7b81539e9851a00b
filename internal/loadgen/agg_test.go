package loadgen

import (
	"testing"
)

// TestAggregatedFlatTwin pins the canonical index's semantics against a
// flat twin: brute-force evaluation of every subscription's predicates over
// the same clustered plan must give exactly the matched totals the engine
// reports — interning and covering are an index transform, not a filter
// change.
func TestAggregatedFlatTwin(t *testing.T) {
	sc, err := ScenarioByName("aggregated-mega")
	if err != nil {
		t.Fatal(err)
	}
	sc.Profiles = 600
	sc.Events = 400

	plan, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Churn) != 0 {
		t.Fatal("brute-force twin assumes a static population")
	}
	matches := func(vals []float64) int {
		n := 0
		for _, p := range plan.Initial {
			if p.Matches(vals) {
				n++
			}
		}
		return n
	}
	wantWarmup, wantTotal := matches(plan.Events[0]), 0
	for _, ev := range plan.Events {
		wantTotal += matches(ev)
	}

	res := runDriver(t, sc)
	if res.Workload.MatchedTotal != wantTotal || res.Workload.WarmupMatched != wantWarmup {
		t.Fatalf("engine matched %d+%d, brute force says %d+%d",
			res.Workload.MatchedTotal, res.Workload.WarmupMatched, wantTotal, wantWarmup)
	}
	if wantTotal == 0 {
		t.Fatal("scenario matched nothing; the workload is degenerate")
	}
	if res.Workload.CanonicalNodes == 0 || res.Workload.CanonicalNodes >= res.Profiles {
		t.Fatalf("%d canonical nodes for %d profiles: the clustered plan must intern",
			res.Workload.CanonicalNodes, res.Profiles)
	}
}

// TestAggregatedMegaCompression runs the scenario at the CI smoke scale —
// exactly what the perf gate records — and pins the canonical index's
// compression and the absolute memory ceiling the gate enforces.
func TestAggregatedMegaCompression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario")
	}
	sc, err := ScenarioByName("aggregated-mega")
	if err != nil {
		t.Fatal(err)
	}
	sc = Scale(sc, smokeScale)

	res := runDriver(t, sc)
	if res.Workload.MatchedTotal == 0 {
		t.Fatal("scenario matched nothing; the workload is degenerate")
	}

	// The cluster spec bounds the structure pool at Distinct x (1+Variants)
	// templates, so the poset must be several times smaller than the
	// population: >= 5x here (measured ~7x; full scale reaches ~25x).
	nodes := res.Workload.CanonicalNodes
	if nodes == 0 {
		t.Fatal("aggregated run reported no canonical nodes")
	}
	compression := float64(res.Profiles) / float64(nodes)
	t.Logf("canonical index: %d nodes (%d roots, depth %d) for %d subscriptions — %.1fx compression",
		nodes, res.Workload.CanonicalRoots, res.Workload.PosetDepth, res.Profiles, compression)
	if compression < 5 {
		t.Errorf("canonical compression %.1fx, want >= 5x", compression)
	}

	// The absolute ceiling the CI gate applies to the recorded report must
	// hold when the scenario runs here, or the gate is already broken.
	bytes := res.Measured.BytesPerSub
	ceiling := BytesPerSubCaps[sc.Name]
	t.Logf("bytes/subscription: %.0f (gate ceiling %.0f)", bytes, ceiling)
	if bytes <= 0 {
		t.Fatal("bytes/subscription measurement degenerate; harness bug")
	}
	if bytes > ceiling {
		t.Errorf("%.0f bytes/sub exceeds the gate's %.0f ceiling", bytes, ceiling)
	}
}
