package loadgen

import (
	"fmt"
	"sort"
)

// stdSchema is the scenario family's shared schema: the paper's running
// environmental-monitoring example, one attribute per domain kind so every
// sampling and matching path is exercised.
const stdSchema = "temperature=numeric[-30,50]; humidity=numeric[0,100]; floor=int[0,12]; severity=cat{low,mid,high}"

// scenarios is the named workload catalog. Every entry is pure data —
// adding a workload is adding a literal. Sizes here are the full-suite
// sizes; Scale produces the smoke/short variants.
var scenarios = map[string]Scenario{
	// uniform-dense: the control. Flat event stream against a dense
	// population of moderately wide profiles — no skew for the measures to
	// exploit, so this pins the baseline cost of the match path itself.
	"uniform-dense": {
		Name:     "uniform-dense",
		Driver:   "engine",
		Schema:   stdSchema,
		Seed:     1,
		Events:   20000,
		Profiles: 2000,
	},

	// zipf-hot: 85% of the temperature stream collapses onto 16 Zipf-ranked
	// hot keys while the profile centers follow a high peak — the
	// hot-key/cache-line regime every content-based router sees in
	// production (ticker symbols, popular topics).
	"zipf-hot": {
		Name:          "zipf-hot",
		Driver:        "engine",
		Schema:        stdSchema,
		Seed:          2,
		Events:        20000,
		Profiles:      2000,
		EventShapes:   map[string]string{"temperature": "d14", "humidity": "d4"},
		ProfileShapes: map[string]string{"temperature": "95% high"},
		HotKeys:       &HotKeySpec{Attr: "temperature", P: 0.85, K: 16, S: 1.3},
	},

	// correlated-storm: a two-component mixture — calm weather vs storms
	// where high humidity and high severity co-occur — published in bursts
	// through the batch path. Correlation is the standard counterexample to
	// the analytic model's independence assumption; bursts exercise the
	// batched ingestion the sharded engine amortizes.
	"correlated-storm": {
		Name:   "correlated-storm",
		Driver: "sharded",
		Schema: stdSchema,
		Seed:   3,
		Events: 20000, Profiles: 1500,
		Batch: 64,
		Correlated: &CorrelatedSpec{
			Weights: []float64{0.8, 0.2},
			Components: [][]string{
				{"gauss", "d5", "equal", "d4"},    // calm: mild temps, dry, low severity
				{"d14", "95% high", "d11", "d14"}, // storm: hot, saturated, upper floors, severe
			},
		},
		ProfileShapes: map[string]string{"humidity": "90% high", "severity": "d14"},
	},

	// churn-heavy: the full service under constant subscription turnover —
	// every 200 events, 20 profiles leave and 20 fresh ones arrive, so the
	// corpus drifts continuously while delivery keeps running. This is the
	// registration-path contention case sharded delivery state exists for.
	"churn-heavy": {
		Name:   "churn-heavy",
		Driver: "service",
		Schema: stdSchema,
		Seed:   4,
		Events: 10000, Profiles: 1000,
		EventShapes: map[string]string{"temperature": "d17", "humidity": "d9"},
		Churn:       &ChurnSpec{Every: 200, Ops: 20},
		Shards:      4,
	},

	// adaptive-drift: the event distribution the adaptive component exists
	// for — a mixture whose dominant mode sits far from the initial uniform
	// assumption, with enough stream for drift detection to trigger
	// restructures mid-run.
	"adaptive-drift": {
		Name:   "adaptive-drift",
		Driver: "service",
		Schema: stdSchema,
		Seed:   5,
		Events: 10000, Profiles: 1000,
		EventShapes: map[string]string{"temperature": "d39", "humidity": "d40", "floor": "d22"},
		Adaptive:    true,
	},

	// wire-roundtrip: the same dense workload as uniform-dense but spoken
	// over loopback TCP through the wire client — framing, socket and
	// demultiplexer included in every latency sample. Pinned to the v1
	// JSON-line protocol; wire-roundtrip-v2 is the identical workload over
	// binary v2 frames, so the pair is a direct codec comparison.
	"wire-roundtrip": {
		Name:   "wire-roundtrip",
		Driver: "wire",
		Schema: stdSchema,
		Seed:   6,
		Events: 4000, Profiles: 500,
		Batch: 32,
		Proto: "v1",
	},

	// wire-roundtrip-v2: wire-roundtrip's workload, byte for byte, over the
	// negotiated binary protocol with pipelined batches. Match totals must
	// equal wire-roundtrip's (same seed, same plan); only the wire cost may
	// differ.
	"wire-roundtrip-v2": {
		Name:   "wire-roundtrip-v2",
		Driver: "wire",
		Schema: stdSchema,
		Seed:   6,
		Events: 4000, Profiles: 500,
		Batch: 32,
		Proto: "v2",
	},

	// aggregated-mega: canonical aggregation's home turf — 10⁵ subscriptions
	// drawn from 10³ Zipf-ranked structural templates (a quarter of them
	// narrowed refinements). The automaton indexes only the poset's uncovered roots, so the canonical index stays
	// thousands of times smaller than the subscription count, match cost
	// tracks the distinct-structure population, and bytes/subscription is
	// gated absolutely (BytesPerSubCaps).
	"aggregated-mega": {
		Name:        "aggregated-mega",
		Driver:      "engine",
		Schema:      stdSchema,
		Seed:        8,
		Events:      20000,
		Profiles:    100000,
		Clusters:    &ClusterSpec{Distinct: 1000, S: 1.1, RefineP: 0.25, Variants: 3},
		EventShapes: map[string]string{"temperature": "d14", "humidity": "d4"},
	},

	// federated-3hop: a four-daemon chain over real TCP links; events enter
	// at the head, all subscribers sit three hops away at the tail, and the
	// skewed stream lets the per-link filters reject most events before
	// they cross a wire.
	"federated-3hop": {
		Name:   "federated-3hop",
		Driver: "federation",
		Schema: stdSchema,
		Seed:   7,
		Events: 3000, Profiles: 300,
		EventShapes:   map[string]string{"temperature": "d3", "humidity": "d21"},
		ProfileShapes: map[string]string{"temperature": "d14"},
		Hops:          3,
		Proto:         "v1",
	},

	// federated-3hop-v2: the same chain with every link negotiated up to
	// binary v2 frames — forwarded events cross each hop as slot vectors
	// instead of JSON lines. Delivery totals must match federated-3hop's.
	"federated-3hop-v2": {
		Name:   "federated-3hop-v2",
		Driver: "federation",
		Schema: stdSchema,
		Seed:   7,
		Events: 3000, Profiles: 300,
		EventShapes:   map[string]string{"temperature": "d3", "humidity": "d21"},
		ProfileShapes: map[string]string{"temperature": "d14"},
		Hops:          3,
		Proto:         "v2",
	},
}

// suites maps suite name → member scenarios. smoke is the CI gate's suite:
// every driver class represented, sized to finish in seconds on one core.
var suites = map[string][]string{
	"smoke": {"uniform-dense", "zipf-hot", "correlated-storm", "churn-heavy", "aggregated-mega",
		"wire-roundtrip", "wire-roundtrip-v2", "federated-3hop", "federated-3hop-v2"},
	"full": {"uniform-dense", "zipf-hot", "correlated-storm", "churn-heavy",
		"adaptive-drift", "wire-roundtrip", "wire-roundtrip-v2", "aggregated-mega",
		"federated-3hop", "federated-3hop-v2"},
}

// smokeScale shrinks full-size scenarios to CI smoke size.
const smokeScale = 0.12

// ScenarioNames lists the catalog, sorted.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SuiteNames lists the suites, sorted.
func SuiteNames() []string {
	names := make([]string, 0, len(suites))
	for n := range suites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ScenarioByName returns a copy of the named catalog scenario.
func ScenarioByName(name string) (Scenario, error) {
	sc, ok := scenarios[name]
	if !ok {
		return Scenario{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownScenario, name, ScenarioNames())
	}
	return sc, nil
}

// Suite resolves a suite to its scenarios. The smoke suite is pre-scaled;
// short additionally scales whichever suite was picked (for fast local
// iteration and the determinism tests).
func Suite(name string, short bool) ([]Scenario, error) {
	members, ok := suites[name]
	if !ok {
		return nil, fmt.Errorf("%w: suite %q (have %v)", ErrUnknownScenario, name, SuiteNames())
	}
	scs := make([]Scenario, len(members))
	for i, m := range members {
		sc := scenarios[m]
		if name == "smoke" {
			sc = Scale(sc, smokeScale)
		}
		if short {
			sc = Scale(sc, 0.25)
		}
		scs[i] = sc
	}
	return scs, nil
}

// Scale shrinks a scenario's sizes by factor f, holding the stream's shape
// fixed: distribution specs, skew, batch size and churn cadence survive;
// only volumes change. Floors keep tiny scales meaningful.
func Scale(sc Scenario, f float64) Scenario {
	sc.Events = scaleInt(sc.Events, f, 200)
	sc.Profiles = scaleInt(sc.Profiles, f, 50)
	if sc.Churn != nil {
		ch := *sc.Churn
		ch.Every = scaleInt(ch.Every, f, 20)
		ch.Ops = scaleInt(ch.Ops, f, 2)
		sc.Churn = &ch
	}
	return sc
}

// scaleInt scales n by f with a floor.
func scaleInt(n int, f float64, min int) int {
	v := int(float64(n) * f)
	if v < min {
		v = min
	}
	return v
}
