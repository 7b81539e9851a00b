package loadgen

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"genas/internal/core"
)

// Workload is the deterministic outcome of a run: identical across
// machines for the same scenario (the sync drivers' matched totals are a
// pure function of the plan), so baselines can sanity-check that two
// reports actually measured the same work.
type Workload struct {
	// MatchedTotal sums the timed publish calls' local match counts.
	MatchedTotal int `json:"matched_total"`
	// WarmupMatched is the untimed warmup publish's match count (the first
	// event, published once before the clock starts so the lazy automaton
	// build does not drown the steady-state measurement).
	WarmupMatched int `json:"warmup_matched"`
	// ChurnOps counts subscription churn operations interleaved with the
	// stream.
	ChurnOps int `json:"churn_ops"`
	// Counters are the driver's post-drain delivery counters (asynchronous
	// drivers only).
	Counters Counters `json:"counters"`
	// CanonicalNodes/CanonicalRoots/PosetDepth describe the driver's
	// canonical index after the run (in-process drivers only).
	// Like the match totals they are a pure function of the plan.
	CanonicalNodes int `json:"canonical_nodes,omitempty"`
	CanonicalRoots int `json:"canonical_roots,omitempty"`
	PosetDepth     int `json:"poset_depth,omitempty"`
}

// Measured is the run's timing-dependent side: everything here varies with
// the hardware and is what the regression gate compares.
type Measured struct {
	// ElapsedMS is the publish phase's wall-clock time (subscription setup
	// and drain excluded).
	ElapsedMS float64 `json:"elapsed_ms"`
	// ThroughputEPS is events per second over the publish phase.
	ThroughputEPS float64 `json:"throughput_eps"`
	// P50Micros/P99Micros are publish-call latency percentiles. In batch
	// mode one call covers a whole burst, so the unit is the burst.
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// MatchesPerSec is MatchedTotal over the publish phase.
	MatchesPerSec float64 `json:"matches_per_sec"`
	// AllocsPerEvent is the heap allocation count per published event over
	// the whole process (drivers with background goroutines included).
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// BytesPerSub is the live-heap growth across subscription registration
	// and the warmup build, divided by the initial population size: the
	// steady-state memory cost of holding one subscription indexed.
	BytesPerSub float64 `json:"bytes_per_sub"`
}

// Result is one scenario's report entry.
type Result struct {
	Name     string   `json:"name"`
	Driver   string   `json:"driver"`
	Seed     int64    `json:"seed"`
	Events   int      `json:"events"`
	Profiles int      `json:"profiles"`
	Batch    int      `json:"batch,omitempty"`
	Workload Workload `json:"workload"`
	Measured Measured `json:"measured"`
}

// syncer is the optional driver barrier: asynchronous topologies (the
// federation chain) must converge before the measured stream starts.
type syncer interface {
	Sync() error
}

// Run materializes the scenario, drives it and measures. The publish phase
// is the timed window; registration, convergence and drain sit outside it.
func Run(sc Scenario) (*Result, error) {
	plan, err := Build(sc)
	if err != nil {
		return nil, err
	}
	drv, err := OpenDriver(sc, plan.Schema)
	if err != nil {
		return nil, err
	}
	defer drv.Close()
	res, err := runPlan(plan, drv)
	if err != nil {
		return nil, fmt.Errorf("loadgen: scenario %s: %w", sc.Name, err)
	}
	return res, nil
}

// aggStater is the optional driver surface reporting the canonical
// aggregation layer's shape (the in-process drivers expose it).
type aggStater interface {
	AggStats() core.AggStats
}

// runPlan executes a built plan against an open driver.
func runPlan(plan *Plan, drv Driver) (*Result, error) {
	sc := plan.Scenario

	// Live-heap floor before any subscription exists: the delta across
	// registration plus the warmup build is the index's resident cost.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)

	for _, p := range plan.Initial {
		if err := drv.Subscribe(p); err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", p.ID, err)
		}
	}
	if s, ok := drv.(syncer); ok {
		if err := s.Sync(); err != nil {
			return nil, err
		}
	}

	// One untimed warmup publish triggers the lazy automaton build; the
	// timed loop below then measures steady-state filtering. The warmup's
	// match count is reported separately so the workload totals stay a
	// deterministic function of the plan.
	warmup, err := drv.Publish(plan.Events[0])
	if err != nil {
		return nil, fmt.Errorf("warmup publish: %w", err)
	}

	runtime.GC()
	runtime.ReadMemStats(&ms1)
	bytesPerSub := 0.0
	if ms1.HeapAlloc > ms0.HeapAlloc && len(plan.Initial) > 0 {
		bytesPerSub = float64(ms1.HeapAlloc-ms0.HeapAlloc) / float64(len(plan.Initial))
	}

	batch := sc.Batch
	if batch < 1 {
		batch = 1
	}
	ops := (len(plan.Events) + batch - 1) / batch
	lats := make([]time.Duration, 0, ops)
	matched := 0
	churnOps := 0
	next := 0 // next churn step index

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for lo := 0; lo < len(plan.Events); lo += batch {
		hi := lo + batch
		if hi > len(plan.Events) {
			hi = len(plan.Events)
		}
		// Apply every churn step scheduled inside this burst before it
		// publishes: the plan's At indexes are exact in steady mode and
		// burst-aligned otherwise.
		for next < len(plan.Churn) && plan.Churn[next].At < hi {
			st := plan.Churn[next]
			next++
			for _, id := range st.Remove {
				if err := drv.Unsubscribe(id); err != nil {
					return nil, fmt.Errorf("churn unsubscribe %s: %w", id, err)
				}
			}
			for _, p := range st.Add {
				if err := drv.Subscribe(p); err != nil {
					return nil, fmt.Errorf("churn subscribe %s: %w", p.ID, err)
				}
			}
			churnOps += len(st.Remove) + len(st.Add)
		}
		start := time.Now()
		var (
			n   int
			err error
		)
		if batch == 1 {
			n, err = drv.Publish(plan.Events[lo])
		} else {
			n, err = drv.PublishBatch(plan.Events[lo:hi])
		}
		lats = append(lats, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("publish at %d: %w", lo, err)
		}
		matched += n
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)

	counters, err := drv.Drain()
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	res := &Result{
		Name:     sc.Name,
		Driver:   drv.Name(),
		Seed:     sc.Seed,
		Events:   len(plan.Events),
		Profiles: len(plan.Initial),
		Batch:    sc.Batch,
		Workload: Workload{MatchedTotal: matched, WarmupMatched: warmup, ChurnOps: churnOps, Counters: counters},
		Measured: Measured{
			ElapsedMS:      float64(elapsed.Microseconds()) / 1e3,
			ThroughputEPS:  float64(len(plan.Events)) / secs,
			P50Micros:      percentileMicros(lats, 0.50),
			P99Micros:      percentileMicros(lats, 0.99),
			MatchesPerSec:  float64(matched) / secs,
			AllocsPerEvent: float64(m1.Mallocs-m0.Mallocs) / float64(len(plan.Events)),
			BytesPerSub:    bytesPerSub,
		},
	}
	if a, ok := drv.(aggStater); ok {
		st := a.AggStats()
		res.Workload.CanonicalNodes = st.Nodes
		res.Workload.CanonicalRoots = st.Roots
		res.Workload.PosetDepth = st.MaxDepth
	}
	return res, nil
}

// RunBest runs the scenario reps times and keeps the fastest repetition —
// the usual best-of-N noise reduction for a regression gate. The workload
// side is deterministic, so every repetition must agree on it; a
// disagreement is a harness bug and surfaces as an error.
func RunBest(sc Scenario, reps int) (*Result, error) {
	if reps < 1 {
		reps = 1
	}
	var best *Result
	for i := 0; i < reps; i++ {
		res, err := Run(sc)
		if err != nil {
			return nil, err
		}
		if best == nil {
			best = res
			continue
		}
		// Compare the plan-determined fields only: async delivery counters
		// may legitimately differ between repetitions (drop policies).
		if res.Workload.MatchedTotal != best.Workload.MatchedTotal ||
			res.Workload.WarmupMatched != best.Workload.WarmupMatched ||
			res.Workload.ChurnOps != best.Workload.ChurnOps {
			return nil, fmt.Errorf("loadgen: scenario %s: repetition %d changed the workload (%+v vs %+v)",
				sc.Name, i+1, res.Workload, best.Workload)
		}
		if res.Measured.ThroughputEPS > best.Measured.ThroughputEPS {
			best = res
		}
	}
	return best, nil
}

// percentileMicros returns the q-quantile of the latency sample in
// microseconds (nearest-rank on the sorted sample).
func percentileMicros(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(float64(len(sorted)-1)*q + 0.5)
	return float64(sorted[i].Nanoseconds()) / 1e3
}
