package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// ReportVersion gates report compatibility: Compare refuses to diff
// reports of different versions, so a format change can never masquerade
// as a perf change.
const ReportVersion = 1

// Report is the stable JSON artifact genasbench records (BENCH_loadgen.json)
// and the CI perf gate compares. Field order is fixed by this struct; the
// scenario list is sorted by name.
type Report struct {
	Tool    string `json:"tool"`
	Version int    `json:"version"`
	Suite   string `json:"suite"`
	// Host describes where the report was recorded: regression comparisons
	// across different hosts are noise-prone (the committed baseline comes
	// from a 1-core container; see the CI job's caveat).
	Host      HostInfo `json:"host"`
	Scenarios []Result `json:"scenarios"`
}

// HostInfo captures the recording machine.
type HostInfo struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
}

// NewReport assembles a report over the given results.
func NewReport(suite string, results []Result) *Report {
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	return &Report{
		Tool:    "genasbench",
		Version: ReportVersion,
		Suite:   suite,
		Host: HostInfo{
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
			GoVersion: runtime.Version(),
		},
		Scenarios: sorted,
	}
}

// Normalize zeroes every machine- and timing-dependent field, leaving only
// the deterministic workload skeleton: the golden test pins the report
// *shape* without pinning one machine's speed.
func (r *Report) Normalize() {
	r.Host = HostInfo{}
	for i := range r.Scenarios {
		r.Scenarios[i].Measured = Measured{}
	}
}

// Encode renders the canonical indented JSON form, newline-terminated.
func (r *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile records the report at path.
func (r *Report) WriteFile(path string) error {
	b, err := r.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadReport loads a report from path.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	if r.Version != ReportVersion {
		return nil, fmt.Errorf("loadgen: %s: report version %d, want %d", path, r.Version, ReportVersion)
	}
	return &r, nil
}

// Regression is one failed comparison row.
type Regression struct {
	Scenario string `json:"scenario"`
	// OldEPS and NewEPS are the compared throughputs.
	OldEPS float64 `json:"old_eps"`
	NewEPS float64 `json:"new_eps"`
	// Ratio is NewEPS/OldEPS (0 when the scenario vanished).
	Ratio float64 `json:"ratio"`
	// Missing marks a scenario present in the baseline but absent from the
	// new report — silent coverage loss counts as a regression.
	Missing bool `json:"missing,omitempty"`
	// AllocsPerEvent and AllocCap are set when the row failed an absolute
	// allocation ceiling rather than a relative throughput drop.
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
	AllocCap       float64 `json:"alloc_cap,omitempty"`
	// BytesPerSub and BytesCap are set when the row failed an absolute
	// memory-per-subscription ceiling.
	BytesPerSub float64 `json:"bytes_per_sub,omitempty"`
	BytesCap    float64 `json:"bytes_cap,omitempty"`
}

// String renders one regression for gate logs.
func (g Regression) String() string {
	if g.Missing {
		return fmt.Sprintf("%s: missing from new report (was %.0f events/s)", g.Scenario, g.OldEPS)
	}
	if g.AllocCap > 0 {
		return fmt.Sprintf("%s: %.1f allocs/event exceeds the %.0f allocs/event ceiling",
			g.Scenario, g.AllocsPerEvent, g.AllocCap)
	}
	if g.BytesCap > 0 {
		return fmt.Sprintf("%s: %.0f bytes/subscription exceeds the %.0f bytes/subscription ceiling",
			g.Scenario, g.BytesPerSub, g.BytesCap)
	}
	return fmt.Sprintf("%s: %.0f -> %.0f events/s (%.1f%% of baseline)",
		g.Scenario, g.OldEPS, g.NewEPS, g.Ratio*100)
}

// AllocCaps lists absolute ceilings on allocations per published event, by
// scenario name. Unlike the throughput comparison these are not relative to
// the baseline: allocation counts are machine-independent, so a ceiling
// breach is a real change in the code's allocation behavior, not noise. The
// churn-heavy ceiling pins the incremental-index property that subscription
// churn no longer rebuilds (and reallocates) the automaton per operation.
var AllocCaps = map[string]float64{
	"churn-heavy": 100,
}

// BytesPerSubCaps lists absolute ceilings on resident heap bytes per
// registered subscription, by scenario name. The aggregated-mega ceiling
// pins canonical aggregation's memory win: at smoke scale the clustered
// population measures ~4.5 KiB/subscription (an automaton indexing every
// subscription cost ~50x that, when it could be built at all), so the
// 8 KiB ceiling leaves noise headroom while still catching a collapse back
// to per-profile indexing.
var BytesPerSubCaps = map[string]float64{
	"aggregated-mega": 8192,
}

// Compare gates cur against base: every baseline scenario must still exist
// and keep at least (1 − tolerance) of its throughput, and every scenario
// with an AllocCaps (BytesPerSubCaps) entry must stay under its
// allocs-per-event (bytes-per-subscription) ceiling.
// Improvements and scenarios new to the suite never fail the gate. A
// tolerance of 0.25 tolerates a 25% drop.
func Compare(base, cur *Report, tolerance float64) []Regression {
	byName := make(map[string]Result, len(cur.Scenarios))
	for _, r := range cur.Scenarios {
		byName[r.Name] = r
	}
	var regs []Regression
	for _, o := range base.Scenarios {
		n, ok := byName[o.Name]
		if !ok {
			regs = append(regs, Regression{Scenario: o.Name, OldEPS: o.Measured.ThroughputEPS, Missing: true})
			continue
		}
		if o.Measured.ThroughputEPS <= 0 {
			continue // an empty baseline row gates nothing
		}
		ratio := n.Measured.ThroughputEPS / o.Measured.ThroughputEPS
		if ratio < 1-tolerance {
			regs = append(regs, Regression{
				Scenario: o.Name,
				OldEPS:   o.Measured.ThroughputEPS,
				NewEPS:   n.Measured.ThroughputEPS,
				Ratio:    ratio,
			})
		}
	}
	for _, r := range cur.Scenarios {
		ceiling, ok := AllocCaps[r.Name]
		if !ok || r.Measured.AllocsPerEvent <= ceiling {
			continue
		}
		regs = append(regs, Regression{
			Scenario:       r.Name,
			AllocsPerEvent: r.Measured.AllocsPerEvent,
			AllocCap:       ceiling,
		})
	}
	for _, r := range cur.Scenarios {
		ceiling, ok := BytesPerSubCaps[r.Name]
		if !ok || r.Measured.BytesPerSub <= ceiling {
			continue
		}
		regs = append(regs, Regression{
			Scenario:    r.Name,
			BytesPerSub: r.Measured.BytesPerSub,
			BytesCap:    ceiling,
		})
	}
	return regs
}
