package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload name")
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Float64("seconds", 30, "measured seconds, split over the rounds (half open loop, half closed loop)")
		traced   = fs.Int("trace", 0, "1 runs the traced layer ladder and reports per-layer metrics")
		traceDir = fs.String("trace-dir", ".bench_build/trace", "where the traced run writes its spans")
		steady   = fs.String("steady", "", "analyze the result lines under this directory (one subdirectory per workload) against BENCHMARK.json")
		selftest = fs.String("selftest", "", "prove the gate rejects an injected regression and an injected loss, using the result lines under this directory")
		manifest = fs.String("manifest", "BENCHMARK.json", "benchmark manifest with the metric bounds")
		list     = fs.Bool("list", false, "print the workload names and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Fprintln(stdout, w.name)
		}
		return 0
	case *steady != "":
		return steadyReport(*steady, *manifest, stdout, stderr)
	case *selftest != "":
		return gateSelfTest(*selftest, *manifest, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// One process generates the load; never more processors than the host has.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	go heapGuard(stderr)

	p, err := buildPlan(w, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d: plan events=%d corpus=%d live=%d expected_per_pass=%d fingerprint=%016x\n",
		w.name, *seed, len(p.events), len(p.pool), w.live, p.initialExpected(), p.fingerprint())

	var res *result
	if *traced == 1 {
		res, err = traceRun(w, p, *seconds, *seed, *traceDir, stdout)
	} else {
		res, err = plainRun(w, p, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(w *workload, p *plan, seconds float64, out io.Writer) (*result, error) {
	m, err := measure(w, p, seconds)
	if err != nil {
		return nil, err
	}
	failedFrac := float64(m.failed) / float64(m.attempted)
	res := &result{
		Correct:   m.extra == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(m.setup), "s"},
			"throughput_eps":   {m.throughput, "events/s"},
			"notify_p50_ms":    {m.p50, "ms"},
			"notify_p99_ms":    {m.p99, "ms"},
			"subscribe_p90_ms": {m.subP90, "ms"},
			"ops_ok_frac":      {1 - failedFrac, "ratio"},
			"bytes_per_sub":    {m.bytesPerSub, "B"},
			"allocs_per_event": {m.allocsPerEv, "allocs"},
		},
	}
	fmt.Fprintf(out, "set-ups (s): %.4g\n", m.setup)
	for i, rd := range m.rounds {
		notify, churn, probe := nsToMS(rd.notify), nsToMS(rd.churn), nsToMS(rd.probe)
		if len(notify) == 0 {
			return nil, fmt.Errorf("round %d: the open loop produced no notification samples", i)
		}
		fmt.Fprintf(out, "round %d: open loop %d events at %.0f/s, %d notification samples (p50 %.4g ms, p99 %.4g ms), generator lag p99 %.3f ms; "+
			"closed loop %d events, window %d, %.6g events/s; %d churn calls timed (p50 %.4g ms, p90 %.4g ms, p99 %.4g ms); %d probe calls timed (p50 %.4g ms, p90 %.4g ms); lost %d (%d in the open loop), "+
			"full windows expired %d; broker dropped %d; restructures %d\n",
			i, rd.openEvents, w.openRate, len(notify), quantile(notify, 0.5), quantile(notify, 0.99), quantile(nsToMS(rd.genLag), 0.99),
			rd.closedEvents, w.window, rd.throughput, len(churn), quantile(churn, 0.5), quantile(churn, 0.9), quantile(churn, 0.99), len(probe), quantile(probe, 0.5), quantile(probe, 0.9), rd.c.lost.Load(), rd.openLost,
			rd.stuck, rd.layer.dropped, rd.layer.restructures)
	}
	fmt.Fprintf(out, "ops_failed_frac %.6g ratio (%d failed of %d attempted: lost %d, duplicate %d, extra %d; ack mismatches %d)\n",
		failedFrac, m.failed, m.attempted, m.lost, m.duplicate, m.extra, m.mismatch)
	printMetrics(out, res.Metrics)
	return res, nil
}

// heapLimit is the live heap past which a run is abandoned: every workload
// needs well under a gigabyte, and the host's memory is shared.
const heapLimit = 4 << 30

// heapGuard exits the process when the heap passes heapLimit, so that a
// runaway deployment cannot exhaust the host's memory.
func heapGuard(stderr io.Writer) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for range time.Tick(200 * time.Millisecond) {
		metrics.Read(sample)
		if sample[0].Value.Uint64() > heapLimit {
			fmt.Fprintf(stderr, "perfbench: heap passed %d bytes; abandoning the run\n", heapLimit)
			os.Exit(1)
		}
	}
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func nsToMS(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
