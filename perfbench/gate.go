package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// manifestMetric is one metric entry of BENCHMARK.json.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestFile struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(path string) (*manifestFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifestFile
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readResults loads the result line (the last line) of every .txt file in
// dir.
func readResults(dir string) ([]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []result
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		var last string
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				last = line
			}
		}
		_ = fh.Close()
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			return nil, fmt.Errorf("%s: no result line: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", dir)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1) // 1-based
		j := int(math.Floor(pos))
		delta := pos - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func values(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// worsening is how much head's median is worse than base's, as a share of
// base's median (negative when it improved).
func worsening(mm manifestMetric, base, head float64) float64 {
	if base == 0 {
		if head == base {
			return 0
		}
		return math.Inf(1)
	}
	d := (head - base) / math.Abs(base)
	if mm.Better == "higher" {
		d = -d
	}
	return d
}

// compare applies the gate to two sets of results of one workload: head is
// rejected when any end-to-end median is worse than base's by more than
// the metric's bound, when any head run is incorrect, or when head lost
// operations where every base run lost none.
func compare(mf *manifestFile, base, head []result) []string {
	var why []string
	for _, mm := range mf.EndToEnd {
		b, h := values(base, mm.Name), values(head, mm.Name)
		if len(b) == 0 || len(h) == 0 {
			why = append(why, mm.Name+": missing")
			continue
		}
		_, mb, _ := quartiles(b)
		_, mh, _ := quartiles(h)
		if w := worsening(mm, mb, mh); w > mm.Bound {
			why = append(why, fmt.Sprintf("%s: median %.6g -> %.6g is %.1f%% worse (bound %.1f%%)",
				mm.Name, mb, mh, 100*w, 100*mm.Bound))
		}
	}
	baseFailed := int64(0)
	for _, r := range base {
		baseFailed += r.Failed
	}
	for i, r := range head {
		if !r.Correct {
			why = append(why, fmt.Sprintf("run %d: incorrect (extra notifications)", i))
		}
		if baseFailed == 0 && r.Failed > 0 {
			why = append(why, fmt.Sprintf("run %d: %d failed operations where the base had none", i, r.Failed))
		}
	}
	return why
}

// steadyReport prints, per workload directory under root (one result file
// per seed), each end-to-end metric's median, quartiles and spread against
// its bound. With several comma-separated roots (repeated sets of the same
// seeds) it also applies the gate between the first set and each later one.
// It exits 1 when a spread (setup_s excepted) exceeds its bound or a later
// set fails the gate.
func steadyReport(roots, manifest string, stdout, stderr io.Writer) int {
	mf, err := readManifest(manifest)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	sets := strings.Split(roots, ",")
	bad := false
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(sets[0], w.name)); err != nil {
			continue // workload not run in this set
		}
		var all [][]result
		for _, root := range sets {
			rs, err := readResults(filepath.Join(root, w.name))
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 2
			}
			all = append(all, rs)
		}
		for si, rs := range all {
			fmt.Fprintf(stdout, "%s (set %s, %d runs)\n", w.name, sets[si], len(rs))
			for _, mm := range mf.EndToEnd {
				q1, med, q3 := quartiles(values(rs, mm.Name))
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / math.Abs(med)
				}
				flag := "ok"
				switch {
				case mm.Name == "setup_s":
					flag = "exempt"
				case spread > mm.Bound:
					flag, bad = "OVER BOUND", true
				case spread > mm.Bound/3:
					flag = "over a third of bound"
				}
				fmt.Fprintf(stdout, "  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% bound %5.1f%%  %s\n",
					mm.Name, med, q1, q3, 100*spread, 100*mm.Bound, flag)
			}
			if si > 0 {
				if why := compare(mf, all[0], rs); len(why) > 0 {
					bad = true
					for _, y := range why {
						fmt.Fprintf(stdout, "  GATE: %s\n", y)
					}
				} else {
					fmt.Fprintf(stdout, "  gate vs set %s: pass\n", sets[0])
				}
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// gateSelfTest proves on recorded result data that the gate accepts the
// data against itself and rejects an injected regression of every
// end-to-end metric and an injected notification loss.
func gateSelfTest(root, manifest string, stdout, stderr io.Writer) int {
	mf, err := readManifest(manifest)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ok := true
	check := func(w, what string, why []string, wantReject bool) {
		pass := (len(why) > 0) == wantReject
		verdict := "accepted"
		if len(why) > 0 {
			verdict = "rejected: " + why[0]
		}
		status := "PASS"
		if !pass {
			status, ok = "FAIL", false
		}
		fmt.Fprintf(stdout, "%s %s %s: %s\n", status, w, what, verdict)
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(root, w.name)); err != nil {
			continue // workload not run in this set
		}
		base, err := readResults(filepath.Join(root, w.name))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		check(w.name, "unchanged", compare(mf, base, base), false)
		for _, mm := range mf.EndToEnd {
			// Worsen every run by twice the bound.
			head := cloneResults(base)
			for i := range head {
				m := head[i].Metrics[mm.Name]
				if mm.Better == "higher" {
					m.Value *= 1 - 2*mm.Bound
				} else {
					m.Value *= 1 + 2*mm.Bound
				}
				head[i].Metrics[mm.Name] = m
			}
			check(w.name, "regressed "+mm.Name, compare(mf, base, head), true)
		}
		// Lose notifications in every run: twice the ops_ok_frac bound's
		// share of everything attempted, and at least one.
		var okBound float64
		for _, mm := range mf.EndToEnd {
			if mm.Name == "ops_ok_frac" {
				okBound = mm.Bound
			}
		}
		head := cloneResults(base)
		for i := range head {
			lost := 1 + int64(2*okBound*float64(head[i].Attempted))
			head[i].Failed += lost
			m := head[i].Metrics["ops_ok_frac"]
			m.Value -= float64(lost) / float64(head[i].Attempted)
			head[i].Metrics["ops_ok_frac"] = m
		}
		check(w.name, "lost notifications", compare(mf, base, head), true)
	}
	if !ok {
		return 1
	}
	return 0
}

func cloneResults(rs []result) []result {
	out := make([]result, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Metrics = make(map[string]metric, len(r.Metrics))
		for k, v := range r.Metrics {
			out[i].Metrics[k] = v
		}
	}
	return out
}
