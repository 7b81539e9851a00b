package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"genas"
	"genas/internal/adaptive"
	"genas/internal/agg"
	"genas/internal/core"
	"genas/internal/hook"
	"genas/internal/predicate"
	"genas/internal/tree"
)

// span is one timed call the benchmark made into a layer. Times are ns on
// the run's clock; parent indexes the enclosing span (-1 for none) and
// event is the event number shared by every span of one event (-1 for
// calls that belong to no event).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Event  int64  `json:"event"`
}

// spans keeps a traced run's spans in memory until the run ends.
type spans struct {
	mu   sync.Mutex
	list []span
}

func (s *spans) add(name string, start, end int64, parent int32, event int64) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{name, start, end, parent, event})
	return int32(len(s.list) - 1)
}

func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// rotation replays the churn order of the runner (oldest live out,
// longest-parked in) on pool indices, for the rungs below the broker.
type rotation struct{ live, parked []int32 }

func newRotation(w *workload, pool int) *rotation {
	r := &rotation{}
	for i := 0; i < pool; i++ {
		if i < w.live {
			r.live = append(r.live, int32(i))
		} else {
			r.parked = append(r.parked, int32(i))
		}
	}
	return r
}

func (r *rotation) step() (out, in int32) {
	out, r.live = r.live[0], r.live[1:]
	r.parked = append(r.parked, out)
	in, r.parked = r.parked[0], r.parked[1:]
	r.live = append(r.live, in)
	return out, in
}

// rung is one measured rung of the ladder.
type rung struct {
	name   string
	durs   []int64 // per event, ns
	allocs float64 // heap allocations per event
}

func (g *rung) mean() float64 {
	var s float64
	for _, d := range g.durs {
		s += float64(d)
	}
	return s / float64(len(g.durs))
}

func (g *rung) pct(q float64) float64 {
	xs := make([]float64, len(g.durs))
	for i, d := range g.durs {
		xs[i] = float64(d)
	}
	sort.Float64s(xs)
	return quantile(xs, q)
}

// ladder replays the same stretch of the plan through one layer after the
// other. Every rung sees the same events and, below the tree, the same
// churn steps at the same positions.
type ladder struct {
	w     *workload
	p     *plan
	n     int // events per rung
	every int // churn step every this many events (0: none)
	sp    *spans
	clock time.Time
	cfg   core.Config
}

func (l *ladder) now() int64 { return int64(time.Since(l.clock)) }

// event returns the vector of ladder event i: the stream right after the
// warm-up, as the runner-based rungs publish it.
func (l *ladder) event(i int) []float64 {
	return l.p.events[(l.p.warm+1+i)%len(l.p.events)]
}

// loop runs n events through do, a churn step through churn before every
// l.every-th event, and times each event as a span under the rung's span.
// Churn is excluded from the per-event times and allocation counts.
func (l *ladder) loop(name string, do func(i int), churn func()) *rung {
	g := &rung{name: name, durs: make([]int64, 0, l.n)}
	start := l.now()
	parent := l.sp.add("rung:"+name, start, start, -1, -1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var churnMallocs uint64
	for i := 0; i < l.n; i++ {
		if churn != nil && l.every > 0 && i > 0 && i%l.every == 0 {
			runtime.ReadMemStats(&ms)
			m0 := ms.Mallocs
			churn()
			runtime.ReadMemStats(&ms)
			churnMallocs += ms.Mallocs - m0
		}
		c0 := l.now()
		do(i)
		c1 := l.now()
		g.durs = append(g.durs, c1-c0)
		l.sp.add("event", c0, c1, parent, int64(i))
	}
	runtime.ReadMemStats(&ms)
	g.allocs = float64(ms.Mallocs-mallocs-churnMallocs) / float64(l.n)
	l.sp.mu.Lock()
	l.sp.list[parent].End = l.now()
	l.sp.mu.Unlock()
	return g
}

// profile gives pool profile pi a ladder-unique id.
func (l *ladder) profile(pi int32, seq *int) *predicate.Profile {
	src := l.p.pool[pi]
	*seq++
	return &predicate.Profile{ID: predicate.ID(fmt.Sprintf("l%d", *seq)), Preds: src.Preds, Priority: src.Priority}
}

// layerRun holds what the traced run measured, keyed by metric name.
type layerRun map[string]float64

// treeRung matches against a tree built once over the live corpus. The tree
// is static: churn starts at the core rung.
func (l *ladder) treeRung(out layerRun) *rung {
	corpus := l.p.pool[:l.w.live]
	c0 := l.now()
	t, err := tree.Build(l.p.sch, corpus, tree.WithSearch(l.cfg.Search))
	c1 := l.now()
	l.sp.add("tree.Build", c0, c1, -1, -1)
	if err != nil {
		panic(err) // the corpus is the plan's own; a build error is a bug
	}
	out["tree.build_ms"] = float64(c1-c0) / 1e6
	ops := 0
	g := l.loop("tree", func(i int) {
		_, n := t.Match(l.event(i))
		ops += n
	}, nil)
	out["tree.ops_per_event"] = float64(ops) / float64(l.n)
	return g
}

// aggRung freezes a covering poset of the live corpus and expands the
// tree's matched roots through it, as the aggregated engine does.
func (l *ladder) aggRung(out layerRun) {
	po := agg.NewPoset(l.p.sch)
	for i := 0; i < l.w.live; i++ {
		po.Add(l.p.pool[i])
	}
	po.Compact()
	roots := po.RootList()
	corpus := make([]*predicate.Profile, len(roots))
	t2n := make([]int32, len(roots))
	for i, r := range roots {
		corpus[i], t2n[i] = r.Rep, r.Idx
	}
	t, err := tree.Build(l.p.sch, corpus, tree.WithSearch(l.cfg.Search))
	if err != nil {
		panic(err)
	}
	snap := po.Freeze()
	st := po.Stats()
	out["agg.canonical_nodes"] = float64(st.Nodes)
	out["agg.roots"] = float64(st.Roots)
	out["agg.poset_depth"] = float64(st.MaxDepth)
	var expandNS int64
	ops := 0
	var ids []predicate.ID
	l.loop("agg", func(i int) {
		vals := l.event(i)
		matched, _ := t.Match(vals)
		c0 := l.now()
		var n int
		ids, n = snap.Expand(vals, matched, t2n, t, ids[:0])
		expandNS += l.now() - c0
		ops += n
	}, nil)
	out["agg.expand_ns_per_event"] = float64(expandNS) / float64(l.n)
	out["agg.expand_ops_per_event"] = float64(ops) / float64(l.n)
}

// coreEngine registers the live corpus on a fresh engine, timing each call,
// and forces the first build with one match.
func (l *ladder) coreEngine(seq *int) (*core.Engine, map[int32]predicate.ID, []int64) {
	e := core.NewEngine(l.p.sch, l.cfg)
	ids := make(map[int32]predicate.ID)
	var reg []int64
	for i := 0; i < l.w.live; i++ {
		pr := l.profile(int32(i), seq)
		c0 := l.now()
		if err := e.AddProfile(pr); err != nil {
			panic(err)
		}
		reg = append(reg, l.now()-c0)
		ids[int32(i)] = pr.ID
	}
	c0 := l.now()
	if _, _, err := e.Match(l.event(0)); err != nil {
		panic(err)
	}
	l.sp.add("core.build", c0, l.now(), -1, -1)
	return e, ids, reg
}

// coreRung matches through core.Engine and replays churn on it.
func (l *ladder) coreRung(out layerRun) *rung {
	seq := 0
	e, ids, reg := l.coreEngine(&seq)
	rot := newRotation(l.w, len(l.p.pool))
	var churn []int64
	var callMax int64
	timed := func(name string, f func() error) {
		c0 := l.now()
		if err := f(); err != nil {
			panic(err)
		}
		c1 := l.now()
		l.sp.add(name, c0, c1, -1, -1)
		churn = append(churn, c1-c0)
		callMax = max(callMax, c1-c0)
	}
	g := l.loop("core", func(i int) {
		c0 := l.now()
		if _, _, err := e.Match(l.event(i)); err != nil {
			panic(err)
		}
		callMax = max(callMax, l.now()-c0)
	}, func() {
		o, in := rot.step()
		timed("core.RemoveProfile", func() error { return e.RemoveProfile(ids[o]) })
		delete(ids, o)
		pr := l.profile(in, &seq)
		ids[in] = pr.ID
		timed("core.AddProfile", func() error { return e.AddProfile(pr) })
	})
	if len(churn) == 0 {
		churn = reg // static corpus: the registration calls are its churn
	}
	out["core.churn_us_p99"] = quantile(nsToMS(churn), 0.99) * 1e3
	out["core.call_ms_max"] = float64(callMax) / 1e6
	return g
}

// adaptiveRung feeds every event to an adaptive.Adaptor over a core engine
// (the broker's order: observe, then match) and times the restructures.
func (l *ladder) adaptiveRung(out layerRun) {
	seq := 0
	e, _, _ := l.coreEngine(&seq)
	ad, err := adaptive.New(e, adaptive.Policy{Window: 1024, Threshold: 0.1})
	if err != nil {
		panic(err)
	}
	var restructMax int64
	l.loop("adaptive", func(i int) {
		vals := l.event(i)
		c0 := l.now()
		if ad.Observe(vals) {
			d := l.now() - c0
			l.sp.add("adaptive.restructure", c0, c0+d, -1, int64(i))
			restructMax = max(restructMax, d)
		}
		if _, _, err := e.Match(vals); err != nil {
			panic(err)
		}
	}, nil)
	out["adaptive.restructures"] = float64(ad.Restructures())
	out["adaptive.restructure_ms_max"] = float64(restructMax) / 1e6
}

// deployRung replays the ladder through a deployment driven by a runner, one
// event at a time: publish, then wait until every expected notification
// has arrived.
func (l *ladder) deployRung(name, deploy string) (*rung, *runner, error) {
	lw := *l.w
	lw.deploy, lw.adaptive = deploy, false
	r, err := newRunner(&lw, l.p)
	if err != nil {
		return nil, nil, err
	}
	if _, err := r.setup(); err != nil {
		return nil, nil, err
	}
	r.recordAcks = true
	g := l.loop(name, func(int) {
		r.publish(r.t.now(), false)
		r.t.drain(lossTimeout)
	}, r.churnSync)
	return g, r, nil
}

// engineConfig is the core configuration the workload's service runs with.
func engineConfig(w *workload) (core.Config, error) {
	lw := *w
	lw.adaptive = false
	sch, err := genas.ParseSchema(stdSchema)
	if err != nil {
		return core.Config{}, err
	}
	svc, err := genas.NewService(sch, serviceOptions(&lw)...)
	if err != nil {
		return core.Config{}, err
	}
	defer svc.Close()
	return hook.BrokerOf(svc).Engine().Config(), nil
}

// traceRun is the separate traced run: the deployment once more with spans
// on (and a closed-loop stretch with them off, for the tracing overhead),
// then the layer ladder. It reports every per-layer metric.
func traceRun(w *workload, p *plan, seconds float64, seed int64, dir string, out io.Writer) (*result, error) {
	sp := &spans{}
	lr := layerRun{}
	cfg, err := engineConfig(w)
	if err != nil {
		return nil, err
	}

	// The deployment, traced.
	r, err := newRunner(w, p)
	if err != nil {
		return nil, err
	}
	if _, err := r.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.startChurn()
	r.sp = sp
	dur := time.Duration(seconds / float64(2*w.rounds) * float64(time.Second))
	r.openLoop(dur)
	r.t.drain(lossTimeout)
	half := dur / 2
	r.sp = nil
	plainDone, plainEl := r.closedLoop(half)
	r.sp = sp
	tracedDone, tracedEl := r.closedLoop(half)
	r.stopChurn()
	r.t.drain(lossTimeout)
	ls := r.d.stats()
	plainEPS := float64(plainDone) / plainEl.Seconds()
	lr["trace.overhead_frac"] = 1 - (float64(tracedDone)/tracedEl.Seconds())/plainEPS
	lr["gen.lag_ms_p99"] = quantile(nsToMS(r.genLag), 0.99)
	lr["broker.dropped"] = float64(ls.dropped)
	lr["broker.queue_depth_max"] = float64(r.t.maxQueueDepth())
	deployLost := r.t.c.lost.Load()
	extra := r.t.c.extra.Load()
	attempted := r.t.c.published.Load() + r.t.c.churnOps.Load() + r.t.c.expected.Load()
	failed := r.t.c.publishErr.Load() + r.t.c.churnErr.Load() + deployLost + r.t.c.duplicate.Load() + extra
	r.close()

	// The ladder.
	l := &ladder{w: w, p: p, n: w.ladderEvents, every: w.ladderChurnEvery, sp: sp, clock: r.t.epoch, cfg: cfg}
	tr := l.treeRung(lr)
	l.aggRung(lr)
	cr := l.coreRung(lr)
	l.adaptiveRung(lr)

	var ladderFailed int64
	rungRun := func(name, deploy string, read func(g *rung, rr *runner)) (*rung, error) {
		g, rr, err := l.deployRung(name, deploy)
		if err != nil {
			return nil, fmt.Errorf("%s rung: %w", name, err)
		}
		read(g, rr)
		ladderFailed += rr.t.c.lost.Load() + rr.t.c.duplicate.Load() + rr.t.c.extra.Load() + rr.t.c.churnErr.Load()
		extra += rr.t.c.extra.Load()
		rr.close()
		return g, nil
	}
	br, err := rungRun("broker", deployEmbedded, func(_ *rung, rr *runner) {
		lr["broker.notifications_per_event"] = float64(rr.d.stats().delivered) / float64(rr.t.c.published.Load())
	})
	if err != nil {
		return nil, err
	}
	lr["tree.match_ns_per_event"] = tr.mean()
	lr["core.match_ns_per_event"] = cr.mean() - tr.mean()
	lr["core.allocs_per_event"] = cr.allocs - tr.allocs
	lr["broker.deliver_ns_per_event"] = br.mean() - cr.mean()
	lr["broker.allocs_per_event"] = br.allocs - cr.allocs
	wr, err := rungRun("wire", deployDaemon, func(_ *rung, rr *runner) {
		acks := nsToMS(rr.acks)
		lr["wire.ack_us_p50"] = quantile(acks, 0.5) * 1e3
		lr["wire.ack_us_p99"] = quantile(acks, 0.99) * 1e3
		lr["wire.bytes_per_event"] = rr.d.stats().wireBytesPerEvent
	})
	if err != nil {
		return nil, err
	}
	lr["wire.self_us_p50"] = (wr.pct(0.5) - br.pct(0.5)) / 1e3
	lr["wire.allocs_per_event"] = wr.allocs - br.allocs
	rungs := []*rung{tr, cr, br, wr}
	// The chain rung runs only where federation is on the workload's path;
	// elsewhere its metrics report 0.
	for _, name := range []string{"federation.forwarded_per_event", "federation.filtered_frac",
		"federation.route_converge_ms", "federation.lost", "federation.self_us_p50", "federation.self_us_p99"} {
		lr[name] = 0
	}
	if w.deploy == deployChain {
		fr, err := rungRun("chain", deployChain, func(_ *rung, rr *runner) {
			fs := rr.d.stats()
			lr["federation.forwarded_per_event"] = float64(fs.forwarded) / float64(rr.t.c.published.Load())
			lr["federation.filtered_frac"] = float64(fs.headFilt) / float64(fs.headFilt+fs.headForward)
			lr["federation.route_converge_ms"] = float64(rr.converge) / 1e6
			lr["federation.lost"] = float64(rr.t.c.lost.Load() + deployLost)
		})
		if err != nil {
			return nil, err
		}
		lr["federation.self_us_p50"] = (fr.pct(0.5) - wr.pct(0.5)) / 1e3
		lr["federation.self_us_p99"] = (fr.pct(0.99) - wr.pct(0.99)) / 1e3
		rungs = append(rungs, fr)
	}

	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := sp.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "traced deployment: %d failed of %d attempted (lost %d, extra %d); ladder: %d events per rung, %d failed\n",
		failed, attempted, deployLost, extra, l.n, ladderFailed)
	for _, g := range rungs {
		fmt.Fprintf(out, "rung %-7s mean %10.1f ns  p50 %10.1f ns  p99 %10.1f ns  allocs/event %8.2f\n",
			g.name, g.mean(), g.pct(0.5), g.pct(0.99), g.allocs)
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(sp.list), path)

	res := &result{
		Correct:   extra == 0,
		Attempted: attempted,
		Failed:    failed + ladderFailed,
		Metrics:   map[string]metric{},
	}
	for _, lm := range perLayer {
		v, ok := lr[lm.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		res.Metrics[lm.name] = metric{v, lm.unit}
	}
	printMetrics(out, res.Metrics)
	return res, nil
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json's
// order.
var perLayer = []struct{ name, unit string }{
	{"tree.ops_per_event", "ops"},
	{"tree.match_ns_per_event", "ns"},
	{"tree.build_ms", "ms"},
	{"core.match_ns_per_event", "ns"},
	{"core.churn_us_p99", "us"},
	{"core.call_ms_max", "ms"},
	{"core.allocs_per_event", "allocs"},
	{"agg.expand_ns_per_event", "ns"},
	{"agg.expand_ops_per_event", "ops"},
	{"agg.canonical_nodes", "count"},
	{"agg.roots", "count"},
	{"agg.poset_depth", "count"},
	{"broker.deliver_ns_per_event", "ns"},
	{"broker.notifications_per_event", "count"},
	{"broker.dropped", "count"},
	{"broker.queue_depth_max", "count"},
	{"broker.allocs_per_event", "allocs"},
	{"adaptive.restructures", "count"},
	{"adaptive.restructure_ms_max", "ms"},
	{"wire.ack_us_p50", "us"},
	{"wire.ack_us_p99", "us"},
	{"wire.self_us_p50", "us"},
	{"wire.bytes_per_event", "B"},
	{"wire.allocs_per_event", "allocs"},
	{"federation.self_us_p50", "us"},
	{"federation.self_us_p99", "us"},
	{"federation.forwarded_per_event", "count"},
	{"federation.filtered_frac", "ratio"},
	{"federation.route_converge_ms", "ms"},
	{"federation.lost", "count"},
	{"gen.lag_ms_p99", "ms"},
	{"trace.overhead_frac", "ratio"},
}
