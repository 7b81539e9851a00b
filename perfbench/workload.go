package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"

	"genas/internal/loadgen"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// stdSchema is the environmental-monitoring schema every workload shares
// (the loadgen catalog's schema): one attribute per domain kind.
const stdSchema = "temperature=numeric[-30,50]; humidity=numeric[0,100]; floor=int[0,12]; severity=cat{low,mid,high}"

// corpusSeed draws every workload's profile corpus. The corpus is fixed
// while --seed draws the event stream: the cost of building and updating a
// flat index depends on the particular corpus far more than on the stream
// (build times of different random 280-profile corpora differ by a third),
// so a seed-dependent corpus would make each figure depend mostly on which
// seeds ran.
const corpusSeed = 1

// planEvents is the length of every workload's event plan. A run that
// publishes more events cycles through the plan; expected notification sets
// are recomputed against the corpus live at each publish, so cycling is
// exact.
const planEvents = 32768

// Deployment kinds.
const (
	deployDaemon   = "daemon"
	deployChain    = "chain"
	deployEmbedded = "embedded"
)

// workload fixes everything one named benchmark workload does except the
// seed. Rates are events per second; every constant here is part of the
// benchmark definition and must not change between the commits it compares.
type workload struct {
	name   string
	deploy string
	// live is the number of subscriptions registered at any time; parked
	// profiles wait in the churn rotation and are not subscribed at start.
	live, parked int
	// scenario supplies the event and profile shapes for loadgen.Build.
	scenario loadgen.Scenario
	// adaptive and measure configure the service the way the matching
	// genasd flags would.
	adaptive bool
	measure  string
	// openRate is the open-loop publish rate, below half the closed-loop
	// capacity measured when the benchmark was defined (see the package
	// doc).
	openRate float64
	// window is the closed-loop in-flight window (events published but not
	// yet complete).
	window int
	// churnEvery is the number of open-loop events between subscription
	// rotation steps (one unsubscribe plus one subscribe each); 0 means a
	// static corpus.
	churnEvery int
	// rounds is the number of set-up deployments a run measures, each for
	// an equal share of --seconds; figures are medians over the rounds.
	rounds int
	// ladderEvents and ladderChurnEvery size the traced run's layer ladder.
	ladderEvents, ladderChurnEvery int
}

// workloads is the benchmark's workload catalog, in run order.
var workloads = []*workload{
	{
		name: "daemon-adaptive", deploy: deployDaemon,
		live: 280, parked: 40,
		scenario: loadgen.Scenario{
			EventShapes: map[string]string{"temperature": "d39", "humidity": "d40", "floor": "d22"},
		},
		adaptive: true, measure: "event",
		openRate: 5000, window: 32, churnEvery: 500, rounds: 1,
		ladderEvents: 2000, ladderChurnEvery: 8,
	},
	{
		name: "chain-3hop", deploy: deployChain,
		live: 300,
		// Profiles sit high on temperature, events mostly low: the head's
		// link filter rejects most events (about seven in eight).
		scenario: loadgen.Scenario{
			EventShapes:   map[string]string{"temperature": "d4", "humidity": "d21"},
			ProfileShapes: map[string]string{"temperature": "d14"},
			ConstrainP:    0.9,
		},
		openRate: 15000, window: 32, rounds: 5,
		ladderEvents: 2000,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// plan is one workload's seeded input: the event stream, the profile pool
// (the first w.live start subscribed, the rest parked for churn) and the
// oracle's match lists.
type plan struct {
	w      *workload
	sch    *schema.Schema
	events [][]float64
	pool   []*predicate.Profile
	// matchOff/matchIdx hold, per plan event, the pool indices whose
	// profile matches it (brute force over predicate.Profile.Matches):
	// event i matches pool[matchIdx[matchOff[i]:matchOff[i+1]]]. Which of
	// them are expected to be notified depends on the corpus live at
	// publish time.
	matchOff []int32
	matchIdx []int32
	// warm is the plan index of the untimed warm-up event: the first event
	// the initial corpus is notified of.
	warm int
}

// buildPlan draws the workload's event stream from seed and its corpus from
// corpusSeed, both with loadgen.Build. The same seed gives the same plan,
// byte for byte.
func buildPlan(w *workload, seed int64) (*plan, error) {
	sc := w.scenario
	sc.Name = w.name
	sc.Driver = "service"
	sc.Schema = stdSchema
	stream, corpus := sc, sc
	stream.Seed, stream.Events, stream.Profiles = seed, planEvents, 1
	corpus.Seed, corpus.Events, corpus.Profiles = corpusSeed, 1, w.live+w.parked
	ev, err := loadgen.Build(stream)
	if err != nil {
		return nil, err
	}
	cp, err := loadgen.Build(corpus)
	if err != nil {
		return nil, err
	}
	p := &plan{w: w, sch: ev.Schema, events: ev.Events, pool: cp.Initial}
	p.computeOracle()
	p.warm = -1
	for i := range p.events {
		for _, pi := range p.matches(i) {
			if int(pi) < w.live {
				p.warm = i
				break
			}
		}
		if p.warm >= 0 {
			break
		}
	}
	if p.warm < 0 {
		return nil, fmt.Errorf("%s seed %d: no plan event matches the initial corpus", w.name, seed)
	}
	return p, nil
}

// matches returns the pool indices whose profile matches plan event i.
func (p *plan) matches(i int) []int32 {
	return p.matchIdx[p.matchOff[i]:p.matchOff[i+1]]
}

// computeOracle fills the match lists by brute force. Pool profiles that
// share one predicate structure (cluster copies) are evaluated once.
func (p *plan) computeOracle() {
	groups := map[string][]int32{}
	var reps []*predicate.Profile
	var members [][]int32
	for i, pr := range p.pool {
		key := pr.Render(p.sch)
		if _, ok := groups[key]; !ok {
			reps = append(reps, pr)
			members = append(members, nil)
			groups[key] = nil
		}
		groups[key] = append(groups[key], int32(i))
	}
	for i, pr := range reps {
		members[i] = groups[pr.Render(p.sch)]
	}
	// Evaluate in parallel chunks, then concatenate in plan order.
	workers := runtime.GOMAXPROCS(0)
	parts := make([][][]int32, workers)
	var wg sync.WaitGroup
	chunk := (len(p.events) + workers - 1) / workers
	for wi := 0; wi < workers; wi++ {
		lo, hi := wi*chunk, min((wi+1)*chunk, len(p.events))
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			out := make([][]int32, hi-lo)
			for e := lo; e < hi; e++ {
				var m []int32
				for gi, rep := range reps {
					if rep.Matches(p.events[e]) {
						m = append(m, members[gi]...)
					}
				}
				out[e-lo] = m
			}
			parts[wi] = out
		}(wi, lo, hi)
	}
	wg.Wait()
	p.matchOff = make([]int32, 0, len(p.events)+1)
	p.matchOff = append(p.matchOff, 0)
	for _, part := range parts {
		for _, m := range part {
			p.matchIdx = append(p.matchIdx, m...)
			p.matchOff = append(p.matchOff, int32(len(p.matchIdx)))
		}
	}
}

// fingerprint hashes the plan (events, corpus, oracle) so two runs of one
// seed can be checked for doing the same work.
func (p *plan) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, ev := range p.events {
		for _, v := range ev {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, pr := range p.pool {
		h.Write([]byte(pr.Render(p.sch)))
	}
	for _, x := range p.matchIdx {
		binary.LittleEndian.PutUint32(b[:4], uint32(x))
		h.Write(b[:4])
	}
	return h.Sum64()
}

// initialExpected counts the notifications one pass over the plan would
// expect against the initial corpus (part of the printed fingerprint).
func (p *plan) initialExpected() int {
	n := 0
	for _, pi := range p.matchIdx {
		if int(pi) < p.w.live {
			n++
		}
	}
	return n
}
