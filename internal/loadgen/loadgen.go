// Package loadgen synthesizes benchmark workloads from the distribution
// catalog and drives any filtering surface of the system through them.
//
// The paper's whole argument is distribution-sensitivity: filter cost
// depends on the *shape* of the event stream, not only its volume. This
// package makes that shape a first-class, declarative input. A Scenario is
// a data value — schema, per-attribute event shapes from internal/dist's
// catalog (d1…d42 and the named family), optional correlated mixtures
// (NewCorrelated), hot-key skew, subscription churn schedules and
// burst/steady arrival patterns — and Build turns it into a fully
// deterministic Plan: the exact event stream, the initial profile
// population and the timed churn steps. The same seed always yields a
// byte-identical plan, so runs are reproducible and comparable.
//
// A Plan runs against a Driver: adapters exist for the raw core.Filter
// engines (single-tree and sharded), the full genas.Service, a TCP wire
// endpoint (in-process genasd-equivalent server) and a multi-hop wire-level
// federation. Run measures throughput, p50/p99 publish latency, matches/sec
// and allocations per event, and emits a stable JSON Report that
// cmd/genasbench records and compares across commits (the CI perf gate).
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// Errors reported by scenario compilation.
var (
	// ErrBadScenario reports an invalid scenario specification.
	ErrBadScenario = errors.New("loadgen: invalid scenario")
	// ErrUnknownScenario reports an unknown scenario or suite name.
	ErrUnknownScenario = errors.New("loadgen: unknown scenario")
)

// Scenario declares one workload: sizes, stream shape and target driver.
// Scenarios are plain data (JSON-serializable), so new workloads are one
// struct literal away.
type Scenario struct {
	// Name identifies the scenario in reports and baselines.
	Name string `json:"name"`
	// Driver selects the surface under load: "engine" (single-tree
	// core.Engine), "sharded" (core.Sharded), "service" (full
	// genas.Service), "wire" (in-process TCP daemon spoken to through the
	// wire client) or "federation" (a chain of wire-level federated
	// daemons; see Hops).
	Driver string `json:"driver"`
	// Schema is the attribute schema spec, e.g.
	// "temperature=numeric[-30,50]; humidity=numeric[0,100]".
	Schema string `json:"schema"`
	// Seed feeds every random choice; same seed, same plan, byte for byte.
	Seed int64 `json:"seed"`
	// Events is the stream length, Profiles the initial population size.
	Events   int `json:"events"`
	Profiles int `json:"profiles"`
	// Batch > 1 publishes in bursts of that size through the batch path;
	// 0 or 1 is a steady per-event stream.
	Batch int `json:"batch,omitempty"`
	// EventShapes maps attribute name → catalog shape name for the event
	// stream ("equal", "gauss", "d17", …). Missing attributes are uniform.
	// Ignored when Correlated is set.
	EventShapes map[string]string `json:"event_shapes,omitempty"`
	// ProfileShapes maps attribute name → catalog shape for the *centers*
	// of generated profile ranges. Missing attributes are uniform.
	ProfileShapes map[string]string `json:"profile_shapes,omitempty"`
	// ProfileWidth is each range predicate's width as a fraction of the
	// attribute domain (default 0.1). Widths jitter ±50% around it.
	ProfileWidth float64 `json:"profile_width,omitempty"`
	// ConstrainP is the probability a profile constrains an attribute
	// (default 0.7); at least one attribute is always constrained.
	ConstrainP float64 `json:"constrain_p,omitempty"`
	// Clusters, when set, draws profiles from a small Zipf-weighted pool of
	// structural templates instead of generating each one independently —
	// the many-subscribers-few-shapes population canonical aggregation
	// exists for.
	Clusters *ClusterSpec `json:"clusters,omitempty"`
	// Correlated, when set, samples whole event vectors from a weighted
	// mixture of per-attribute product components — the standard
	// counterexample to the independence assumption.
	Correlated *CorrelatedSpec `json:"correlated,omitempty"`
	// HotKeys, when set, redirects a fraction of one attribute's values
	// onto a small Zipf-weighted hot set.
	HotKeys *HotKeySpec `json:"hot_keys,omitempty"`
	// Churn, when set, interleaves subscribe/unsubscribe pairs with the
	// stream.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Shards configures the sharded/service drivers (0 = GOMAXPROCS).
	Shards int `json:"shards,omitempty"`
	// Adaptive enables adaptive restructuring on the service driver.
	Adaptive bool `json:"adaptive,omitempty"`
	// Hops is the federation chain's link count (default 3: four daemons).
	Hops int `json:"hops,omitempty"`
	// Proto pins the wire protocol of the wire and federation drivers: "v1"
	// (JSON lines), "v2" (binary frames) or "" (negotiate, which lands on v2
	// in-process). Other drivers ignore it.
	Proto string `json:"proto,omitempty"`
}

// CorrelatedSpec declares a mixture of product distributions: component k
// is drawn with probability Weights[k], then every attribute samples from
// Components[k]'s shape (one catalog name per schema attribute).
type CorrelatedSpec struct {
	Weights    []float64  `json:"weights"`
	Components [][]string `json:"components"`
}

// HotKeySpec concentrates part of one attribute's stream on K hot values
// spread over the domain, ranked by a Zipf law with exponent S (> 1).
type HotKeySpec struct {
	// Attr is the skewed attribute's name.
	Attr string `json:"attr"`
	// P is the probability an event's value is replaced by a hot key.
	P float64 `json:"p"`
	// K is the hot-set size, S the Zipf exponent (default 16 and 1.2).
	K int     `json:"k,omitempty"`
	S float64 `json:"s,omitempty"`
}

// ClusterSpec declares a Zipf-clustered profile population: Distinct
// structural templates are generated up front, each with Variants strictly
// narrower refinements. Every subscription then copies a template picked by
// a Zipf law with exponent S (> 1, default 1.1) — or, with probability
// RefineP, one of that template's refinements. Ids stay unique per
// subscription; only the predicate structure repeats, which is exactly what
// canonical aggregation interns.
type ClusterSpec struct {
	// Distinct is the template pool size.
	Distinct int `json:"distinct"`
	// S is the Zipf exponent ranking template popularity (default 1.1).
	S float64 `json:"s,omitempty"`
	// RefineP is the probability a subscription takes a refinement of its
	// template instead of the template itself (default 0).
	RefineP float64 `json:"refine_p,omitempty"`
	// Variants is the number of refinements generated per template
	// (default 0; required > 0 when RefineP > 0).
	Variants int `json:"variants,omitempty"`
}

// ChurnSpec schedules subscription churn: every Every events, Ops profiles
// unsubscribe (oldest first) and Ops freshly generated ones take their
// place, so the corpus size stays constant while its content drifts.
type ChurnSpec struct {
	Every int `json:"every"`
	Ops   int `json:"ops"`
}

// Plan is the fully materialized, deterministic realization of a Scenario:
// everything a driver consumes, with no randomness left. Frozen: a built
// plan is shared by drivers, oracles, and baseline comparisons — mutating
// one would silently desynchronize recorded benchmarks.
//
//genas:frozen
type Plan struct {
	// Scenario is the spec the plan was built from.
	Scenario Scenario
	// Schema is the parsed attribute schema.
	Schema *schema.Schema
	// Events is the event stream, positional in schema order.
	Events [][]float64
	// Initial is the profile population registered before the stream runs.
	Initial []*predicate.Profile
	// Churn lists the subscription churn steps, ordered by At.
	Churn []ChurnStep
}

// ChurnStep swaps part of the population immediately before event index At.
// Frozen alongside the Plan that carries it.
//
//genas:frozen
type ChurnStep struct {
	At     int
	Remove []predicate.ID
	Add    []*predicate.Profile
}

// ChurnOps counts the plan's total churn operations (an unsubscribe and a
// subscribe each count one).
func (p *Plan) ChurnOps() int {
	n := 0
	for _, st := range p.Churn {
		n += len(st.Remove) + len(st.Add)
	}
	return n
}

// compiled holds the resolved sampling machinery of one scenario.
type compiled struct {
	sch      *schema.Schema
	eventD   []dist.Dist // per-attribute marginals (independent mode)
	joint    dist.Dist   // correlated joint (zero when independent)
	profileD []dist.Dist // per-attribute range-center distributions
	hotAttr  int         // -1 without hot keys
	hotProb  float64
	hotVals  []float64
}

// compile validates the scenario and resolves every catalog reference.
func (sc *Scenario) compile() (*compiled, error) {
	if sc.Name == "" {
		return nil, fmt.Errorf("%w: missing name", ErrBadScenario)
	}
	if sc.Events <= 0 || sc.Profiles <= 0 {
		return nil, fmt.Errorf("%w %s: events and profiles must be positive", ErrBadScenario, sc.Name)
	}
	if sc.Batch < 0 {
		return nil, fmt.Errorf("%w %s: negative batch", ErrBadScenario, sc.Name)
	}
	if sc.Proto != "" && sc.Proto != "v1" && sc.Proto != "v2" {
		return nil, fmt.Errorf("%w %s: proto %q (want v1, v2 or empty)", ErrBadScenario, sc.Name, sc.Proto)
	}
	sch, err := schema.ParseSpec(sc.Schema)
	if err != nil {
		return nil, fmt.Errorf("%w %s: %v", ErrBadScenario, sc.Name, err)
	}
	c := &compiled{sch: sch, hotAttr: -1}
	if c.eventD, err = resolveShapes(sch, sc.EventShapes); err != nil {
		return nil, fmt.Errorf("%w %s: event shapes: %v", ErrBadScenario, sc.Name, err)
	}
	if c.profileD, err = resolveShapes(sch, sc.ProfileShapes); err != nil {
		return nil, fmt.Errorf("%w %s: profile shapes: %v", ErrBadScenario, sc.Name, err)
	}
	if sc.Correlated != nil {
		rows := make([][]dist.Dist, len(sc.Correlated.Components))
		for k, row := range sc.Correlated.Components {
			if len(row) != sch.N() {
				return nil, fmt.Errorf("%w %s: correlated component %d has %d shapes for %d attributes",
					ErrBadScenario, sc.Name, k, len(row), sch.N())
			}
			rows[k] = make([]dist.Dist, sch.N())
			for j, name := range row {
				sh, err := dist.ByName(name)
				if err != nil {
					return nil, fmt.Errorf("%w %s: %v", ErrBadScenario, sc.Name, err)
				}
				rows[k][j] = dist.New(sh, sch.At(j).Domain)
			}
		}
		joint, err := dist.NewCorrelated(sc.Correlated.Weights, rows)
		if err != nil {
			return nil, fmt.Errorf("%w %s: %v", ErrBadScenario, sc.Name, err)
		}
		c.joint = joint
	}
	if hk := sc.HotKeys; hk != nil {
		i, err := sch.Index(hk.Attr)
		if err != nil {
			return nil, fmt.Errorf("%w %s: hot keys: %v", ErrBadScenario, sc.Name, err)
		}
		if hk.P < 0 || hk.P > 1 {
			return nil, fmt.Errorf("%w %s: hot-key probability %g", ErrBadScenario, sc.Name, hk.P)
		}
		k := hk.K
		if k <= 0 {
			k = 16
		}
		c.hotAttr = i
		c.hotProb = hk.P
		c.hotVals = hotValues(sch.At(i).Domain, k)
	}
	if ch := sc.Churn; ch != nil {
		if ch.Every <= 0 || ch.Ops <= 0 {
			return nil, fmt.Errorf("%w %s: churn interval and ops must be positive", ErrBadScenario, sc.Name)
		}
	}
	if cl := sc.Clusters; cl != nil {
		if cl.Distinct <= 0 {
			return nil, fmt.Errorf("%w %s: clusters need a positive distinct count", ErrBadScenario, sc.Name)
		}
		if cl.RefineP < 0 || cl.RefineP > 1 {
			return nil, fmt.Errorf("%w %s: cluster refine probability %g", ErrBadScenario, sc.Name, cl.RefineP)
		}
		if cl.RefineP > 0 && cl.Variants <= 0 {
			return nil, fmt.Errorf("%w %s: refine probability without variants", ErrBadScenario, sc.Name)
		}
	}
	return c, nil
}

// resolveShapes binds each named shape to its attribute domain; attributes
// without an entry are uniform.
func resolveShapes(sch *schema.Schema, byAttr map[string]string) ([]dist.Dist, error) {
	ds := make([]dist.Dist, sch.N())
	for i := 0; i < sch.N(); i++ {
		ds[i] = dist.New(dist.UniformShape{}, sch.At(i).Domain)
	}
	// Resolve in sorted attribute order so error precedence is stable.
	names := make([]string, 0, len(byAttr))
	for name := range byAttr {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		i, err := sch.Index(name)
		if err != nil {
			return nil, err
		}
		sh, err := dist.ByName(byAttr[name])
		if err != nil {
			return nil, err
		}
		ds[i] = dist.New(sh, sch.At(i).Domain)
	}
	return ds, nil
}

// hotValues spreads k hot keys evenly over the domain (snapped to codes on
// integer and categorical domains), rank 0 first.
func hotValues(dom schema.Domain, k int) []float64 {
	vals := make([]float64, k)
	for r := 0; r < k; r++ {
		x := dom.Lo() + (float64(r)+0.5)/float64(k)*dom.Size()
		switch dom.Kind() {
		case schema.KindInteger, schema.KindCategorical:
			x = float64(int(x))
		}
		if x > dom.Hi() {
			x = dom.Hi()
		}
		vals[r] = x
	}
	return vals
}

// Build materializes the scenario into a deterministic plan. Two calls with
// the same scenario value produce byte-identical plans: a single seeded
// generator drives event sampling, hot-key substitution, profile synthesis
// and churn in a fixed order.
//
//genas:builder
func Build(sc Scenario) (*Plan, error) {
	c, err := sc.compile()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	var zipf *rand.Zipf
	if sc.HotKeys != nil {
		s := sc.HotKeys.S
		if s <= 1 {
			s = 1.2
		}
		zipf = rand.NewZipf(rng, s, 1, uint64(len(c.hotVals)-1))
	}

	p := &Plan{Scenario: sc, Schema: c.sch}
	p.Events = make([][]float64, sc.Events)
	for i := range p.Events {
		p.Events[i] = c.sampleEvent(rng, zipf)
	}

	gen := &profileGen{c: c, sc: sc}
	if sc.Clusters != nil {
		gen.seedClusters(rng)
	}
	p.Initial = make([]*predicate.Profile, sc.Profiles)
	for i := range p.Initial {
		p.Initial[i] = gen.next(rng)
	}

	if ch := sc.Churn; ch != nil {
		// The removal queue starts as the initial population, oldest first;
		// replacements join its tail so long runs churn through them too.
		alive := make([]predicate.ID, len(p.Initial))
		for i, pr := range p.Initial {
			alive[i] = pr.ID
		}
		for at := ch.Every; at < sc.Events; at += ch.Every {
			n := ch.Ops
			if n > len(alive) {
				n = len(alive)
			}
			st := ChurnStep{At: at, Remove: append([]predicate.ID(nil), alive[:n]...)}
			alive = alive[n:]
			for i := 0; i < n; i++ {
				fresh := gen.next(rng)
				st.Add = append(st.Add, fresh)
				alive = append(alive, fresh.ID)
			}
			p.Churn = append(p.Churn, st)
		}
	}
	return p, nil
}

// sampleEvent draws one positional event vector and applies hot-key skew.
func (c *compiled) sampleEvent(rng *rand.Rand, zipf *rand.Zipf) []float64 {
	var vals []float64
	if c.joint.Shape() != nil {
		vals = c.joint.SampleEvent(rng)
	} else {
		vals = make([]float64, c.sch.N())
		for i := range vals {
			vals[i] = c.eventD[i].Sample(rng)
		}
	}
	if c.hotAttr >= 0 && rng.Float64() < c.hotProb {
		vals[c.hotAttr] = c.hotVals[zipf.Uint64()]
	}
	return vals
}

// profileGen synthesizes the profile population: per attribute, a range
// predicate centered on a draw from the profile-shape distribution with a
// jittered width, constrained with probability ConstrainP. With Clusters
// set, generation instead copies structure from a pre-built template pool.
type profileGen struct {
	c   *compiled
	sc  Scenario
	seq int
	// templates and variants hold the cluster pool: variants[k] are strict
	// refinements of templates[k]. Empty without Clusters.
	templates []*predicate.Profile
	variants  [][]*predicate.Profile
	zipf      *rand.Zipf
}

// seedClusters builds the template pool and its refinements. Deterministic:
// driven entirely by the plan's single generator.
func (g *profileGen) seedClusters(rng *rand.Rand) {
	cl := g.sc.Clusters
	s := cl.S
	if s <= 1 {
		s = 1.1
	}
	g.templates = make([]*predicate.Profile, cl.Distinct)
	g.variants = make([][]*predicate.Profile, cl.Distinct)
	for k := range g.templates {
		g.templates[k] = g.fresh(rng)
		g.variants[k] = make([]*predicate.Profile, 0, cl.Variants)
		for v := 0; v < cl.Variants; v++ {
			if r := refineProfile(g.c.sch, g.templates[k], rng); r != nil {
				g.variants[k] = append(g.variants[k], r)
			}
		}
	}
	g.zipf = rand.NewZipf(rng, s, 1, uint64(cl.Distinct-1))
}

// refineProfile builds a strictly narrower copy of p: every constrained
// range shrinks inside its original bounds, so the template covers the
// refinement by construction. Returns nil when shrinking degenerates (point
// predicates on integer domains can have nothing inside them).
func refineProfile(sch *schema.Schema, p *predicate.Profile, rng *rand.Rand) *predicate.Profile {
	var preds []predicate.Predicate
	for i := 0; i < sch.N(); i++ {
		if !p.Constrains(i) {
			continue
		}
		dom := sch.At(i).Domain
		ivs := p.Pred(i).Intervals(dom)
		iv := ivs[rng.Intn(len(ivs))]
		w := iv.Hi - iv.Lo
		lo := iv.Lo + rng.Float64()*w/2
		hi := hiOf(lo, iv.Hi, rng)
		pr, err := predicate.NewRange(i, lo, hi)
		if err != nil {
			return nil
		}
		preds = append(preds, pr)
	}
	r, err := predicate.New(sch, predicate.ID("t"), preds...)
	if err != nil {
		return nil
	}
	return r
}

// hiOf draws a refinement's upper bound in (lo, hi].
func hiOf(lo, hi float64, rng *rand.Rand) float64 {
	return hi - rng.Float64()*(hi-lo)/2
}

// next generates one fresh profile with a population-unique id: a pool copy
// under Clusters, an independent draw otherwise.
func (g *profileGen) next(rng *rand.Rand) *predicate.Profile {
	if g.templates == nil {
		return g.fresh(rng)
	}
	k := int(g.zipf.Uint64())
	src := g.templates[k]
	if vs := g.variants[k]; len(vs) > 0 && rng.Float64() < g.sc.Clusters.RefineP {
		src = vs[rng.Intn(len(vs))]
	}
	id := predicate.ID(fmt.Sprintf("p%06d", g.seq))
	g.seq++
	// Same structure, fresh identity: this is the population shape the
	// canonical layer interns. Preds may alias the pool copy — profiles are
	// immutable after construction.
	return &predicate.Profile{ID: id, Preds: src.Preds, Priority: src.Priority}
}

// fresh generates one independent profile with a population-unique id.
func (g *profileGen) fresh(rng *rand.Rand) *predicate.Profile {
	sch := g.c.sch
	widthFrac := g.sc.ProfileWidth
	if widthFrac <= 0 {
		widthFrac = 0.1
	}
	constrainP := g.sc.ConstrainP
	if constrainP <= 0 {
		constrainP = 0.7
	}
	for {
		var preds []predicate.Predicate
		for i := 0; i < sch.N(); i++ {
			if rng.Float64() >= constrainP {
				continue
			}
			dom := sch.At(i).Domain
			center := g.c.profileD[i].Sample(rng)
			w := widthFrac * (0.5 + rng.Float64()) * dom.Size()
			lo, hi := clampRange(center-w/2, center+w/2, dom)
			pr, err := predicate.NewRange(i, lo, hi)
			if err != nil {
				continue
			}
			preds = append(preds, pr)
		}
		if len(preds) == 0 {
			// Constrain one attribute rather than skewing ConstrainP: an
			// all-don't-care profile is not a valid subscription.
			i := rng.Intn(sch.N())
			dom := sch.At(i).Domain
			center := g.c.profileD[i].Sample(rng)
			w := widthFrac * dom.Size()
			lo, hi := clampRange(center-w/2, center+w/2, dom)
			pr, err := predicate.NewRange(i, lo, hi)
			if err != nil {
				continue
			}
			preds = append(preds, pr)
		}
		id := predicate.ID(fmt.Sprintf("p%06d", g.seq))
		g.seq++
		p, err := predicate.New(sch, id, preds...)
		if err != nil {
			continue
		}
		return p
	}
}

// clampRange clips [lo, hi] to the domain.
func clampRange(lo, hi float64, dom schema.Domain) (float64, float64) {
	if lo < dom.Lo() {
		lo = dom.Lo()
	}
	if hi > dom.Hi() {
		hi = dom.Hi()
	}
	return lo, hi
}
