package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"genas/internal/agg"
	"genas/internal/core"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// randomProfileExpr builds one random profile expression over (price, volume)
// with integer endpoints, mixing don't-care, point, one-sided and interval
// constraints per attribute. At least one attribute is always constrained.
func randomProfileExpr(rng *rand.Rand) string {
	mk := func(attr string, max int) string {
		lo := rng.Intn(max + 1)
		hi := lo + rng.Intn(max/4+1)
		if hi > max {
			hi = max
		}
		switch rng.Intn(5) {
		case 0:
			return ""
		case 1:
			return fmt.Sprintf("%s = %d", attr, lo)
		case 2:
			return fmt.Sprintf("%s >= %d", attr, lo)
		case 3:
			return fmt.Sprintf("%s <= %d", attr, hi)
		default:
			return fmt.Sprintf("%s in [%d,%d]", attr, lo, hi)
		}
	}
	cp, cv := mk("price", 1000), mk("volume", 100)
	switch {
	case cp == "" && cv == "":
		return fmt.Sprintf("profile(price >= %d)", rng.Intn(1000))
	case cp == "":
		return fmt.Sprintf("profile(%s)", cv)
	case cv == "":
		return fmt.Sprintf("profile(%s)", cp)
	default:
		return fmt.Sprintf("profile(%s; %s)", cp, cv)
	}
}

// pairProbes builds a probe grid tailored to two profiles: domain edges plus
// every interval endpoint of either profile and its ±1 neighbors, crossed
// over both attributes. Direct evaluation over this grid refutes bogus
// containment claims: every region boundary either profile can express lies
// on the grid.
func pairProbes(s *schema.Schema, p, q *predicate.Profile) [][]float64 {
	axes := make([][]float64, 2)
	for attr := 0; attr < 2; attr++ {
		dom := s.Attributes()[attr].Domain
		set := map[float64]bool{dom.Lo(): true, dom.Hi(): true}
		for _, prof := range []*predicate.Profile{p, q} {
			if !prof.Constrains(attr) {
				continue
			}
			for _, iv := range prof.Pred(attr).Intervals(dom) {
				for _, v := range []float64{iv.Lo - 1, iv.Lo, iv.Lo + 1, iv.Hi - 1, iv.Hi, iv.Hi + 1} {
					if v >= dom.Lo() && v <= dom.Hi() {
						set[v] = true
					}
				}
			}
		}
		axis := make([]float64, 0, len(set))
		for v := range set {
			axis = append(axis, v)
		}
		axes[attr] = axis
	}
	probes := make([][]float64, 0, len(axes[0])*len(axes[1]))
	for _, x := range axes[0] {
		for _, y := range axes[1] {
			probes = append(probes, []float64{x, y})
		}
	}
	return probes
}

// TestPosetAgreesWithCoveringOracle drives 1000 random profile pairs through
// a fresh covering poset and checks its order relation against two
// independent oracles:
//
//  1. the quadratic pairwise oracle — predicate.Covers / CoveredByOther, the
//     exact rule the per-install rescan used before the poset replaced it;
//  2. probe-grid direct evaluation — whenever either side claims containment,
//     every grid event matching the covered profile must match the coverer.
func TestPosetAgreesWithCoveringOracle(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 1000; trial++ {
		p := predicate.MustParse(s, "p", randomProfileExpr(rng))
		q := predicate.MustParse(s, "q", randomProfileExpr(rng))

		po := agg.NewPoset(s)
		po.Add(p)
		po.Add(q)

		qCoversP := predicate.Covers(s, q, p)
		pCoversQ := predicate.Covers(s, p, q)
		want := agg.Incomparable
		switch {
		case qCoversP && pCoversQ:
			want = agg.Equal
		case pCoversQ:
			want = agg.Covers
		case qCoversP:
			want = agg.CoveredBy
		}
		got := po.RelationOf("p", "q")
		if got != want {
			t.Fatalf("trial %d: %s vs %s: poset says %v, pairwise Covers says %v",
				trial, p.Render(s), q.Render(s), got, want)
		}

		// The rescan-era pruning rule, pair by pair: p is dropped exactly
		// when q covers it (ties keep the smaller id, and "p" < "q").
		routes := map[predicate.ID]*predicate.Profile{"p": p, "q": q}
		if oracle := CoveredByOther(s, p, routes); oracle != (qCoversP && !pCoversQ) {
			t.Fatalf("trial %d: CoveredByOther(p) = %v, Covers oracle %v", trial, oracle, qCoversP && !pCoversQ)
		}
		// q is dropped whenever p covers it: on equivalence the smaller id
		// ("p") wins the tiebreak.
		if oracle := CoveredByOther(s, q, routes); oracle != pCoversQ {
			t.Fatalf("trial %d: CoveredByOther(q) = %v disagrees with Covers", trial, oracle)
		}

		// Containment claims must survive direct evaluation over the grid.
		if got == agg.Equal || got == agg.CoveredBy || got == agg.Covers {
			wide, narrow := p, q
			if got == agg.CoveredBy {
				wide, narrow = q, p
			}
			for _, probe := range pairProbes(s, p, q) {
				if narrow.Matches(probe) && !wide.Matches(probe) {
					t.Fatalf("trial %d: poset claims %s ⊇ %s but event %v matches only the narrow side",
						trial, wide.Render(s), narrow.Render(s), probe)
				}
				if got == agg.Equal && wide.Matches(probe) != narrow.Matches(probe) {
					t.Fatalf("trial %d: poset claims equivalence but event %v splits %s / %s",
						trial, probe, p.Render(s), q.Render(s))
				}
			}
		}
	}
}

// benchProfiles builds n distinct random route profiles.
func benchProfiles(b *testing.B, s *schema.Schema, n int) []*predicate.Profile {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	ps := make([]*predicate.Profile, n)
	for i := range ps {
		ps[i] = predicate.MustParse(s, predicate.ID(fmt.Sprintf("r%d", i)), randomProfileExpr(rng))
	}
	return ps
}

// BenchmarkRouteInstall measures the cost of installing one more route on a
// link already carrying n routes.
//
//   - poset: the current path — one incremental AddProfile into the link's
//     engine; the covering poset places the new route against the
//     root antichain.
//   - rescan: the pre-poset path — rebuild the link engine from scratch,
//     running the O(n) CoveredByOther scan for every route: O(n²) covering
//     checks per install.
//
// Run with -benchtime=1x for the large rescan sizes; a single rescan at 10⁴
// routes performs 10⁸ covering checks.
func BenchmarkRouteInstall(b *testing.B) {
	price, _ := schema.NewNumericDomain(0, 1000)
	vol, _ := schema.NewNumericDomain(0, 100)
	s := schema.MustNew(
		schema.Attribute{Name: "price", Domain: price},
		schema.Attribute{Name: "volume", Domain: vol},
	)
	for _, n := range []int{100, 1000, 10000} {
		profiles := benchProfiles(b, s, n)
		extra := predicate.MustParse(s, "extra", "profile(price in [500,501]; volume = 7)")

		b.Run(fmt.Sprintf("poset/routes=%d", n), func(b *testing.B) {
			eng := core.NewEngine(s, core.Config{})
			for _, p := range profiles {
				if err := eng.AddProfile(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.AddProfile(extra); err != nil {
					b.Fatal(err)
				}
				if err := eng.RemoveProfile(extra.ID); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("rescan/routes=%d", n), func(b *testing.B) {
			routes := make(map[predicate.ID]*predicate.Profile, n+1)
			for _, p := range profiles {
				routes[p.ID] = p
			}
			routes[extra.ID] = extra
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The old rebuildLink body, verbatim in shape.
				eng := core.NewEngine(s, core.Config{})
				for _, p := range routes {
					if CoveredByOther(s, p, routes) {
						continue
					}
					if err := eng.AddProfile(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
