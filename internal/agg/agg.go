// Package agg implements canonical subscription aggregation: the covering
// poset the engine, the broker, and federation share.
//
// Profiles are decomposed into per-attribute canonical interval unions and
// structurally interned, so identical conjunctions — however they were
// spelled (a range [0,50] and a ≤50 over the domain [0,50] are the same
// constraint) — share one canonical node. Nodes are ordered into a covering
// poset (a Siena-style filter poset): a node hangs beneath another when every
// event it accepts is also accepted above. The match index (the DFSA in
// internal/tree) sees only the poset's roots; concrete subscription ids are
// expanded through the poset at delivery time, descending an edge only when
// the child's predicate still matches the event.
//
// Match cost therefore grows with *distinct* predicate structure, not with
// subscriber count, and per-subscription memory collapses to one SubRef —
// the wall "Towards Scalable Subscription Aggregation and Real Time Event
// Matching in a Large-Scale Content-Based Network" (PAPERS.md) attacks with
// subscription merging.
//
// The poset has no locks of its own: the write side (Add, Remove, Compact,
// Freeze) is guarded by the owning engine's writer mutex, and the read side
// is the frozen Snapshot published through the engine's epoch/RCU snapshot
// pointer.
package agg

import (
	"encoding/binary"
	"math"
	"sort"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// attrCanon is one attribute's canonical constraint: the maximal disjoint
// sorted interval union the predicate accepts, clipped to the domain.
//
// Canonicalization follows the nominal-constraint semantics of
// predicate.Covers exactly: an attribute appears here whenever the profile
// constrains it, even if the accepted union happens to equal the whole
// domain — the pairwise oracle treats such a profile as stricter than a
// don't-care, and the poset must agree with the oracle verdict for verdict.
type attrCanon struct {
	attr int
	ivs  []schema.Interval
}

// canonOf decomposes p into canonical per-attribute constraints, sorted by
// attribute index.
func canonOf(s *schema.Schema, p *predicate.Profile) []attrCanon {
	out := make([]attrCanon, 0, len(p.Preds))
	// One backing array holds every attribute's intervals.
	n := 0
	for _, pr := range p.Preds {
		n += max(2, len(pr.Set))
	}
	all := make([]schema.Interval, 0, n)
	for attr := 0; attr < s.N(); attr++ {
		if !p.Constrains(attr) {
			continue
		}
		lo := len(all)
		all = p.Pred(attr).AppendIntervals(all, s.At(attr).Domain)
		out = append(out, attrCanon{attr: attr, ivs: mergeIntervals(all[lo:len(all):len(all)])})
	}
	return out
}

// mergeIntervals normalizes an interval union: sorted by lower bound and
// with overlapping or compatibly-touching neighbors merged. For predicates
// constructible in the profile language this only deduplicates repeated
// set-membership points — no operator emits two distinct mergeable
// intervals — which keeps the canonical form's containment test in exact
// agreement with predicate.Covers on the raw lists.
func mergeIntervals(ivs []schema.Interval) []schema.Interval {
	if len(ivs) < 2 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Lo != ivs[j].Lo {
			return ivs[i].Lo < ivs[j].Lo
		}
		return !ivs[i].LoOpen && ivs[j].LoOpen // closed lower bound first
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		a := &out[len(out)-1]
		touches := iv.Lo < a.Hi || (iv.Lo == a.Hi && !(a.HiOpen && iv.LoOpen))
		if !touches {
			out = append(out, iv)
			continue
		}
		if iv.Hi > a.Hi || (iv.Hi == a.Hi && a.HiOpen && !iv.HiOpen) {
			a.Hi, a.HiOpen = iv.Hi, iv.HiOpen
		}
	}
	return out
}

// appendKey appends the canonical form's interning key to b. Two profiles
// get the same key iff they constrain the same attributes with the same
// accepted unions — i.e. iff they cover each other under predicate.Covers.
func appendKey(b []byte, canon []attrCanon) []byte {
	for _, ac := range canon {
		b = binary.BigEndian.AppendUint32(b, uint32(ac.attr))
		b = binary.BigEndian.AppendUint32(b, uint32(len(ac.ivs)))
		for _, iv := range ac.ivs {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(posZero(iv.Lo)))
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(posZero(iv.Hi)))
			var flags byte
			if iv.LoOpen {
				flags |= 1
			}
			if iv.HiOpen {
				flags |= 2
			}
			b = append(b, flags)
		}
	}
	return b
}

// posZero folds -0 into +0 so the two bit patterns intern identically.
func posZero(x float64) float64 {
	if x == 0 {
		return 0
	}
	return x
}

// maskOf returns the constrained-attribute bitmask over the first 64
// attributes — the cheap covering prefilter: p can only cover q when every
// attribute p constrains is constrained by q too.
func maskOf(canon []attrCanon) uint64 {
	var m uint64
	for _, ac := range canon {
		if ac.attr < 64 {
			m |= 1 << uint(ac.attr)
		}
	}
	return m
}

// coversCanon reports whether p covers q under the oracle's semantics:
// every attribute p constrains must be constrained by q with q's accepted
// union contained in p's. Both inputs are sorted by attribute.
func coversCanon(p, q []attrCanon) bool {
	j := 0
	for i := range p {
		for j < len(q) && q[j].attr < p[i].attr {
			j++
		}
		if j == len(q) || q[j].attr != p[i].attr {
			return false // q doesn't constrain an attribute p does
		}
		if !intervalsSubset(q[j].ivs, p[i].ivs) {
			return false
		}
	}
	return true
}

// intervalsSubset reports whether the union of qs is contained in the union
// of ps (both disjoint and sorted; mirrors predicate's unexported helper —
// because the ps are disjoint, a q-interval must fit inside a single one).
func intervalsSubset(qs, ps []schema.Interval) bool {
	for _, q := range qs {
		contained := false
		for _, p := range ps {
			if containsInterval(p, q) {
				contained = true
				break
			}
		}
		if !contained {
			return false
		}
	}
	return true
}

// containsInterval reports p ⊇ q.
func containsInterval(p, q schema.Interval) bool {
	if q.Empty() {
		return true
	}
	loOK := p.Lo < q.Lo || (p.Lo == q.Lo && (!p.LoOpen || q.LoOpen))
	hiOK := p.Hi > q.Hi || (p.Hi == q.Hi && (!p.HiOpen || q.HiOpen))
	return loOK && hiOK
}
