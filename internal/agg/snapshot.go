package agg

import (
	"sync"
	"sync/atomic"

	"genas/internal/predicate"
	"genas/internal/tree"
)

// Snapshot is the frozen, publishable image of the poset: index-aligned
// node records the match path walks lock-free. It is published through the
// engine's atomic snapshot pointer next to the tree it expands.
//
//genas:frozen
type Snapshot struct {
	// Nodes is indexed by poset node index; detached nodes leave zero
	// entries (nil Prof), which the expansion never reaches.
	Nodes []SnapNode
	// Subs is the concrete subscription count at freeze time.
	Subs int
}

// SnapNode mirrors one canonical node for expansion.
//
//genas:frozen
type SnapNode struct {
	// Prof is the node's representative profile, evaluated when the
	// expansion considers descending into this node.
	Prof *predicate.Profile
	// Subs aliases the write side's append-only member array: appends land
	// past this snapshot's length and removals copy, so the header is
	// stable.
	Subs []SubRef
	// Kids holds the node indices hanging beneath this node. It is shared
	// with later snapshots while the node's kids stay unchanged; the write
	// side never mutates a published list.
	Kids []int32
}

// Freeze builds the frozen snapshot image of the current poset state.
//
//genas:builder
func (po *Poset) Freeze() Snapshot {
	s := Snapshot{Nodes: make([]SnapNode, len(po.nodes)), Subs: po.subCnt}
	for i, n := range po.nodes {
		if n == nil {
			continue
		}
		if !sameKids(n.kidIdx, n.kids) {
			n.kidIdx = make([]int32, len(n.kids))
			for j, k := range n.kids {
				n.kidIdx[j] = k.idx
			}
		}
		s.Nodes[i] = SnapNode{Prof: n.rep, Subs: n.subs, Kids: n.kidIdx}
	}
	return s
}

// sameKids reports whether a published kid index list still describes
// kids, so Freeze can share it instead of copying every node's kids on
// every churn operation.
func sameKids(idx []int32, kids []*node) bool {
	if len(idx) != len(kids) {
		return false
	}
	for j, k := range kids {
		if idx[j] != k.idx {
			return false
		}
	}
	return true
}

// expandScratch is the pooled expansion state for Expand: an explicit DFS
// stack, the list of matched nodes, and generation-stamped visit marks, so
// per-event expansion allocates nothing beyond the returned ids once the
// pool is warm.
type expandScratch struct {
	stack []int32
	hit   []int32
	mark  []uint32
	gen   uint32
}

var scratchPool = sync.Pool{New: func() any { return new(expandScratch) }}

// spareScratch keeps one scratch outside the pool: a sync.Pool is emptied
// by two garbage collections, and refilling it costs several allocations
// on the match path. It starts sized for a thousand-node poset, so a
// process's first walks do not allocate either. Concurrent walkers fall
// back to the pool.
var spareScratch = func() *atomic.Pointer[expandScratch] {
	var p atomic.Pointer[expandScratch]
	p.Store(&expandScratch{
		mark:  make([]uint32, 1024),
		stack: make([]int32, 0, 256),
		hit:   make([]int32, 0, 256),
	})
	return &p
}()

func getScratch() *expandScratch {
	if sc := spareScratch.Swap(nil); sc != nil {
		return sc
	}
	return scratchPool.Get().(*expandScratch)
}

func putScratch(sc *expandScratch) {
	if !spareScratch.CompareAndSwap(nil, sc) {
		scratchPool.Put(sc)
	}
}

// reset prepares the scratch for a snapshot of n nodes: grows the mark
// array when needed and advances the generation, clearing marks only on
// wraparound. Kept out of the hot function so its allocations stay off the
// steady-state path.
func (sc *expandScratch) reset(n int) {
	if len(sc.mark) < n {
		sc.mark = make([]uint32, n)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.gen = 1
	}
	sc.stack = sc.stack[:0]
	sc.hit = sc.hit[:0]
}

// Expand translates the tree's matched slots into concrete subscription
// ids, appending to dst. matched holds dense indices into t (the canonical
// tree this snapshot was published with); t2n maps each tree slot to its
// poset node. From every live matched root the walk descends kid edges,
// re-evaluating each child's representative against the event — covering
// guarantees a child that fails can have no matching descendant — and marks
// visited nodes so DAG diamonds and multi-root overlaps emit each
// subscription once. The matched nodes are collected first, so dst grows
// at most once, to the exact id count. The second result counts the
// predicate evaluations spent descending, which the engine folds into its
// operation accounting.
//
// When no matched root has kids there is nothing to walk or deduplicate (a
// root is never another node's kid, and a node holds one live tree slot),
// so the roots' members are copied out directly.
//
//genas:hotpath
func (s *Snapshot) Expand(vals []float64, matched []int, t2n []int32, t *tree.Tree, dst []predicate.ID) ([]predicate.ID, int) {
	dead := t.HasDead()
	total := 0
	for _, pi := range matched {
		if dead && t.Dead(pi) {
			continue
		}
		n := &s.Nodes[t2n[pi]]
		if len(n.Kids) > 0 {
			return s.walk(vals, matched, t2n, t, dst)
		}
		total += len(n.Subs)
	}
	dst = grow(dst, total)
	for _, pi := range matched {
		if dead && t.Dead(pi) {
			continue
		}
		for _, sr := range s.Nodes[t2n[pi]].Subs {
			dst = append(dst, sr.ID)
		}
	}
	return dst, 0
}

// grow returns dst with room for n more ids, reallocating at most once.
//
//genas:hotpath
func grow(dst []predicate.ID, n int) []predicate.ID {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	grown := make([]predicate.ID, len(dst), len(dst)+n)
	copy(grown, dst)
	return grown
}

// walk is Expand's general path: a marked DFS down the covering edges of
// the matched roots.
//
//genas:hotpath
func (s *Snapshot) walk(vals []float64, matched []int, t2n []int32, t *tree.Tree, dst []predicate.ID) ([]predicate.ID, int) {
	sc := getScratch()
	sc.reset(len(s.Nodes))
	ops, total := 0, 0
	dead := t.HasDead()
	for _, pi := range matched {
		if dead && t.Dead(pi) {
			continue
		}
		ni := t2n[pi]
		if sc.mark[ni] == sc.gen {
			continue
		}
		sc.mark[ni] = sc.gen
		sc.hit = append(sc.hit, ni)
		total += len(s.Nodes[ni].Subs)
		if len(s.Nodes[ni].Kids) > 0 {
			sc.stack = append(sc.stack, ni)
		}
	}
	for len(sc.stack) > 0 {
		ni := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		for _, ki := range s.Nodes[ni].Kids {
			if sc.mark[ki] == sc.gen {
				continue
			}
			sc.mark[ki] = sc.gen
			ops++
			k := &s.Nodes[ki]
			if !k.Prof.Matches(vals) {
				continue
			}
			sc.hit = append(sc.hit, ki)
			total += len(k.Subs)
			if len(k.Kids) > 0 {
				sc.stack = append(sc.stack, ki)
			}
		}
	}
	dst = grow(dst, total)
	for _, ni := range sc.hit {
		for _, sr := range s.Nodes[ni].Subs {
			dst = append(dst, sr.ID)
		}
	}
	putScratch(sc)
	return dst, ops
}
