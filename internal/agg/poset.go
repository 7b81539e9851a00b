package agg

import (
	"strconv"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// SubRef is one concrete subscription attached to a canonical node: the
// subscriber's id plus the per-subscription priority applied at expansion
// time. This is all the aggregation layer keeps per subscriber — the
// predicate structure lives once, on the node.
type SubRef struct {
	ID       predicate.ID
	Priority float64
}

// node is one canonical conjunction in the poset.
type node struct {
	idx   int32
	key   string
	mask  uint64
	canon []attrCanon
	// rep is the canonical representative profile the tree indexes (for
	// roots) and the expansion walk evaluates (for inner nodes). Its ID is
	// synthetic; its predicate column is shared with the first member.
	rep *predicate.Profile
	// repVal backs rep, so a new node costs one allocation, not two.
	repVal predicate.Profile
	// subs is append-only: frozen snapshots alias the backing array, so
	// removal copies (COW) instead of truncating in place. A new node's
	// first member lives in sub0.
	subs    []SubRef
	sub0    [1]SubRef
	kids    []*node
	parents []*node
	root    bool
	// kidIdx is the kid index list the last Freeze published. Snapshots
	// alias it, so it is replaced, never written, once kids change.
	kidIdx []int32

	// Per-operation DFS scratch, guarded by the owner's writer mutex.
	visit   uint32 // pushed on the traversal stack this generation
	evalGen uint32 // coversN is valid this generation
	coversN bool
	pmark   uint32 // chosen as a parent of the node being inserted
}

// NodeRef pairs a node index with its representative profile — the engine's
// handle for indexing a root into the tree.
type NodeRef struct {
	Idx int32
	Rep *predicate.Profile
}

// AddResult describes what an Add changed in terms the engine applies to its
// automaton: at most one new root to index and the roots demoted beneath it.
type AddResult struct {
	// NodeIdx is the canonical node the subscription landed on.
	NodeIdx int32
	// New reports that a new canonical node was created (an interning miss).
	New bool
	// NewRoot is non-nil when the new node entered as a root: the engine
	// must index its representative.
	NewRoot *predicate.Profile
	// Demoted lists previously-indexed roots now covered by the new root;
	// the engine tombstones their tree slots (they remain reachable through
	// the new root's expansion edges).
	Demoted []int32
}

// RemoveResult describes what a Remove changed.
type RemoveResult struct {
	// NodeIdx is the canonical node the subscription left.
	NodeIdx int32
	// Emptied reports the node lost its last member and was detached.
	Emptied bool
	// WasRoot reports the detached node was indexed; the engine tombstones
	// its tree slot.
	WasRoot bool
	// Promoted lists formerly-covered nodes that became roots when their
	// last covering parent detached; the engine indexes their reps.
	Promoted []NodeRef
}

// Stats summarizes the poset shape for observability.
type Stats struct {
	// Subscriptions is the concrete member count across all nodes.
	Subscriptions int
	// Nodes is the live canonical node count (the index's real size driver).
	Nodes int
	// Roots is the number of nodes the tree actually indexes.
	Roots int
	// MaxDepth is the node count of the longest root→leaf covering chain
	// (1 when no node covers another).
	MaxDepth int
}

// Poset is the canonical interning + covering structure. It is not
// goroutine-safe: every method is a write-side operation the owning engine
// serializes on its mutex, except the frozen Snapshot handed to readers.
type Poset struct {
	sch *schema.Schema
	// nodes is append-only between Compact calls; removed nodes leave nil
	// holes so published snapshots' indices stay stable.
	nodes  []*node
	byKey  map[string]*node
	bySub  map[predicate.ID]*node
	subCnt int
	roots  int
	gen    uint32
	seq    int64 // synthetic rep id counter; never reused, survives Compact

	// Buffers reused by every Add: the interning key (and then the rep id)
	// under construction, the DFS stack, and the parent and kid sets that
	// linkNew consumes before returning.
	keyBuf               []byte
	stack, parents, kids []*node
}

// NewPoset creates an empty poset over schema s.
func NewPoset(s *schema.Schema) *Poset {
	return &Poset{
		sch:   s,
		byKey: make(map[string]*node),
		bySub: make(map[predicate.ID]*node),
	}
}

// Has reports whether subscription id is registered.
func (po *Poset) Has(id predicate.ID) bool {
	_, ok := po.bySub[id]
	return ok
}

// SubCount returns the concrete subscription count.
func (po *Poset) SubCount() int { return po.subCnt }

// NodeCount returns the live canonical node count.
func (po *Poset) NodeCount() int {
	n := 0
	for _, nd := range po.nodes {
		if nd != nil {
			n++
		}
	}
	return n
}

// RootList returns the current roots in node order — the corpus the engine's
// tree indexes on a full rebuild.
func (po *Poset) RootList() []NodeRef {
	out := make([]NodeRef, 0, po.roots)
	for _, n := range po.nodes {
		if n != nil && n.root {
			out = append(out, NodeRef{Idx: n.idx, Rep: n.rep})
		}
	}
	return out
}

// Profiles synthesizes the concrete member profiles in node order: each
// member borrows its node's canonical predicate column, so listing the
// corpus costs one small struct per subscription, not a deep copy.
func (po *Poset) Profiles() []*predicate.Profile {
	out := make([]*predicate.Profile, 0, po.subCnt)
	for _, n := range po.nodes {
		if n == nil {
			continue
		}
		for _, sr := range n.subs {
			out = append(out, &predicate.Profile{ID: sr.ID, Preds: n.rep.Preds, Priority: sr.Priority})
		}
	}
	return out
}

// Add registers profile p. The caller has already rejected duplicates via
// Has; p's predicate column is aliased, not copied.
func (po *Poset) Add(p *predicate.Profile) AddResult {
	canon := canonOf(po.sch, p)
	po.keyBuf = appendKey(po.keyBuf[:0], canon)
	if n := po.byKey[string(po.keyBuf)]; n != nil {
		// Interning hit: the structure exists, attach the member. The tree
		// and the poset edges are untouched.
		n.subs = append(n.subs, SubRef{ID: p.ID, Priority: p.Priority})
		po.bySub[p.ID] = n
		po.subCnt++
		return AddResult{NodeIdx: n.idx}
	}
	n := &node{
		key:   string(po.keyBuf),
		mask:  maskOf(canon),
		canon: canon,
		sub0:  [1]SubRef{{ID: p.ID, Priority: p.Priority}},
	}
	n.subs = n.sub0[:]
	po.seq++
	po.keyBuf = strconv.AppendInt(append(po.keyBuf[:0], "\x00agg:"...), po.seq, 10)
	n.repVal = predicate.Profile{ID: predicate.ID(po.keyBuf), Preds: p.Preds}
	n.rep = &n.repVal
	po.bySub[p.ID] = n
	po.subCnt++
	demoted := po.linkNew(n)
	res := AddResult{NodeIdx: n.idx, New: true, Demoted: demoted}
	if n.root {
		res.NewRoot = n.rep
	}
	return res
}

// linkNew appends n to the node table and links it into the poset: parents
// are the minimal existing coverers, kids the maximal existing covered
// nodes. Returns the indices of roots demoted beneath n. Shared by Add and
// Compact.
func (po *Poset) linkNew(n *node) []int32 {
	n.idx = int32(len(po.nodes))
	po.nodes = append(po.nodes, n)
	po.byKey[n.key] = n

	parents := po.findParents(n)
	kids := po.findKids(n, parents)

	n.parents = append(n.parents, parents...)
	for _, pa := range parents {
		pa.kids = append(pa.kids, n)
	}
	n.kids = append(n.kids, kids...)
	var demoted []int32
	for _, k := range kids {
		k.parents = append(k.parents, n)
		if k.root {
			k.root = false
			po.roots--
			demoted = append(demoted, k.idx)
		}
	}
	if len(parents) == 0 {
		n.root = true
		po.roots++
	}
	return demoted
}

// findParents returns the minimal existing coverers of n: DFS from the
// covering roots, descending only into kids that also cover n. Every
// coverer sits on an all-covering chain from a covering root (covering is
// transitive along poset edges), so the descent is complete; a covering
// node none of whose kids cover n is minimal. The result is an antichain.
func (po *Poset) findParents(n *node) []*node {
	po.gen++
	gen := po.gen
	minimal, stack := po.parents[:0], po.stack[:0]
	for _, r := range po.nodes {
		if r == nil || !r.root || r == n {
			continue
		}
		r.visit = gen
		r.evalGen = gen
		r.coversN = po.covers(r, n)
		if r.coversN {
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		hasCoveringKid := false
		for _, k := range x.kids {
			if k.evalGen != gen {
				k.evalGen = gen
				k.coversN = po.covers(k, n)
			}
			if !k.coversN {
				continue
			}
			hasCoveringKid = true
			if k.visit != gen {
				k.visit = gen
				stack = append(stack, k)
			}
		}
		if !hasCoveringKid {
			minimal = append(minimal, x)
		}
	}
	po.parents, po.stack = minimal, stack
	return minimal
}

// findKids returns the maximal existing nodes n covers. Full DFS over the
// structure — a covered node can hang beneath nodes incomparable to n — with
// pruning beneath every covered node found (its descendants are covered
// transitively, hence not maximal). Nodes already chosen as parents are
// never collected: a distinct key rules out mutual covering, so this is a
// pure cycle guard.
func (po *Poset) findKids(n *node, parents []*node) []*node {
	po.gen++
	gen := po.gen
	for _, pa := range parents {
		pa.pmark = gen
	}
	maximal, stack := po.kids[:0], po.stack[:0]
	for _, r := range po.nodes {
		if r == nil || !r.root || r == n {
			continue
		}
		r.visit = gen
		stack = append(stack, r)
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x.pmark != gen && po.covers(n, x) {
			maximal = append(maximal, x)
			continue
		}
		for _, k := range x.kids {
			if k.visit != gen {
				k.visit = gen
				stack = append(stack, k)
			}
		}
	}
	po.kids, po.stack = maximal, stack
	return maximal
}

// covers reports whether node a covers node b, via the bitmask prefilter
// then the canonical containment test.
func (po *Poset) covers(a, b *node) bool {
	return a.mask&^b.mask == 0 && coversCanon(a.canon, b.canon)
}

// Remove unregisters subscription id. ok is false when id is unknown.
func (po *Poset) Remove(id predicate.ID) (res RemoveResult, ok bool) {
	n := po.bySub[id]
	if n == nil {
		return RemoveResult{}, false
	}
	delete(po.bySub, id)
	po.subCnt--
	res.NodeIdx = n.idx
	// COW: frozen snapshots alias the old backing array.
	subs := make([]SubRef, 0, len(n.subs)-1)
	for _, sr := range n.subs {
		if sr.ID != id {
			subs = append(subs, sr)
		}
	}
	n.subs = subs
	if len(subs) > 0 {
		return res, true
	}

	// Last member gone: detach the node eagerly. Kids re-link to the
	// node's parents; a kid left with no parents is promoted to root, so a
	// covered subscription resurfaces in the index the moment its coverer
	// unsubscribes (federation's re-announce semantics depend on this).
	res.Emptied = true
	for _, pa := range n.parents {
		pa.kids = dropNode(pa.kids, n)
	}
	for _, k := range n.kids {
		k.parents = dropNode(k.parents, n)
		for _, pa := range n.parents {
			if !hasParent(k, pa) {
				pa.kids = append(pa.kids, k)
				k.parents = append(k.parents, pa)
			}
		}
		if len(k.parents) == 0 && !k.root {
			k.root = true
			po.roots++
			res.Promoted = append(res.Promoted, NodeRef{Idx: k.idx, Rep: k.rep})
		}
	}
	if n.root {
		n.root = false
		po.roots--
		res.WasRoot = true
	}
	delete(po.byKey, n.key)
	po.nodes[n.idx] = nil
	n.kids, n.parents = nil, nil
	return res, true
}

// dropNode removes x from s in place (write-side lists are never aliased by
// snapshots — Freeze copies them).
func dropNode(s []*node, x *node) []*node {
	for i, v := range s {
		if v == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// hasParent reports whether pa is already a parent of k.
func hasParent(k *node, pa *node) bool {
	for _, v := range k.parents {
		if v == pa {
			return true
		}
	}
	return false
}

// Compact rebuilds the poset from its live nodes, dropping the nil holes
// churn leaves behind and the redundant transitive edges incremental
// linking tolerates. Members, reps and synthetic ids survive; indices are
// reassigned. The engine calls this from its coalescing rebuild, right
// before re-indexing the roots.
func (po *Poset) Compact() {
	live := make([]*node, 0, len(po.nodes))
	for _, n := range po.nodes {
		if n != nil {
			live = append(live, n)
		}
	}
	po.nodes = po.nodes[:0]
	po.byKey = make(map[string]*node, len(live))
	po.roots = 0
	for _, n := range live {
		n.kids, n.parents = nil, nil
		n.root = false
	}
	for _, n := range live {
		po.linkNew(n)
	}
}

// Relation is the poset order between two subscriptions' canonical nodes.
type Relation int

// Relation values.
const (
	Incomparable Relation = iota
	Equal                 // same canonical node
	Covers                // a's node is a strict ancestor of b's
	CoveredBy             // a's node is a strict descendant of b's
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case Equal:
		return "equal"
	case Covers:
		return "covers"
	case CoveredBy:
		return "covered-by"
	default:
		return "incomparable"
	}
}

// RelationOf reports the poset order between two registered subscriptions.
// Unknown ids are incomparable.
func (po *Poset) RelationOf(a, b predicate.ID) Relation {
	na, nb := po.bySub[a], po.bySub[b]
	if na == nil || nb == nil {
		return Incomparable
	}
	if na == nb {
		return Equal
	}
	if po.reachable(na, nb) {
		return Covers
	}
	if po.reachable(nb, na) {
		return CoveredBy
	}
	return Incomparable
}

// reachable reports whether to can be reached from from along kid edges —
// by the poset invariant, exactly when from's node covers to's strictly.
func (po *Poset) reachable(from, to *node) bool {
	po.gen++
	gen := po.gen
	from.visit = gen
	stack := []*node{from}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range x.kids {
			if k == to {
				return true
			}
			if k.visit != gen {
				k.visit = gen
				stack = append(stack, k)
			}
		}
	}
	return false
}

// Stats computes the observability summary. MaxDepth is the longest
// covering chain, measured in nodes, via memoized longest-path DFS (the
// poset is a DAG).
func (po *Poset) Stats() Stats {
	st := Stats{Subscriptions: po.subCnt, Roots: po.roots}
	depth := make(map[*node]int, len(po.nodes))
	var chain func(n *node) int
	chain = func(n *node) int {
		if d, ok := depth[n]; ok {
			return d
		}
		depth[n] = 1 // cycle guard; the DAG invariant makes this a no-op
		d := 1
		for _, k := range n.kids {
			if kd := chain(k) + 1; kd > d {
				d = kd
			}
		}
		depth[n] = d
		return d
	}
	for _, n := range po.nodes {
		if n == nil {
			continue
		}
		st.Nodes++
		if n.root {
			if d := chain(n); d > st.MaxDepth {
				st.MaxDepth = d
			}
		}
	}
	return st
}
