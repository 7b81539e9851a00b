// Package routing implements a distributed broker overlay in the style of
// Siena (paper §2): brokers form an acyclic topology, profiles propagate
// through the network toward potential publishers, and events are rejected
// as early as possible — a broker forwards an event over a link only when a
// profile propagated from that direction matches it. Every broker runs the
// distribution-based filter engine both for its local subscribers and for
// its per-link routing filters, so the paper's tree optimizations apply at
// every hop ("Our approach can be used to reduce workload in resource
// critical environments … unnecessary event information is rejected as
// early as possible", §5).
package routing

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"genas/internal/broker"
	"genas/internal/core"
	"genas/internal/event"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// Errors returned by the overlay.
var (
	ErrUnknownNode   = errors.New("routing: unknown node")
	ErrDuplicate     = errors.New("routing: duplicate node name")
	ErrCycle         = errors.New("routing: link would create a cycle")
	ErrSelfLink      = errors.New("routing: cannot link a node to itself")
	ErrAlreadyLinked = errors.New("routing: nodes already linked")
)

// Options configure a Network.
//
// Link filters always prune covered routes: each route install is one
// incremental covering-poset insertion instead of an O(n²) rescan of the
// whole route set, and only uncovered (root) routes are indexed for
// forwarding decisions.
type Options struct {
	// Engine configures every filter engine in the overlay (local and
	// per-link).
	Engine core.Config
	// Broker configures the per-node local broker.
	Broker broker.Options
}

// Network is a set of brokers plus their acyclic link topology.
type Network struct {
	mu     sync.RWMutex
	schema *schema.Schema
	opts   Options
	nodes  map[string]*Node
	// parent is a union-find structure guarding acyclicity.
	parent map[string]string

	messages atomic.Uint64 // inter-broker event forwards
	filtered atomic.Uint64 // events stopped by early rejection at some link
}

// NewNetwork creates an empty overlay over one schema.
func NewNetwork(s *schema.Schema, opts Options) *Network {
	if opts.Broker.Engine.ValueMeasure == 0 {
		opts.Broker.Engine = opts.Engine
	}
	return &Network{
		schema: s,
		opts:   opts,
		nodes:  make(map[string]*Node),
		parent: make(map[string]string),
	}
}

// Node is one broker in the overlay.
type Node struct {
	name  string
	nw    *Network
	local *broker.Broker

	mu    sync.RWMutex
	links map[string]*link
}

// linkFilter is the matching surface deliver needs from a link's filter
// engine. Production links always hold a *core.Engine; tests substitute
// failing filters to pin deliver's behavior when one link errors.
type linkFilter interface {
	ProfileCount() int
	Match(vals []float64) ([]predicate.ID, int, error)
}

// link is the routing state toward one neighbor: the profiles subscribed in
// that direction and the filter deciding forwards.
type link struct {
	peer *Node
	// routes maps profile id to the propagated profile.
	routes map[predicate.ID]*predicate.Profile
	// filter is the concrete engine route churn mutates incrementally: its
	// canonical poset prunes covered routes structurally, replacing the
	// per-install rescan.
	filter *core.Engine
	// engine is the match surface deliver reads. It normally aliases filter;
	// tests substitute failing filters to pin deliver's error behavior.
	engine linkFilter
}

// newLink builds the routing state toward peer. The link engine's poset
// maintains the uncovered route set incrementally.
func (nw *Network) newLink(peer *Node) *link {
	eng := core.NewEngine(nw.schema, nw.opts.Engine)
	return &link{peer: peer, routes: make(map[predicate.ID]*predicate.Profile), filter: eng, engine: eng}
}

// AddNode creates a broker node.
func (nw *Network) AddNode(name string) (*Node, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, dup := nw.nodes[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	b, err := broker.New(nw.schema, nw.opts.Broker)
	if err != nil {
		return nil, err
	}
	n := &Node{name: name, nw: nw, local: b, links: make(map[string]*link)}
	nw.nodes[name] = n
	nw.parent[name] = name
	return n, nil
}

// Node returns a node by name.
func (nw *Network) Node(name string) (*Node, error) {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	n, ok := nw.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	return n, nil
}

// find is union-find root lookup with path compression.
func (nw *Network) find(x string) string {
	for nw.parent[x] != x {
		nw.parent[x] = nw.parent[nw.parent[x]]
		x = nw.parent[x]
	}
	return x
}

// Connect links two nodes bidirectionally. The topology must stay acyclic.
func (nw *Network) Connect(a, b string) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if a == b {
		return ErrSelfLink
	}
	na, ok := nw.nodes[a]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, a)
	}
	nb, ok := nw.nodes[b]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, b)
	}
	na.mu.Lock()
	_, linked := na.links[b]
	na.mu.Unlock()
	if linked {
		return fmt.Errorf("%w: %s-%s", ErrAlreadyLinked, a, b)
	}
	if nw.find(a) == nw.find(b) {
		return fmt.Errorf("%w: %s-%s", ErrCycle, a, b)
	}
	nw.parent[nw.find(a)] = nw.find(b)

	na.mu.Lock()
	na.links[b] = nw.newLink(nb)
	na.mu.Unlock()
	nb.mu.Lock()
	nb.links[a] = nw.newLink(na)
	nb.mu.Unlock()
	return nil
}

// Subscribe registers the profile at the named node and propagates it
// through the overlay.
func (nw *Network) Subscribe(node string, p *predicate.Profile) (*broker.Subscription, error) {
	n, err := nw.Node(node)
	if err != nil {
		return nil, err
	}
	sub, err := n.local.Subscribe(p)
	if err != nil {
		return nil, err
	}
	n.propagate(p, "")
	return sub, nil
}

// Unsubscribe removes the profile from the named node and withdraws its
// propagation everywhere.
func (nw *Network) Unsubscribe(node string, id predicate.ID) error {
	n, err := nw.Node(node)
	if err != nil {
		return err
	}
	if err := n.local.Unsubscribe(id); err != nil {
		return err
	}
	n.withdraw(id, "")
	return nil
}

// propagate installs p on every neighbor's link back toward this node, then
// recurses outward. from is the neighbor name the propagation arrived from
// ("" at the subscription origin).
func (n *Node) propagate(p *predicate.Profile, from string) {
	n.mu.RLock()
	peers := make([]*Node, 0, len(n.links))
	for name, l := range n.links {
		if name == from {
			continue
		}
		peers = append(peers, l.peer)
	}
	n.mu.RUnlock()
	for _, peer := range peers {
		peer.installRoute(n.name, p)
		peer.propagate(p, n.name)
	}
}

// installRoute records that profiles in direction `via` include p. The link
// engine is mutated incrementally: one AddProfile, which is a single poset
// insertion — the engine's covering poset demotes newly covered routes
// itself, so no rescan of the existing route set happens here.
func (n *Node) installRoute(via string, p *predicate.Profile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[via]
	if !ok {
		return
	}
	if _, exists := l.routes[p.ID]; exists {
		// Re-install under the same id: replace, never duplicate.
		_ = l.filter.RemoveProfile(p.ID)
	}
	l.routes[p.ID] = p
	// Cannot fail: the id is not registered (checked above).
	_ = l.filter.AddProfile(p)
}

// withdraw removes the route for id in every direction away from `from`.
func (n *Node) withdraw(id predicate.ID, from string) {
	n.mu.RLock()
	peers := make([]*Node, 0, len(n.links))
	for name, l := range n.links {
		if name == from {
			continue
		}
		peers = append(peers, l.peer)
	}
	n.mu.RUnlock()
	for _, peer := range peers {
		peer.removeRoute(n.name, id)
		peer.withdraw(id, n.name)
	}
}

// removeRoute withdraws id from the link toward `via`. The engine's poset
// re-arms previously covered routes itself (kids of an
// emptied node re-link upward or promote to roots), so withdrawal is one
// incremental RemoveProfile, not a rebuild.
func (n *Node) removeRoute(via string, id predicate.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[via]
	if !ok {
		return
	}
	if _, exists := l.routes[id]; !exists {
		return
	}
	delete(l.routes, id)
	// Cannot fail: the id was registered (checked above).
	_ = l.filter.RemoveProfile(id)
}

// CoveredByOther reports whether some other route strictly covers p. Ties
// (mutual covering, i.e. equivalent profiles) keep the lexicographically
// smallest id to avoid dropping both.
//
// Route pruning itself no longer calls this — the link engines' covering
// poset maintains the uncovered set incrementally. It survives as the
// quadratic reference oracle: property tests check the poset's covering
// order against it pair by pair.
func CoveredByOther(s *schema.Schema, p *predicate.Profile, routes map[predicate.ID]*predicate.Profile) bool {
	for id, q := range routes {
		if id == p.ID {
			continue
		}
		if !predicate.Covers(s, q, p) {
			continue
		}
		if predicate.Covers(s, p, q) && p.ID < id {
			continue // equivalent profiles: the smaller id survives
		}
		return true
	}
	return false
}

// Publish posts the event at the named node. It returns the total number of
// local matches across all brokers the event reached.
func (nw *Network) Publish(node string, ev event.Event) (int, error) {
	n, err := nw.Node(node)
	if err != nil {
		return 0, err
	}
	return n.deliver(ev, "")
}

// deliver matches locally, then forwards over links whose routing filter
// accepts the event. A failing link never aborts the fan-out: every healthy
// link still receives the event and the errors are joined, so the returned
// match total always covers every reachable broker.
func (n *Node) deliver(ev event.Event, from string) (int, error) {
	matched, err := n.local.Publish(ev)
	if err != nil {
		return 0, err
	}
	total := matched

	n.mu.RLock()
	type hop struct {
		peer   *Node
		engine linkFilter
	}
	hops := make([]hop, 0, len(n.links))
	for name, l := range n.links {
		if name == from {
			continue
		}
		hops = append(hops, hop{peer: l.peer, engine: l.engine})
	}
	n.mu.RUnlock()

	var errs []error
	for _, h := range hops {
		if h.engine.ProfileCount() == 0 {
			n.nw.filtered.Add(1)
			continue
		}
		ids, _, err := h.engine.Match(ev.Vals)
		if err != nil {
			errs = append(errs, fmt.Errorf("link %s-%s: %w", n.name, h.peer.name, err))
			continue
		}
		if len(ids) == 0 {
			// Early rejection: nobody beyond this link wants the event.
			n.nw.filtered.Add(1)
			continue
		}
		n.nw.messages.Add(1)
		sub, err := h.peer.deliver(ev, n.name)
		total += sub
		if err != nil {
			errs = append(errs, err)
		}
	}
	return total, errors.Join(errs...)
}

// Broker exposes a node's local broker.
func (n *Node) Broker() *broker.Broker { return n.local }

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// RouteCount returns the number of uncovered routes installed toward `via`.
// That is the link poset's root count: covered routes stay registered (so
// withdrawal of their coverer re-arms them) but are not counted.
func (n *Node) RouteCount(via string) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l, ok := n.links[via]
	if !ok {
		return 0
	}
	return l.filter.AggStats().Roots
}

// Stats summarizes overlay traffic.
type Stats struct {
	Nodes    int
	Messages uint64 // events forwarded across links
	Filtered uint64 // link crossings avoided by early rejection
}

// Stats returns overlay-wide counters.
func (nw *Network) Stats() Stats {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return Stats{
		Nodes:    len(nw.nodes),
		Messages: nw.messages.Load(),
		Filtered: nw.filtered.Load(),
	}
}

// Close shuts every broker down. The node set is snapshotted under the
// lock and the brokers closed outside it: Broker.Close waits out in-flight
// deliveries, and holding nw.mu across that wait would wedge every
// Publish/Node/Stats call behind one slow Block-policy subscriber
// (genasvet: locksafe).
func (nw *Network) Close() {
	nw.mu.Lock()
	nodes := make([]*Node, 0, len(nw.nodes))
	for _, n := range nw.nodes {
		nodes = append(nodes, n)
	}
	nw.mu.Unlock()
	for _, n := range nodes {
		n.local.Close()
	}
}
