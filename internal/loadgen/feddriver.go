package loadgen

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/federation"
	"genas/internal/predicate"
	"genas/internal/routing"
	"genas/internal/schema"
	"genas/internal/wire"
)

// fedNode is one daemon of the in-process federation chain: a broker, its
// wire server and its overlay state, exactly what genasd assembles.
type fedNode struct {
	brk       *broker.Broker
	srv       *wire.Server
	fed       *federation.Fed
	addr      string
	serveDone chan struct{}
}

// fedDriver runs a linear federation n0 — n1 — … — nH over real loopback
// TCP links. Events publish at the head (n0) and subscriptions live at the
// tail, so every delivery crosses all H links — the worst-case forwarding
// path; filtered counters on the inner nodes expose link-level early
// rejection. Publish latency measures only the head's local work (remote
// delivery is asynchronous, as in production); Drain waits the pipeline
// empty and reports end-to-end delivered/forwarded/filtered totals.
type fedDriver struct {
	nodes []*fedNode
	sch   *schema.Schema
	proto wire.Proto // per-link protocol pin (ProtoAuto negotiates v2)

	mu       sync.Mutex
	subs     map[predicate.ID]*broker.Subscription
	drainers sync.WaitGroup
	// consumed tallies notifications read off tail subscription channels
	// (the drainers keep Block-policy subscriptions from wedging the tail);
	// the authoritative delivered count is the tail broker's, which is
	// updated synchronously inside Publish.
	consumed atomic.Uint64
	// pubs counts head publishes, pacing the backpressure probe.
	pubs int
}

func newFedDriver(sc Scenario, sch *schema.Schema) (*fedDriver, error) {
	hops := sc.Hops
	if hops <= 0 {
		hops = 3
	}
	if hops+1 > maxFedNodes {
		return nil, fmt.Errorf("%w: %d hops (max %d)", ErrBadScenario, hops, maxFedNodes-1)
	}
	d := &fedDriver{sch: sch, proto: sc.wireProto(), subs: make(map[predicate.ID]*broker.Subscription)}
	for i := 0; i <= hops; i++ {
		node, err := d.bootNode(fmt.Sprintf("n%d", i))
		if err != nil {
			d.teardown()
			return nil, err
		}
		d.nodes = append(d.nodes, node)
		if i > 0 {
			// Dial synchronously: the chain must be converged before the
			// stream starts, or early routes race the link handshake.
			if err := node.fed.Dial(d.nodes[i-1].addr); err != nil {
				d.teardown()
				return nil, err
			}
		}
	}
	return d, nil
}

// bootNode assembles one daemon on a loopback listener.
func (d *fedDriver) bootNode(name string) (*fedNode, error) {
	brk, err := broker.New(d.sch, broker.Options{})
	if err != nil {
		return nil, err
	}
	fed, err := federation.New(brk, federation.Options{Node: name, Proto: d.proto})
	if err != nil {
		brk.Close()
		return nil, err
	}
	srv := wire.NewServer(brk, nil)
	if d.proto == wire.ProtoV1 {
		srv.SetMaxProto(wire.ProtoV1)
	}
	srv.SetOverlay(fed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fed.Close()
		brk.Close()
		return nil, err
	}
	node := &fedNode{brk: brk, srv: srv, fed: fed, addr: ln.Addr().String(), serveDone: make(chan struct{})}
	go func() {
		defer close(node.serveDone)
		_ = srv.Serve(context.Background(), ln)
	}()
	return node, nil
}

func (d *fedDriver) Name() string { return "federation" }

func (d *fedDriver) head() *fedNode { return d.nodes[0] }
func (d *fedDriver) tail() *fedNode { return d.nodes[len(d.nodes)-1] }

// Subscribe registers the profile at the tail daemon and announces it to
// the overlay; the route propagates hop by hop toward the head. A dedicated
// drainer consumes the subscription losslessly (Block policy), so the
// delivered tally equals the true end-to-end match count.
func (d *fedDriver) Subscribe(p *predicate.Profile) error {
	t := d.tail()
	sub, err := t.brk.SubscribeWith(p, broker.SubOptions{Buffer: 256, Policy: broker.Block})
	if err != nil {
		return err
	}
	t.fed.ProfileAdded(p)
	d.mu.Lock()
	d.subs[p.ID] = sub
	d.mu.Unlock()
	d.drainers.Add(1)
	go func() {
		defer d.drainers.Done()
		for range sub.C() {
			d.consumed.Add(1)
		}
	}()
	return nil
}

func (d *fedDriver) Unsubscribe(id predicate.ID) error {
	d.mu.Lock()
	delete(d.subs, id)
	d.mu.Unlock()
	t := d.tail()
	if err := t.brk.Unsubscribe(id); err != nil {
		return err
	}
	t.fed.ProfileRemoved(id)
	return nil
}

// Sync blocks until route propagation has converged: the head's link
// engine must hold exactly the covering-pruned subset of the live
// subscription set. Routes travel hop by hop through asynchronous link
// queues, so without this barrier a stream could start before the head
// knows what to forward and early events would silently miss the tail.
func (d *fedDriver) Sync() error {
	d.mu.Lock()
	routes := make(map[predicate.ID]*predicate.Profile, len(d.subs))
	for id, sub := range d.subs {
		routes[id] = sub.Profile()
	}
	d.mu.Unlock()
	expected := 0
	for _, p := range routes {
		if !routing.CoveredByOther(d.sch, p, routes) {
			expected++
		}
	}
	head, peer := d.head().fed, "n1"
	deadline := time.Now().Add(30 * time.Second)
	for head.RouteCount(peer) != expected {
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: federation routes did not converge: head has %d of %d",
				head.RouteCount(peer), expected)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (d *fedDriver) Publish(vals []float64) (int, error) {
	ev, err := event.New(d.sch, vals...)
	if err != nil {
		return 0, err
	}
	h := d.head()
	n, err := h.brk.Publish(ev)
	if err != nil {
		return 0, err
	}
	h.fed.EventPublished(ev)
	d.backpressure(1)
	return n, nil
}

// backpressure is the load generator's closed loop: the head publishes
// locally and never feels peer TCP, so an unthrottled stream could outrun
// the first link's bounded frame queue (overflow cuts the link — correct
// for a wedged peer, fatal for a benchmark). Every probe interval it waits
// until the next hop has consumed to within half a queue of what the head
// enqueued, which in turn bounds every downstream queue.
func (d *fedDriver) backpressure(events int) {
	d.pubs += events
	if d.pubs < 128 {
		return
	}
	d.pubs = 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, forwarded, _ := d.head().fed.Stats()
		if forwarded-d.nodes[1].brk.Stats().Published < 512 || time.Now().After(deadline) {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (d *fedDriver) PublishBatch(batch [][]float64) (int, error) {
	evs := make([]event.Event, len(batch))
	for i, vals := range batch {
		ev, err := event.New(d.sch, vals...)
		if err != nil {
			return 0, err
		}
		evs[i] = ev
	}
	h := d.head()
	counts, err := h.brk.PublishBatch(evs)
	if err != nil {
		return 0, err
	}
	for _, ev := range evs {
		h.fed.EventPublished(ev)
	}
	d.backpressure(len(evs))
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// Drain waits for exact pipeline quiescence, hop by hop: once the head's
// publish loop returns, its forwarded counter is final, so hop i+1 has
// consumed everything when its Published count equals hop i's forwarded
// count. Frames travel each link in order and a hop re-forwards inside the
// same frame handler that publishes locally, so walking the chain head to
// tail — and then re-verifying the whole chain holds still — proves no
// frame is in flight anywhere. Tail deliveries are counted by the tail
// broker (updated synchronously inside Publish), not by the asynchronous
// channel drainers, so the returned total is exact.
func (d *fedDriver) Drain() (Counters, error) {
	deadline := time.Now().Add(30 * time.Second)
	prev := d.snapshot()
	for {
		if time.Now().After(deadline) {
			return Counters{}, fmt.Errorf("loadgen: federation pipeline did not quiesce: %v", prev)
		}
		time.Sleep(5 * time.Millisecond)
		cur := d.snapshot()
		if cur.quiescent(len(d.nodes)) && cur == prev {
			break
		}
		prev = cur
	}
	c := Counters{Delivered: d.tail().brk.Stats().Delivered}
	for _, n := range d.nodes {
		_, _, forwarded, filtered := n.fed.Stats()
		c.Forwarded += forwarded
		c.Filtered += filtered
	}
	return c, nil
}

// fedSnapshot is one observation of the whole chain's flow counters
// (comparable, so two identical consecutive snapshots certify stillness).
type fedSnapshot struct {
	published [maxFedNodes]uint64 // broker-level publishes per node
	forwarded [maxFedNodes]uint64 // frames enqueued toward the next hop
	delivered uint64              // tail broker deliveries
}

// maxFedNodes bounds the chain length so snapshots stay comparable arrays.
const maxFedNodes = 16

func (d *fedDriver) snapshot() fedSnapshot {
	var s fedSnapshot
	for i, n := range d.nodes {
		s.published[i] = n.brk.Stats().Published
		_, _, fwd, _ := n.fed.Stats()
		s.forwarded[i] = fwd
	}
	s.delivered = d.tail().brk.Stats().Delivered
	return s
}

// quiescent reports whether every hop has consumed exactly what its
// upstream enqueued. Combined with snapshot equality across a pause this
// proves the pipeline is empty: a frame handler caught between its local
// publish and its re-forward would move the forwarded counter on the next
// observation.
func (s fedSnapshot) quiescent(nodes int) bool {
	for hop := 1; hop < nodes; hop++ {
		if s.published[hop] != s.forwarded[hop-1] {
			return false
		}
	}
	return true
}

func (d *fedDriver) Close() error {
	d.teardown()
	return nil
}

// teardown closes the chain tail-first; closing each broker ends its
// subscription channels, which releases the drainers.
func (d *fedDriver) teardown() {
	for i := len(d.nodes) - 1; i >= 0; i-- {
		n := d.nodes[i]
		n.fed.Close()
		n.srv.Close()
		<-n.serveDone
		n.brk.Close()
	}
	d.nodes = nil
	d.drainers.Wait()
}
