package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"genas"
	"genas/internal/agg"
	"genas/internal/broker"
	"genas/internal/federation"
	"genas/internal/hook"
	"genas/internal/wire"
)

// callTimeout bounds every client round trip. Everything runs on loopback,
// so a call this slow is a failure, not congestion.
const callTimeout = 60 * time.Second

// deployment is one assembled system under test, driven only through its
// public surfaces.
type deployment interface {
	// publish posts one event at the entry point and returns the entry
	// broker's local match count.
	publish(vals []float64) (int, error)
	subscribe(sb *sub) error
	unsubscribe(sb *sub) error
	// converge blocks until the subscriptions made so far can be notified
	// from the entry point (routes propagated); a no-op without federation.
	converge() error
	// localExpected reports whether publish's match count covers the
	// subscribers (false when they sit behind federation links).
	localExpected() bool
	stats() layerStats
	close()
}

// layerStats are the public counters of the deployment's layers.
type layerStats struct {
	delivered, dropped    uint64 // summed over every broker
	forwarded             uint64 // federation, summed over every node
	headForward, headFilt uint64 // federation, entry node only
	wireBytesPerEvent     float64
	restructures          int
}

func serviceOptions(w *workload) []genas.Option {
	// The genasd assembly: -measure, natural ordering, linear search, one
	// shard, plus -adaptive (default window and threshold).
	measure := w.measure
	if measure == "" {
		measure = "natural"
	}
	opts := []genas.Option{
		genas.WithValueMeasure(measure),
		genas.WithAttrOrdering("natural"),
		genas.WithSearch("linear"),
		genas.WithShards(1),
	}
	if w.adaptive {
		opts = append(opts, genas.WithAdaptivePolicy(1024, 0.1, false))
	}
	return opts
}

var logger = log.New(os.Stderr, "perfbench: ", log.LstdFlags)

// daemon is one genasd-equivalent: a service, its wire server on a loopback
// listener and, in a chain, its federation node.
type daemon struct {
	svc  *genas.Service
	brk  *broker.Broker
	srv  *wire.Server
	fed  *federation.Fed
	addr string
	done chan struct{}
}

func startDaemon(w *workload, node string) (*daemon, error) {
	sch, err := genas.ParseSchema(stdSchema)
	if err != nil {
		return nil, err
	}
	svc, err := genas.NewService(sch, serviceOptions(w)...)
	if err != nil {
		return nil, err
	}
	d := &daemon{svc: svc, brk: hook.BrokerOf(svc), done: make(chan struct{})}
	d.srv = wire.NewServer(d.brk, logger)
	d.srv.SetDefaults(hook.DefaultsOf(svc))
	if node != "" {
		d.fed, err = federation.New(d.brk, federation.Options{Node: node, Covering: true, Logger: logger})
		if err != nil {
			svc.Close()
			return nil, err
		}
		d.srv.SetOverlay(d.fed)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if d.fed != nil {
			d.fed.Close()
		}
		svc.Close()
		return nil, err
	}
	d.addr = ln.Addr().String()
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(context.Background(), ln)
	}()
	return d, nil
}

func (d *daemon) close() {
	d.srv.Close()
	<-d.done
	if d.fed != nil {
		d.fed.Close()
	}
	d.svc.Close()
}

// wireDeploy is a daemon or a chain of daemons spoken to over two v2 client
// connections: a publisher at the head and a subscriber at the tail.
type wireDeploy struct {
	nodes    []*daemon
	pub, sub *wire.Client
	recvDone chan struct{}
	// routes mirrors the subscribed corpus as a covering poset (chains
	// only): its root count is what the head's link filter must hold.
	mu     sync.Mutex
	routes *agg.Poset
}

func dialV2(addr string) (*wire.Client, error) {
	return wire.DialWith(addr, wire.DialConfig{Timeout: callTimeout, Proto: wire.ProtoV2})
}

// newWireDeploy starts hops+1 daemons (federated in a line when hops > 0)
// and the two client connections, and starts receiving notifications into t.
func newWireDeploy(w *workload, hops int, t *tracker) (*wireDeploy, error) {
	wd := &wireDeploy{recvDone: make(chan struct{})}
	for i := 0; i <= hops; i++ {
		node := ""
		if hops > 0 {
			node = fmt.Sprintf("n%d", i)
		}
		d, err := startDaemon(w, node)
		if err != nil {
			wd.closeNodes()
			return nil, err
		}
		wd.nodes = append(wd.nodes, d)
		if i > 0 {
			// Each daemon dials its predecessor, as genasd -peer does.
			d.fed.DialRetry(wd.nodes[i-1].addr)
		}
	}
	if hops > 0 {
		wd.routes = agg.NewPoset(wd.nodes[0].brk.Schema())
		if err := wd.waitLinks(); err != nil {
			wd.closeNodes()
			return nil, err
		}
	}
	var err error
	if wd.pub, err = dialV2(wd.nodes[0].addr); err != nil {
		wd.closeNodes()
		return nil, err
	}
	if wd.sub, err = dialV2(wd.nodes[len(wd.nodes)-1].addr); err != nil {
		_ = wd.pub.Close()
		wd.closeNodes()
		return nil, err
	}
	go func() {
		defer close(wd.recvDone)
		for resp := range wd.sub.Notifications() {
			now := t.now()
			sb := t.subByID(resp.Profile)
			if sb == nil {
				t.c.extra.Add(1)
				continue
			}
			t.receive(sb, resp.Vals, now)
		}
	}()
	return wd, nil
}

// waitLinks blocks until every link of the line is up.
func (wd *wireDeploy) waitLinks() error {
	stop := time.Now().Add(callTimeout)
	for time.Now().Before(stop) {
		up := true
		for i, d := range wd.nodes {
			want := 2
			if i == 0 || i == len(wd.nodes)-1 {
				want = 1
			}
			if len(d.fed.Peers()) != want {
				up = false
				break
			}
		}
		if up {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("federation links did not come up")
}

func (wd *wireDeploy) publish(vals []float64) (int, error) {
	return wd.pub.PublishVals(vals, callTimeout)
}

func (wd *wireDeploy) subscribe(sb *sub) error {
	err := wd.sub.Subscribe(sb.id, sb.prof.Render(wd.nodes[0].brk.Schema()), sb.prof.Priority, callTimeout)
	if err == nil && wd.routes != nil {
		wd.mu.Lock()
		wd.routes.Add(sb.prof)
		wd.mu.Unlock()
	}
	return err
}

func (wd *wireDeploy) unsubscribe(sb *sub) error {
	err := wd.sub.Unsubscribe(sb.id, callTimeout)
	if err == nil && wd.routes != nil {
		wd.mu.Lock()
		wd.routes.Remove(sb.prof.ID)
		wd.mu.Unlock()
	}
	return err
}

// converge waits until the head's link filter holds every live route: the
// link's uncovered-route count must equal the root count of a covering
// poset over the live corpus. Routes travel tail to head in order, so the
// head converging implies every hop has.
func (wd *wireDeploy) converge() error {
	if len(wd.nodes) == 1 {
		return nil
	}
	wd.mu.Lock()
	want := wd.routes.Stats().Roots
	wd.mu.Unlock()
	head := wd.nodes[0].fed
	stop := time.Now().Add(callTimeout)
	for head.RouteCount("n1") != want {
		if time.Now().After(stop) {
			return fmt.Errorf("routes did not converge: head holds %d of %d", head.RouteCount("n1"), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (wd *wireDeploy) localExpected() bool { return len(wd.nodes) == 1 }

func (wd *wireDeploy) stats() layerStats {
	var ls layerStats
	for i, d := range wd.nodes {
		st := d.brk.Stats()
		ls.delivered += st.Delivered
		ls.dropped += st.Dropped
		if d.fed != nil {
			_, _, fwd, filt := d.fed.Stats()
			ls.forwarded += fwd
			if i == 0 {
				ls.headForward, ls.headFilt = fwd, filt
			}
		}
	}
	if a := wd.nodes[0].brk.Adaptor(); a != nil {
		ls.restructures = a.Restructures()
	}
	if sp, err := wd.pub.Stats(callTimeout); err == nil {
		ls.wireBytesPerEvent = sp.BytesPerEventWire
	}
	return ls
}

func (wd *wireDeploy) closeNodes() {
	// Tail first: no daemon is left dialing a peer that has gone.
	for i := len(wd.nodes) - 1; i >= 0; i-- {
		wd.nodes[i].close()
	}
}

func (wd *wireDeploy) close() {
	_ = wd.pub.Close()
	_ = wd.sub.Close()
	<-wd.recvDone
	wd.closeNodes()
}

// embeddedDeploy is an in-process genas.Service; every subscription
// delivers to a handler that reports receipt to the tracker.
type embeddedDeploy struct {
	svc *genas.Service
	brk *broker.Broker
	t   *tracker
}

func newEmbeddedDeploy(w *workload, t *tracker) (*embeddedDeploy, error) {
	sch, err := genas.ParseSchema(stdSchema)
	if err != nil {
		return nil, err
	}
	svc, err := genas.NewService(sch, serviceOptions(w)...)
	if err != nil {
		return nil, err
	}
	return &embeddedDeploy{svc: svc, brk: hook.BrokerOf(svc), t: t}, nil
}

func (e *embeddedDeploy) publish(vals []float64) (int, error) {
	return e.svc.PublishValues(vals...)
}

func (e *embeddedDeploy) subscribe(sb *sub) error {
	t := e.t
	_, err := e.svc.SubscribeProfile(sb.prof, genas.SubHandler(func(n genas.Notification) {
		t.receive(sb, n.Event.Vals, t.now())
	}))
	return err
}

func (e *embeddedDeploy) unsubscribe(sb *sub) error { return e.svc.Unsubscribe(sb.id) }

func (e *embeddedDeploy) converge() error { return nil }

func (e *embeddedDeploy) localExpected() bool { return true }

func (e *embeddedDeploy) stats() layerStats {
	st := e.brk.Stats()
	return layerStats{delivered: st.Delivered, dropped: st.Dropped, restructures: e.svc.Restructures()}
}

func (e *embeddedDeploy) close() { e.svc.Close() }

func newDeployment(w *workload, t *tracker) (deployment, error) {
	switch w.deploy {
	case deployDaemon:
		return newWireDeploy(w, 0, t)
	case deployChain:
		return newWireDeploy(w, 3, t)
	case deployEmbedded:
		return newEmbeddedDeploy(w, t)
	}
	return nil, fmt.Errorf("unknown deployment %q", w.deploy)
}
