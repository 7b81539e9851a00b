package loadgen

import (
	"fmt"
	"sync/atomic"
	"time"

	"genas"
	"genas/internal/core"
	"genas/internal/event"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// Driver is the surface a plan runs against. Every layer of the system that
// filters events gets an adapter, so one scenario spec measures the raw
// automaton, the full service, the TCP protocol and a federation with the
// same stream.
type Driver interface {
	// Name labels the driver in reports.
	Name() string
	// Subscribe registers a profile, Unsubscribe removes one (churn path).
	Subscribe(p *predicate.Profile) error
	Unsubscribe(id predicate.ID) error
	// Publish filters one positional event, returning the local match
	// count. PublishBatch is the burst path for a slice of events.
	Publish(vals []float64) (int, error)
	PublishBatch(batch [][]float64) (int, error)
	// Drain blocks until asynchronous delivery settles and returns the
	// driver's delivery counters (zero for synchronous drivers).
	Drain() (Counters, error)
	// Close tears the driver down.
	Close() error
}

// Counters are the post-run delivery counters of asynchronous drivers.
type Counters struct {
	// Delivered counts notifications that reached a subscriber.
	Delivered uint64 `json:"delivered,omitempty"`
	// Forwarded and Filtered are federation link counters: events that
	// crossed a TCP link, and crossings avoided by link-level rejection.
	Forwarded uint64 `json:"forwarded,omitempty"`
	Filtered  uint64 `json:"filtered,omitempty"`
}

// OpenDriver constructs the scenario's driver over the plan's schema.
func OpenDriver(sc Scenario, sch *schema.Schema) (Driver, error) {
	var cfg core.Config
	switch sc.Driver {
	case "", "engine":
		return &filterDriver{name: "engine", f: core.NewEngine(sch, cfg)}, nil
	case "sharded":
		n := core.ResolveShards(sc.Shards)
		if n < 2 {
			n = 2 // a 1-way "sharded" engine would silently degenerate
		}
		return &filterDriver{name: "sharded", f: core.NewSharded(sch, cfg, n)}, nil
	case "service":
		return newServiceDriver(sc, sch)
	case "wire":
		return newWireDriver(sc, sch)
	case "federation":
		return newFedDriver(sc, sch)
	default:
		return nil, fmt.Errorf("%w: driver %q", ErrBadScenario, sc.Driver)
	}
}

// filterDriver runs a bare core.Filter: matching without delivery, the
// paper's comparisons-per-event surface.
type filterDriver struct {
	name string
	f    core.Filter
}

func (d *filterDriver) Name() string { return d.name }

func (d *filterDriver) Subscribe(p *predicate.Profile) error { return d.f.AddProfile(p) }

func (d *filterDriver) Unsubscribe(id predicate.ID) error { return d.f.RemoveProfile(id) }

func (d *filterDriver) Publish(vals []float64) (int, error) {
	ids, _, err := d.f.Match(vals)
	return len(ids), err
}

func (d *filterDriver) PublishBatch(batch [][]float64) (int, error) {
	rs, err := d.f.MatchBatch(batch, 0)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, r := range rs {
		total += len(r.IDs)
	}
	return total, nil
}

func (d *filterDriver) Drain() (Counters, error) { return Counters{}, nil }

func (d *filterDriver) Close() error { return nil }

// AggStats reports the engine's canonical-aggregation shape.
func (d *filterDriver) AggStats() core.AggStats { return d.f.AggStats() }

// serviceDriver runs the full genas.Service: matching plus delivery to
// handler-driven subscriptions (the cheapest delivery mode, so the measured
// cost is the service path, not a synthetic consumer).
type serviceDriver struct {
	svc       *genas.Service
	delivered atomic.Uint64
}

func newServiceDriver(sc Scenario, sch *schema.Schema) (*serviceDriver, error) {
	opts := []genas.Option{genas.WithShards(sc.Shards)}
	if sc.Adaptive {
		opts = append(opts, genas.WithAdaptive())
	}
	svc, err := genas.NewService(sch, opts...)
	if err != nil {
		return nil, err
	}
	return &serviceDriver{svc: svc}, nil
}

func (d *serviceDriver) Name() string { return "service" }

func (d *serviceDriver) Subscribe(p *predicate.Profile) error {
	_, err := d.svc.SubscribeProfile(p, genas.SubHandler(func(genas.Notification) {
		d.delivered.Add(1)
	}))
	return err
}

func (d *serviceDriver) Unsubscribe(id predicate.ID) error {
	return d.svc.Unsubscribe(string(id))
}

func (d *serviceDriver) Publish(vals []float64) (int, error) {
	return d.svc.PublishValues(vals...)
}

func (d *serviceDriver) PublishBatch(batch [][]float64) (int, error) {
	evs := make([]genas.Event, len(batch))
	for i, vals := range batch {
		ev, err := event.New(d.svc.Schema(), vals...)
		if err != nil {
			return 0, err
		}
		evs[i] = ev
	}
	counts, err := d.svc.PublishBatch(evs)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// Drain waits for the handler goroutines to work through their buffers: the
// delivered tally is sampled until it stops moving.
func (d *serviceDriver) Drain() (Counters, error) {
	waitStable(func() uint64 { return d.delivered.Load() })
	return Counters{Delivered: d.svc.Stats().Delivered}, nil
}

func (d *serviceDriver) Close() error {
	d.svc.Close()
	return nil
}

// AggStats reports the service engine's canonical-aggregation shape.
func (d *serviceDriver) AggStats() core.AggStats {
	st := d.svc.Stats()
	return core.AggStats{
		Subscriptions: st.Subscriptions,
		Nodes:         st.CanonicalNodes,
		Roots:         st.CanonicalRoots,
		MaxDepth:      st.PosetDepth,
	}
}

// waitStable polls a monotone counter until it holds still for a few
// consecutive samples (asynchronous pipelines have no completion signal;
// quiescence is the observable).
func waitStable(read func() uint64) {
	last := read()
	still := 0
	deadline := time.Now().Add(10 * time.Second)
	for still < 3 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		cur := read()
		if cur == last {
			still++
		} else {
			still = 0
			last = cur
		}
	}
}
