package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"genas/internal/predicate"
)

// ringSize bounds how many events can be outstanding at once. An event still
// outstanding when its slot comes round again has waited for ringSize later
// publishes and is counted as lost.
const ringSize = 1 << 18

// maxSubs bounds the subscriptions one tracker can create (initial corpus
// plus churn subscribes).
const maxSubs = 1 << 18

// Subscription states. Only the publishing goroutine reads them to decide
// what an event expects; the churn goroutine moves a subscription to
// stLive or stGone once its call has been acknowledged.
const (
	stJoining int32 = iota // subscribe issued, not yet acknowledged
	stLive                 // subscribed: every matching event must notify it
	stLeaving              // unsubscribe issued, not yet acknowledged
	stGone                 // unsubscribed, or its subscribe failed
)

// sub is one subscription the benchmark created: its profile, and the FIFO
// of events whose notification it expects. The publisher appends before
// publishing; the receiving goroutine pops. Notifications of one
// subscription arrive in publish order on every deployment (one ordered
// publisher, FIFO channels and links), so a notification that skips a
// required entry of the FIFO proves that entry lost.
type sub struct {
	pool  int32
	id    string
	prof  *predicate.Profile
	state atomic.Int32

	mu       sync.Mutex
	q        []pending
	head     int
	lat      []int64 // open-loop receipt latencies (ns since due)
	maxDepth int     // deepest the FIFO got (notifications in flight)
}

// pending is one expected notification. An optional one belongs to an event
// published while the subscription's subscribe or unsubscribe was in
// flight: whether it is delivered depends on which call the broker saw
// first, so neither its receipt nor its absence is an error.
type pending struct {
	g   int64
	opt bool
}

// slot is the ring entry of one published event.
type slot struct {
	g    atomic.Int64
	rem  atomic.Int32 // outstanding units: expected notifications + 1 for the ack
	bad  atomic.Bool  // some unit of the event failed
	due  int64        // ns since the tracker's epoch
	open bool         // published by the open loop: its receipts are latency samples
}

// counts are the tracker's failure accounting, all atomic.
type counts struct {
	published, publishErr atomic.Int64
	churnOps, churnErr    atomic.Int64
	expected, received    atomic.Int64
	lost, duplicate       atomic.Int64
	extra, ackMismatch    atomic.Int64
	finished, completeOK  atomic.Int64
}

// tracker matches every received notification against the oracle and
// counts event completion. It is the benchmark's single source of truth for
// correctness and latency.
type tracker struct {
	p     *plan
	epoch time.Time
	slots []slot
	subs  []atomic.Pointer[sub]
	nsubs atomic.Int64
	// live maps a pool index to its current subscription (nil when
	// parked); leaving holds subscriptions whose unsubscribe is in flight.
	// Both are owned by the publishing goroutine.
	live    []*sub
	leaving []*sub
	c       counts
	kick    chan struct{} // signalled (non-blocking) on every finished event
	tick    *time.Ticker  // bounds every wait on kick
}

func newTracker(p *plan) *tracker {
	return &tracker{
		p:     p,
		epoch: time.Now(),
		slots: make([]slot, ringSize),
		subs:  make([]atomic.Pointer[sub], maxSubs),
		live:  make([]*sub, len(p.pool)),
		kick:  make(chan struct{}, 1),
		tick:  time.NewTicker(5 * time.Millisecond),
	}
}

func (t *tracker) now() int64 { return int64(time.Since(t.epoch)) }

// planIndex maps a global event number to its plan event: event 0 is the
// warm-up, and the stream continues cyclically from there.
func (t *tracker) planIndex(g int64) int {
	return int((g + int64(t.p.warm)) % int64(len(t.p.events)))
}

// newSub creates the subscription state for pool profile pi with a fresh id
// (ids are never reused, so a late notification for an ended subscription
// cannot be mistaken for one of its successor).
func (t *tracker) newSub(pi int32) (*sub, error) {
	idx := int(t.nsubs.Add(1) - 1)
	if idx >= maxSubs {
		return nil, fmt.Errorf("more than %d subscriptions", maxSubs)
	}
	src := t.p.pool[pi]
	id := "s" + strconv.Itoa(idx)
	s := &sub{pool: pi, id: id,
		prof: &predicate.Profile{ID: predicate.ID(id), Preds: src.Preds, Priority: src.Priority}}
	t.subs[idx].Store(s)
	return s, nil
}

// subByID resolves a notification's subscription id.
func (t *tracker) subByID(id string) *sub {
	if len(id) < 2 || id[0] != 's' {
		return nil
	}
	idx, err := strconv.Atoi(id[1:])
	if err != nil || idx < 0 || idx >= maxSubs {
		return nil
	}
	return t.subs[idx].Load()
}

// expect registers event g before it is published: every subscription whose
// profile matches gets g appended to its FIFO, required when the
// subscription is live and optional while one of its churn calls is in
// flight. It returns the numbers of required and optional notifications.
func (t *tracker) expect(g int64, due int64, open bool) (req, opt int) {
	s := &t.slots[g%ringSize]
	if s.rem.Load() > 0 {
		// The slot's previous event is still outstanding a full ring later.
		t.expire(s)
	}
	s.g.Store(g)
	s.due = due
	s.open = open
	s.bad.Store(false)
	pi := t.planIndex(g)
	for _, mi := range t.p.matches(pi) {
		sb := t.live[mi]
		if sb == nil {
			continue
		}
		switch sb.state.Load() {
		case stLive:
			t.push(sb, pending{g: g})
			req++
		case stJoining:
			t.push(sb, pending{g: g, opt: true})
			opt++
		}
	}
	if len(t.leaving) > 0 {
		vals := t.p.events[pi]
		keep := t.leaving[:0]
		for _, sb := range t.leaving {
			if sb.state.Load() == stGone {
				continue
			}
			keep = append(keep, sb)
			if sb.prof.Matches(vals) {
				t.push(sb, pending{g: g, opt: true})
				opt++
			}
		}
		clear(t.leaving[len(keep):])
		t.leaving = keep
	}
	s.rem.Store(int32(req + 1))
	t.c.expected.Add(int64(req))
	t.c.published.Add(1)
	return req, opt
}

// push appends e to sb's FIFO. Entries more than half a plan cycle older
// than e are retired first (a required one as lost): their notification
// would have arrived long ago, and keeping them could match a receipt of
// the same plan event one cycle later.
func (t *tracker) push(sb *sub, e pending) {
	sb.mu.Lock()
	for sb.head < len(sb.q) && e.g-sb.q[sb.head].g > planEvents/2 {
		if old := sb.q[sb.head]; !old.opt {
			t.lose(old.g)
		}
		sb.head++
	}
	sb.q = append(sb.q, e)
	if d := len(sb.q) - sb.head; d > sb.maxDepth {
		sb.maxDepth = d
	}
	sb.mu.Unlock()
}

// acked records the publish call's outcome for event g: the entry broker
// matched matched subscriptions, of which req were required and up to opt
// more optional.
func (t *tracker) acked(g int64, matched, req, opt int, err error) {
	switch {
	case err != nil:
		t.c.publishErr.Add(1)
		t.dec(g, false)
		return
	case matched > req+opt:
		// The engine matched a profile the oracle rejects: a filter bug.
		t.c.extra.Add(int64(matched - req - opt))
	case matched < req:
		t.c.ackMismatch.Add(int64(req - matched))
	}
	t.dec(g, true)
}

// dec retires one outstanding unit of event g. Units of an event already
// retired by expiry are ignored.
func (t *tracker) dec(g int64, ok bool) {
	s := &t.slots[g%ringSize]
	for {
		r := s.rem.Load()
		if r <= 0 || s.g.Load() != g {
			return // retired already, by expiry
		}
		if s.rem.CompareAndSwap(r, r-1) {
			if !ok {
				s.bad.Store(true)
			}
			if r == 1 {
				t.finish(s)
			}
			return
		}
	}
}

// lose retires an expected notification of g as lost.
func (t *tracker) lose(g int64) {
	s := &t.slots[g%ringSize]
	if s.g.Load() == g && s.rem.Load() > 0 {
		t.c.lost.Add(1)
	}
	t.dec(g, false)
}

// expire retires everything an event still waits for as lost.
func (t *tracker) expire(s *slot) {
	if r := s.rem.Swap(0); r > 0 {
		t.c.lost.Add(int64(r))
		s.bad.Store(true)
		t.finish(s)
	}
}

func (t *tracker) finish(s *slot) {
	if !s.bad.Load() {
		t.c.completeOK.Add(1)
	}
	t.c.finished.Add(1)
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// outstanding is the number of published events not yet finished.
func (t *tracker) outstanding() int64 {
	return t.c.published.Load() - t.c.finished.Load()
}

// receive accounts one notification for subscription sb carrying vals,
// received at time now.
func (t *tracker) receive(sb *sub, vals []float64, now int64) {
	sb.mu.Lock()
	found := -1
	for k := sb.head; k < len(sb.q); k++ {
		if sameVals(t.p.events[t.planIndex(sb.q[k].g)], vals) {
			found = k
			break
		}
	}
	if found < 0 {
		sb.mu.Unlock()
		if sb.prof.Matches(vals) {
			t.c.duplicate.Add(1)
		} else {
			t.c.extra.Add(1)
		}
		return
	}
	for k := sb.head; k < found; k++ {
		if !sb.q[k].opt {
			t.lose(sb.q[k].g)
		}
	}
	e := sb.q[found]
	sb.head = found + 1
	if sb.head == len(sb.q) {
		sb.q, sb.head = sb.q[:0], 0
	}
	if e.opt {
		sb.mu.Unlock()
		return
	}
	s := &t.slots[e.g%ringSize]
	if s.open && s.g.Load() == e.g {
		sb.lat = append(sb.lat, now-s.due)
	}
	sb.mu.Unlock()
	t.c.received.Add(1)
	t.dec(e.g, true)
}

// drain waits until every published event has finished, then returns. When
// no event finishes for idle (every publish has been acknowledged by then,
// so only delivery is pending), what is still outstanding is expired as
// lost.
func (t *tracker) drain(idle time.Duration) {
	last, lastAt := t.c.finished.Load(), time.Now()
	for t.outstanding() > 0 {
		if f := t.c.finished.Load(); f != last {
			last, lastAt = f, time.Now()
		} else if time.Since(lastAt) >= idle {
			t.expireAll()
			return
		}
		select {
		case <-t.kick:
		case <-t.tick.C:
		}
	}
}

// expireAll expires every outstanding event as lost.
func (t *tracker) expireAll() {
	for i := range t.slots {
		if s := &t.slots[i]; s.rem.Load() > 0 {
			t.expire(s)
		}
	}
}

// latencies gathers the open-loop receipt latencies of every subscription.
func (t *tracker) latencies() []int64 {
	var out []int64
	for i := 0; i < int(t.nsubs.Load()); i++ {
		if s := t.subs[i].Load(); s != nil {
			s.mu.Lock()
			out = append(out, s.lat...)
			s.mu.Unlock()
		}
	}
	return out
}

// maxQueueDepth is the most notifications any subscription had in flight.
func (t *tracker) maxQueueDepth() int {
	d := 0
	for i := 0; i < int(t.nsubs.Load()); i++ {
		if s := t.subs[i].Load(); s != nil {
			s.mu.Lock()
			d = max(d, s.maxDepth)
			s.mu.Unlock()
		}
	}
	return d
}

func sameVals(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
