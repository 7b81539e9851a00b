package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupReps is how many times a run sets the deployment up; setup_s is the
// median, and the first set-up deployment is the one measured.
const setupReps = 3

// lossTimeout is how long the benchmark waits, with every publish already
// acknowledged, for any outstanding event to finish. When none does, what
// is outstanding is counted as lost: on loopback a delivered notification
// arrives within a millisecond, and a lost one must not idle the closed
// loop for long.
const lossTimeout = 250 * time.Millisecond

// runner drives one set-up deployment through the open and closed loops.
type runner struct {
	w *workload
	p *plan
	t *tracker
	d deployment

	// Churn rotation: liveQ holds live subscriptions, oldest first;
	// parked holds pool indices waiting to be subscribed again.
	liveQ  []*sub
	parked []int32

	g     int64 // next global event number
	stuck int   // full windows expired as lost

	ops      chan churnOp
	churnEnd chan struct{}

	churnLat []int64 // churn call durations (ns), owned by the churn goroutine
	genLag   []int64 // open-loop generator lateness after each wait (ns)

	converge   time.Duration // set-up time spent waiting for routes
	acks       []int64       // publish call durations (ns), when recordAcks
	recordAcks bool
	sp         *spans // nil unless traced
}

// newRunner prepares the benchmark's own state for one set-up: the tracker
// and the subscription records of the initial corpus.
func newRunner(w *workload, p *plan) (*runner, error) {
	t := newTracker(p)
	r := &runner{w: w, p: p, t: t}
	for pi := 0; pi < w.live; pi++ {
		sb, err := t.newSub(int32(pi))
		if err != nil {
			return nil, err
		}
		r.liveQ = append(r.liveQ, sb)
	}
	for pi := w.live; pi < len(p.pool); pi++ {
		r.parked = append(r.parked, int32(pi))
	}
	return r, nil
}

// setup assembles the deployment, registers the initial corpus, waits for
// routes and forces the first index build with one warm-up publish that must
// be delivered. It returns the elapsed set-up time.
func (r *runner) setup() (time.Duration, error) {
	t := r.t
	start := time.Now()
	d, err := newDeployment(r.w, t)
	if err != nil {
		return 0, err
	}
	r.d = d
	for _, sb := range r.liveQ {
		if err := d.subscribe(sb); err != nil {
			r.close()
			return 0, fmt.Errorf("subscribe %s: %w", sb.id, err)
		}
		sb.state.Store(stLive)
		t.live[sb.pool] = sb
	}
	c0 := time.Now()
	if err := d.converge(); err != nil {
		r.close()
		return 0, err
	}
	r.converge = time.Since(c0)
	r.publish(t.now(), false)
	t.drain(callTimeout)
	if t.c.completeOK.Load() != 1 {
		r.close()
		return 0, fmt.Errorf("warm-up event was not delivered: %d expected, %d received, %d lost, %d extra, %d duplicate, publish errors %d",
			t.c.expected.Load(), t.c.received.Load(), t.c.lost.Load(), t.c.extra.Load(), t.c.duplicate.Load(), t.c.publishErr.Load())
	}
	elapsed := time.Since(start)
	t.resetCounts()
	return elapsed, nil
}

// close tears the deployment down and stops the tracker's timer.
func (r *runner) close() {
	r.d.close()
	r.t.tick.Stop()
}

func (t *tracker) resetCounts() {
	for _, c := range []interface{ Store(int64) }{
		&t.c.published, &t.c.publishErr, &t.c.churnOps, &t.c.churnErr,
		&t.c.expected, &t.c.received, &t.c.lost, &t.c.duplicate,
		&t.c.extra, &t.c.ackMismatch, &t.c.finished, &t.c.completeOK,
	} {
		c.Store(0)
	}
}

// publish sends the next event of the stream, due at due.
func (r *runner) publish(due int64, open bool) {
	g := r.g
	r.g++
	req, opt := r.t.expect(g, due, open)
	if !r.d.localExpected() {
		req, opt = 0, 0
	}
	var c0 int64
	if r.sp != nil || r.recordAcks {
		c0 = r.t.now()
	}
	m, err := r.d.publish(r.p.events[r.t.planIndex(g)])
	if r.sp != nil || r.recordAcks {
		c1 := r.t.now()
		if r.sp != nil {
			r.sp.add("publish", c0, c1, -1, g)
		}
		if r.recordAcks {
			r.acks = append(r.acks, c1-c0)
		}
	}
	r.t.acked(g, m, req, opt, err)
}

// churnOp is one subscribe (join) or unsubscribe handed to the churn
// goroutine.
type churnOp struct {
	sb   *sub
	join bool
}

// startChurn starts the goroutine that performs churn calls in issue order
// on the subscriber's side, concurrently with publishing, as an independent
// subscriber would. stopChurn waits for it.
func (r *runner) startChurn() {
	r.ops = make(chan churnOp, 1<<14) // never blocks the generator: far more than a run issues
	r.churnEnd = make(chan struct{})
	go func() {
		defer close(r.churnEnd)
		for op := range r.ops {
			c0 := r.t.now()
			var err error
			name := "unsubscribe"
			if op.join {
				name = "subscribe"
				err = r.d.subscribe(op.sb)
			} else {
				err = r.d.unsubscribe(op.sb)
			}
			c1 := r.t.now()
			r.churnLat = append(r.churnLat, c1-c0)
			if r.sp != nil {
				r.sp.add(name, c0, c1, -1, -1)
			}
			r.t.c.churnOps.Add(1)
			switch {
			case err != nil:
				r.t.c.churnErr.Add(1)
				op.sb.state.Store(stGone)
			case op.join:
				op.sb.state.Store(stLive)
			default:
				op.sb.state.Store(stGone)
			}
		}
	}()
}

func (r *runner) stopChurn() {
	close(r.ops)
	<-r.churnEnd
}

// churnStep rotates the corpus: the oldest live subscription leaves and the
// longest-parked profile joins under a fresh id. Both calls are issued to
// the churn goroutine; until each is acknowledged, events matching the
// subscription expect it only optionally.
func (r *runner) churnStep() {
	t := r.t
	old := r.liveQ[0]
	r.liveQ = r.liveQ[1:]
	t.live[old.pool] = nil
	r.parked = append(r.parked, old.pool)
	if old.state.Load() != stGone {
		old.state.Store(stLeaving)
		t.leaving = append(t.leaving, old)
		r.ops <- churnOp{sb: old}
	}
	pi := r.parked[0]
	r.parked = r.parked[1:]
	sb, err := t.newSub(pi)
	if err != nil {
		t.c.churnOps.Add(1)
		t.c.churnErr.Add(1)
		r.parked = append(r.parked, pi)
		return
	}
	t.live[pi] = sb
	r.liveQ = append(r.liveQ, sb)
	r.ops <- churnOp{sb: sb, join: true}
}

// churnSync performs one rotation step with direct, acknowledged, timed
// calls, and waits for routes to converge.
func (r *runner) churnSync() {
	t := r.t
	old := r.liveQ[0]
	r.liveQ = r.liveQ[1:]
	t.live[old.pool] = nil
	r.parked = append(r.parked, old.pool)
	t.c.churnOps.Add(2)
	c0 := t.now()
	if r.d.unsubscribe(old) != nil {
		t.c.churnErr.Add(1)
	}
	r.churnLat = append(r.churnLat, t.now()-c0)
	old.state.Store(stGone)
	pi := r.parked[0]
	r.parked = r.parked[1:]
	sb, err := t.newSub(pi)
	if err == nil {
		c0 = t.now()
		err = r.d.subscribe(sb)
		r.churnLat = append(r.churnLat, t.now()-c0)
	}
	if err != nil {
		t.c.churnErr.Add(1)
		r.parked = append(r.parked, pi)
		return
	}
	sb.state.Store(stLive)
	t.live[pi] = sb
	r.liveQ = append(r.liveQ, sb)
	if err := r.d.converge(); err != nil {
		t.c.churnErr.Add(1)
	}
}

// probeCalls is how many subscribe and unsubscribe calls each round times
// for subscribe_p90_ms, between set-up and the loops. The probe, not the
// churn of the open loop, gives the figure: the churn calls contend with
// the publishes and land on an index restructured for the seed's stream,
// so over ten seeds their p90 spread by 23% of its median; the probe's
// calls meet the index set-up built from the fixed corpus, with no event
// flowing. The
// p90 of a round's calls has tens of calls beyond it; a p99 would rest on
// the four slowest calls, which swing with the few calls that meet a
// collection. It stays below the coalescing threshold (two edits per live
// profile), so no probe call pays a full rebuild.
const probeCalls = 400

// probeSubscribes times n subscribe calls and their unsubscribes: each
// subscribes a fresh id to a live profile's predicates and waits for routes
// to converge, then removes it again. The copies are covered by their
// originals, so no route changes and no notification is added or lost.
func (r *runner) probeSubscribes(n int) []int64 {
	t := r.t
	var lat []int64
	call := func(f func(*sub) error, sb *sub) bool {
		t.c.churnOps.Add(1)
		c0 := t.now()
		err := f(sb)
		lat = append(lat, t.now()-c0)
		if err == nil {
			err = r.d.converge()
		}
		if err != nil {
			t.c.churnErr.Add(1)
		}
		return err == nil
	}
	for i := 0; i < n; i++ {
		sb, err := t.newSub(r.liveQ[i%len(r.liveQ)].pool)
		if err != nil {
			t.c.churnOps.Add(1)
			t.c.churnErr.Add(1)
			continue
		}
		if call(r.d.subscribe, sb) {
			call(r.d.unsubscribe, sb)
		}
	}
	return lat
}

// churnDue reports whether a churn step precedes the next event: one step
// every w.churnEvery events, at fixed positions in the stream.
func (r *runner) churnDue() bool {
	return r.w.churnEvery > 0 && r.g%int64(r.w.churnEvery) == 0
}

// burstPeriod spaces the open loop's bursts. Events are due together at the
// start of each period, rate·burstPeriod of them, and published back to
// back. Between bursts the generator sleeps: a timer sleep shorter than a
// millisecond overshoots to about a millisecond, and spinning instead would
// hold a processor that the runtime otherwise uses to poll the network,
// delaying deliveries by milliseconds.
const burstPeriod = 2 * time.Millisecond

// waitUntil holds the generator until the tracker clock reaches due and
// records how late it woke as generator lag. Gaps under a millisecond (only
// after a burst that overran) are spun away.
func (r *runner) waitUntil(due int64) {
	now := r.t.now()
	if now >= due {
		return
	}
	if due-now >= int64(time.Millisecond) {
		time.Sleep(time.Duration(due - now))
	}
	for now = r.t.now(); now < due; now = r.t.now() {
		runtime.Gosched()
	}
	r.genLag = append(r.genLag, now-due)
}

// openLoop publishes at the workload's fixed rate for dur, in bursts every
// burstPeriod, every event timed from when it was due. Like the closed loop
// it never has more than the workload's window of events outstanding: the
// subscriber's buffers (64 notifications per subscription at the broker,
// 256 per connection in the client) drop what they cannot hold, and
// without the cap a backlog published back to back after a stall (the
// adaptive restructure holds one publish call for seconds) or a pause of
// the receiving goroutine overruns them. Latencies count from each event's
// due time, so the stall and any wait for the window show in full in
// notify_p99_ms.
func (r *runner) openLoop(dur time.Duration) {
	burst := max(1, int(r.w.openRate*burstPeriod.Seconds()+0.5))
	bursts := int(dur / burstPeriod)
	t0 := r.t.now()
	for b := 0; b < bursts; b++ {
		due := t0 + int64(b)*int64(burstPeriod)
		r.waitUntil(due)
		for i := 0; i < burst; i++ {
			if r.churnDue() {
				r.churnStep()
			}
			r.awaitWindow()
			r.publish(due, true)
		}
	}
}

// awaitWindow blocks while the workload's window of events is outstanding.
// When no event finishes for lossTimeout, what is outstanding is expired as
// lost.
func (r *runner) awaitWindow() {
	t := r.t
	lastFinish, lastAt := t.c.finished.Load(), time.Now()
	for t.outstanding() >= int64(r.w.window) {
		select {
		case <-t.kick:
		case <-t.tick.C:
		}
		if f := t.c.finished.Load(); f != lastFinish {
			lastFinish, lastAt = f, time.Now()
		} else if time.Since(lastAt) > lossTimeout {
			t.expireAll()
			r.stuck++
		}
	}
}

// closedLoop publishes whenever fewer than the window's events are
// outstanding, for dur. It returns the events completed (every expected
// notification received) inside the window and the window's length.
func (r *runner) closedLoop(dur time.Duration) (int64, time.Duration) {
	t := r.t
	ok0 := t.c.completeOK.Load()
	start := time.Now()
	end := t.now() + int64(dur)
	for r.awaitWindow(); t.now() < end; r.awaitWindow() {
		r.publish(t.now(), false)
	}
	return t.c.completeOK.Load() - ok0, time.Since(start)
}

// round is what one set-up deployment measured: its set-up, its open loop
// and its closed loop.
type round struct {
	setup        float64 // seconds
	probe        []int64 // probe subscribe and unsubscribe call durations (ns)
	bytesPerSub  float64
	notify       []int64 // ns, open loop
	churn        []int64 // ns, churn calls
	throughput   float64
	allocsPerEv  float64
	genLag       []int64
	openEvents   int64
	closedEvents int64
	openLost     int64
	stuck        int
	c            *counts
	layer        layerStats
}

// runRound sets the workload up and runs the open loop and the closed loop
// on it, each for dur, then tears it down. base is the process's goroutine
// count with no deployment.
func runRound(w *workload, p *plan, dur time.Duration, base int) (*round, error) {
	r, err := newRunner(w, p)
	if err != nil {
		return nil, err
	}
	quiesce(base)
	heap0 := liveHeap()
	el, err := r.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	rd := &round{setup: el.Seconds()}
	rd.bytesPerSub = float64(int64(liveHeap())-int64(heap0)) / float64(w.live)
	rd.probe = r.probeSubscribes(probeCalls / 2)
	runtime.GC()
	r.startChurn()

	// liveHeap has just collected: the open loop starts, like the closed
	// loop below, right after a collection, so that the collector's cycles
	// fall at the same points of every run instead of on or off a window's
	// edge.
	r.openLoop(dur)
	r.t.drain(lossTimeout)
	rd.openEvents = r.t.c.published.Load()
	rd.openLost = r.t.c.lost.Load()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	done, el := r.closedLoop(dur)
	runtime.ReadMemStats(&ms1)
	r.stopChurn()
	rd.closedEvents = r.t.c.published.Load() - rd.openEvents
	rd.throughput = float64(done) / el.Seconds()
	if rd.closedEvents > 0 {
		rd.allocsPerEv = float64(ms1.Mallocs-ms0.Mallocs) / float64(rd.closedEvents)
	}
	r.t.drain(lossTimeout)

	rd.c = &r.t.c
	rd.notify = r.t.latencies()
	rd.churn = r.churnLat
	rd.genLag = r.genLag
	rd.stuck = r.stuck
	rd.layer = r.d.stats()
	return rd, nil
}

// measurement is everything one untraced run reports: each figure is the
// median over the workload's rounds, failures are summed over them.
type measurement struct {
	setup                        []float64 // seconds per set-up
	throughput, p50, p99, subP90 float64
	bytesPerSub, allocsPerEv     float64
	attempted, failed            int64
	extra, lost, duplicate       int64
	mismatch                     int64
	rounds                       []*round
}

// warmRound is the length of each loop of the untimed first round.
const warmRound = time.Second

// measure runs the workload's rounds, each on a fresh deployment, within
// seconds of measuring in total, and times further set-ups until there are
// setupReps of them.
func measure(w *workload, p *plan, seconds float64) (*measurement, error) {
	m := &measurement{}
	base := runtime.NumGoroutine()
	// A short untimed round first: the process's first deployment pays for
	// growing the heap and faulting its pages in, which later ones reuse.
	warm, err := runRound(w, p, warmRound, base)
	if err != nil {
		return nil, err
	}
	m.bytesPerSub = warm.bytesPerSub
	dur := time.Duration(seconds / float64(2*w.rounds) * float64(time.Second))
	var thr, p50, p99, allocs []float64
	var subCalls []int64
	for i := 0; i < w.rounds; i++ {
		rd, err := runRound(w, p, dur, base)
		if err != nil {
			return nil, err
		}
		m.rounds = append(m.rounds, rd)
		m.setup = append(m.setup, rd.setup)
		notify := nsToMS(rd.notify)
		thr = append(thr, rd.throughput)
		p50 = append(p50, quantile(notify, 0.5))
		p99 = append(p99, quantile(notify, 0.99))
		subCalls = append(subCalls, rd.probe...)
		// A torn-down deployment's memory still reachable at a round's
		// baseline can only shrink its figure, never grow it: keep the
		// largest, the untimed round's (the process's first deployment)
		// included.
		m.bytesPerSub = max(m.bytesPerSub, rd.bytesPerSub)
		allocs = append(allocs, rd.allocsPerEv)
		c := rd.c
		m.attempted += c.published.Load() + c.churnOps.Load() + c.expected.Load()
		m.failed += c.publishErr.Load() + c.churnErr.Load() + c.lost.Load() + c.duplicate.Load() + c.extra.Load()
		m.extra += c.extra.Load()
		m.lost += c.lost.Load()
		m.duplicate += c.duplicate.Load()
		m.mismatch += c.ackMismatch.Load()
	}
	for len(m.setup) < setupReps {
		rr, err := newRunner(w, p)
		if err != nil {
			return nil, err
		}
		quiesce(base)
		runtime.GC() // every set-up starts from a collected heap
		el, err := rr.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setup = append(m.setup, el.Seconds())
		rr.close()
	}
	m.throughput, m.p50, m.p99 = median(thr), median(p50), median(p99)
	m.subP90, m.allocsPerEv = quantile(nsToMS(subCalls), 0.9), median(allocs)
	return m, nil
}

// quiesce waits (up to five seconds) until no more than base goroutines
// run, so that nothing a torn-down deployment's goroutines still reference
// counts in the next heap baseline.
func quiesce(base int) {
	for stop := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(stop); {
		time.Sleep(time.Millisecond)
	}
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
