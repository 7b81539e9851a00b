package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// Overlay is the federation integration surface: when installed, the server
// hands peer connections (first frame hello) over to it and mirrors local
// registration and publish activity into it, so profiles propagate to peer
// daemons and events cross a TCP link only when that link's routing filter
// matches.
type Overlay interface {
	// HandlePeer owns a connection whose first frame was a hello. It runs the
	// peer link until the connection drops and must tolerate conn being
	// closed concurrently by Server.Close. rd is the connection's buffered
	// reader (already past the hello line).
	HandlePeer(conn net.Conn, rd *bufio.Reader, hello Request)
	// ProfileAdded announces a locally subscribed profile to the overlay.
	ProfileAdded(p *predicate.Profile)
	// ProfileRemoved withdraws a locally removed profile from the overlay.
	ProfileRemoved(id predicate.ID)
	// EventPublished offers a locally published event for forwarding over
	// matching peer links. The overlay must not retain ev.Vals after
	// returning: the zero-copy v2 publish path hands it a reused scratch
	// slice (encode synchronously, enqueue bytes).
	EventPublished(ev event.Event)
	// Stats reports the overlay node name, live peer link count and the
	// forwarded/early-rejected counters.
	Stats() (node string, peers int, forwarded, filtered uint64)
	// ProtoV2Peers counts live peer links that negotiated protocol v2.
	ProtoV2Peers() int
}

// Server serves the wire protocol over TCP for one broker instance. Every
// connection owns its subscriptions: when the connection drops, its profiles
// are removed from the filter tree.
type Server struct {
	brk      *broker.Broker
	defaults *event.Defaults
	overlay  Overlay
	ln       net.Listener
	log      *log.Logger
	maxProto Proto

	// Wire-level counters (stats frame): bytes and events received on
	// publish/publish_batch frames, and frames observed queued behind the
	// one being served (pipelining depth > 1).
	wireBytes       atomic.Uint64
	wireEvents      atomic.Uint64
	framesPipelined atomic.Uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a broker. logger may be nil to discard logs.
func NewServer(brk *broker.Broker, logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	return &Server{brk: brk, log: logger, maxProto: ProtoV2, conns: make(map[net.Conn]struct{})}
}

// SetDefaults installs opt-in fill-ins for event attributes omitted from
// publish and publish_batch frames (nil restores the strict default: every
// attribute required). Call before Serve.
func (s *Server) SetDefaults(d *event.Defaults) { s.defaults = d }

// SetOverlay federates the server: hello frames are handed to o, and local
// subscribe/unsubscribe/publish activity is mirrored into it. Call before
// Serve.
func (s *Server) SetOverlay(o Overlay) { s.overlay = o }

// SetMaxProto caps the protocol generation the server will negotiate
// (ProtoV1 pins the daemon to JSON lines; ProtoAuto and ProtoV2 allow the
// v2 upgrade). Call before Serve.
func (s *Server) SetMaxProto(p Proto) {
	if p == ProtoV1 {
		s.maxProto = ProtoV1
		return
	}
	s.maxProto = ProtoV2
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Serve accepts connections on ln until the context is canceled or Close is
// called. It blocks; run it from the caller's goroutine of choice.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("wire: server closed")
	}
	s.ln = ln
	// The watcher joins the WaitGroup under s.mu: Close sets closed under the
	// same lock before it calls Wait, so Add can never race that Wait.
	s.wg.Add(1)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer s.wg.Done()
		select {
		case <-ctx.Done():
			_ = ln.Close()
		case <-done:
		}
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			// Release the watcher before joining the WaitGroup it belongs to:
			// without the close, a Close() that was not preceded by a context
			// cancel would leave the watcher parked and this Wait (and the
			// one inside Close) deadlocked.
			close(done)
			if ctx.Err() != nil || s.isClosed() {
				s.wg.Wait()
				return nil
			}
			s.wg.Wait()
			return fmt.Errorf("wire: accept: %w", err)
		}
		if !s.track(conn) {
			// Close ran between Accept and here: the connection would escape
			// the teardown (and its wg.Add would race Close's Wait), so drop
			// it instead of serving it.
			_ = conn.Close()
			continue
		}
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers a connection and joins the handler WaitGroup, refusing
// when the server is already closing (the caller must then drop the conn).
// Registration, the closed check and wg.Add happen under one lock so a
// concurrent Close either sees the connection (and closes it) or prevents it.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

// Close stops accepting, disconnects all clients and waits for handler
// goroutines to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// connState tracks one connection's subscriptions, negotiated protocol and
// synchronized writer. proto, slots and cid are owned by the request loop
// goroutine: proto/slots are fixed before the first subscription can spawn a
// forwarder, cid before each dispatch.
type connState struct {
	conn  net.Conn
	proto Proto
	slots *slots
	cid   uint32
	subs  map[string]*broker.Subscription
	wg    sync.WaitGroup

	mu   sync.Mutex
	wbuf []byte // reused frame/line build buffer, guarded by mu
}

func (cs *connState) writeLine(v any) error {
	b, err := EncodeLine(v)
	if err != nil {
		return err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	//genas:allow locksafe cs.mu exists to serialize frame writes on the shared conn; nothing else is ever taken under it
	_, err = cs.conn.Write(b)
	return err
}

// writeFrame writes an already-encoded v2 frame.
func (cs *connState) writeFrame(b []byte) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	//genas:allow locksafe cs.mu exists to serialize frame writes on the shared conn; nothing else is ever taken under it
	_, err := cs.conn.Write(b)
	return err
}

// send writes one response on the connection's negotiated protocol. On v2
// it reuses the connection's write buffer and pairs the response with the
// request's correlation id.
func (cs *connState) send(resp Response) error {
	if cs.proto < ProtoV2 {
		return cs.writeLine(resp)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	b, err := appendResponseFrame(cs.wbuf[:0], cs.cid, resp, cs.slots)
	if err != nil {
		return err
	}
	cs.wbuf = b
	//genas:allow locksafe cs.mu exists to serialize frame writes on the shared conn; nothing else is ever taken under it
	_, err = cs.conn.Write(b)
	return err
}

// sendOK acknowledges one v2 publish frame.
func (cs *connState) sendOK(cid uint32, matched int) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.wbuf = appendOKFrame(cs.wbuf[:0], cid, matched)
	//genas:allow locksafe cs.mu exists to serialize frame writes on the shared conn; nothing else is ever taken under it
	_, err := cs.conn.Write(cs.wbuf)
	return err
}

// sendOKBatch acknowledges one v2 publish_batch frame.
func (cs *connState) sendOKBatch(cid uint32, counts []int) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.wbuf = appendOKBatchFrame(cs.wbuf[:0], cid, counts)
	//genas:allow locksafe cs.mu exists to serialize frame writes on the shared conn; nothing else is ever taken under it
	_, err := cs.conn.Write(cs.wbuf)
	return err
}

// sendErr reports one failed v2 request.
func (cs *connState) sendErr(cid uint32, op Op, msg string) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.wbuf = appendErrFrame(cs.wbuf[:0], cid, op, msg)
	//genas:allow locksafe cs.mu exists to serialize frame writes on the shared conn; nothing else is ever taken under it
	_, err := cs.conn.Write(cs.wbuf)
	return err
}

// sendNotify pushes one notification in binary, straight from the broker's
// event vector — no attribute map is built on the v2 path.
func (cs *connState) sendNotify(profile string, seq uint64, vals []float64) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.wbuf = appendNotifyFrame(cs.wbuf[:0], profile, seq, vals)
	//genas:allow locksafe cs.mu exists to serialize frame writes on the shared conn; nothing else is ever taken under it
	_, err := cs.conn.Write(cs.wbuf)
	return err
}

// handle runs one connection's request loop.
func (s *Server) handle(conn net.Conn) {
	defer s.untrack(conn)
	cs := &connState{conn: conn, proto: ProtoV1, subs: make(map[string]*broker.Subscription)}
	defer func() {
		// Tear down this connection's subscriptions, then wait for their
		// forwarder goroutines (closing the subscription closes its channel,
		// which ends the forwarder).
		for id := range cs.subs {
			if s.brk.Unsubscribe(predicate.ID(id)) == nil && s.overlay != nil {
				s.overlay.ProfileRemoved(predicate.ID(id))
			}
		}
		cs.wg.Wait()
		_ = conn.Close()
	}()

	rd := bufio.NewReaderSize(conn, 64*1024)
	for {
		line, err := ReadLine(rd)
		if err != nil {
			if err != io.EOF {
				s.log.Printf("wire: connection %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if len(line) == 0 {
			continue
		}
		req, err := DecodeRequest(line)
		if err != nil {
			_ = cs.writeLine(Response{Type: MsgError, Error: err.Error()})
			continue
		}
		if req.Op == OpHello {
			if req.Node == "" && req.Proto >= int(ProtoV2) {
				// A v2-capable client asking to upgrade (peer hellos always
				// carry a node name). Confirm with the schema so the client
				// can build its slot table, then switch codecs: every byte
				// after this response line is a binary frame.
				if s.maxProto < ProtoV2 {
					_ = cs.writeLine(Response{Type: MsgError, Op: req.Op, Error: "protocol v2 disabled"})
					continue
				}
				if len(cs.subs) != 0 {
					_ = cs.writeLine(Response{Type: MsgError, Op: req.Op, Error: "hello must be the connection's first frame"})
					continue
				}
				if err := cs.writeLine(Response{Type: MsgOK, Op: req.Op, Proto: int(ProtoV2), Attributes: schemaPayload(s.brk.Schema())}); err != nil {
					return
				}
				cs.proto = ProtoV2
				cs.slots = newSlots(attrNames(s.brk.Schema()))
				s.serveV2(cs, rd)
				return
			}
			// A peer daemon, not a client: hand the connection over to the
			// federation layer, which runs the link until it drops.
			if s.overlay == nil {
				_ = cs.writeLine(Response{Type: MsgError, Op: req.Op, Error: "daemon is not federated"})
				continue
			}
			// A connection with live subscriptions has notification
			// forwarders writing to it; handing it to the federation would
			// put two unsynchronized writers on one conn. Hello must precede
			// any subscription.
			if len(cs.subs) != 0 {
				_ = cs.writeLine(Response{Type: MsgError, Op: req.Op, Error: "hello must be the connection's first frame"})
				continue
			}
			if s.maxProto < ProtoV2 && req.Proto >= int(ProtoV2) {
				// A v1-pinned daemon negotiates every peer link down to v1.
				req.Proto = int(ProtoV1)
			}
			// Forwarders of already-removed subscriptions may still be
			// draining; wait them out so no stray write can interleave with
			// the peer frame stream.
			cs.wg.Wait()
			s.overlay.HandlePeer(conn, rd, req)
			return
		}
		if req.Op == OpPublish || req.Op == OpPublishBatch {
			s.wireBytes.Add(uint64(len(line) + 1))
			s.wireEvents.Add(uint64(max(1, len(req.Events))))
			if rd.Buffered() > 0 {
				s.framesPipelined.Add(1)
			}
		}
		if err := s.dispatch(cs, req); err != nil {
			if writeErr := cs.writeLine(Response{Type: MsgError, Op: req.Op, Error: err.Error()}); writeErr != nil {
				return
			}
		}
	}
}

// serveV2 runs the connection after a negotiated upgrade: binary frames in
// both directions, many requests in flight. The read buffer and the event
// scratch vector are reused across frames — the hot publish path decodes
// into scratch, matches, and answers without allocating.
func (s *Server) serveV2(cs *connState, rd *bufio.Reader) {
	sch := s.brk.Schema()
	var (
		buf     []byte
		scratch = make([]float64, 0, sch.N())
		evs     []event.Event
	)
	for {
		typ, payload, err := ReadFrame(rd, &buf)
		if err != nil {
			// Framing is unrecoverable: a truncated, oversized or malformed
			// prefix means the stream position is lost, so the connection
			// closes (the deferred teardown in handle drops subscriptions).
			if err != io.EOF {
				s.log.Printf("wire: v2 connection %s: %v", cs.conn.RemoteAddr(), err)
			}
			return
		}
		if rd.Buffered() > 0 {
			s.framesPipelined.Add(1)
		}
		switch typ {
		case framePublish:
			cid, vals, err := decodePublishFrame(payload, scratch)
			if cap(vals) > cap(scratch) {
				scratch = vals
			}
			if err != nil {
				s.log.Printf("wire: v2 connection %s: %v", cs.conn.RemoteAddr(), err)
				return
			}
			s.wireBytes.Add(uint64(len(payload) + 5))
			s.wireEvents.Add(1)
			matched, err := s.publishVals(sch, vals)
			if err != nil {
				if cs.sendErr(cid, OpPublish, err.Error()) != nil {
					return
				}
				continue
			}
			if cs.sendOK(cid, matched) != nil {
				return
			}

		case framePublishBatch:
			c := cur{b: payload}
			cid := c.u32()
			n := c.u32()
			if c.bad || n == 0 || uint64(n) > uint64(len(c.b)) {
				s.log.Printf("wire: v2 connection %s: %v", cs.conn.RemoteAddr(), fmt.Errorf("%w: bad batch count", ErrBadFrame))
				return
			}
			// Batch events are retained by notifications, so each vector is
			// decoded into its own slice (the v1 path allocates per event
			// too — the batch saving is in framing and response coalescing).
			evs = evs[:0]
			for i := uint32(0); i < n && !c.bad; i++ {
				evs = append(evs, event.Event{Vals: c.vec(make([]float64, 0, sch.N()))})
			}
			if err := c.done(); err != nil {
				s.log.Printf("wire: v2 connection %s: %v", cs.conn.RemoteAddr(), err)
				return
			}
			s.wireBytes.Add(uint64(len(payload) + 5))
			s.wireEvents.Add(uint64(n))
			counts, err := s.publishBatchVals(sch, evs)
			if err != nil {
				if cs.sendErr(cid, OpPublishBatch, err.Error()) != nil {
					return
				}
				continue
			}
			if cs.sendOKBatch(cid, counts) != nil {
				return
			}

		case frameControl:
			cid, req, err := decodeRequestFrame(typ, payload, cs.slots)
			if err != nil {
				s.log.Printf("wire: v2 connection %s: %v", cs.conn.RemoteAddr(), err)
				return
			}
			if req.Op == OpHello {
				if cs.sendErr(cid, req.Op, "connection already upgraded") != nil {
					return
				}
				continue
			}
			cs.cid = cid
			if err := s.dispatch(cs, req); err != nil {
				if cs.sendErr(cid, req.Op, err.Error()) != nil {
					return
				}
			}

		default:
			s.log.Printf("wire: v2 connection %s: %v", cs.conn.RemoteAddr(),
				fmt.Errorf("%w: unknown frame type 0x%02x", ErrBadFrame, typ))
			return
		}
	}
}

// publishVals validates a slot vector against the schema domains (matching
// the v1 JSON path's strictness) and publishes it on the broker's
// zero-allocation value path. vals may be a reused scratch slice: the broker
// copies on match and the overlay encodes synchronously.
func (s *Server) publishVals(sch *schema.Schema, vals []float64) (int, error) {
	if len(vals) != sch.N() {
		return 0, fmt.Errorf("%w: got %d values for %d attributes", event.ErrArity, len(vals), sch.N())
	}
	for i, v := range vals {
		if err := sch.Validate(i, v); err != nil {
			return 0, err
		}
	}
	matched, err := s.brk.PublishValues(vals)
	if err != nil {
		return 0, err
	}
	if s.overlay != nil {
		s.overlay.EventPublished(event.Event{Vals: vals})
	}
	return matched, nil
}

// publishBatchVals validates and publishes a decoded v2 batch.
func (s *Server) publishBatchVals(sch *schema.Schema, evs []event.Event) ([]int, error) {
	for i, ev := range evs {
		if len(ev.Vals) != sch.N() {
			return nil, fmt.Errorf("event %d: %w: got %d values for %d attributes", i, event.ErrArity, len(ev.Vals), sch.N())
		}
		for j, v := range ev.Vals {
			if err := sch.Validate(j, v); err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
		}
	}
	counts, err := s.brk.PublishBatch(evs)
	if err != nil {
		return nil, err
	}
	if s.overlay != nil {
		for _, ev := range evs {
			s.overlay.EventPublished(ev)
		}
	}
	return counts, nil
}

// schemaPayload renders the broker schema as wire attribute descriptors (the
// schema response and the v2 hello confirmation share it: slot i on the wire
// is attribute i in this list).
func schemaPayload(sch *schema.Schema) []AttrPayload {
	attrs := make([]AttrPayload, sch.N())
	for i := 0; i < sch.N(); i++ {
		a := sch.At(i)
		attrs[i] = AttrPayload{
			Name:   a.Name,
			Kind:   a.Domain.Kind().String(),
			Lo:     a.Domain.Lo(),
			Hi:     a.Domain.Hi(),
			Labels: a.Domain.Labels(),
		}
	}
	return attrs
}

func attrNames(sch *schema.Schema) []string {
	names := make([]string, sch.N())
	for i := range names {
		names[i] = sch.At(i).Name
	}
	return names
}

// dispatch executes one request; returned errors are reported to the client.
func (s *Server) dispatch(cs *connState, req Request) error {
	sch := s.brk.Schema()
	switch req.Op {
	case OpPing:
		return cs.send(Response{Type: MsgPong, Op: req.Op})

	case OpSchema:
		return cs.send(Response{Type: MsgSchema, Op: req.Op, Attributes: schemaPayload(sch)})

	case OpSubscribe:
		if req.ID == "" {
			return errors.New("subscribe: missing id")
		}
		p, err := predicate.Parse(sch, predicate.ID(req.ID), req.Profile)
		if err != nil {
			return err
		}
		p.Priority = req.Priority
		sub, err := s.brk.Subscribe(p)
		if err != nil {
			return err
		}
		cs.subs[req.ID] = sub
		cs.wg.Add(1)
		go func() {
			defer cs.wg.Done()
			s.forward(cs, sub)
		}()
		if s.overlay != nil {
			s.overlay.ProfileAdded(p)
		}
		return cs.send(Response{Type: MsgOK, Op: req.Op, Profile: req.ID})

	case OpUnsubscribe:
		if _, ok := cs.subs[req.ID]; !ok {
			return fmt.Errorf("unsubscribe: %s not subscribed on this connection", req.ID)
		}
		delete(cs.subs, req.ID)
		if err := s.brk.Unsubscribe(predicate.ID(req.ID)); err != nil {
			return err
		}
		if s.overlay != nil {
			s.overlay.ProfileRemoved(predicate.ID(req.ID))
		}
		return cs.send(Response{Type: MsgOK, Op: req.Op, Profile: req.ID})

	case OpPublish:
		ev, err := event.FromMapWith(sch, req.Event, s.defaults)
		if err != nil {
			return err
		}
		matched, err := s.brk.Publish(ev)
		if err != nil {
			return err
		}
		if s.overlay != nil {
			s.overlay.EventPublished(ev)
		}
		return cs.send(Response{Type: MsgOK, Op: req.Op, Matched: matched})

	case OpPublishBatch:
		if len(req.Events) == 0 {
			return errors.New("publish_batch: no events")
		}
		evs := make([]event.Event, len(req.Events))
		for i, payload := range req.Events {
			ev, err := event.FromMapWith(sch, payload, s.defaults)
			if err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
			evs[i] = ev
		}
		counts, err := s.brk.PublishBatch(evs)
		if err != nil {
			return err
		}
		if s.overlay != nil {
			for _, ev := range evs {
				s.overlay.EventPublished(ev)
			}
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		return cs.send(Response{Type: MsgOK, Op: req.Op, Matched: total, MatchedEach: counts})

	case OpQuench:
		i, err := sch.Index(req.Attr)
		if err != nil {
			return err
		}
		q := s.brk.Quenched(i, schema.Closed(req.Lo, req.Hi))
		return cs.send(Response{Type: MsgOK, Op: req.Op, Quenched: q})

	case OpProfiles:
		var payload []ProfilePayload
		for _, p := range s.brk.Engine().Profiles() {
			payload = append(payload, ProfilePayload{
				ID:       string(p.ID),
				Expr:     p.Render(sch),
				Priority: p.Priority,
			})
		}
		return cs.send(Response{Type: MsgOK, Op: req.Op, Profiles: payload})

	case OpStats:
		st := s.brk.Stats()
		payload := &StatsPayload{
			Subscriptions: st.Subscriptions,
			Published:     st.Published,
			Delivered:     st.Delivered,
			Dropped:       st.Dropped,
			FilterEvents:  st.FilterEvents,
			FilterOps:     st.FilterOps,
			MeanOps:       st.MeanOps,
		}
		if a := s.brk.Adaptor(); a != nil {
			payload.Restructures = a.Restructures()
		}
		ag := st.Aggregation
		payload.Aggregated = true
		payload.CanonicalNodes = ag.Nodes
		payload.CanonicalRoots = ag.Roots
		payload.PosetDepth = ag.MaxDepth
		payload.ProfilesPerCanonical = ag.Ratio()
		if s.overlay != nil {
			payload.Node, payload.Peers, payload.Forwarded, payload.Filtered = s.overlay.Stats()
			payload.ProtoV2Peers = s.overlay.ProtoV2Peers()
		}
		if we := s.wireEvents.Load(); we > 0 {
			payload.BytesPerEventWire = float64(s.wireBytes.Load()) / float64(we)
		}
		payload.FramesPipelined = s.framesPipelined.Load()
		return cs.send(Response{Type: MsgStats, Op: req.Op, Stats: payload})

	default:
		return fmt.Errorf("unknown op %q", req.Op)
	}
}

// forward pushes one subscription's notifications to the connection until
// the subscription channel closes. On v2 the event vector goes out in
// binary as-is; v1 builds the attribute-name map the JSON codec needs.
func (s *Server) forward(cs *connState, sub *broker.Subscription) {
	sch := s.brk.Schema()
	for n := range sub.C() {
		if cs.proto >= ProtoV2 {
			if err := cs.sendNotify(string(n.Profile), n.Event.Seq, n.Event.Vals); err != nil {
				return
			}
			continue
		}
		payload := make(map[string]float64, sch.N())
		for i, v := range n.Event.Vals {
			payload[sch.At(i).Name] = v
		}
		resp := Response{
			Type:    MsgNotification,
			Profile: string(n.Profile),
			Event:   payload,
			Seq:     n.Event.Seq,
		}
		if err := cs.writeLine(resp); err != nil {
			return
		}
	}
}
