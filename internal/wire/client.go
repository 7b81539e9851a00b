package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Client speaks the wire protocol. Notifications are demultiplexed from
// request responses: responses arrive on an internal reply queue (v1: in
// request order; v2: matched by correlation id), notifications on
// Notifications(). Client is safe for concurrent use. On v1 requests are
// serialized; on v2 they pipeline.
type Client struct {
	conn  net.Conn
	proto Proto
	slots *slots
	depth int

	reqMu sync.Mutex // serializes v1 request/response pairs

	wmu  sync.Mutex // serializes v2 frame writes
	wbuf []byte     // reused v2 frame build buffer, guarded by wmu

	pendMu  sync.Mutex
	nextCid uint32
	pending map[uint32]chan Response

	mu      sync.Mutex
	names   []string // cached v1 schema attribute names (lazy)
	closed  bool
	replies chan Response
	notifs  chan Response
	readErr error
	done    chan struct{}
}

// DialConfig parameterizes DialWith. The zero value dials with no timeout,
// negotiates the protocol (v2 when the server supports it, v1 fallback
// otherwise) and pipelines up to DefaultPipelineDepth frames.
type DialConfig struct {
	// Timeout bounds the TCP dial and the protocol handshake.
	Timeout time.Duration
	// Proto pins the protocol generation: ProtoV1 skips negotiation,
	// ProtoV2 fails instead of falling back, ProtoAuto (zero) negotiates.
	Proto Proto
	// PipelineDepth caps in-flight v2 frames per batched publish
	// (0 = DefaultPipelineDepth, minimum 1).
	PipelineDepth int
}

// DefaultPipelineDepth is the v2 in-flight frame window used when
// DialConfig.PipelineDepth is zero.
const DefaultPipelineDepth = 32

// DialWith connects to a GENAS daemon. Unless cfg pins a protocol it sends
// a hello advertising v2 first: a v2 server confirms with the schema (whose
// attribute order defines the binary slot layout) and the connection
// switches to binary frames; anything else — an error frame from an older
// daemon, a dropped connection — falls back to a plain v1 redial.
func DialWith(addr string, cfg DialConfig) (*Client, error) {
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = DefaultPipelineDepth
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	if cfg.Proto == ProtoV1 {
		return newClientV1(conn), nil
	}

	rd := bufio.NewReaderSize(conn, 64*1024)
	resp, err := negotiateV2(conn, rd, cfg.Timeout)
	if err != nil {
		_ = conn.Close()
		if cfg.Proto == ProtoV2 {
			return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
		}
		// Auto mode: the server does not speak v2 (old daemon, pinned v1,
		// or a garbled handshake). Redial plain v1 — the handshake may have
		// left the first connection in an unknown state, a fresh one is
		// deterministic.
		conn, err = net.DialTimeout("tcp", addr, cfg.Timeout)
		if err != nil {
			return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
		}
		return newClientV1(conn), nil
	}

	names := make([]string, len(resp.Attributes))
	for i, a := range resp.Attributes {
		names[i] = a.Name
	}
	c := &Client{
		conn:    conn,
		proto:   ProtoV2,
		slots:   newSlots(names),
		depth:   cfg.PipelineDepth,
		pending: make(map[uint32]chan Response),
		notifs:  make(chan Response, 256),
		done:    make(chan struct{}),
	}
	go c.readLoopV2(rd)
	return c, nil
}

func newClientV1(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		proto:   ProtoV1,
		depth:   1,
		replies: make(chan Response, 16),
		notifs:  make(chan Response, 256),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// negotiateV2 runs the upgrade handshake on a fresh connection: one hello
// line out, one response line back. Any outcome other than an ok-hello
// confirming v2 is an error (the caller decides whether to fall back).
func negotiateV2(conn net.Conn, rd *bufio.Reader, timeout time.Duration) (Response, error) {
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	hello, err := EncodeLine(Request{Op: OpHello, Proto: int(ProtoV2)})
	if err != nil {
		return Response{}, err
	}
	if _, err := conn.Write(hello); err != nil {
		return Response{}, fmt.Errorf("hello: %w", err)
	}
	line, err := ReadLine(rd)
	if err != nil {
		return Response{}, fmt.Errorf("hello: %w", err)
	}
	resp, err := DecodeResponse(line)
	if err != nil {
		return Response{}, fmt.Errorf("hello: %w", err)
	}
	if resp.Type != MsgOK || resp.Proto < int(ProtoV2) {
		if resp.Error != "" {
			return Response{}, fmt.Errorf("hello: server declined v2: %s", resp.Error)
		}
		return Response{}, errors.New("hello: server declined v2")
	}
	if len(resp.Attributes) == 0 {
		return Response{}, errors.New("hello: v2 confirmation carries no schema")
	}
	return resp, nil
}

// Proto reports the connection's negotiated protocol generation.
func (c *Client) Proto() Proto { return c.proto }

// readLoop splits the inbound v1 stream into replies and notifications.
func (c *Client) readLoop() {
	defer close(c.done)
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		resp, err := DecodeResponse(sc.Bytes())
		if err != nil {
			continue // tolerate garbage lines
		}
		if resp.Type == MsgNotification {
			select {
			case c.notifs <- resp:
			default: // drop when the consumer lags; mirrors broker policy
			}
			continue
		}
		c.replies <- resp
	}
	c.mu.Lock()
	c.readErr = sc.Err()
	c.mu.Unlock()
	close(c.notifs)
}

// readLoopV2 demultiplexes the inbound binary stream: notifications to
// Notifications() (payload in Response.Vals, schema slot order), responses
// to their correlation id's waiter. The frame buffer is reused across reads.
func (c *Client) readLoopV2(rd *bufio.Reader) {
	defer close(c.done)
	var buf []byte
	for {
		typ, payload, err := ReadFrame(rd, &buf)
		if err != nil {
			if err != io.EOF {
				c.mu.Lock()
				c.readErr = err
				c.mu.Unlock()
			}
			break
		}
		if typ == frameNotify {
			profile, seq, vals, err := decodeNotifyFrame(payload)
			if err != nil {
				c.mu.Lock()
				c.readErr = err
				c.mu.Unlock()
				break
			}
			select {
			case c.notifs <- Response{Type: MsgNotification, Profile: profile, Seq: seq, Vals: vals}:
			default: // drop when the consumer lags; mirrors broker policy
			}
			continue
		}
		cid, resp, err := decodeResponseFrame(typ, payload, c.slots)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
			break
		}
		c.pendMu.Lock()
		ch := c.pending[cid]
		delete(c.pending, cid)
		c.pendMu.Unlock()
		if ch != nil {
			ch <- resp // cap 1: never blocks, survives abandoned waiters
		}
	}
	// Fail every in-flight request, then the notification stream.
	c.pendMu.Lock()
	for cid, ch := range c.pending {
		delete(c.pending, cid)
		close(ch)
	}
	c.pendMu.Unlock()
	close(c.notifs)
}

// Notifications returns the inbound notification stream. The channel closes
// when the connection drops. On a v2 connection the payload arrives in
// Response.Vals (schema slot order); EventMap converts when names are
// needed.
func (c *Client) Notifications() <-chan Response { return c.notifs }

// EventMap returns a notification's payload as attribute name → value,
// whichever protocol delivered it.
func (c *Client) EventMap(resp Response) map[string]float64 {
	if resp.Event != nil || c.slots == nil || resp.Vals == nil {
		return resp.Event
	}
	return c.slots.mapOf(resp.Vals)
}

// register allocates a correlation id and its reply channel.
func (c *Client) register() (uint32, chan Response) {
	ch := make(chan Response, 1)
	c.pendMu.Lock()
	c.nextCid++
	cid := c.nextCid
	c.pending[cid] = ch
	c.pendMu.Unlock()
	return cid, ch
}

func (c *Client) deregister(cid uint32) {
	c.pendMu.Lock()
	delete(c.pending, cid)
	c.pendMu.Unlock()
}

// await blocks until cid's response arrives, the connection drops, or the
// timeout fires.
func (c *Client) await(cid uint32, ch chan Response, timeout time.Duration) (Response, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	finish := func(resp Response, ok bool) (Response, error) {
		if !ok {
			return Response{}, errors.New("wire: connection closed")
		}
		if resp.Type == MsgError {
			return resp, fmt.Errorf("wire: server: %s", resp.Error)
		}
		return resp, nil
	}
	select {
	case resp, ok := <-ch:
		return finish(resp, ok)
	case <-c.done:
		// The reader may have parked the response just before exiting.
		select {
		case resp, ok := <-ch:
			return finish(resp, ok)
		default:
		}
		return Response{}, errors.New("wire: connection closed")
	case <-timer:
		c.deregister(cid)
		return Response{}, errors.New("wire: request timed out")
	}
}

// roundTrip sends one request and waits for its reply.
func (c *Client) roundTrip(req Request, timeout time.Duration) (Response, error) {
	if c.proto >= ProtoV2 {
		return c.roundTripV2(req, timeout)
	}
	b, err := EncodeLine(req)
	if err != nil {
		return Response{}, err
	}
	return c.roundTripLine(b, timeout)
}

// roundTripV2 sends one request as a binary frame and waits for the frame
// carrying its correlation id.
func (c *Client) roundTripV2(req Request, timeout time.Duration) (Response, error) {
	cid, ch := c.register()
	c.wmu.Lock()
	b, err := appendRequestFrame(c.wbuf[:0], cid, req, c.slots)
	if err == nil {
		c.wbuf = b
		if len(b) > MaxFrame+4 {
			err = fmt.Errorf("%w: request encodes to %d bytes", ErrFrameTooBig, len(b))
		} else {
			if timeout > 0 {
				_ = c.conn.SetWriteDeadline(time.Now().Add(timeout))
			}
			//genas:allow locksafe wmu exists to serialize frame writes on the shared conn; nothing else is ever taken under it
			_, err = c.conn.Write(b)
			if err != nil {
				err = fmt.Errorf("wire: write: %w", err)
			}
		}
	}
	c.wmu.Unlock()
	if err != nil {
		c.deregister(cid)
		return Response{}, err
	}
	return c.await(cid, ch, timeout)
}

// roundTripLine sends one pre-encoded v1 line and waits for its reply.
func (c *Client) roundTripLine(b []byte, timeout time.Duration) (Response, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if timeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	//genas:allow locksafe v1 has no request ids: reqMu serializes each request/response round trip by design
	if _, err := c.conn.Write(b); err != nil {
		return Response{}, fmt.Errorf("wire: write: %w", err)
	}
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	//genas:allow locksafe the reply wait is the round trip; timeout and done channels bound it
	select {
	case resp, ok := <-c.replies:
		if !ok {
			return Response{}, errors.New("wire: connection closed")
		}
		if resp.Type == MsgError {
			return resp, fmt.Errorf("wire: server: %s", resp.Error)
		}
		return resp, nil
	case <-c.done:
		return Response{}, errors.New("wire: connection closed")
	case <-timer:
		return Response{}, errors.New("wire: request timed out")
	}
}

// Ping round-trips a ping.
func (c *Client) Ping(timeout time.Duration) error {
	_, err := c.roundTrip(Request{Op: OpPing}, timeout)
	return err
}

// Subscribe registers a profile expression under id.
func (c *Client) Subscribe(id, profile string, priority float64, timeout time.Duration) error {
	_, err := c.roundTrip(Request{Op: OpSubscribe, ID: id, Profile: profile, Priority: priority}, timeout)
	return err
}

// Unsubscribe removes a subscription.
func (c *Client) Unsubscribe(id string, timeout time.Duration) error {
	_, err := c.roundTrip(Request{Op: OpUnsubscribe, ID: id}, timeout)
	return err
}

// Publish posts an event given as attribute name → value; it returns the
// number of matched profiles.
func (c *Client) Publish(ev map[string]float64, timeout time.Duration) (int, error) {
	resp, err := c.roundTrip(Request{Op: OpPublish, Event: ev}, timeout)
	if err != nil {
		return 0, err
	}
	return resp.Matched, nil
}

// attrNames resolves the schema attribute order, fetching it once on v1
// (v2 learned it during the handshake).
func (c *Client) attrNames(timeout time.Duration) ([]string, error) {
	if c.slots != nil {
		return c.slots.names, nil
	}
	c.mu.Lock()
	names := c.names
	c.mu.Unlock()
	if names != nil {
		return names, nil
	}
	attrs, err := c.Schema(timeout)
	if err != nil {
		return nil, err
	}
	names = make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
	}
	c.mu.Lock()
	c.names = names
	c.mu.Unlock()
	return names, nil
}

// PublishVals posts one event as a schema-order value vector. On v2 this is
// the zero-copy hot path: one small binary frame, vals reusable on return.
// On v1 it degrades to Publish with the attribute-name map the JSON codec
// requires (the schema is fetched once, lazily).
func (c *Client) PublishVals(vals []float64, timeout time.Duration) (int, error) {
	if c.proto < ProtoV2 {
		names, err := c.attrNames(timeout)
		if err != nil {
			return 0, err
		}
		if len(vals) != len(names) {
			return 0, fmt.Errorf("wire: %d values for %d attributes", len(vals), len(names))
		}
		ev := make(map[string]float64, len(names))
		for i, v := range vals {
			ev[names[i]] = v
		}
		return c.Publish(ev, timeout)
	}
	cid, ch := c.register()
	c.wmu.Lock()
	c.wbuf = appendPublishFrame(c.wbuf[:0], cid, vals)
	if timeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	//genas:allow locksafe wmu exists to serialize frame writes on the shared conn; nothing else is ever taken under it
	_, err := c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	if err != nil {
		c.deregister(cid)
		return 0, fmt.Errorf("wire: write: %w", err)
	}
	resp, err := c.await(cid, ch, timeout)
	if err != nil {
		return 0, err
	}
	return resp.Matched, nil
}

// PublishValsBatch posts a batch of schema-order value vectors and returns
// per-event match counts. On v2 the batch is chunked into frames that
// pipeline up to the connection's depth — later chunks are on the wire
// while earlier acknowledgements are still in flight. On v1 it degrades to
// PublishBatch. Like PublishBatch, on error the counts gathered so far
// accompany it as a lower bound on what was committed.
func (c *Client) PublishValsBatch(batch [][]float64, timeout time.Duration) ([]int, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	if c.proto < ProtoV2 {
		names, err := c.attrNames(timeout)
		if err != nil {
			return nil, err
		}
		evs := make([]map[string]float64, len(batch))
		for i, vals := range batch {
			if len(vals) != len(names) {
				return nil, fmt.Errorf("wire: event %d: %d values for %d attributes", i, len(vals), len(names))
			}
			ev := make(map[string]float64, len(names))
			for j, v := range vals {
				ev[names[j]] = v
			}
			evs[i] = ev
		}
		return c.PublishBatch(evs, timeout)
	}

	// Chunk so the window has depth frames to pipeline, each frame well
	// under the size cap (one event costs 8·N+4 payload bytes).
	per := (len(batch) + c.depth - 1) / c.depth
	if per < 8 {
		per = 8
	}
	if maxPer := (MaxFrame - 16) / (8*len(c.slots.names) + 4); per > maxPer && maxPer > 0 {
		per = maxPer
	}

	type inflight struct {
		cid uint32
		ch  chan Response
		n   int
	}
	var window []inflight
	counts := make([]int, 0, len(batch))
	collect := func() error {
		w := window[0]
		window = window[1:]
		resp, err := c.await(w.cid, w.ch, timeout)
		if err != nil {
			return err
		}
		if len(resp.MatchedEach) != w.n {
			return fmt.Errorf("wire: batch ack counts %d events, sent %d", len(resp.MatchedEach), w.n)
		}
		counts = append(counts, resp.MatchedEach...)
		return nil
	}
	fail := func(err error) ([]int, error) {
		for _, w := range window {
			c.deregister(w.cid)
		}
		return counts, err
	}
	for lo := 0; lo < len(batch); lo += per {
		hi := min(lo+per, len(batch))
		cid, ch := c.register()
		c.wmu.Lock()
		c.wbuf = appendPublishBatchFrame(c.wbuf[:0], cid, batch[lo:hi])
		if timeout > 0 {
			_ = c.conn.SetWriteDeadline(time.Now().Add(timeout))
		}
		//genas:allow locksafe wmu exists to serialize frame writes on the shared conn; nothing else is ever taken under it
		_, err := c.conn.Write(c.wbuf)
		c.wmu.Unlock()
		if err != nil {
			c.deregister(cid)
			return fail(fmt.Errorf("wire: write: %w", err))
		}
		window = append(window, inflight{cid, ch, hi - lo})
		if len(window) >= c.depth {
			if err := collect(); err != nil {
				return fail(err)
			}
		}
	}
	for len(window) > 0 {
		if err := collect(); err != nil {
			return fail(err)
		}
	}
	return counts, nil
}

// maxBatchFrame is the largest encoded publish_batch frame the client sends
// in one line: the server reads a frame as one line capped at 1 MiB, and an
// oversized line would kill the connection without an error frame. Batches
// that encode larger are split transparently.
const maxBatchFrame = 1<<20 - 64*1024

// PublishBatch posts several events as a batch and returns the per-event
// match counts, positionally aligned with evs. Batches whose encoding
// exceeds the server's frame cap are split into several publish_batch
// frames automatically. On error the counts gathered so far are returned
// alongside it as a lower bound on what was committed: the frame that
// errored may itself have been processed by the server (e.g. a response
// timeout after a successful write), so callers must not treat the count as
// exact when deciding to retry.
func (c *Client) PublishBatch(evs []map[string]float64, timeout time.Duration) ([]int, error) {
	if len(evs) == 0 {
		return nil, nil
	}
	line, err := EncodeLine(Request{Op: OpPublishBatch, Events: evs})
	if err != nil {
		return nil, err
	}
	if len(line) > maxBatchFrame {
		if len(evs) == 1 {
			return nil, fmt.Errorf("wire: event encodes to %d bytes, exceeding the %d-byte frame cap", len(line), maxBatchFrame)
		}
		// Split proportionally to the measured encoding, so each chunk is
		// encoded roughly once more; recursion only handles size skew
		// between events (recursive halving would re-encode every event
		// once per level).
		chunks := len(line)/maxBatchFrame + 1
		if chunks > len(evs) {
			chunks = len(evs)
		}
		per := (len(evs) + chunks - 1) / chunks
		counts := make([]int, 0, len(evs))
		for lo := 0; lo < len(evs); lo += per {
			hi := lo + per
			if hi > len(evs) {
				hi = len(evs)
			}
			part, err := c.PublishBatch(evs[lo:hi], timeout)
			counts = append(counts, part...)
			if err != nil {
				return counts, err
			}
		}
		return counts, nil
	}
	// The JSON rendering always dominates the binary one, so a batch that
	// fits a v1 line fits a v2 frame too.
	if c.proto >= ProtoV2 {
		resp, err := c.roundTripV2(Request{Op: OpPublishBatch, Events: evs}, timeout)
		if err != nil {
			return nil, err
		}
		return resp.MatchedEach, nil
	}
	resp, err := c.roundTripLine(line, timeout)
	if err != nil {
		return nil, err
	}
	return resp.MatchedEach, nil
}

// Quench asks whether the region [lo,hi] of attr is unsubscribed.
func (c *Client) Quench(attr string, lo, hi float64, timeout time.Duration) (bool, error) {
	resp, err := c.roundTrip(Request{Op: OpQuench, Attr: attr, Lo: lo, Hi: hi}, timeout)
	if err != nil {
		return false, err
	}
	return resp.Quenched, nil
}

// Stats fetches broker statistics.
func (c *Client) Stats(timeout time.Duration) (*StatsPayload, error) {
	resp, err := c.roundTrip(Request{Op: OpStats}, timeout)
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, errors.New("wire: empty stats")
	}
	return resp.Stats, nil
}

// Profiles fetches the daemon's registered profiles.
func (c *Client) Profiles(timeout time.Duration) ([]ProfilePayload, error) {
	resp, err := c.roundTrip(Request{Op: OpProfiles}, timeout)
	if err != nil {
		return nil, err
	}
	return resp.Profiles, nil
}

// Schema fetches the daemon's attribute schema.
func (c *Client) Schema(timeout time.Duration) ([]AttrPayload, error) {
	resp, err := c.roundTrip(Request{Op: OpSchema}, timeout)
	if err != nil {
		return nil, err
	}
	return resp.Attributes, nil
}

// Close tears the connection down and waits for the reader to exit.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}
