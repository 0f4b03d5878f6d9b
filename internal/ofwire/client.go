package ofwire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/obs"
)

// ErrClientClosed is returned to callers whose requests were cut off by a
// concurrent Close (as opposed to a wire failure).
var ErrClientClosed = errors.New("ofwire: client closed")

// Client is the controller side of the channel. Requests are pipelined:
// many may be in flight on the connection at once, demultiplexed back to
// their callers by transaction ID. The agent still executes them in
// arrival order (it models a single switch CPU), but the wire stays full —
// a caller never waits for another caller's round trip, only for its own
// reply. Safe for concurrent use.
type Client struct {
	conn    net.Conn
	nextXID atomic.Uint32

	// timeoutNS is the default per-request deadline (0 = none), applied to
	// every request. Atomic so SetRequestTimeout is safe mid-flight.
	timeoutNS atomic.Int64

	// wmu serializes frame writes so concurrent requests cannot interleave
	// bytes on the wire. wbuf, guarded by wmu, is the reused encode buffer:
	// every request frame is laid out in it and written with a single
	// conn.Write.
	wmu  sync.Mutex
	wbuf []byte

	// pmu guards the pending demux table and the terminal error state.
	pmu     sync.Mutex
	pending map[uint32]waiter
	failErr error // non-nil once the reader loop has died
	closed  bool  // Close was called

	readerDone chan struct{}

	// Optional instruments, attached via Instrument before traffic starts.
	// inflight counts XIDs awaiting replies; rtt records wall-clock
	// round-trip time per request (ns). ofwire lives on the wire, outside
	// the virtual-time domain, so wall-clock RTT is the honest measurement.
	inflight *obs.Gauge
	rtt      *obs.Histogram
}

// Dial connects to an agent daemon and performs the hello exchange.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn)
}

// NewClient wraps an established connection (useful with net.Pipe in
// tests), performs the hello exchange, and starts the response reader.
// Every read on the connection, hello included, goes through one buffered
// reader, so a reply costs one Read rather than one per header and body.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn:       conn,
		pending:    make(map[uint32]waiter),
		readerDone: make(chan struct{}),
	}
	br := bufio.NewReader(conn)
	// Server speaks first.
	hello, err := ReadMessage(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("ofwire: waiting for hello: %w", err)
	}
	if hello.Header.Type != TypeHello {
		conn.Close()
		return nil, fmt.Errorf("ofwire: expected hello, got %s", hello.Header.Type)
	}
	if err := WriteMessage(conn, &Message{Header: Header{Type: TypeHello}}); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop(br)
	return c, nil
}

// readLoop demultiplexes responses to their waiting callers by XID. On any
// read error it fails every pending caller with a descriptive error; the
// client is dead from then on.
func (c *Client) readLoop(br *bufio.Reader) {
	defer close(c.readerDone)
	for {
		resp, err := ReadMessage(br)
		if err != nil {
			c.fail(err)
			return
		}
		if resp.Header.Type == TypeHello {
			continue // tolerate late hellos
		}
		c.pmu.Lock()
		wt, ok := c.pending[resp.Header.XID]
		if ok {
			delete(c.pending, resp.Header.XID)
		}
		c.pmu.Unlock()
		if !ok {
			// A reply nobody waits for (e.g. the caller abandoned it at its
			// deadline). Drop it; the XID space never reuses live IDs.
			continue
		}
		wt.ch <- resp
		wt.group.settle()
	}
}

// fail marks the client dead, closes the connection and then, with pmu
// released (a group's OnDone hook may call back in), wakes every pending
// caller. The first cause sticks; later calls (the read loop noticing the
// connection a failed write already closed) change nothing.
func (c *Client) fail(cause error) {
	c.pmu.Lock()
	if c.failErr == nil {
		if c.closed {
			c.failErr = ErrClientClosed
		} else {
			c.failErr = fmt.Errorf("ofwire: connection failed: %w", cause)
		}
	}
	pending := c.pending
	c.pending = nil // no request registers once failErr is set
	c.pmu.Unlock()
	c.conn.Close()
	for _, wt := range pending {
		close(wt.ch) // a closed channel signals "read c.failErr"
		wt.group.settle()
	}
}

// Err returns the terminal connection error, or nil while the client is
// healthy.
func (c *Client) Err() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.failErr
}

// Close tears down the connection and fails any in-flight requests with
// ErrClientClosed. It is safe to call concurrently and repeatedly, from
// any goroutine, including while requests are blocked.
func (c *Client) Close() error {
	c.pmu.Lock()
	alreadyClosed := c.closed
	c.closed = true
	c.pmu.Unlock()
	err := c.conn.Close()
	if !alreadyClosed {
		// Wait for the reader to observe the close and fail the pending
		// callers, so Close has release semantics.
		<-c.readerDone
	}
	return err
}

// SetRequestTimeout installs the per-request deadline applied to every
// request (Insert, Barrier, Echo, each frame of a batch, ...). Zero
// disables it. Safe to call concurrently with in-flight requests; it affects
// only requests issued afterwards.
func (c *Client) SetRequestTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeoutNS.Store(int64(d))
}

// RequestTimeout reports the current default per-request deadline.
func (c *Client) RequestTimeout() time.Duration {
	return time.Duration(c.timeoutNS.Load())
}

// Instrument attaches observability instruments: g gauges the number of
// in-flight requests (registered XIDs awaiting replies), h records each
// request's round-trip time. Either may be nil. Attach before issuing
// requests; the fields are not synchronized against in-flight traffic.
// Reattaching the same instruments to a freshly dialed client after a
// reconnect resumes recording into the same series.
func (c *Client) Instrument(g *obs.Gauge, h *obs.Histogram) {
	c.inflight = g
	c.rtt = h
}

// waiter is where the reply to one registered XID goes: its call's
// channel, and the PendingBatch the frame belongs to, if any, which counts
// its frames down as they settle.
type waiter struct {
	ch    chan *Message
	group *PendingBatch
}

// call is one request on the wire: its XID registered, its frame written,
// its reply (or the client's failure) on the way to ch.
type call struct {
	xid     uint32
	ch      chan *Message
	start   time.Time     // when the frame was sent; set only when rtt or timeout needs it
	timeout time.Duration // deadline counted from start; 0 = only the await context bounds it
	err     error         // the send error that kept the frame off the wire (PendingBatch only)
}

// roundTrip is the one single-request path: send, then await, bounded by
// the client's default request timeout. Many round trips may be in flight
// at once; each caller blocks only on its own XID.
func (c *Client) roundTrip(req *Message) (*Message, error) {
	cl, err := c.send(req, c.RequestTimeout(), nil)
	if err != nil {
		return nil, err
	}
	return c.await(context.Background(), &cl)
}

// send registers the request's XID, lays the frame out in the client's
// reused write buffer, issues a single conn.Write and starts the RTT clock.
// It does not wait for the reply: the caller must await the returned call,
// and may send further requests first. A failed write fails the whole
// client — a frame cut short leaves the byte stream unframed, and the next
// frame written behind it would be read as the rest of this one. A frame
// of a PendingBatch names its group, which counts the frame until its
// reply or failure settles it.
func (c *Client) send(req *Message, timeout time.Duration, group *PendingBatch) (call, error) {
	// Live XIDs are never reused: the counter only grows.
	xid := c.nextXID.Add(1)
	req.Header.XID = xid
	cl := call{xid: xid, ch: make(chan *Message, 1), timeout: timeout}

	c.pmu.Lock()
	if c.failErr != nil {
		err := c.failErr
		c.pmu.Unlock()
		return cl, err
	}
	if c.closed {
		c.pmu.Unlock()
		return cl, ErrClientClosed
	}
	if group != nil {
		group.left.Add(1)
	}
	c.pending[xid] = waiter{ch: cl.ch, group: group}
	c.pmu.Unlock()
	if c.inflight != nil {
		c.inflight.Add(1)
	}

	c.wmu.Lock()
	if c.rtt != nil || timeout > 0 {
		cl.start = time.Now()
	}
	var err error
	c.wbuf, err = writeFrame(c.conn, c.wbuf, req)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
		if c.inflight != nil {
			c.inflight.Add(-1)
		}
		return cl, c.Err()
	}
	return cl, nil
}

// await waits for a sent call's reply, its deadline or ctx, whichever comes
// first. A timed-out request abandons only its own XID: the connection and
// the other in-flight requests stay healthy, and a late reply to the
// abandoned XID is dropped by the read loop.
func (c *Client) await(ctx context.Context, cl *call) (*Message, error) {
	if c.inflight != nil {
		defer c.inflight.Add(-1)
	}
	if cl.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, cl.start.Add(cl.timeout))
		defer cancel()
	}
	select {
	case resp, ok := <-cl.ch:
		if !ok {
			return nil, c.Err()
		}
		if c.rtt != nil {
			// Error replies completed a round trip too; only failed or
			// abandoned requests go unrecorded.
			c.rtt.RecordDuration(time.Since(cl.start))
		}
		if resp.Header.Type == TypeError {
			return nil, resp.Error
		}
		return resp, nil
	case <-ctx.Done():
		c.pmu.Lock()
		wt, ok := c.pending[cl.xid]
		delete(c.pending, cl.xid)
		c.pmu.Unlock()
		if ok {
			wt.group.settle()
		}
		// The reply channel is buffered, so a reply racing this removal
		// parks harmlessly in the channel and is garbage-collected.
		return nil, fmt.Errorf("ofwire: request %d abandoned: %w", cl.xid, ctx.Err())
	}
}

// FlowModResult is the controller-visible outcome of a flow-mod.
type FlowModResult struct {
	Latency    time.Duration
	Path       core.InsertPath
	Guaranteed bool
	Violation  bool
	Partitions int
}

// Insert installs a rule on the remote switch.
func (c *Client) Insert(r classifier.Rule) (FlowModResult, error) {
	return c.flowMod(FlowAdd, r)
}

// Delete removes a rule by ID.
func (c *Client) Delete(id classifier.RuleID) (FlowModResult, error) {
	return c.flowMod(FlowDelete, classifier.Rule{ID: id})
}

// Modify updates a live rule.
func (c *Client) Modify(r classifier.Rule) (FlowModResult, error) {
	return c.flowMod(FlowModify, r)
}

func (c *Client) flowMod(cmd FlowModCommand, r classifier.Rule) (FlowModResult, error) {
	return decodeFlowModResult(c.roundTrip(&Message{
		Header:  Header{Type: TypeFlowMod},
		FlowMod: FlowModFromRule(cmd, r),
	}))
}

func decodeFlowModResult(resp *Message, err error) (FlowModResult, error) {
	if err != nil {
		return FlowModResult{}, err
	}
	if resp.Header.Type != TypeFlowModReply || resp.FlowModReply == nil {
		return FlowModResult{}, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
	return flowModResult(resp.FlowModReply), nil
}

// flowModResult is the controller-visible form of one flow-mod reply,
// alone in its frame or an entry of a batch reply.
func flowModResult(rep *FlowModReply) FlowModResult {
	return FlowModResult{
		Latency:    time.Duration(rep.LatencyNS),
		Path:       core.InsertPath(rep.Path),
		Guaranteed: rep.Guaranteed,
		Violation:  rep.Violation,
		Partitions: int(rep.Partitions),
	}
}

// Barrier blocks until all previously issued flow-mods have been applied,
// like OpenFlow's barrier. The agent handles frames in arrival order, so a
// barrier fences everything written to the wire before it.
func (c *Client) Barrier() error {
	return decodeBarrier(c.roundTrip(&Message{Header: Header{Type: TypeBarrierRequest}}))
}

func decodeBarrier(resp *Message, err error) error {
	if err != nil {
		return err
	}
	if resp.Header.Type != TypeBarrierReply {
		return fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
	return nil
}

// Echo round-trips a payload (liveness probe).
func (c *Client) Echo(payload []byte) ([]byte, error) {
	return decodeEcho(c.roundTrip(&Message{Header: Header{Type: TypeEchoRequest}, Raw: payload}))
}

func decodeEcho(resp *Message, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if resp.Header.Type != TypeEchoReply {
		return nil, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
	return resp.Raw, nil
}

// Stats fetches the agent's counters.
func (c *Client) Stats() (*Stats, error) {
	return decodeStats(c.roundTrip(&Message{Header: Header{Type: TypeStatsRequest}}))
}

func decodeStats(resp *Message, err error) (*Stats, error) {
	if err != nil {
		return nil, err
	}
	if resp.Header.Type != TypeStatsReply || resp.Stats == nil {
		return nil, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
	return resp.Stats, nil
}

// DumpRules fetches the agent's complete controller-visible rule set,
// paging through the multipart rules dump until the agent reports no more
// entries. The result is sorted by rule ID. This is the observed view a
// level-triggered reconciler diffs its desired state against; cursor
// pagination keeps the dump coherent under concurrent flow-mods (an entry
// present for the whole dump appears exactly once). The client's default
// request timeout applies to each page.
func (c *Client) DumpRules() ([]classifier.Rule, error) {
	return c.dumpRulesPaged(0) // 0: let the agent pick the frame-bound page
}

// dumpRulesPaged walks the multipart dump with an explicit page size
// (tests shrink it to exercise multi-page dumps without frame-sized rule
// counts).
func (c *Client) dumpRulesPaged(pageSize uint16) ([]classifier.Rule, error) {
	var out []classifier.Rule
	after := uint64(0)
	for {
		req := &Message{
			Header:       Header{Type: TypeRulesRequest},
			RulesRequest: &RulesRequest{After: after, Max: pageSize},
		}
		resp, err := c.roundTrip(req)
		if err != nil {
			return nil, err
		}
		if resp.Header.Type != TypeRulesReply || resp.RulesReply == nil {
			return nil, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
		}
		for _, e := range resp.RulesReply.Rules {
			out = append(out, e.Rule())
			after = e.RuleID
		}
		if !resp.RulesReply.More {
			return out, nil
		}
		if len(resp.RulesReply.Rules) == 0 {
			return nil, fmt.Errorf("ofwire: rules dump stalled: empty page with more=true")
		}
	}
}

// RequestQoS negotiates a new insertion guarantee on the remote switch
// (CreateTCAMQoS over the wire). The switch re-carves its TCAM; installed
// rules are discarded, exactly as slice reconfiguration does on hardware.
func (c *Client) RequestQoS(guarantee time.Duration) (*QoSReply, error) {
	resp, err := c.roundTrip(&Message{
		Header:     Header{Type: TypeQoSRequest},
		QoSRequest: &QoSRequest{GuaranteeNS: uint64(guarantee)},
	})
	if err != nil {
		return nil, err
	}
	if resp.Header.Type != TypeQoSReply || resp.QoSReply == nil {
		return nil, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
	return resp.QoSReply, nil
}
