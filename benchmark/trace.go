package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent is the ID of the span that caused this one (0 for a
// root). Stamps are nanoseconds on the harness clock.
type span struct {
	Name    string `json:"name"`
	Trace   uint64 `json:"trace"`
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced repetitions run the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// sampleEvery is the op sampling stride of the traced pass.
const sampleEvery = 16

// add records one span and returns its ID for children to name.
func (t *tracer) add(name string, trace uint64, parent uint32, start, end int64) uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := uint32(len(t.spans) + 1)
	t.spans = append(t.spans, span{name, trace, id, parent, start, end})
	t.mu.Unlock()
	return id
}

// selfTimes returns, per span name, how many spans there are and their
// mean self time in ns: a span's duration minus the part its children
// cover (children of one parent do not overlap here).
func (t *tracer) selfTimes() (count map[string]int, meanNS map[string]float64) {
	covered := make(map[uint32]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	count, meanNS = make(map[string]int), make(map[string]float64)
	for _, s := range t.spans {
		count[s.Name]++
		meanNS[s.Name] += float64(s.EndNS - s.StartNS - covered[s.ID])
	}
	for name, n := range count {
		meanNS[name] /= float64(n)
	}
	return count, meanNS
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Wire events, in the order one frame produces them on one switch's
// control channel.
const (
	evClientWrite = iota // start of a client-side Write: request leaves the fleet
	evServerRead         // end of a server-side Read: request reached the agent daemon
	evServerWrite        // end of a server-side Write: reply handed to the kernel
	evClientRead         // end of a client-side Read: reply reached the client
	evDone               // fleet.Config.OnResult: result demuxed to its op
)

type wireEvent struct {
	kind uint8
	at   int64
}

// wireLog is the byte-timestamp record of one switch's control channel,
// fed by the net.Conn wrappers on both ends and by OnResult. One mutex
// orders the appends, so the slice is in time order.
type wireLog struct {
	mu sync.Mutex
	ev []wireEvent
}

func (l *wireLog) add(kind uint8, at int64) {
	l.mu.Lock()
	l.ev = append(l.ev, wireEvent{kind, at})
	l.mu.Unlock()
}

// frameTimes is where one completed op's frame was on the wire.
type frameTimes struct {
	frame                    int   // ordinal of the request frame that carried the op
	write, srvRead, srvWrite int64 // request written; request read and reply written by the server
	read, done               int64 // reply read by the client; result delivered
}

// replay walks the log and returns one frameTimes per evDone, in
// completion order. Each control channel here carries one frame at a
// time (a synchronous caller, or the batching worker), so the last
// write/read stamps before a completion are that op's own. The 10 Hz echo
// probe sharing the channel perturbs about one op in a thousand, which
// the medians taken from these records do not see.
func (l *wireLog) replay() []frameTimes {
	var (
		out      []frameTimes
		cur      frameTimes
		replied  = true // a reply was read since the current frame's first write
		srvWrote = true // the server replied since its last read
		lastSrvR int64
	)
	l.mu.Lock()
	events := l.ev // the channel is still live (echo probes); later appends land beyond this length
	l.mu.Unlock()
	for _, e := range events {
		switch e.kind {
		case evClientWrite:
			if replied {
				cur.frame++
				cur.write = e.at
				replied = false
			}
		case evServerRead:
			lastSrvR = e.at
			srvWrote = false
		case evServerWrite:
			if !srvWrote {
				cur.srvRead = lastSrvR
				srvWrote = true
			}
			cur.srvWrite = e.at
		case evClientRead:
			cur.read = e.at
			replied = true
		case evDone:
			cur.done = e.at
			out = append(out, cur)
		}
	}
	return out
}

// stampedConn timestamps the bytes crossing one end of a control channel.
type stampedConn struct {
	net.Conn
	log    *wireLog
	server bool
}

func (c *stampedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.server {
		c.log.add(evServerRead, nowNS())
	} else {
		c.log.add(evClientRead, nowNS())
	}
	return n, err
}

func (c *stampedConn) Write(p []byte) (int, error) {
	if !c.server {
		c.log.add(evClientWrite, nowNS())
	}
	n, err := c.Conn.Write(p)
	if c.server {
		c.log.add(evServerWrite, nowNS())
	}
	return n, err
}

// stampedListener hands AgentServer.Serve server-side stamped conns.
type stampedListener struct {
	net.Listener
	log *wireLog
}

func (l *stampedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &stampedConn{Conn: c, log: l.log, server: true}, nil
}
