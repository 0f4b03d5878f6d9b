package fleet

import (
	"sync"
	"time"

	"hermes/internal/obs"
)

// opQueue is a worker's bounded FIFO of flow-mods, guarded by the worker's
// mu. Submitters push one op at a time and wait while the queue holds
// depth ops; the worker takes up to a batch at a time. cond, on that mu,
// is broadcast when a take frees room or close fails the waiters, and
// when the worker stops sending or reaping (its close waits for that).
type opQueue struct {
	depth int // push waits at this many ops
	batch int // a push to this length makes a full batch (≤ depth)

	ops    []*op
	closed bool
	cond   *sync.Cond

	// wait, when set (the obs wiring), receives the time a sampled op spent
	// in the queue, from its push to the take that moves it off: one push in
	// 8 is stamped, the first among them (rulecache's stride), so a clock
	// read stays off most pushes. stamps holds the push times, zero where
	// unsampled, parallel to ops, so an op stays one allocation size class.
	wait   *obs.Histogram
	stamps []time.Time
	pushes uint64
}

// push appends o, waiting for room while the queue is full, and reports
// the queue's length after it. It fails with ErrFleetClosed once close was
// called; an op pushed before that stays queued for the worker to send or
// drain.
func (q *opQueue) push(o *op) (int, error) {
	for len(q.ops) >= q.depth && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return 0, ErrFleetClosed
	}
	q.ops = append(q.ops, o)
	if q.wait != nil {
		var s time.Time
		if q.pushes%8 == 0 {
			s = time.Now()
		}
		q.pushes++
		q.stamps = append(q.stamps, s)
	}
	return len(q.ops), nil
}

// take removes and returns up to limit ops from the head of the queue
// when it holds a full batch, or any ops at all when force is set;
// otherwise it takes nothing. It also reports how many ops it left queued.
func (q *opQueue) take(limit int, force bool) ([]*op, int) {
	n := min(limit, len(q.ops))
	if n == 0 || !force && len(q.ops) < q.batch {
		return nil, len(q.ops)
	}
	out := make([]*op, n)
	copy(out, q.ops)
	if len(q.ops) >= q.depth {
		q.cond.Broadcast()
	}
	rest := copy(q.ops, q.ops[n:])
	clear(q.ops[rest:])
	q.ops = q.ops[:rest]
	if q.wait != nil {
		for _, s := range q.stamps[:n] {
			if !s.IsZero() {
				q.wait.Record(uint64(time.Since(s)))
			}
		}
		q.stamps = q.stamps[:copy(q.stamps, q.stamps[n:])]
	}
	return out, rest
}

// close refuses further pushes and fails the submitters waiting for room.
func (q *opQueue) close() {
	q.closed = true
	q.cond.Broadcast()
}
