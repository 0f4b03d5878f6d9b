package fleet

import "sync"

// opQueue is a worker's bounded FIFO of flow-mods. Submitters push one op
// at a time and block while the queue holds depth ops; the worker takes up
// to a batch under one lock acquisition. ready is a one-token wakeup: a
// push sends it when the queue becomes non-empty or reaches a full batch,
// the two sizes the worker's dispatch waits on. A token can be stale (the
// worker took the ops without consuming it), so the worker re-reads the
// queue after every wakeup.
type opQueue struct {
	depth int // push blocks at this many ops
	batch int // a push to this length wakes the worker too

	mu     sync.Mutex
	ops    []*op
	closed bool
	space  *sync.Cond // signalled when a take frees room or close fails the waiters

	ready chan struct{}
}

func newOpQueue(depth, batch int) *opQueue {
	q := &opQueue{depth: depth, batch: min(batch, depth), ready: make(chan struct{}, 1)}
	q.space = sync.NewCond(&q.mu)
	return q
}

// push appends o, waiting for room while the queue is full. It fails with
// ErrFleetClosed once close was called; an op pushed before that stays
// queued for the worker to dispatch or drain.
func (q *opQueue) push(o *op) error {
	q.mu.Lock()
	for len(q.ops) >= q.depth && !q.closed {
		q.space.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return ErrFleetClosed
	}
	q.ops = append(q.ops, o)
	n := len(q.ops)
	q.mu.Unlock()
	if n == 1 || n == q.batch {
		select {
		case q.ready <- struct{}{}:
		default: // a token is already pending
		}
	}
	return nil
}

// take removes and returns up to limit ops from the head of the queue
// when it holds a full batch, or any ops at all when force is set;
// otherwise it takes nothing. It also reports how many ops it left queued.
func (q *opQueue) take(limit int, force bool) ([]*op, int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := min(limit, len(q.ops))
	if n == 0 || !force && len(q.ops) < q.batch {
		return nil, len(q.ops)
	}
	out := make([]*op, n)
	copy(out, q.ops)
	if len(q.ops) >= q.depth {
		q.space.Broadcast()
	}
	rest := copy(q.ops, q.ops[n:])
	clear(q.ops[rest:])
	q.ops = q.ops[:rest]
	return out, rest
}

// len reports the number of queued ops.
func (q *opQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ops)
}

// close refuses further pushes and fails the submitters waiting for room.
func (q *opQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.space.Broadcast()
}
