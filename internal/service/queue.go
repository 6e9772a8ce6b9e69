package service

import (
	"container/heap"
	"errors"
	"strconv"
	"sync"
	"time"

	"barrierpoint/internal/obs"
)

// Queue rejection causes, mapped to 503 by enqueue, and the cause of a
// cancellation that lands before a job starts.
var (
	errQueueFull            = errors.New("service: submission queue full")
	errServerClosed         = errors.New("service: server is shutting down")
	errCancelledBeforeStart = errors.New("service: cancelled before start")
)

// queueItem is one queued sweep with its scheduling key.
type queueItem struct {
	sw  *sweep
	pri int    // higher pops first
	seq uint64 // submission order; lower pops first within a band
	idx int    // heap index, maintained by queueHeap
	enq time.Time
}

// queueHeap orders items by descending priority, then submission order.
// Equal-priority sweeps therefore keep the FIFO semantics of the channel
// queue this replaced, which keeps start order deterministic.
type queueHeap []*queueItem

func (h queueHeap) Len() int { return len(h) }
func (h queueHeap) Less(a, b int) bool {
	if h[a].pri != h[b].pri {
		return h[a].pri > h[b].pri
	}
	return h[a].seq < h[b].seq
}
func (h queueHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].idx, h[b].idx = a, b
}
func (h *queueHeap) Push(x any) {
	it := x.(*queueItem)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *queueHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return it
}

// jobQueue is a mutex-guarded, bounded priority queue of submissions,
// each a sweep (a lone study's has one member). push rejects once the
// depth bound is reached or the queue is closed; pop blocks until a sweep
// or close; remove pulls a still-queued sweep out by identity
// (cancellation of a queued sweep). close wakes every blocked pop and
// hands the undrained sweeps back to the caller, so a job can never be
// enqueued after the executors are gone and sit "queued" forever.
type jobQueue struct {
	mu       sync.Mutex
	nonEmpty sync.Cond
	items    queueHeap
	bySweep  map[*sweep]*queueItem
	depth    int
	seq      uint64
	closed   bool
	met      queueMetrics
}

// queueMetrics holds the per-band depth gauge and queue-wait histogram.
// All handles are nil-safe no-ops, so an uninstrumented queue pays only
// the time.Now call on push.
type queueMetrics struct {
	depth *obs.GaugeVec
	wait  *obs.HistogramVec
}

func newJobQueue(depth int) *jobQueue {
	q := &jobQueue{
		bySweep: make(map[*sweep]*queueItem),
		depth:   depth,
	}
	q.nonEmpty.L = &q.mu
	return q
}

// instrument attaches metric handles; call before the queue is used.
func (q *jobQueue) instrument(m queueMetrics) { q.met = m }

// band renders a priority as the metric label for its queue band.
func band(pri int) string { return strconv.Itoa(pri) }

// push enqueues the sweep at the given priority.
func (q *jobQueue) push(sw *sweep, pri int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errServerClosed
	}
	if len(q.items) >= q.depth {
		return errQueueFull
	}
	q.seq++
	it := &queueItem{sw: sw, pri: pri, seq: q.seq, enq: time.Now()}
	heap.Push(&q.items, it)
	q.bySweep[sw] = it
	q.met.depth.With(band(pri)).Inc()
	q.nonEmpty.Signal()
	return nil
}

// pop blocks until a sweep is available (returning the highest-priority,
// oldest one) or the queue is closed (returning ok=false immediately,
// leaving any remaining sweeps for close's caller to drain).
func (q *jobQueue) pop() (*sweep, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.nonEmpty.Wait()
	}
	if q.closed {
		return nil, false
	}
	it := heap.Pop(&q.items).(*queueItem)
	delete(q.bySweep, it.sw)
	q.met.depth.With(band(it.pri)).Dec()
	q.met.wait.With(band(it.pri)).Observe(time.Since(it.enq).Seconds())
	return it.sw, true
}

// remove pulls a still-queued sweep out of the queue, reporting whether
// it was there (false means an executor already claimed it, or it was
// never queued here).
func (q *jobQueue) remove(sw *sweep) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	it, ok := q.bySweep[sw]
	if !ok {
		return false
	}
	heap.Remove(&q.items, it.idx)
	delete(q.bySweep, sw)
	// Cancelled before starting: drop from depth, but do not record a
	// queue wait — the histogram tracks time-to-start only.
	q.met.depth.With(band(it.pri)).Dec()
	return true
}

// close marks the queue closed, wakes all blocked pops, and returns the
// sweeps still queued in pop order. Idempotent; later calls return nil.
func (q *jobQueue) close() []*sweep {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	drained := make([]*sweep, 0, len(q.items))
	for len(q.items) > 0 {
		it := heap.Pop(&q.items).(*queueItem)
		delete(q.bySweep, it.sw)
		q.met.depth.With(band(it.pri)).Dec()
		drained = append(drained, it.sw)
	}
	q.nonEmpty.Broadcast()
	return drained
}

// len returns the number of queued sweeps.
func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// bands returns the number of queued sweeps per priority band (only
// bands with queued sweeps appear).
func (q *jobQueue) bands() map[int]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return nil
	}
	m := make(map[int]int, 4)
	for _, it := range q.items {
		m[it.pri]++
	}
	return m
}
