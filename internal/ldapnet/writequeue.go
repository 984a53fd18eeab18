package ldapnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/metrics"
	"filterdir/internal/proto"
)

// Write-queue policy: a connection buffers up to streamQueueCap encoded
// persist-stream messages; a push waits up to enqueueWait for space before
// the stream is torn down (the engine-level slow-consumer policy usually
// trips first — this is the transport backstop).
const (
	streamQueueCap = 64
	enqueueWait    = 250 * time.Millisecond
)

// respBufSize bounds what one Write carries: a synchronous response is
// written once per respBufSize bytes of PDUs and once at its end, and a
// drain pass writes what is queued up to it. A Client reads through a
// buffer of the same size. A constant, not a knob.
const respBufSize = 64 << 10

// respBufs pools the response buffers, so a connection holds one only while
// it writes.
var respBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, respBufSize)
	return &b
}}

// writeTimeout bounds every write to a connection, synchronous or drained: a
// consumer that stops reading — a half-open peer, a wedged replica — fails
// the writer, and so closes its connection, once one write has waited for
// the socket at least half this long and at most this long (see
// lazyDeadline). A variable only so tests can shorten it; a connection reads
// it once, when it is accepted.
var writeTimeout = 30 * time.Second

// lazyDeadline is an I/O deadline that moves only once half its timeout has
// passed, because setting one per message doubles the cost of a small
// loopback write. An operation started right after a move has the whole
// timeout; any operation has at least half of it. So a peer that stalls for
// the timeout fails the operation within the timeout, and one that pauses
// for less than half of it never does. A zero timeout sets no deadline. The
// connection writer arms its writes with one, a Client its reads.
type lazyDeadline struct {
	timeout time.Duration
	at      time.Time // the deadline last set
}

// renew returns the deadline to set and true when it is due to move.
func (d *lazyDeadline) renew() (time.Time, bool) {
	if d.timeout <= 0 {
		return time.Time{}, false
	}
	now := time.Now()
	if d.at.Sub(now) >= d.timeout/2 {
		return d.at, false
	}
	d.at = now.Add(d.timeout)
	return d.at, true
}

// connWriter serializes all writes to one connection. Synchronous
// request/response traffic is written under mu by the response that builds
// it; persist-stream pushes go through a bounded queue, so one connection's
// slow consumer exerts backpressure on its own stream instead of blocking
// the engine's broadcaster or other sessions sharing the process. Queued
// messages leave the queue only under mu, written by whoever holds it: a
// dedicated drain goroutine, or a response at each of its buffer
// boundaries, which writes what is queued first. Every Write carries whole
// messages, so interleaving is at message granularity, which LDAP permits
// across message IDs; all messages of one stream use the queue, so they stay
// ordered among themselves.
type connWriter struct {
	conn  net.Conn
	stats *metrics.SyncCounters // nil when the backend exposes no counters

	mu       sync.Mutex   // serializes writes to conn and receives from q
	deadline lazyDeadline // the write deadline; guarded by mu

	q      chan []byte
	kick   chan struct{} // a message was queued; wakes the drain
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
	failed atomic.Bool
}

func newConnWriter(conn net.Conn, stats *metrics.SyncCounters) *connWriter {
	w := &connWriter{
		conn:     conn,
		stats:    stats,
		deadline: lazyDeadline{timeout: writeTimeout},
		q:        make(chan []byte, streamQueueCap),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.drain()
	return w
}

// response is one synchronous response under construction: every PDU a
// request is answered with, a trailing SearchDone included. The PDUs are
// appended into a pooled buffer, taken with the first of them, which is
// written under the writer's lock whenever the next PDU would not fit and
// once at end — one Write per respBufSize bytes rather than one per PDU; a
// PDU larger than the buffer is written alone. A failed write fails the
// writer; it is returned by every later put and by end, and the PDUs after
// it go nowhere.
type response struct {
	w   *connWriter
	buf []byte
	bp  *[]byte // the pooled buffer, nil until the first PDU
	err error
}

// reserve makes room for a PDU of at most n bytes, writing out the buffer
// first when the PDU would not fit in it.
func (r *response) reserve(n int) error {
	if r.err != nil {
		return r.err
	}
	if r.bp == nil {
		r.bp = respBufs.Get().(*[]byte)
		r.buf = *r.bp
	}
	if len(r.buf) > 0 && len(r.buf)+n > respBufSize {
		return r.flush()
	}
	return nil
}

// put appends one encoded message.
func (r *response) put(b []byte) error {
	if err := r.reserve(len(b)); err != nil {
		return err
	}
	r.buf = append(r.buf, b...)
	return nil
}

// putTail appends the message id around a pre-encoded tail: the tail is
// copied into the buffer, not wrapped in a message of its own.
func (r *response) putTail(id int64, tail []byte) error {
	if err := r.reserve(len(tail) + proto.MaxEnvelopeLen); err != nil {
		return err
	}
	r.buf = proto.AppendWithTail(r.buf, id, tail)
	return nil
}

// flush writes what the buffer holds under the writer's lock. Stream
// messages queued by then are written first, in writes of their own: at
// every buffer boundary of a long response the connection's persist streams
// get their turn, whichever goroutine the scheduler favours.
func (r *response) flush() error {
	if r.err != nil || len(r.buf) == 0 {
		return r.err
	}
	w := r.w
	w.mu.Lock()
	w.writeQueuedLocked()
	r.err = w.writeLocked(r.buf)
	w.mu.Unlock()
	r.buf = r.buf[:0]
	return r.err
}

// writeLocked writes b armed with the lazy deadline. A failed write fails
// the writer: a message may be half on the wire, and a peer that stopped
// reading must not hold the lock — and with it every reply and the persist
// stream of its connection — for good. Callers hold mu.
func (w *connWriter) writeLocked(b []byte) error {
	if t, ok := w.deadline.renew(); ok {
		_ = w.conn.SetWriteDeadline(t)
	}
	_, err := w.conn.Write(b)
	if err != nil {
		w.fail() // before another write can follow a torn one
	}
	return err
}

// writeQueuedLocked writes the stream messages queued now, whole, in one
// Write per respBufSize bytes, and never waits for more; once the writer has
// failed it only empties the queue, so enqueuers are never blocked by a dead
// consumer. Callers hold mu.
func (w *connWriter) writeQueuedLocked() {
	n := len(w.q)
	if n == 0 {
		return
	}
	bp := respBufs.Get().(*[]byte)
	buf := *bp
	for ; n > 0; n-- {
		b := <-w.q
		if len(buf) > 0 && len(buf)+len(b) > respBufSize {
			if !w.failed.Load() {
				_ = w.writeLocked(buf)
			}
			buf = buf[:0]
		}
		buf = append(buf, b...)
	}
	if !w.failed.Load() {
		_ = w.writeLocked(buf)
	}
	respBufs.Put(bp)
}

// end writes the rest of the response and hands the buffer back to the
// pool. The pooled buffer is the one taken, even if a PDU larger than it
// moved the response to a bigger one.
func (r *response) end() error {
	err := r.flush()
	if r.bp != nil {
		respBufs.Put(r.bp)
		r.bp, r.buf = nil, nil
	}
	return err
}

// enqueue queues one encoded stream message, waiting up to enqueueWait for
// space. A false return means the queue stayed full, the connection already
// failed, or the writer was closed — the stream should be torn down.
//
// A true return guarantees the message reaches the drain goroutine's write
// path: the send is rechecked against w.stop, and drain flushes messages
// queued before the stop, so close() racing an enqueue cannot strand a PDU
// that was reported as delivered (e.g. a stream's final SearchDone during
// connection teardown).
func (w *connWriter) enqueue(b []byte) bool {
	if w.failed.Load() {
		return false
	}
	select {
	case <-w.stop:
		return false
	default:
	}
	select {
	case w.q <- b:
	default:
		t := time.NewTimer(enqueueWait)
		defer t.Stop()
		select {
		case w.q <- b:
		case <-t.C:
			return false
		case <-w.stop:
			return false
		}
	}
	// The send can race close(): if stop is already closed the drain
	// goroutine may have finished its final flush before the message
	// landed, so it must be reported undelivered.
	select {
	case <-w.stop:
		return false
	default:
	}
	if w.stats != nil {
		w.stats.ObserveQueueDepth(len(w.q))
	}
	select {
	case w.kick <- struct{}{}:
	default: // the drain is already due to look
	}
	return true
}

// drain writes queued stream messages, in order, whenever one is queued and
// no response has written it first. On stop, messages already queued are
// written before exiting — a successful enqueue promises delivery to the
// socket (unless the connection fails).
func (w *connWriter) drain() {
	defer close(w.done)
	for stopped := false; !stopped; {
		select {
		case <-w.kick:
		case <-w.stop:
			stopped = true
		}
		w.mu.Lock()
		w.writeQueuedLocked()
		w.mu.Unlock()
	}
}

// fail marks the connection dead and closes it, unblocking its reader.
func (w *connWriter) fail() {
	if w.failed.CompareAndSwap(false, true) {
		_ = w.conn.Close()
	}
}

// close stops the drain goroutine and waits for it.
func (w *connWriter) close() {
	w.once.Do(func() { close(w.stop) })
	<-w.done
}
