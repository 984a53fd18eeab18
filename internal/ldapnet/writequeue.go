package ldapnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/metrics"
)

// Write-queue policy: a connection buffers up to streamQueueCap encoded
// persist-stream messages; a push waits up to enqueueWait for space before
// the stream is torn down (the engine-level slow-consumer policy usually
// trips first — this is the transport backstop).
const (
	streamQueueCap = 64
	enqueueWait    = 250 * time.Millisecond
)

// writeTimeout bounds every write to a connection, synchronous or drained: a
// consumer that stops reading — a half-open peer, a wedged replica — fails
// the writer, and so closes its connection, once one message has waited for
// the socket at least half this long and at most this long (see
// writeLocked). A variable only so tests can shorten it; a connection reads
// it once, when it is accepted.
var writeTimeout = 30 * time.Second

// connWriter serializes all writes to one connection. Synchronous
// request/response traffic writes directly under mu; persist-stream pushes
// go through a bounded queue drained by a dedicated goroutine, so one
// connection's slow consumer exerts backpressure on its own stream instead
// of blocking the engine's broadcaster or other sessions sharing the
// process. Interleaving is at whole-message granularity, which LDAP
// permits across message IDs; all messages of one stream use the queue, so
// they stay ordered among themselves.
type connWriter struct {
	conn    net.Conn
	stats   *metrics.SyncCounters // nil when the backend exposes no counters
	timeout time.Duration         // writeTimeout when the connection was accepted

	mu       sync.Mutex // serializes writes to conn
	deadline time.Time  // the write deadline last set on conn; guarded by mu

	q      chan []byte
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
	failed atomic.Bool
}

func newConnWriter(conn net.Conn, stats *metrics.SyncCounters) *connWriter {
	w := &connWriter{
		conn:    conn,
		stats:   stats,
		timeout: writeTimeout,
		q:       make(chan []byte, streamQueueCap),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go w.drain()
	return w
}

// writeSync writes one encoded message directly; used for synchronous
// request/response traffic.
func (w *connWriter) writeSync(b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeLocked(b)
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
	return true
}

// drain writes queued stream messages in order. After a write failure the
// connection is closed and remaining messages are discarded, so enqueuers
// are never blocked by a dead consumer. On stop, messages already queued
// are flushed before exiting — a successful enqueue promises delivery to
// the socket (unless the connection fails).
func (w *connWriter) drain() {
	defer close(w.done)
	for {
		select {
		case b := <-w.q:
			w.write(b)
		case <-w.stop:
			for {
				select {
				case b := <-w.q:
					w.write(b)
				default:
					return
				}
			}
		}
	}
}

// write sends one queued message to the connection, failing the writer on
// error; writes after a failure are discarded.
func (w *connWriter) write(b []byte) {
	if w.failed.Load() {
		return
	}
	w.mu.Lock()
	_ = w.writeLocked(b)
	w.mu.Unlock()
}

// writeLocked writes one message under mu. Each write has between half the
// writer's timeout and all of it to reach the socket: the deadline moves
// only once half of it has passed, because setting one per write doubles
// the cost of a small loopback write. A failed write fails the writer: a
// message may be half on the wire, and a peer that stopped reading must not
// hold mu — and with it every reply and the persist drain of its
// connection — for good.
func (w *connWriter) writeLocked(b []byte) error {
	if now := time.Now(); w.deadline.Sub(now) < w.timeout/2 {
		w.deadline = now.Add(w.timeout)
		_ = w.conn.SetWriteDeadline(w.deadline)
	}
	_, err := w.conn.Write(b)
	if err != nil {
		w.fail()
	}
	return err
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
