package ldapnet

import (
	"net"
	"sync"
	"time"

	"filterdir/internal/proto"
)

// respBufSize bounds what one Write carries: a response is written once per
// respBufSize bytes of PDUs and once at its end. A Client reads through a
// buffer of the same size. A constant, not a knob.
const respBufSize = 64 << 10

// respBufs pools the response buffers, so a connection holds one only while
// it writes.
var respBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, respBufSize)
	return &b
}}

// writeTimeout bounds every write to a connection: a consumer that stops
// reading — a half-open peer, a wedged replica — fails the writer, and so
// closes its connection, once one write has waited for the socket at least
// half this long and at most this long (see lazyDeadline). It is the
// transport's backstop only: a persist consumer that reads, but slower than
// its stream, is sent its backlog as one net batch by the stream's next poll
// (resync.Subscription.Next), however far behind it falls. A
// variable only so tests can shorten it; a connection reads it once, when it
// is accepted.
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

// connWriter serializes all writes to one connection. Everything written is
// a response: the answer to a request, written by the request loop, or one
// batch of a persist stream, or its closing SearchDone, written by the
// stream's goroutine. Each is written whole messages per Write, one Write at
// a time, so the responses of one connection interleave at message
// granularity, which LDAP permits across message IDs; one goroutine writes a
// stream's batches, in order. The connection passes from one Write to the
// oldest waiting one, so a pushed batch waits behind at most one buffer of a
// long answer, never the rest of it. A consumer slower than its stream holds
// that goroutine in its write, and the goroutine's next poll coalesces the
// backlog.
type connWriter struct {
	conn     net.Conn
	mu       sync.Mutex      // guards busy and waiting
	busy     bool            // a Write holds conn
	waiting  []chan struct{} // the Writes waiting for conn, oldest first
	deadline lazyDeadline    // the write deadline; guarded by holding conn
}

func newConnWriter(conn net.Conn) *connWriter {
	return &connWriter{conn: conn, deadline: lazyDeadline{timeout: writeTimeout}}
}

// response is one response under construction: every PDU a request is
// answered with, a trailing SearchDone included, or one persist batch. The
// PDUs are appended into a pooled buffer, taken with the first of them,
// which is written to the connection whenever the next PDU would not
// fit and once at end — one Write per respBufSize bytes rather than one per
// PDU; a PDU larger than the buffer is written alone. A failed write fails
// the writer; it is returned by every later put and by end, and the PDUs
// after it go nowhere.
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

// flush writes what the buffer holds.
func (r *response) flush() error {
	if r.err != nil || len(r.buf) == 0 {
		return r.err
	}
	r.err = r.w.write(r.buf)
	r.buf = r.buf[:0]
	return r.err
}

// write writes b armed with the lazy deadline once every Write that was
// waiting before it is done. A failed write closes the connection: a message
// may be half on the wire, and a peer that stopped reading must not hold the
// connection — and with it every reply and the persist streams on it — for
// good.
func (w *connWriter) write(b []byte) error {
	w.take()
	defer w.pass()
	if t, ok := w.deadline.renew(); ok {
		_ = w.conn.SetWriteDeadline(t)
	}
	_, err := w.conn.Write(b)
	if err != nil {
		_ = w.conn.Close() // before another write can follow a torn one
	}
	return err
}

// take waits until conn is free and every Write that asked for it earlier
// has had it, then holds it.
func (w *connWriter) take() {
	w.mu.Lock()
	if !w.busy {
		w.busy = true
		w.mu.Unlock()
		return
	}
	turn := make(chan struct{})
	w.waiting = append(w.waiting, turn)
	w.mu.Unlock()
	<-turn
}

// pass hands conn to the oldest waiting Write, or frees it.
func (w *connWriter) pass() {
	w.mu.Lock()
	if len(w.waiting) == 0 {
		w.busy = false
		w.mu.Unlock()
		return
	}
	turn := w.waiting[0]
	w.waiting = w.waiting[1:]
	w.mu.Unlock()
	close(turn)
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
