package main

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// wireCounters counts what one listener's connections wrote. Byte and
// Write-call counters are always on; PDU capture only while a traced run
// has switched it on.
type wireCounters struct {
	bytes  atomic.Int64
	writes atomic.Int64
	conns  atomic.Int64

	capture atomic.Bool
	mu      sync.Mutex
	pdus    [][]byte
}

// capturedPDULimit bounds the PDUs teed off for the ladder replay.
const capturedPDULimit = 4096

func (w *wireCounters) snapshot() (bytes, writes int64) {
	return w.bytes.Load(), w.writes.Load()
}

func (w *wireCounters) takePDUs() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.pdus
	w.pdus = nil
	return out
}

// countingListener wraps accepted connections so every server-side Write
// is counted; ldapnet writes one whole LDAP message per Write call.
type countingListener struct {
	net.Listener
	c *wireCounters
}

func listenCounting() (*countingListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: ln, c: &wireCounters{}}, nil
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.c.conns.Add(1)
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.bytes.Add(int64(n))
	c.c.writes.Add(1)
	if c.c.capture.Load() {
		c.c.mu.Lock()
		if len(c.c.pdus) < capturedPDULimit {
			c.c.pdus = append(c.c.pdus, append([]byte(nil), b...))
		}
		c.c.mu.Unlock()
	}
	return n, err
}

// cutDialer is a leaf supervisor's transport hook. It counts dials and,
// when cutWrite > 0, makes the first connection fail its cutWrite-th Write:
// with chunked reloads the second request on a leaf's first connection is
// the SyncResume for chunk 1, so the cut lands exactly on the first chunk
// boundary and the reconnect must resume by token.
type cutDialer struct {
	cutWrite int
	dials    atomic.Int64
	cuts     atomic.Int64
}

var errCut = errors.New("loadrig: connection cut at chunk boundary")

func (d *cutDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	n := d.dials.Add(1)
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if n == 1 && d.cutWrite > 0 {
		return &cutConn{Conn: conn, d: d, left: d.cutWrite}, nil
	}
	return conn, nil
}

// cutConn is used by one ldapnet.Client, which serializes its writes.
type cutConn struct {
	net.Conn
	d    *cutDialer
	left int
}

func (c *cutConn) Write(b []byte) (int, error) {
	c.left--
	if c.left == 0 {
		c.d.cuts.Add(1)
		_ = c.Conn.Close()
		return 0, errCut
	}
	return c.Conn.Write(b)
}
