package chaos

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair builds an injected server-side conn and its client peer.
func pipePair(t *testing.T, inj *Injector) (faulted net.Conn, peer net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	wrapped := inj.Listener(ln)
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := wrapped.Accept()
		ch <- accepted{c, err}
	}()
	peer, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { _ = a.c.Close(); _ = peer.Close() })
	return a.c, peer
}

func TestDropEveryNOps(t *testing.T) {
	inj := New(Plan{DropEveryNOps: 3})
	server, peer := pipePair(t, inj)
	go func() {
		for i := 0; i < 10; i++ {
			if _, err := peer.Write([]byte("x")); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 1)
	var err error
	reads := 0
	for ; reads < 10; reads++ {
		if _, err = server.Read(buf); err != nil {
			break
		}
	}
	if reads != 2 {
		t.Errorf("survived %d reads before drop, want 2", reads)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("drop error = %v, want ErrInjected", err)
	}
	if s := inj.counts(); s.Drops != 1 {
		t.Errorf("drops = %d, want 1", s.Drops)
	}
}

func TestTornWrite(t *testing.T) {
	inj := New(Plan{TornWriteEveryNOps: 1})
	server, peer := pipePair(t, inj)
	n, err := server.Write([]byte("hello world!"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write error = %v, want ErrInjected", err)
	}
	if n != 6 {
		t.Errorf("torn write delivered %d bytes, want 6", n)
	}
	got, _ := io.ReadAll(peer)
	if string(got) != "hello " {
		t.Errorf("peer received %q, want %q", got, "hello ")
	}
}

func TestRefuseEveryNthConn(t *testing.T) {
	inj := New(Plan{RefuseEveryNthConn: 2})
	dial := inj.Dial(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
		}
	}()
	refused := 0
	for i := 0; i < 4; i++ {
		c, err := dial(ln.Addr().String(), time.Second)
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("dial %d: %v", i, err)
			}
			refused++
			continue
		}
		_ = c.Close()
	}
	if refused != 2 {
		t.Errorf("refused %d of 4 dials, want 2", refused)
	}
}

func TestRefuseForWindow(t *testing.T) {
	inj := New(Plan{})
	dial := inj.Dial(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	inj.RefuseFor(time.Hour)
	if _, err := dial(ln.Addr().String(), time.Second); !errors.Is(err, ErrInjected) {
		t.Errorf("dial during refuse window = %v, want ErrInjected", err)
	}
	inj.RefuseFor(0)
	c, err := dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Errorf("dial after refuse window: %v", err)
	} else {
		_ = c.Close()
	}
}

func TestLatencyDeterministicPerSeed(t *testing.T) {
	judge := func(seed int64) []time.Duration {
		inj := New(Plan{Seed: seed, LatencyMin: time.Microsecond, LatencyMax: time.Millisecond})
		var out []time.Duration
		for i := 0; i < 8; i++ {
			out = append(out, inj.judge(false).delay)
		}
		return out
	}
	a, b := judge(42), judge(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d: %s vs %s", i, a[i], b[i])
		}
	}
}
