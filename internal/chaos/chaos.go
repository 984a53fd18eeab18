// Package chaos is a fault-injection transport layer: a net.Listener /
// net.Conn wrapper that severs connections, stalls or delays I/O, tears
// writes mid-PDU and refuses new connections according to a seeded,
// deterministic plan. It sits between ldapnet and the real TCP sockets on
// either side (the server wraps its listener, the client wraps its dial
// hook), so replication code can be soak-tested against realistic failure
// — in -race tests and via `ldapmaster -chaos`.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected marks every failure produced by this package, so tests can
// tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// Plan configures which faults an Injector produces. Counters are global
// across all connections of the injector, so "every Nth" is deterministic
// for a given seed and operation sequence. The zero Plan injects nothing.
type Plan struct {
	// Seed drives latency jitter; plans with equal seeds and equal
	// operation sequences inject identical faults.
	Seed int64

	// DropEveryNOps severs the active connection on every Nth I/O
	// operation (reads and writes both count).
	DropEveryNOps int
	// RefuseEveryNthConn refuses every Nth new connection (accept-side:
	// closed immediately; dial-side: a dial error).
	RefuseEveryNthConn int
	// LatencyMin/LatencyMax delay each I/O operation by a uniform random
	// duration in [min, max].
	LatencyMin, LatencyMax time.Duration
	// StallEveryNOps freezes every Nth I/O operation for StallFor,
	// simulating a hung peer rather than a dead one.
	StallEveryNOps int
	StallFor       time.Duration
	// TornWriteEveryNOps delivers only a prefix of every Nth write and
	// then severs the connection, leaving a half-encoded PDU on the wire.
	TornWriteEveryNOps int
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.DropEveryNOps > 0 || p.RefuseEveryNthConn > 0 ||
		p.LatencyMax > 0 || p.StallEveryNOps > 0 || p.TornWriteEveryNOps > 0
}

// ParsePlan parses the compact flag syntax used by `ldapmaster -chaos`:
// comma-separated key=value pairs, e.g.
//
//	drop-every=40,refuse-every=5,latency=1ms..5ms,stall-every=100,stall-for=50ms,torn-every=200,seed=7
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return p, fmt.Errorf("chaos plan: %q is not key=value", part)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop-every":
			p.DropEveryNOps, err = strconv.Atoi(val)
		case "refuse-every":
			p.RefuseEveryNthConn, err = strconv.Atoi(val)
		case "latency":
			lo, hi, found := strings.Cut(val, "..")
			if !found {
				hi = lo
			}
			if p.LatencyMin, err = time.ParseDuration(lo); err == nil {
				p.LatencyMax, err = time.ParseDuration(hi)
			}
		case "stall-every":
			p.StallEveryNOps, err = strconv.Atoi(val)
		case "stall-for":
			p.StallFor, err = time.ParseDuration(val)
		case "torn-every":
			p.TornWriteEveryNOps, err = strconv.Atoi(val)
		default:
			return p, fmt.Errorf("chaos plan: unknown key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("chaos plan: %s: %v", key, err)
		}
	}
	if p.LatencyMax < p.LatencyMin {
		return p, fmt.Errorf("chaos plan: latency max %s < min %s", p.LatencyMax, p.LatencyMin)
	}
	return p, nil
}

// Stats counts the faults an injector has produced.
type Stats struct {
	Conns      int64 // connections admitted through the injector
	Refused    int64 // connections refused
	Drops      int64 // connections severed mid-operation
	TornWrites int64 // writes delivered partially before severing
	Stalls     int64 // operations frozen for Plan.StallFor
	DelayedOps int64 // operations delayed by injected latency
	Ops        int64 // I/O operations observed in total
}

// String renders a compact status line for operator output.
func (s Stats) String() string {
	return fmt.Sprintf("chaos: conns=%d refused=%d drops=%d torn=%d stalls=%d delayed=%d ops=%d",
		s.Conns, s.Refused, s.Drops, s.TornWrites, s.Stalls, s.DelayedOps, s.Ops)
}

// Injector produces faults according to a Plan. One injector may wrap any
// number of listeners and dialers; its counters are shared so fault spacing
// is global. Safe for concurrent use, and the plan can be swapped at
// runtime (e.g. to open a connection-refused window mid-test).
type Injector struct {
	mu          sync.Mutex
	plan        Plan
	rng         *rand.Rand
	stats       Stats
	refuseUntil time.Time
}

// New creates an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// SetPlan swaps the active plan; counters keep running.
func (i *Injector) SetPlan(p Plan) {
	i.mu.Lock()
	i.plan = p
	i.mu.Unlock()
}

// Stats snapshots the fault counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// RefuseFor opens a connection-refused window: until d elapses every new
// connection is refused, simulating a master that is down but whose host
// still answers.
func (i *Injector) RefuseFor(d time.Duration) {
	i.mu.Lock()
	i.refuseUntil = time.Now().Add(d)
	i.mu.Unlock()
}

// admitConn decides whether a new connection may proceed.
func (i *Injector) admitConn() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.refuseUntil.IsZero() && time.Now().Before(i.refuseUntil) {
		i.stats.Refused++
		return false
	}
	n := i.stats.Conns + i.stats.Refused + 1
	if i.plan.RefuseEveryNthConn > 0 && n%int64(i.plan.RefuseEveryNthConn) == 0 {
		i.stats.Refused++
		return false
	}
	i.stats.Conns++
	return true
}

// verdict is one operation's fault decision.
type verdict struct {
	delay time.Duration
	drop  bool
	torn  bool
}

// judge accounts one I/O operation and decides its fate. The sleep happens
// in the caller, outside the lock.
func (i *Injector) judge(isWrite bool) verdict {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.stats.Ops++
	var v verdict
	p := i.plan
	if p.LatencyMax > 0 {
		v.delay = p.LatencyMin
		if span := p.LatencyMax - p.LatencyMin; span > 0 {
			v.delay += time.Duration(i.rng.Int63n(int64(span) + 1))
		}
		if v.delay > 0 {
			i.stats.DelayedOps++
		}
	}
	if p.StallEveryNOps > 0 && i.stats.Ops%int64(p.StallEveryNOps) == 0 {
		v.delay += p.StallFor
		i.stats.Stalls++
	}
	if isWrite && p.TornWriteEveryNOps > 0 && i.stats.Ops%int64(p.TornWriteEveryNOps) == 0 {
		v.torn = true
		i.stats.TornWrites++
		return v
	}
	if p.DropEveryNOps > 0 && i.stats.Ops%int64(p.DropEveryNOps) == 0 {
		v.drop = true
		i.stats.Drops++
	}
	return v
}

// Listener wraps ln so every accepted connection carries the injector's
// faults.
func (i *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, inj: i}
}

type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if !l.inj.admitConn() {
			_ = c.Close()
			continue
		}
		return &Conn{Conn: c, inj: l.inj}, nil
	}
}

// Dial wraps a dial function (ldapnet.DialFunc-shaped) so outgoing
// connections carry the injector's faults; nil dials plain TCP.
func (i *Injector) Dial(dial func(addr string, timeout time.Duration) (net.Conn, error)) func(addr string, timeout time.Duration) (net.Conn, error) {
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			if timeout > 0 {
				return net.DialTimeout("tcp", addr, timeout)
			}
			return net.Dial("tcp", addr)
		}
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		if !i.admitConn() {
			return nil, fmt.Errorf("%w: connection refused by plan", ErrInjected)
		}
		c, err := dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		return &Conn{Conn: c, inj: i}, nil
	}
}

// Conn applies an injector's fault plan to one connection.
type Conn struct {
	net.Conn
	inj *Injector
}

func (c *Conn) Read(p []byte) (int, error) {
	v := c.inj.judge(false)
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	if v.drop {
		_ = c.Conn.Close()
		return 0, fmt.Errorf("%w: connection dropped on read", ErrInjected)
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	v := c.inj.judge(true)
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	if v.torn {
		n, _ := c.Conn.Write(p[:len(p)/2])
		_ = c.Conn.Close()
		return n, fmt.Errorf("%w: torn write after %d/%d bytes", ErrInjected, n, len(p))
	}
	if v.drop {
		_ = c.Conn.Close()
		return 0, fmt.Errorf("%w: connection dropped on write", ErrInjected)
	}
	return c.Conn.Write(p)
}
