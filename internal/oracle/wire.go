package oracle

import (
	"fmt"
	"net"
	"sync"
	"time"

	"filterdir/internal/cascade"
	"filterdir/internal/chaos"
	"filterdir/internal/ldapnet"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/supervisor"
)

// wireNet is a wire-level topology under construction: the listeners,
// servers, tiers and supervised replicas a history stands up on loopback,
// every one with the same timings, all stopped by close.
type wireNet struct {
	h      *hist
	stops  []func()
	leaves []*wireLeaf
}

// wireLeaf is one supervised replica and the spec it replicates.
type wireLeaf struct {
	frep *replica.FilterReplica
	sup  *supervisor.Supervisor
	spec query.Query
}

// close stops everything in the reverse order it started and counts the
// supervisors' exchanges.
func (n *wireNet) close() {
	for i := len(n.stops) - 1; i >= 0; i-- {
		n.stops[i]()
	}
	if n.h.rep != nil {
		for _, l := range n.leaves {
			n.h.rep.Polls += int(l.sup.Exchanges())
		}
	}
}

// serve serves backend on a loopback listener and returns its address and
// how to dial it. With chaos set, listener and dialer share one fault
// injector seeded with seed (dropped connections, refused dials, latency
// jitter); otherwise the dialer is nil, plain TCP.
func (n *wireNet) serve(backend ldapnet.Backend, withChaos bool, seed int64) (string, ldapnet.DialFunc, *Failure) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, n.h.fail("listen: %v", err)
	}
	served := net.Listener(ln)
	var dial ldapnet.DialFunc
	if withChaos {
		inj := chaos.New(chaos.Plan{
			Seed:               seed,
			DropEveryNOps:      89,
			RefuseEveryNthConn: 9,
			LatencyMax:         300 * time.Microsecond,
		})
		served, dial = inj.Listener(ln), inj.Dial(nil)
	}
	srv := ldapnet.ServeListener(served, backend)
	n.stops = append(n.stops, func() { srv.Close() })
	return ln.Addr().String(), dial, nil
}

// tier starts a cascade tier storing specs, fed from upstream.
func (n *wireNet) tier(upstream string, dial ldapnet.DialFunc, seed int64, specs ...query.Query) (*cascade.Tier, *Failure) {
	tier, err := cascade.New(cascade.Config{
		Upstream:     upstream,
		Specs:        specs,
		PollInterval: 3 * time.Millisecond,
		BackoffBase:  2 * time.Millisecond,
		BackoffMax:   40 * time.Millisecond,
		DialTimeout:  2 * time.Second,
		Seed:         seed,
		Dial:         dial,
	})
	if err != nil {
		return nil, n.h.fail("new tier: %v", err)
	}
	tier.Start()
	n.stops = append(n.stops, func() { _ = tier.Stop() })
	return tier, nil
}

// leaf starts a supervised replica; cfg names its master, spec, mode, seed
// and dialer, and leaf sets the timings.
func (n *wireNet) leaf(cfg supervisor.Config) (*wireLeaf, *Failure) {
	frep, err := replica.NewFilterReplica()
	if err != nil {
		return nil, n.h.fail("new replica: %v", err)
	}
	cfg.PollInterval = 3 * time.Millisecond
	cfg.IdleTimeout = 300 * time.Millisecond
	cfg.BackoffBase = 2 * time.Millisecond
	cfg.BackoffMax = 40 * time.Millisecond
	cfg.DialTimeout = 2 * time.Second
	sup, err := supervisor.New(cfg, frep)
	if err != nil {
		return nil, n.h.fail("new supervisor: %v", err)
	}
	sup.Start()
	l := &wireLeaf{frep: frep, sup: sup, spec: cfg.Spec}
	n.stops = append(n.stops, func() { _ = sup.Stop() })
	n.leaves = append(n.leaves, l)
	return l, nil
}

// settled waits for replica i to hold exactly the reference selection of
// its spec.
func (n *wireNet) settled(i int, l *wireLeaf) *Failure {
	return n.h.await(fmt.Sprintf("replica r%d (%q) convergence", i, l.spec), 15*time.Second, func() string {
		diff := describeDiff(snapshot(l.frep.Store()), n.h.mdl.selection(l.spec))
		if diff != "" {
			diff = fmt.Sprintf("state %v, %d exchanges:\n%s", l.sup.State(), l.sup.Exchanges(), diff)
		}
		return diff
	})
}

// allSettled waits for every replica in turn.
func (n *wireNet) allSettled() *Failure {
	for i, l := range n.leaves {
		if f := n.settled(i, l); f != nil {
			return f
		}
	}
	return nil
}

// genWireHistory generates a Wire history over one replica per spec.
func genWireHistory(cfg Config, hseed int64) []Event {
	return genCheckpoints(cfg, hseed, hseed*1315423911+31, len(cfg.specList()))
}

// runWire runs one Wire history: a real ldapnet master serving a TCP
// listener and one supervisor-driven FilterReplica per spec, optionally
// through chaos on both sides of the connection. The mode derives from the
// history seed (odd stride alternates it across histories) so a
// -oracle.n=1 replay reruns the same mode, and poll and persist steady
// states are both checked end to end.
func runWire(cfg Config, hseed int64, events []Event, rep *Report) *Failure {
	h, f := newHist(cfg, hseed, rep, synthWireConfig(hseed))
	if f != nil {
		return f
	}
	backend := ldapnet.NewStoreBackend(h.st)

	// Retains must never reach a poll/persist consumer (the replica's
	// ApplySync rejects them); count them at the source.
	var tmu sync.Mutex
	var retains int
	backend.Engine.SetObserver(func(_ string, ups []resync.Update, _ bool) {
		tmu.Lock()
		defer tmu.Unlock()
		for _, u := range ups {
			if u.Action == resync.ActionRetain {
				retains++
			}
			if rep != nil {
				rep.Traffic.Add(u)
			}
		}
	})
	if rep != nil {
		defer func() {
			snap := backend.Engine.Counters().Snapshot()
			rep.SharedClassifyHits += snap.SharedClassifyHits
			rep.SharedClassifyMisses += snap.SharedClassifyMisses
			rep.StreamEncodes += snap.StreamEncodes
			rep.StreamDedupPDUs += snap.StreamDedupPDUs
		}()
	}
	w := &wireNet{h: h}
	defer w.close()
	addr, dial, f := w.serve(backend, cfg.Chaos, hseed)
	if f != nil {
		return f
	}
	mode := supervisor.ModePoll
	if cfg.Persist || hseed%2 != 0 {
		mode = supervisor.ModePersist
	}
	for i, spec := range cfg.specList() {
		if _, f := w.leaf(supervisor.Config{Master: addr, Spec: spec, Mode: mode, Seed: hseed + int64(i), Dial: dial}); f != nil {
			return f
		}
	}

	if f := h.play(events, func(ev Event) *Failure {
		switch ev.Kind {
		case EvPoll:
			return w.allSettled()
		case EvEnd: // operator abandons the session server-side
			if c := w.leaves[ev.Rep].sup.Cookie(); c != "" {
				_ = backend.Engine.End(c)
			}
		}
		return nil
	}); f != nil {
		return f
	}

	tmu.Lock()
	defer tmu.Unlock()
	if retains > 0 {
		return h.fail("master emitted %d retain PDUs to poll/persist consumers", retains)
	}
	return nil
}
