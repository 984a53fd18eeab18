package main

import (
	"math"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/proto"
)

// toySizes runs every workload in well under a second.
var toySizes = sizes{
	fanoutEmployees: 500, fanoutLeaves: 4,
	searchEmployees:  500,
	cascadeEmployees: 500, cascadeLeaves: 4,
	cascadeChunk: 5,
	setups:       1,
	sharedSetups: 1,
	warmup:       0.05,
}

// TestSmokeWorkloads runs all four workloads at toy scale, untraced and
// traced, and holds the output against BENCHMARK.json: every declared
// metric present, no undeclared one, units equal.
func TestSmokeWorkloads(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the rig has %d", len(bf.Workloads), len(workloadNames))
	}
	defs := workloads(toySizes)
	for _, w := range bf.Workloads {
		def, ok := defs[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the rig", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				out, res, err := measure(runConfig{def: def, seed: 3, seconds: 0.45, traced: traced,
					outDir: t.TempDir(), ladderBudget: time.Millisecond})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				checkMetrics(t, out.Metrics, want)
				if !traced {
					for name, m := range out.Metrics {
						if m.Value <= 0 || math.IsNaN(m.Value) {
							t.Errorf("%s = %v: an end-to-end metric must never be 0", name, m.Value)
						}
					}
				}
				if def.reloadChunk > 0 {
					for _, s := range res.setups {
						if s.reloadEntries == 0 {
							t.Error("chunked set-up delivered no entries")
						}
					}
				}
			}
		})
	}
}

func checkMetrics(t *testing.T, got metricSet, want []metricDef) {
	t.Helper()
	declared := map[string]bool{}
	for _, d := range want {
		declared[d.Name] = true
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("declared metric %s missing from the output", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		}
	}
	for name := range got {
		if !declared[name] {
			t.Errorf("output has undeclared metric %s", name)
		}
	}
}

// stallBackend serves writes, sleeping once on the stallAt-th.
type stallBackend struct {
	stubBackend
	n       atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (s *stallBackend) Modify(*proto.ModifyRequest) error {
	if s.n.Add(1) == s.stallAt {
		time.Sleep(s.stall)
	}
	return nil
}

// TestOpenLoopTimesFromDue injects a stalled server and asserts that the
// stall shows in the latency of the requests queued behind it: the open
// loop times every request from when it was due, not from when it was sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	srv, err := ldapnet.Serve("127.0.0.1:0", &stallBackend{stallAt: 3, stall: stall})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := ldapnet.DialTimeout(srv.Addr(), clientTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ops := make([]*commit, 10)
	for i := range ops {
		ops[i] = &commit{seq: i + 1, kind: kindModify, dn: dn.MustParse("cn=x,o=xyz"), attr: markerAttr, marker: "1"}
	}
	// 100/s: op i is due at i×10 ms; op 2 (the third) stalls until ≈220 ms.
	st := runOpenLoop(cl, ops, 100, func(*commit) {}, nil)
	if st.failed != 0 {
		t.Fatalf("%d writes failed: %v", st.failed, st.firstErr)
	}
	for i := 3; i < 8; i++ {
		// Sent late and answered at once, op i still waited from its due
		// time: at least stall − (i−2)×10 ms.
		min := float64(stall-time.Duration(i-2)*10*time.Millisecond)/1e6 - 5
		if st.ackMs[i] < min {
			t.Errorf("op %d: ack latency %.1f ms, want ≥ %.1f ms (the stall it queued behind)", i, st.ackMs[i], min)
		}
		if st.lagMs[i] < min {
			t.Errorf("op %d: generator lag %.1f ms not reported (want ≥ %.1f ms)", i, st.lagMs[i], min)
		}
	}
	if st.ackMs[0] > 50 {
		t.Errorf("op 0 was not behind the stall, yet took %.1f ms", st.ackMs[0])
	}
}

// TestSupersededCommitCountsAsReached covers a leaf that applies two commits
// on one entry in a single batch: the first one's marker never shows, the
// second one's does, and that must count for both.
func TestSupersededCommitCountsAsReached(t *testing.T) {
	st, err := dit.NewStore([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	target := dn.MustParse("cn=x,o=xyz")
	e := entry.New(target)
	e.Put("cn", "x").Put(markerAttr, "2")
	if err := st.Upsert(e); err != nil {
		t.Fatal(err)
	}
	first := &commit{seq: 1, kind: kindModify, dn: target, attr: markerAttr, marker: "1"}
	second := &commit{seq: 2, kind: kindModify, dn: target, attr: markerAttr, marker: "2"}
	if first.reached(st) {
		t.Fatal("an overwritten marker counts as reached without a successor")
	}
	first.next = second
	if !first.reached(st) {
		t.Error("a commit whose successor on the same entry is visible must count as reached")
	}
	gone := &commit{seq: 3, kind: kindDelete, dn: dn.MustParse("cn=y,o=xyz")}
	before := &commit{seq: 2, kind: kindModify, dn: gone.dn, attr: markerAttr, marker: "2", next: gone}
	if !before.reached(st) {
		t.Error("a modify followed by a delete of the same entry must count as reached once the entry is gone")
	}
}

// TestUndoHandsTargetsBack checks that commits generated but never sent
// give their pool slots, deletions and chain links back.
func TestUndoHandsTargetsBack(t *testing.T) {
	p := newTargetPool(4)
	r := rand.New(rand.NewSource(1))
	var cs []*commit
	for seq := 1; seq <= 6; seq++ { // six draws from four targets: the pool wraps
		c := &commit{seq: seq, kind: kindModify}
		if !p.pick(r, c) {
			t.Fatal("pool ran dry")
		}
		cs = append(cs, c)
	}
	sent := cs[:2]
	g := &opGen{}
	g.undo(cs[2:])
	for _, c := range sent {
		if c.next != nil {
			t.Errorf("commit %d still chained to an unsent successor", c.seq)
		}
		if p.last[c.target] != c {
			t.Errorf("target %d: last commit is not the sent one", c.target)
		}
	}
	for i, l := range p.last {
		if l != nil && l.seq > 2 {
			t.Errorf("target %d still remembers unsent commit %d", i, l.seq)
		}
	}
}

// TestQuartilesMatchPython pins quartiles() to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{10, 2, 38, 23, 38, 23, 21})
	if q1 != 10 || q3 != 38 {
		t.Errorf("quartiles = %v .. %v, want 10 .. 38", q1, q3)
	}
}
