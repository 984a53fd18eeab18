package oracle

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/edgewrite"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync"
	"filterdir/internal/sim"
)

// Edge-write history events, appended to the shared Event grammar.
const (
	// EvEdgeWrite submits one write at the edge replica (payload in Event.W).
	EvEdgeWrite EventKind = 100 + iota
	// EvEdgeCrash kills the edge writer mid-flight and reopens it from its
	// WAL — the crash-recovery halves of the prepare→commit exchange.
	EvEdgeCrash
	// EvEdgeReplay runs one background replay pass (re-forwards journaled
	// ops whose commit is unconfirmed).
	EvEdgeReplay
)

// Edge write kinds carried by EdgeWrite.Kind.
const (
	edgeAdd = iota
	edgeModify
	edgeDelete
)

// EdgeWrite is the EvEdgeWrite payload: the op shape is pinned at history
// generation time so shrinking replays identically, while targets of
// modify/delete resolve at execution time against the replica's own live
// edge entries (Pick % len), the same drop-if-invalid convention the
// classic histories use for shrunk-away adds.
type EdgeWrite struct {
	Kind int
	Seq  int // add: unique entry name suffix ("ew<Seq>")
	Val  int // add/modify: the val attribute written
	Pick int // modify/delete: index into the live own-write set
}

func (w EdgeWrite) String() string {
	switch w.Kind {
	case edgeAdd:
		return fmt.Sprintf("add ew%d (val=%d)", w.Seq, w.Val)
	case edgeModify:
		return fmt.Sprintf("modify own[%d] val=%d", w.Pick, w.Val)
	case edgeDelete:
		return fmt.Sprintf("delete own[%d]", w.Pick)
	default:
		return fmt.Sprintf("edge-write(%d)", w.Kind)
	}
}

// edgeSequencer is the preset's master: it applies forwarded ops to the
// real store under the dedup-by-op-id contract and injects the two chaos
// faults the 2PC-style exchange must survive — a transport failure before
// the op reaches the sequencer (kill-before-forward) and a lost commit
// response after the op was applied (kill-after-forward). Both are
// deterministic in the forward-call count, so histories replay and shrink
// exactly.
type edgeSequencer struct {
	h       *hist
	seen    map[string]uint64
	applies map[string]int
	calls   int
	chaos   bool
}

func (m *edgeSequencer) Forward(c dit.Change, opID string) (uint64, bool, error) {
	m.calls++
	if m.chaos && m.calls%7 == 0 {
		return 0, false, fmt.Errorf("injected: connection lost before forward")
	}
	if csn, ok := m.seen[opID]; ok {
		if m.h.rep != nil {
			m.h.rep.EdgeDuplicates++
		}
		return csn, true, nil
	}
	csn, err := m.h.st.ApplyCSN(c)
	if err != nil {
		// A definitive sequencer verdict, not a transport fault.
		return 0, false, &edgewrite.PermanentError{Err: err}
	}
	m.applies[opID]++
	m.seen[opID] = uint64(csn)
	m.h.mdl.applyChange(m.h.st, c)
	if m.h.rep != nil {
		m.h.rep.EdgeApplied++
	}
	if m.chaos && m.calls%11 == 0 {
		// Applied and sequenced, but the replica never hears: the op stays
		// journaled-uncommitted and must replay into the dedup table.
		return 0, false, fmt.Errorf("injected: commit response lost after apply")
	}
	return uint64(csn), false, nil
}

// applyChange mirrors one master-applied change into the reference model,
// reading the authoritative post-image back from the store.
func (m model) applyChange(st *dit.Store, c dit.Change) {
	switch c.Type {
	case dit.ChangeAdd, dit.ChangeModify:
		if e, ok := st.Get(c.DN); ok {
			m[c.DN.Norm()] = e.Clone()
		}
	case dit.ChangeDelete:
		delete(m, c.DN.Norm())
	case dit.ChangeModifyDN:
		delete(m, c.DN.Norm())
		if e, ok := st.Get(c.NewDN); ok {
			m[c.NewDN.Norm()] = e.Clone()
		}
	}
}

// edge drives one Edge history: a master store + engine, one leaf replica
// polling one spec, and an edge writer journaling to a real on-disk WAL
// that survives EvEdgeCrash reopens.
type edge struct {
	*hist
	seq    *edgeSequencer
	eng    *resync.Engine
	key    string
	leaf   *consumer
	w      *edgewrite.Writer
	walDir string

	// Own-write expectations: what the writing client must read back, by
	// normalized DN (nil = must be absent), plus the live targets
	// modify/delete events can pick from.
	own     model
	ownDNs  []dn.DN
	mustRYW bool
}

// edgeSpec is the leaf's replicated content: every (grp=1) entry, which all
// edge adds are generated to match, plus the synthetic churn in that group.
func edgeSpec() query.Query {
	return query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)")
}

// openWriter (re)opens the edge writer over the history's WAL directory.
func (x *edge) openWriter() error {
	held := func(d dn.DN) (*entry.Entry, bool) {
		e, ok := x.leaf.content[d.Norm()]
		return e, ok
	}
	w, err := edgewrite.Open(edgewrite.Config{
		Dir:       x.walDir,
		ReplicaID: "oracle-leaf",
		Forward:   x.seq,
		Admit:     edgewrite.Admitter([]query.Query{x.leaf.spec}, held),
		Lookup:    held,
	})
	if err != nil {
		return err
	}
	w.RegisterSource(x.key)
	x.w = w
	return nil
}

// runEdge executes one Edge history.
func runEdge(cfg Config, hseed int64, events []Event, rep *Report) *Failure {
	h, f := newHist(cfg, hseed, rep, synthConfig(hseed, cfg.Shards))
	if f != nil {
		return f
	}
	walDir, err := os.MkdirTemp("", "oracle-edgewal-")
	if err != nil {
		return h.fail("wal dir: %v", err)
	}
	defer os.RemoveAll(walDir)

	x := &edge{
		hist:   h,
		seq:    &edgeSequencer{h: h, seen: make(map[string]uint64), applies: make(map[string]int), chaos: true},
		eng:    resync.NewEngine(h.st),
		key:    edgeSpec().Key(),
		leaf:   &consumer{spec: edgeSpec(), content: make(model)},
		own:    make(model),
		walDir: walDir,
	}
	if err := x.openWriter(); err != nil {
		return h.fail("open edge writer: %v", err)
	}
	if f := h.play(events, x.exec); f != nil {
		return f
	}
	if f := x.finish(); f != nil {
		return f
	}
	if rep != nil {
		rep.ContentHash = foldContent(rep.ContentHash, x.leaf.content)
		rep.ContentHash = foldEntries(rep.ContentHash, h.st.All())
	}
	return nil
}

func (x *edge) exec(ev Event) *Failure {
	switch ev.Kind {
	case EvPoll:
		return x.poll(ev.Lost)
	case EvEdgeWrite:
		return x.write(ev.W)
	case EvEdgeCrash:
		x.w.Close()
		if err := x.openWriter(); err != nil {
			return x.fail("reopen edge writer after crash: %v", err)
		}
		return x.checkReadYourWrites("crash recovery")
	case EvEdgeReplay:
		x.w.Replay()
		return x.checkReadYourWrites("replay")
	}
	return x.fail("unknown event kind %d in edge history", ev.Kind)
}

// poll runs one leaf exchange and feeds the response's CSN watermark to
// the writer — the echo that retires pending ops. The traffic fingerprint
// folds what the leaf received.
func (x *edge) poll(lost bool) *Failure {
	res, f := x.exchange(x.eng, x.leaf, lost, x.mdl)
	if f != nil || res == nil {
		return f
	}
	if x.rep != nil {
		x.rep.TrafficHash = foldUpdates(x.rep.TrafficHash, res.Updates)
	}
	if res.CSN == 0 {
		return x.fail("poll response carried no CSN watermark")
	}
	x.w.SetWatermark(x.key, res.CSN)

	// The poll synced the leaf to the master's current state, so every
	// committed edge op must have retired.
	if p, u := x.w.Pending(), x.w.PendingUncommitted(); p != u {
		return x.fail("poll synced to CSN %d but %d committed ops failed to retire", res.CSN, p-u)
	}
	return x.checkReadYourWrites("poll")
}

// write submits one edge write and records what the writing client must
// now read back.
func (x *edge) write(wv EdgeWrite) *Failure {
	var c dit.Change
	var want *entry.Entry
	var norm string
	switch wv.Kind {
	case edgeAdd:
		e := sim.SynthEntry("ew"+strconv.Itoa(wv.Seq), 1, wv.Val)
		norm = e.DN().Norm()
		if _, ok := x.mdl[norm]; ok {
			return nil // replayed under shrinking with the add already live
		}
		if _, ok := x.own[norm]; ok {
			return nil
		}
		c = dit.Change{Type: dit.ChangeAdd, DN: e.DN(), After: e}
		want = e
	case edgeModify, edgeDelete:
		// Only target settled entries (all prior writes retired and synced):
		// the overlay computes images from synced content, so an unsettled
		// base would make the read-your-writes expectation ambiguous.
		if x.w.Pending() != 0 || len(x.ownDNs) == 0 {
			return nil
		}
		d := x.ownDNs[wv.Pick%len(x.ownDNs)]
		norm = d.Norm()
		base, held := x.leaf.content[norm]
		if !held {
			return nil
		}
		if wv.Kind == edgeModify {
			c = dit.Change{Type: dit.ChangeModify, DN: d, Mods: []dit.Mod{
				{Op: dit.ModReplace, Attr: "val", Values: []string{strconv.Itoa(wv.Val)}}}}
			want = base.Clone().Put("val", strconv.Itoa(wv.Val))
		} else {
			c = dit.Change{Type: dit.ChangeDelete, DN: d}
		}
	default:
		return x.fail("unknown edge write kind %d", wv.Kind)
	}

	_, err := x.w.Submit(c)
	switch {
	case err == nil, errors.Is(err, edgewrite.ErrPending):
	case errors.Is(err, edgewrite.ErrRejected):
		return nil // target not held locally yet; a real replica refers the client
	default:
		return x.fail("edge %s refused: %v", wv, err)
	}

	if x.rep != nil {
		x.rep.EdgeAccepted++
	}
	x.own[norm] = want
	switch wv.Kind {
	case edgeAdd:
		x.ownDNs = append(x.ownDNs, c.DN)
	case edgeDelete:
		for i, d := range x.ownDNs {
			if d.Norm() == norm {
				x.ownDNs = append(x.ownDNs[:i], x.ownDNs[i+1:]...)
				break
			}
		}
	}
	x.mustRYW = true
	return x.checkReadYourWrites("submit")
}

// overlay is the writing client's answer over everything the leaf holds,
// and the number of entries it was computed from.
func (x *edge) overlay() (model, int) {
	entries := make([]*entry.Entry, 0, len(x.leaf.content))
	for _, e := range x.leaf.content {
		entries = append(entries, e)
	}
	answer := x.w.Overlay(x.leaf.spec, entries)
	byNorm := make(model, len(answer))
	for _, e := range answer {
		byNorm[e.DN().Norm()] = e
	}
	return byNorm, len(entries)
}

// checkReadYourWrites asserts the writing client's view: every own write —
// from the moment Submit accepted it, through crash recovery and replay,
// past retirement — is reflected in the overlaid answer, and every own
// delete stays invisible.
func (x *edge) checkReadYourWrites(phase string) *Failure {
	if !x.mustRYW {
		return nil
	}
	byNorm, _ := x.overlay()
	for norm, want := range x.own {
		got, ok := byNorm[norm]
		switch {
		case want == nil && ok:
			return x.fail("%s: own delete of %s is visible again (read-your-writes broken)", phase, norm)
		case want != nil && !ok:
			return x.fail("%s: own write of %s invisible to the writer (read-your-writes broken)", phase, norm)
		case want != nil && !got.Equal(want):
			return x.fail("%s: own write of %s reads back wrong:\n  got  %s\n  want %s", phase, norm, got, want)
		}
	}
	return nil
}

// finish drains the history: chaos off, replay until every journaled op
// commits, one final poll to echo the last CSN, then the convergence,
// overlay-identity and exactly-once assertions.
func (x *edge) finish() *Failure {
	defer x.w.Close()
	x.seq.chaos = false
	for i := 0; i < 100 && x.w.PendingUncommitted() > 0; i++ {
		x.w.Replay()
	}
	if n := x.w.PendingUncommitted(); n != 0 {
		return x.fail("drain: %d ops still uncommitted with chaos disabled", n)
	}
	if f := x.poll(false); f != nil {
		return f
	}
	if n := x.w.Pending(); n != 0 {
		return x.fail("drain: %d ops still pending after the final CSN echo", n)
	}

	// With nothing pending the overlay must be the identity: the writer's
	// view and every other client's view are byte-identical.
	got, in := x.overlay()
	if len(got) != in {
		return x.fail("overlay not identity after drain: %d entries in, %d out", in, len(got))
	}
	if diff := describeDiff(got, x.mdl.selection(x.leaf.spec)); diff != "" {
		return x.fail("writer's drained view diverged from reference:\n%s", diff)
	}

	// Exactly-once at the sequencer: every forwarded op id applied once, no
	// matter how many crashes and replays its commit took.
	for id, n := range x.seq.applies {
		if n != 1 {
			return x.fail("op %s applied %d times at the sequencer (want exactly once)", id, n)
		}
	}
	return nil
}

// genEdgeHistory generates one Edge history: master churn, leaf polls
// (some lost), edge writes, replay passes and writer crashes.
func genEdgeHistory(cfg Config, hseed int64) []Event {
	gen := sim.NewOpGen(synthConfig(hseed, 0))
	rng := rand.New(rand.NewSource(hseed*2654435761 + 131))
	seq := 0
	events := make([]Event, 0, cfg.Steps+1)
	for i := 0; i < cfg.Steps; i++ {
		r := rng.Float64()
		switch {
		case r < 0.28:
			events = append(events, Event{Kind: EvOp, Op: gen.Next()})
		case r < 0.50:
			seq++
			events = append(events, Event{Kind: EvEdgeWrite,
				W: EdgeWrite{Kind: edgeAdd, Seq: seq, Val: rng.Intn(5)}})
		case r < 0.58:
			events = append(events, Event{Kind: EvEdgeWrite,
				W: EdgeWrite{Kind: edgeModify, Pick: rng.Intn(1 << 16), Val: rng.Intn(5)}})
		case r < 0.63:
			events = append(events, Event{Kind: EvEdgeWrite,
				W: EdgeWrite{Kind: edgeDelete, Pick: rng.Intn(1 << 16)}})
		case r < 0.82:
			events = append(events, Event{Kind: EvPoll, Lost: rng.Float64() < 0.25})
		case r < 0.92:
			events = append(events, Event{Kind: EvEdgeReplay})
		default:
			events = append(events, Event{Kind: EvEdgeCrash})
		}
	}
	return append(events, Event{Kind: EvPoll})
}
