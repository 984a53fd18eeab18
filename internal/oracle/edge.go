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

// EdgeConfig parameterizes an edge-write oracle run.
type EdgeConfig struct {
	Seed      int64
	Histories int
	Steps     int
	// Shards overrides the master store's shard count (0 = store default);
	// see the shard sweep in shards.go.
	Shards int
}

func (c *EdgeConfig) fillDefaults() {
	if c.Histories <= 0 {
		c.Histories = 12
	}
	if c.Steps <= 0 {
		c.Steps = 60
	}
}

// edgeSequencer is the harness's master: it applies forwarded ops to the
// real store under the dedup-by-op-id contract and injects the two chaos
// faults the 2PC-style exchange must survive — a transport failure before
// the op reaches the sequencer (kill-before-forward) and a lost commit
// response after the op was applied (kill-after-forward). Both are
// deterministic in the forward-call count, so histories replay and shrink
// exactly.
type edgeSequencer struct {
	st      *dit.Store
	mdl     model
	seen    map[string]uint64
	applies map[string]int
	calls   int
	chaos   bool
	rep     *Report
}

func (m *edgeSequencer) Forward(c dit.Change, opID string) (uint64, bool, error) {
	m.calls++
	if m.chaos && m.calls%7 == 0 {
		return 0, false, fmt.Errorf("injected: connection lost before forward")
	}
	if csn, ok := m.seen[opID]; ok {
		if m.rep != nil {
			m.rep.EdgeDuplicates++
		}
		return csn, true, nil
	}
	csn, err := m.st.ApplyCSN(c)
	if err != nil {
		// A definitive sequencer verdict, not a transport fault.
		return 0, false, &edgewrite.PermanentError{Err: err}
	}
	m.applies[opID]++
	m.seen[opID] = uint64(csn)
	m.mdl.applyChange(m.st, c)
	if m.rep != nil {
		m.rep.EdgeApplied++
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

// edgeHarness drives one edge-write history: a master store + engine, one
// leaf replica polling one spec, and an edge writer journaling to a real
// on-disk WAL that survives EvEdgeCrash reopens.
type edgeHarness struct {
	cfg    EdgeConfig
	seed   int64
	seq    *edgeSequencer
	eng    *resync.Engine
	gen    *sim.OpGen
	spec   query.Query
	key    string
	leaf   *replicaSt
	w      *edgewrite.Writer
	walDir string
	rep    *Report

	// Own-write expectations: what the writing client must read back, by
	// normalized DN (nil = must be absent), plus the live targets
	// modify/delete events can pick from.
	own     map[string]*entry.Entry
	ownDNs  []dn.DN
	wfails  int // forward failures surfaced as ErrPending (for the log)
	mustRYW bool
}

// edgeSpec is the leaf's replicated content: every (grp=1) entry, which all
// edge adds are generated to match, plus the synthetic churn in that group.
func edgeSpec() query.Query {
	return query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)")
}

func (h *edgeHarness) fail(format string, args ...any) *Failure {
	return &Failure{HistorySeed: h.seed, Msg: fmt.Sprintf(format, args...)}
}

// openWriter (re)opens the edge writer over the history's WAL directory.
func (h *edgeHarness) openWriter() error {
	w, err := edgewrite.Open(edgewrite.Config{
		Dir:       h.walDir,
		ReplicaID: "oracle-leaf",
		Forward:   h.seq,
		Admit: edgewrite.Admitter([]query.Query{h.spec}, func(d dn.DN) (*entry.Entry, bool) {
			e, ok := h.leaf.content[d.Norm()]
			return e, ok
		}),
		Lookup: func(d dn.DN) (*entry.Entry, bool) {
			e, ok := h.leaf.content[d.Norm()]
			return e, ok
		},
	})
	if err != nil {
		return err
	}
	w.RegisterSource(h.key)
	h.w = w
	return nil
}

// runEdge executes one edge-write history, returning the first divergence.
func runEdge(cfg EdgeConfig, hseed int64, events []Event, rep *Report) *Failure {
	st, err := sim.BuildSynthStore(synthConfig(hseed, cfg.Shards))
	if err != nil {
		return &Failure{HistorySeed: hseed, Msg: "build synthetic store: " + err.Error()}
	}
	walDir, err := os.MkdirTemp("", "oracle-edgewal-")
	if err != nil {
		return &Failure{HistorySeed: hseed, Msg: "wal dir: " + err.Error()}
	}
	defer os.RemoveAll(walDir)

	h := &edgeHarness{
		cfg:    cfg,
		seed:   hseed,
		seq:    &edgeSequencer{st: st, mdl: newModel(st), seen: make(map[string]uint64), applies: make(map[string]int), chaos: true, rep: rep},
		eng:    resync.NewEngine(st),
		spec:   edgeSpec(),
		leaf:   &replicaSt{content: make(map[string]*entry.Entry)},
		own:    make(map[string]*entry.Entry),
		rep:    rep,
		walDir: walDir,
	}
	h.leaf.spec = h.spec
	h.key = h.spec.Key()
	if err := h.openWriter(); err != nil {
		return h.fail("open edge writer: %v", err)
	}

	for i, ev := range events {
		if rep != nil {
			rep.Events++
		}
		if f := h.exec(ev); f != nil {
			f.Step = i
			return f
		}
	}
	if f := h.finish(); f != nil {
		return f
	}
	if rep != nil {
		rep.ContentHash = foldContent(rep.ContentHash, h.leaf.content)
		rep.ContentHash = foldEntries(rep.ContentHash, st.All())
	}
	return nil
}

func (h *edgeHarness) exec(ev Event) *Failure {
	switch ev.Kind {
	case EvOp:
		if !h.seq.mdl.valid(ev.Op) {
			return nil
		}
		if err := sim.ApplyOp(h.seq.st, ev.Op); err != nil {
			return h.fail("op %q valid in model but rejected by store: %v", ev.Op, err)
		}
		h.seq.mdl.apply(ev.Op)
		return nil
	case EvPoll:
		return h.doPoll(ev.Lost)
	case EvEdgeWrite:
		return h.doWrite(ev.W)
	case EvEdgeCrash:
		h.w.Close()
		if err := h.openWriter(); err != nil {
			return h.fail("reopen edge writer after crash: %v", err)
		}
		return h.checkReadYourWrites("crash recovery")
	case EvEdgeReplay:
		h.w.Replay()
		return h.checkReadYourWrites("replay")
	}
	return h.fail("unknown event kind %d in edge history", ev.Kind)
}

// doPoll runs one leaf sync exchange and feeds the response's CSN
// watermark to the writer — the echo that retires pending ops.
func (h *edgeHarness) doPoll(lost bool) *Failure {
	r := h.leaf
	var res *resync.PollResult
	var err error
	full := false
	if !r.begun {
		res, err = h.eng.Begin(r.spec)
		full = true
	} else {
		res, err = h.eng.Poll(r.cookie)
		if errors.Is(err, resync.ErrNoSuchSession) && !lost {
			r.content = make(map[string]*entry.Entry)
			r.begun = false
			res, err = h.eng.Begin(r.spec)
			full = true
		}
	}
	if lost {
		return nil
	}
	if err != nil {
		return h.fail("poll %q: %v", r.spec, err)
	}
	if h.rep != nil {
		h.rep.Polls++
		h.rep.TrafficHash = foldUpdates(h.rep.TrafficHash, res.Updates)
	}
	if full || res.FullReload {
		r.content = make(map[string]*entry.Entry)
		for _, u := range res.Updates {
			if u.Action != resync.ActionAdd {
				return h.fail("full transfer contains %s PDU for %s", u.Action, u.DN)
			}
			r.content[u.DN.Norm()] = u.Entry
		}
	} else {
		for _, u := range res.Updates {
			switch u.Action {
			case resync.ActionAdd, resync.ActionModify:
				img := u.Image(heldFor(r.content, u))
				if img == nil {
					return h.fail("patch for %s, which the leaf does not hold", u.DN)
				}
				if u.IsMove() {
					delete(r.content, u.OldDN.Norm())
				}
				r.content[u.DN.Norm()] = img
			case resync.ActionDelete:
				delete(r.content, u.DN.Norm())
			default:
				return h.fail("unexpected %s PDU in poll", u.Action)
			}
		}
	}
	r.cookie = res.Cookie
	r.begun = true

	if res.CSN == 0 {
		return h.fail("poll response carried no CSN watermark")
	}
	h.w.SetWatermark(h.key, res.CSN)

	// The poll synced the leaf to the master's current state, so the
	// replica must converge and every committed edge op must have retired.
	if diff := describeDiff(r.content, h.seq.mdl.selection(r.spec)); diff != "" {
		return h.fail("replica diverged after poll:\n%s", diff)
	}
	if p, u := h.w.Pending(), h.w.PendingUncommitted(); p != u {
		return h.fail("poll synced to CSN %d but %d committed ops failed to retire", res.CSN, p-u)
	}
	return h.checkReadYourWrites("poll")
}

// doWrite submits one edge write and records what the writing client must
// now read back.
func (h *edgeHarness) doWrite(wv EdgeWrite) *Failure {
	var c dit.Change
	var want *entry.Entry
	var norm string
	switch wv.Kind {
	case edgeAdd:
		e := sim.SynthEntry("ew"+strconv.Itoa(wv.Seq), 1, wv.Val)
		norm = e.DN().Norm()
		if _, ok := h.seq.mdl[norm]; ok {
			return nil // replayed under shrinking with the add already live
		}
		if _, ok := h.own[norm]; ok {
			return nil
		}
		c = dit.Change{Type: dit.ChangeAdd, DN: e.DN(), After: e}
		want = e
	case edgeModify, edgeDelete:
		// Only target settled entries (all prior writes retired and synced):
		// the overlay computes images from synced content, so an unsettled
		// base would make the read-your-writes expectation ambiguous.
		if h.w.Pending() != 0 || len(h.ownDNs) == 0 {
			return nil
		}
		d := h.ownDNs[wv.Pick%len(h.ownDNs)]
		norm = d.Norm()
		base, held := h.leaf.content[norm]
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
		return h.fail("unknown edge write kind %d", wv.Kind)
	}

	_, err := h.w.Submit(c)
	switch {
	case err == nil:
	case errors.Is(err, edgewrite.ErrPending):
		h.wfails++
	case errors.Is(err, edgewrite.ErrRejected):
		return nil // target not held locally yet; a real replica refers the client
	default:
		return h.fail("edge %s refused: %v", wv, err)
	}

	if h.rep != nil {
		h.rep.EdgeAccepted++
	}
	h.own[norm] = want
	switch wv.Kind {
	case edgeAdd:
		h.ownDNs = append(h.ownDNs, c.DN)
	case edgeDelete:
		for i, d := range h.ownDNs {
			if d.Norm() == norm {
				h.ownDNs = append(h.ownDNs[:i], h.ownDNs[i+1:]...)
				break
			}
		}
	}
	h.mustRYW = true
	return h.checkReadYourWrites("submit")
}

// checkReadYourWrites asserts the writing client's view: every own write —
// from the moment Submit accepted it, through crash recovery and replay,
// past retirement — is reflected in the overlaid answer, and every own
// delete stays invisible.
func (h *edgeHarness) checkReadYourWrites(phase string) *Failure {
	if !h.mustRYW {
		return nil
	}
	entries := make([]*entry.Entry, 0, len(h.leaf.content))
	for _, e := range h.leaf.content {
		entries = append(entries, e)
	}
	answer := h.w.Overlay(h.spec, entries)
	byNorm := make(map[string]*entry.Entry, len(answer))
	for _, e := range answer {
		byNorm[e.DN().Norm()] = e
	}
	for norm, want := range h.own {
		got, ok := byNorm[norm]
		switch {
		case want == nil && ok:
			return h.fail("%s: own delete of %s is visible again (read-your-writes broken)", phase, norm)
		case want != nil && !ok:
			return h.fail("%s: own write of %s invisible to the writer (read-your-writes broken)", phase, norm)
		case want != nil && !got.Equal(want):
			return h.fail("%s: own write of %s reads back wrong:\n  got  %s\n  want %s", phase, norm, got, want)
		}
	}
	return nil
}

// finish drains the history: chaos off, replay until every journaled op
// commits, one final poll to echo the last CSN, then the convergence,
// overlay-identity and exactly-once assertions.
func (h *edgeHarness) finish() *Failure {
	defer h.w.Close()
	h.seq.chaos = false
	for i := 0; i < 100 && h.w.PendingUncommitted() > 0; i++ {
		h.w.Replay()
	}
	if n := h.w.PendingUncommitted(); n != 0 {
		return h.fail("drain: %d ops still uncommitted with chaos disabled", n)
	}
	if f := h.doPoll(false); f != nil {
		return f
	}
	if n := h.w.Pending(); n != 0 {
		return h.fail("drain: %d ops still pending after the final CSN echo", n)
	}

	// With nothing pending the overlay must be the identity: the writer's
	// view and every other client's view are byte-identical.
	entries := make([]*entry.Entry, 0, len(h.leaf.content))
	for _, e := range h.leaf.content {
		entries = append(entries, e)
	}
	answer := h.w.Overlay(h.spec, entries)
	if len(answer) != len(entries) {
		return h.fail("overlay not identity after drain: %d entries in, %d out", len(entries), len(answer))
	}
	got := make(map[string]*entry.Entry, len(answer))
	for _, e := range answer {
		got[e.DN().Norm()] = e
	}
	if diff := describeDiff(got, h.seq.mdl.selection(h.spec)); diff != "" {
		return h.fail("writer's drained view diverged from reference:\n%s", diff)
	}

	// Exactly-once at the sequencer: every forwarded op id applied once, no
	// matter how many crashes and replays its commit took.
	for id, n := range h.seq.applies {
		if n != 1 {
			return h.fail("op %s applied %d times at the sequencer (want exactly once)", id, n)
		}
	}
	return nil
}

// genEdgeHistory generates one edge-write history: master churn, leaf
// polls (some lost), edge writes, replay passes and writer crashes.
func genEdgeHistory(cfg EdgeConfig, hseed int64) []Event {
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

// RunEdge executes an edge-write oracle run: each history drives the edge
// writer (real WAL on disk, crash/reopen, chaos-faulted forwards) against
// the sequencer and the leaf's sync stream, asserting read-your-writes at
// every step and byte-identical convergence plus exactly-once application
// at the end.
func RunEdge(cfg EdgeConfig) *Report {
	cfg.fillDefaults()
	rep := &Report{}
	for hn := 0; hn < cfg.Histories; hn++ {
		hseed := historySeed(cfg.Seed, hn)
		events := genEdgeHistory(cfg, hseed)
		if f := runEdge(cfg, hseed, events, rep); f != nil {
			f.History = events
			f.Minimal = shrinkEvents(events, func(ev []Event) bool {
				return runEdge(cfg, hseed, ev, nil) != nil
			})
			f.Replay = replayCmd("TestOracleEdgeWriteSweep", hseed, cfg.Steps)
			rep.Failure = f
			return rep
		}
		rep.Histories++
	}
	return rep
}
