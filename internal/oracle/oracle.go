// Package oracle is a deterministic, seed-replayable model-checking harness
// for the ReSync protocol: it generates random operation histories over the
// synthetic DIT (internal/sim), interleaved with poll / persist / retain /
// sync_end session events and fault schedules, maintains a brute-force
// reference model of what each filter's replica content must be, and drives
// the real stack at two levels:
//
//   - engine level (this file): an in-process resync.Engine, with lost
//     responses, corrupted cookies, server-side session ends and persist
//     subscriptions driven event by event;
//   - wire level (wire.go): a full loop through an ldapnet master and
//     supervisor replicas, with internal/chaos fault injection.
//
// After every sync point it asserts that replica content equals the
// reference selection and that update traffic never exceeds the minimal net
// set except via legal retain actions. On failure the history is shrunk to
// a minimal reproducing sequence (shrink.go) and a one-line -seed replay
// command is reported.
package oracle

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync"
	"filterdir/internal/sim"
)

// Config parameterizes an engine-level oracle run.
type Config struct {
	// Seed derives every history; equal seeds replay equal runs.
	Seed int64
	// Histories is the number of independent histories to check.
	Histories int
	// Steps is the number of events per history (a few final polls are
	// appended so every history ends with a convergence check).
	Steps int
	// BreakE10 is a test-only fault injection: the simulated consumer drops
	// every delete PDU, modeling an engine that loses E10 classifications.
	// A correct oracle must detect the divergence and shrink it.
	BreakE10 bool
	// Specs overrides the default replicated content specifications, e.g.
	// with many sessions over one shared filter to exercise the
	// content-group fan-out layer. Empty means specs().
	Specs []query.Query
	// BeginTogether makes every replica Begin before the first event, all
	// at one store CSN — replicas re-Beginning at once after a master
	// restart — so that members of one content group are served from one
	// reload snapshot. Off, a replica begins at its first exchange.
	BeginTogether bool
	// Shards overrides the master store's shard count (0 = store default).
	// Histories are shard-oblivious: the shard sweep (shards.go) replays the
	// same seeds at several counts and asserts identical hashes.
	Shards int
}

// specList resolves the run's content specifications.
func (c Config) specList() []query.Query {
	if len(c.Specs) > 0 {
		return c.Specs
	}
	return specs()
}

func (c *Config) fillDefaults() {
	if c.Histories <= 0 {
		c.Histories = 20
	}
	if c.Steps <= 0 {
		c.Steps = 50
	}
}

// Report summarizes a run. Failure is nil when every history converged.
type Report struct {
	Histories int // histories completed without divergence
	Events    int // events executed
	Polls     int // synchronization exchanges performed
	Traffic   resync.Traffic
	Failure   *Failure

	// Content-group fan-out accounting, accumulated across histories:
	// shared-interval classification reuse on the engine, and shared-PDU
	// encoding reuse on the wire (wire runs only).
	SharedClassifyHits    int64
	SharedClassifyMisses  int64
	ReloadSnapshotsBuilt  int64
	ReloadSnapshotsShared int64
	StreamEncodes         int64
	StreamDedupPDUs       int64

	// Edge-write accounting (edge.go sweeps only): ops accepted at the
	// replica, ops the sequencer actually applied, and replayed forwards
	// answered from the dedup table instead of re-applied.
	EdgeAccepted   int64
	EdgeApplied    int64
	EdgeDuplicates int64

	// Shard-sweep fingerprints (shards.go): TrafficHash folds every update
	// PDU the harness observed, in order; ContentHash folds every final
	// replica content and the master store at the end of each history. Equal
	// seeds must produce equal hashes at every shard count.
	TrafficHash uint64
	ContentHash uint64
}

// historySeed derives the h-th history's seed, so a failing history is
// replayable in isolation with -oracle.seed=<seed> -oracle.n=1.
func historySeed(seed int64, h int) int64 { return seed + int64(h)*1_000_003 }

// synthConfig derives the synthetic-DIT shape from the history seed; every
// third seed bounds the journal so full-reload degradation is exercised.
// Shards only affects store construction — history generation must stay
// byte-identical across shard counts, so generators pass 0.
func synthConfig(hseed int64, shards int) sim.SynthConfig {
	cfg := sim.SynthConfig{Seed: hseed, Shards: shards}
	if hseed%3 == 2 || hseed%3 == -2 {
		cfg.JournalLimit = 8
	}
	return cfg
}

// specs returns the content specifications replicated by the oracle:
// equality, conjunctive-with-ordering, disjunctive, and substring filters,
// the last with an attribute selection so suppression of modifies confined
// to unselected attributes is exercised.
func specs() []query.Query {
	return []query.Query{
		query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)"),
		query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(&(grp=0)(val>=2))"),
		query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(|(grp=2)(val=0))"),
		query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(cn=e*)", "cn", "grp"),
	}
}

// sharedSpecs builds the fan-out stress spec set: n replicas over ONE
// content — cycling through the plain spelling, an attribute-selected view
// of it, and a containment-equivalent (absorption) spelling — plus a final
// odd-one-out replica whose filter shares no group with the rest. The
// grouped engine must be observationally identical to per-session
// classification for every one of them.
func sharedSpecs(n int) []query.Query {
	out := make([]query.Query, 0, n+1)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			out = append(out, query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)"))
		case 1:
			out = append(out, query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)", "cn", "grp"))
		default:
			out = append(out, query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(|(grp=1)(&(grp=1)(val>=0)))"))
		}
	}
	return append(out, query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(&(grp=0)(val>=2))"))
}

// --- Reference model ------------------------------------------------------

// model is the brute-force reference: every entry of the DIT by normalized
// DN, maintained by replaying the same operations applied to the real
// store, using the same entry constructors (sim.SynthEntry).
type model map[string]*entry.Entry

func newModel(st *dit.Store) model {
	m := make(model)
	for _, e := range st.All() {
		m[e.DN().Norm()] = e.Clone()
	}
	return m
}

// valid reports whether the operation applies to the current state; ops
// invalidated by shrinking (e.g. a modify whose add was removed) are
// skipped on both the store and the model.
func (m model) valid(op sim.Op) bool {
	_, ok := m[op.DN().Norm()]
	switch op.Kind {
	case sim.OpAdd:
		return !ok
	case sim.OpDelete, sim.OpModify:
		return ok
	case sim.OpModDN:
		_, newOk := m[op.NewDN().Norm()]
		return ok && !newOk
	}
	return false
}

// apply mutates the model exactly as dit.Store applies the operation.
func (m model) apply(op sim.Op) {
	norm := op.DN().Norm()
	switch op.Kind {
	case sim.OpAdd:
		m[norm] = sim.SynthEntry(op.Name, op.Grp, op.Val)
	case sim.OpDelete:
		delete(m, norm)
	case sim.OpModify:
		e := m[norm].Clone()
		e.Put("grp", strconv.Itoa(op.Grp))
		e.Put("val", strconv.Itoa(op.Val))
		m[norm] = e
	case sim.OpModDN:
		e := m[norm].Clone()
		delete(m, norm)
		e.SetDN(op.NewDN())
		e.Put("cn", op.NewName) // store updates the naming attribute
		m[op.NewDN().Norm()] = e
	}
}

// selection computes the reference replica content for a spec: the selected
// views of every model entry in the spec's base/scope region matching its
// filter.
func (m model) selection(spec query.Query) map[string]*entry.Entry {
	out := make(map[string]*entry.Entry)
	for norm, e := range m {
		if !spec.InScope(e.DN()) {
			continue
		}
		if spec.Filter != nil && !spec.Filter.Matches(e) {
			continue
		}
		out[norm] = e.Select(spec.Attrs)
	}
	return out
}

// --- Engine-level harness -------------------------------------------------

// replicaSt is the simulated consumer of one spec: the cookie it has
// adopted and the content it has applied.
type replicaSt struct {
	spec    query.Query
	cookie  string
	content map[string]*entry.Entry
	begun   bool
}

type harness struct {
	cfg  Config
	seed int64
	st   *dit.Store
	eng  *resync.Engine
	mdl  model
	reps []*replicaSt
	rep  *Report // accumulates stats; nil during shrinking re-runs
	step int
}

// runEngine executes one event history against a fresh engine, returning
// the first divergence (nil if the history converges throughout).
func runEngine(cfg Config, hseed int64, events []Event, rep *Report) *Failure {
	st, err := sim.BuildSynthStore(synthConfig(hseed, cfg.Shards))
	if err != nil {
		return &Failure{HistorySeed: hseed, Msg: "build synthetic store: " + err.Error()}
	}
	h := &harness{cfg: cfg, seed: hseed, st: st, eng: resync.NewEngine(st), mdl: newModel(st), rep: rep}
	if rep != nil {
		h.eng.SetObserver(func(_ string, ups []resync.Update, _ bool) {
			for _, u := range ups {
				rep.Traffic.Add(u)
			}
			rep.TrafficHash = foldUpdates(rep.TrafficHash, ups)
		})
		defer func() {
			snap := h.eng.Counters().Snapshot()
			rep.SharedClassifyHits += snap.SharedClassifyHits
			rep.SharedClassifyMisses += snap.SharedClassifyMisses
			rep.ReloadSnapshotsBuilt += snap.ReloadSnapshotsBuilt
			rep.ReloadSnapshotsShared += snap.ReloadSnapshotsShared
		}()
	}
	for _, spec := range cfg.specList() {
		h.reps = append(h.reps, &replicaSt{spec: spec, content: make(map[string]*entry.Entry)})
	}
	if cfg.BeginTogether {
		for _, r := range h.reps {
			if f := h.doPoll(r, false); f != nil {
				return f
			}
		}
	}
	for i, ev := range events {
		h.step = i
		if rep != nil {
			rep.Events++
		}
		if f := h.exec(ev); f != nil {
			f.Step = i
			return f
		}
	}
	if rep != nil {
		for _, r := range h.reps {
			rep.ContentHash = foldContent(rep.ContentHash, r.content)
		}
		rep.ContentHash = foldEntries(rep.ContentHash, st.All())
	}
	return nil
}

func (h *harness) exec(ev Event) *Failure {
	switch ev.Kind {
	case EvOp:
		if !h.mdl.valid(ev.Op) {
			return nil // invalidated by shrinking; skip on both sides
		}
		if err := sim.ApplyOp(h.st, ev.Op); err != nil {
			return h.fail("op %q valid in model but rejected by store: %v", ev.Op, err)
		}
		h.mdl.apply(ev.Op)
		return nil
	case EvPoll:
		return h.doPoll(h.reps[ev.Rep], ev.Lost)
	case EvRetain:
		return h.doRetain(h.reps[ev.Rep], ev.Lost)
	case EvPersist:
		return h.doPersist(h.reps[ev.Rep])
	case EvBadCookie:
		return h.doBadCookie(h.reps[ev.Rep])
	case EvEnd:
		r := h.reps[ev.Rep]
		if r.begun {
			_ = h.eng.End(r.cookie) // replica learns on its next exchange
		}
		return nil
	}
	return h.fail("unknown event kind %d", ev.Kind)
}

func (h *harness) fail(format string, args ...any) *Failure {
	return &Failure{HistorySeed: h.seed, Msg: fmt.Sprintf(format, args...)}
}

// doPoll performs one poll exchange for the replica. With lost set the
// server-side exchange still happens but the replica never sees the
// response — the at-least-once delivery case the cookie protocol exists
// for.
func (h *harness) doPoll(r *replicaSt, lost bool) *Failure {
	var res *resync.PollResult
	var err error
	fullTransfer := false
	if !r.begun {
		res, err = h.eng.Begin(r.spec)
		fullTransfer = true
	} else {
		res, err = h.eng.Poll(r.cookie)
		if errors.Is(err, resync.ErrNoSuchSession) && !lost {
			// Stale session: drop content and re-begin, like the supervisor.
			r.content = make(map[string]*entry.Entry)
			r.begun = false
			res, err = h.eng.Begin(r.spec)
			fullTransfer = true
		}
	}
	if lost {
		return nil // response dropped on the wire; replica state untouched
	}
	if err != nil {
		return h.fail("poll %q: %v", r.spec, err)
	}
	return h.adopt(r, res, fullTransfer || res.FullReload)
}

// adopt applies an exchange's updates to the replica, checks minimality
// (full transfers must be pure add sets; incremental responses must equal
// the net difference exactly), adopts the cookie, and checks convergence.
func (h *harness) adopt(r *replicaSt, res *resync.PollResult, fullTransfer bool) *Failure {
	if h.rep != nil {
		h.rep.Polls++
	}
	ref := h.mdl.selection(r.spec)
	before := copyContent(r.content)
	if fullTransfer {
		r.content = make(map[string]*entry.Entry)
		for _, u := range res.Updates {
			if u.Action != resync.ActionAdd {
				return h.fail("full transfer for %q contains %s PDU for %s", r.spec, u.Action, u.DN)
			}
			r.content[u.DN.Norm()] = u.Entry
		}
	} else {
		if f := h.applyIncremental(r, res.Updates); f != nil {
			return f
		}
		if f := h.checkMinimal(r.spec, before, ref, res.Updates, "poll"); f != nil {
			return f
		}
	}
	r.cookie = res.Cookie
	r.begun = true
	return h.checkConverged(r, ref, "poll")
}

// applyIncremental applies a net update set to the replica content.
func (h *harness) applyIncremental(r *replicaSt, updates []resync.Update) *Failure {
	for _, u := range updates {
		norm := u.DN.Norm()
		switch u.Action {
		case resync.ActionAdd, resync.ActionModify:
			img := u.Image(heldFor(r.content, u))
			if img == nil {
				return h.fail("patch for %s, which replica %q does not hold", u.DN, r.spec)
			}
			if u.IsMove() {
				delete(r.content, u.OldDN.Norm())
			}
			r.content[norm] = img
		case resync.ActionDelete:
			if !h.cfg.BreakE10 { // test-only injected consumer fault
				delete(r.content, norm)
			}
		case resync.ActionRetain:
			return h.fail("retain PDU outside retain mode for %q (dn %s)", r.spec, u.DN)
		default:
			return h.fail("unknown action %v for %q", u.Action, r.spec)
		}
	}
	return nil
}

// heldFor is what a consumer holding content applies u on top of: the entry
// at the update's DN, or for a move the one at its old DN — at the new DN
// only if the old one is gone (a redelivered move).
func heldFor(content map[string]*entry.Entry, u resync.Update) *entry.Entry {
	if u.IsMove() {
		if held, ok := content[u.OldDN.Norm()]; ok {
			return held
		}
	}
	return content[u.DN.Norm()]
}

// checkMinimal asserts the update set is exactly the net difference between
// the replica's pre-exchange content and the reference selection: nothing
// missing, nothing redundant, no duplicates. A move counts as the delete of
// its old DN plus the add of its new one, and is judged by the image it
// leaves: the entry held at the old DN, re-keyed and patched.
func (h *harness) checkMinimal(spec query.Query, before, ref map[string]*entry.Entry, updates []resync.Update, phase string) *Failure {
	wantAdd := make(map[string]*entry.Entry)
	wantMod := make(map[string]*entry.Entry)
	wantDel := make(map[string]bool)
	for norm, ent := range ref {
		b, held := before[norm]
		switch {
		case !held:
			wantAdd[norm] = ent
		case !b.Equal(ent):
			wantMod[norm] = ent
		}
	}
	for norm := range before {
		if _, ok := ref[norm]; !ok {
			wantDel[norm] = true
		}
	}
	seen := make(map[string]bool)
	var adds, mods, dels int
	for _, u := range updates {
		norm := u.DN.Norm()
		keys := []string{u.Action.String() + " " + norm}
		if u.IsMove() {
			keys = []string{"delete " + u.OldDN.Norm(), "add " + norm}
		}
		for _, key := range keys {
			if seen[key] {
				return h.fail("%s for %q: duplicate %s", phase, spec, key)
			}
			seen[key] = true
		}
		if u.IsMove() {
			want, ok := wantAdd[norm]
			if !ok || !wantDel[u.OldDN.Norm()] {
				return h.fail("%s for %q: redundant move %s <- %s (not a delete plus an add of the minimal set)", phase, spec, u.DN, u.OldDN)
			}
			if got := u.Image(before[u.OldDN.Norm()]); !got.Equal(want) {
				return h.fail("%s for %q: move %s <- %s leaves the wrong entry:\n  got  %s\n  want %s", phase, spec, u.DN, u.OldDN, got, want)
			}
			adds++
			dels++
			continue
		}
		switch u.Action {
		case resync.ActionAdd:
			want, ok := wantAdd[norm]
			if !ok {
				return h.fail("%s for %q: redundant add of %s (not in minimal set)", phase, spec, u.DN)
			}
			if !u.Entry.Equal(want) {
				return h.fail("%s for %q: add of %s carries wrong entry:\n  got  %s\n  want %s", phase, spec, u.DN, u.Entry, want)
			}
			adds++
		case resync.ActionModify:
			want, ok := wantMod[norm]
			if !ok {
				return h.fail("%s for %q: redundant modify of %s (net-unchanged or unheld)", phase, spec, u.DN)
			}
			// A patch is judged by the image it leaves on what was held.
			if got := u.Image(before[norm]); !got.Equal(want) {
				return h.fail("%s for %q: modify of %s carries wrong entry:\n  got  %s\n  want %s", phase, spec, u.DN, got, want)
			}
			mods++
		case resync.ActionDelete:
			if !wantDel[norm] {
				return h.fail("%s for %q: redundant delete of %s", phase, spec, u.DN)
			}
			dels++
		case resync.ActionRetain:
			return h.fail("%s for %q: retain PDU outside retain mode", phase, spec)
		}
	}
	if adds != len(wantAdd) || mods != len(wantMod) || dels != len(wantDel) {
		return h.fail("%s for %q: update set not minimal-complete: got %d/%d/%d add/mod/del, want %d/%d/%d",
			phase, spec, adds, mods, dels, len(wantAdd), len(wantMod), len(wantDel))
	}
	return nil
}

// checkConverged asserts replica content equals the reference selection.
func (h *harness) checkConverged(r *replicaSt, ref map[string]*entry.Entry, phase string) *Failure {
	if diff := describeDiff(r.content, ref); diff != "" {
		return h.fail("%s for %q: replica diverged from reference:\n%s", phase, r.spec, diff)
	}
	return nil
}

// doRetain performs one incomplete-history (equation 3) exchange: the
// consumer keeps what is mentioned (retain keeps the held copy) and drops
// everything unmentioned.
func (h *harness) doRetain(r *replicaSt, lost bool) *Failure {
	if !r.begun {
		return h.doPoll(r, lost)
	}
	res, err := h.eng.PollRetain(r.cookie)
	if lost {
		return nil
	}
	if errors.Is(err, resync.ErrNoSuchSession) {
		r.content = make(map[string]*entry.Entry)
		r.begun = false
		return h.doPoll(r, false)
	}
	if err != nil {
		return h.fail("retain poll %q: %v", r.spec, err)
	}
	if h.rep != nil {
		h.rep.Polls++
	}
	ref := h.mdl.selection(r.spec)
	newContent := make(map[string]*entry.Entry)
	seen := make(map[string]bool)
	for _, u := range res.Updates {
		norm := u.DN.Norm()
		if seen[norm] {
			return h.fail("retain poll %q: %s mentioned twice", r.spec, u.DN)
		}
		seen[norm] = true
		switch u.Action {
		case resync.ActionAdd, resync.ActionModify:
			newContent[norm] = u.Entry
		case resync.ActionRetain:
			held, ok := r.content[norm]
			if !ok {
				return h.fail("retain poll %q: retain of %s which the replica does not hold", r.spec, u.DN)
			}
			newContent[norm] = held
		case resync.ActionDelete:
			return h.fail("retain poll %q: delete PDU in retain mode for %s", r.spec, u.DN)
		}
	}
	// Every selected entry must be mentioned exactly once and nothing else:
	// the consumer's drop-unmentioned rule is only sound then.
	if len(res.Updates) != len(ref) {
		return h.fail("retain poll %q: mentioned %d entries, selection has %d", r.spec, len(res.Updates), len(ref))
	}
	r.content = newContent
	r.cookie = res.Cookie
	return h.checkConverged(r, ref, "retain poll")
}

// doPersist upgrades the replica's session to persist mode at its current
// cookie, drains the pending batch (the master is quiescent during the
// event, so at most one batch is due), applies it, and downgrades again —
// exercising rollback-without-ack plus recompute, including
// modify-then-revert intervals under persist mode.
func (h *harness) doPersist(r *replicaSt) *Failure {
	if !r.begun {
		return h.doPoll(r, false)
	}
	sub, err := h.eng.Persist(r.cookie)
	if errors.Is(err, resync.ErrNoSuchSession) {
		// Unknown or ended sync point: the consumer must poll instead (and
		// will receive a reload or re-begin).
		return h.doPoll(r, false)
	}
	if err != nil {
		return h.fail("persist %q: %v", r.spec, err)
	}
	ref := h.mdl.selection(r.spec)
	before := copyContent(r.content)
	var drained []resync.Update
	if describeDiff(r.content, ref) != "" {
		// Updates are due: exactly one batch covers the whole interval.
		select {
		case b, ok := <-sub.Updates:
			if !ok {
				// Stream ended (journal no longer covers the position): the
				// consumer falls back to a poll, which carries the reload.
				sub.Close()
				return h.doPoll(r, false)
			}
			if f := h.applyIncremental(r, b.Updates); f != nil {
				sub.Close()
				return f
			}
			r.cookie = b.Cookie
			drained = b.Updates
		case <-time.After(2 * time.Second):
			sub.Close()
			return h.fail("persist %q: replica out of date but no batch pushed:\n%s", r.spec, describeDiff(r.content, ref))
		}
	}
	sub.Close()
	if h.rep != nil {
		h.rep.Polls++
	}
	if f := h.checkMinimal(r.spec, before, ref, drained, "persist"); f != nil {
		return f
	}
	return h.checkConverged(r, ref, "persist")
}

// doBadCookie polls with a corrupted generation: the only safe engine
// answer is a full reload.
func (h *harness) doBadCookie(r *replicaSt) *Failure {
	if !r.begun {
		return nil
	}
	res, err := h.eng.Poll(corruptCookie(r.cookie))
	if errors.Is(err, resync.ErrNoSuchSession) {
		return nil // corrupt session id part; nothing to check
	}
	if err != nil {
		return h.fail("corrupt-cookie poll %q: %v", r.spec, err)
	}
	if !res.FullReload {
		return h.fail("corrupt-cookie poll %q: engine answered incrementally to an unknown sync point", r.spec)
	}
	return h.adopt(r, res, true)
}

// corruptCookie replaces the generation part with one that never existed.
func corruptCookie(cookie string) string {
	if i := strings.LastIndexByte(cookie, '@'); i >= 0 {
		return cookie[:i] + "@999999999"
	}
	return cookie + "@999999999"
}

// --- helpers --------------------------------------------------------------

func copyContent(m map[string]*entry.Entry) map[string]*entry.Entry {
	out := make(map[string]*entry.Entry, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// describeDiff renders the difference between replica content and the
// reference selection ("" when equal).
func describeDiff(got, want map[string]*entry.Entry) string {
	var lines []string
	for norm, w := range want {
		g, ok := got[norm]
		switch {
		case !ok:
			lines = append(lines, fmt.Sprintf("  missing %s (want %s)", norm, w))
		case !g.Equal(w):
			lines = append(lines, fmt.Sprintf("  stale   %s:\n    got  %s\n    want %s", norm, g, w))
		}
	}
	for norm, g := range got {
		if _, ok := want[norm]; !ok {
			lines = append(lines, fmt.Sprintf("  ghost   %s (held %s, not selected)", norm, g))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Run executes an engine-level oracle run: cfg.Histories independent
// histories, each checked event by event. On the first divergence the
// history is shrunk and the run stops.
func Run(cfg Config) *Report {
	cfg.fillDefaults()
	rep := &Report{}
	for h := 0; h < cfg.Histories; h++ {
		hseed := historySeed(cfg.Seed, h)
		events := genHistory(cfg, hseed)
		if f := runEngine(cfg, hseed, events, rep); f != nil {
			f.History = events
			f.Minimal = shrinkEvents(events, func(ev []Event) bool {
				return runEngine(cfg, hseed, ev, nil) != nil
			})
			f.Replay = replayCmd("TestOracleSweep", hseed, cfg.Steps)
			rep.Failure = f
			return rep
		}
		rep.Histories++
	}
	return rep
}

func replayCmd(test string, hseed int64, steps int) string {
	return fmt.Sprintf("go test ./internal/oracle -run %s -oracle.seed=%d -oracle.n=1 -oracle.steps=%d",
		test, hseed, steps)
}
