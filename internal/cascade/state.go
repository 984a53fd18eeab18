package cascade

import (
	"encoding/json"
	"path/filepath"
	"sync"

	"filterdir/internal/dit"
	"filterdir/internal/persist"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// Durable tier state is one internal/persist.Dir:
//
//	<StateDir>/store/snapshot.ldif   content at the last full checkpoint
//	<StateDir>/store/journal.ldif    batches of store changes committed since
//
// Every checkpoint is one commit of that directory with the tier's diskState
// as its note, so content and cookies become durable together. Most are
// journal batches; a full snapshot (which also empties the journal) is taken
// on the first checkpoint after a restart — the restored store's CSNs restart
// from zero, so the old journal's watermark is meaningless — and whenever the
// journal is due for one: over the configured JournalRetention, or, without
// one, larger than the snapshot it extends (persist.Journal.Due).
const storeDirName = "store"

// cookieEntry is one spec's durable session position.
type cookieEntry struct {
	Cookie string `json:"cookie"`
	// Addr is the upstream that issued the cookie; a restart resumes with
	// the cookie only when it matches the configured upstream (a cookie
	// from the fallback is dropped — the tier re-begins at its upstream).
	Addr string `json:"addr,omitempty"`
}

// diskSpec is the durable form of a control-plane-adopted spec: enough to
// rebuild the query.Query on restart. Base specs come from configuration
// and are never persisted.
type diskSpec struct {
	Base   string   `json:"base"`
	Scope  string   `json:"scope"`
	Filter string   `json:"filter"`
	Attrs  []string `json:"attrs,omitempty"`
}

// diskSpecOf captures a normalized spec for persistence.
func diskSpecOf(q query.Query) diskSpec {
	return diskSpec{
		Base:   q.Base.String(),
		Scope:  q.Scope.String(),
		Filter: q.FilterString(),
		Attrs:  q.Attrs,
	}
}

// spec rebuilds the query; a spec that no longer parses is reported and
// dropped (the control plane will re-adopt it from live demand if it still
// matters).
func (d diskSpec) spec() (query.Query, error) {
	scope, err := query.ParseScope(d.Scope)
	if err != nil {
		return query.Query{}, err
	}
	q, err := query.New(d.Base, scope, d.Filter, d.Attrs...)
	if err != nil {
		return query.Query{}, err
	}
	return q.Normalize(), nil
}

// diskState is the JSON of a commit note. Generation and Adopted are the
// adaptive control plane's durable footprint: the filter generation survives
// restarts (watch clients never see it move backwards) and adopted specs are
// re-linked alongside the configured ones.
type diskState struct {
	Cookies    map[string]cookieEntry `json:"cookies"`
	Generation uint64                 `json:"generation,omitempty"`
	Adopted    []diskSpec             `json:"adopted,omitempty"`
}

// tierState is the durable directory's append handle and how far the store's
// journal has been committed through it.
type tierState struct {
	mu        sync.Mutex
	journal   *persist.Journal
	watermark dit.CSN
	needFull  bool
	note      string // as last committed
}

// openState loads a previous incarnation's checkpoint into the tier's replica
// and returns the per-spec resume cookies and the adopted specs; the filter
// generation and the state handle are set on t. Content is restored by
// replaying the durable store through each spec — MatchAll selects the spec's
// entries, AddStored+ApplySync rebuild the replica's reference counts exactly
// as live synchronization would have.
func (t *Tier) openState() (cookies map[string]string, adopted []query.Query, err error) {
	cfg, rep := t.cfg, t.rep
	dir := persist.Dir{Path: filepath.Join(cfg.StateDir, storeDirName)}
	// The tier's content is sparse — selected entries without their
	// ancestors — so journal replay must use upsert semantics.
	store, note, err := dir.OpenSparse([]string{""})
	if err != nil {
		return nil, nil, err
	}
	var disk diskState
	if note != "" {
		if err := json.Unmarshal([]byte(note), &disk); err != nil {
			// An unreadable note costs a re-Begin, not the content.
			cfg.Logf("cascade: discarding unreadable commit note: %v", err)
			disk = diskState{}
		}
	}
	t.gen, t.st = disk.Generation, &tierState{needFull: true}
	if t.st.journal, err = dir.Journal(); err != nil {
		return nil, nil, err
	}

	specs := make([]query.Query, 0, len(cfg.Specs)+len(disk.Adopted))
	for _, spec := range cfg.Specs {
		specs = append(specs, spec.Normalize())
	}
	for _, ds := range disk.Adopted {
		spec, err := ds.spec()
		if err != nil {
			cfg.Logf("cascade: dropping unparsable adopted spec %q: %v", ds.Filter, err)
			continue
		}
		specs = append(specs, spec)
		adopted = append(adopted, spec)
	}
	cookies = map[string]string{}

	for _, spec := range specs {
		resume := ""
		if ce, ok := disk.Cookies[spec.Key()]; ok && ce.Cookie != "" {
			if ce.Addr == "" || ce.Addr == cfg.Upstream {
				resume = ce.Cookie
			} else {
				cfg.Logf("cascade: dropping cookie issued by %s (upstream is %s)", ce.Addr, cfg.Upstream)
			}
		}
		sel := spec
		sel.Attrs = nil // stored entries already carry only selected attributes
		updates := resync.FullReload(store, sel)
		if len(updates) == 0 && resume == "" {
			continue
		}
		rep.AddStored(spec, resume)
		if err := rep.ApplySync(spec, updates); err != nil {
			return nil, nil, err
		}
		cookies[spec.Key()] = resume
	}
	if len(cookies) > 0 {
		t.counters.Restores.Add(1)
		cfg.Logf("cascade: restored %d entries from %s", rep.EntryCount(), cfg.StateDir)
	}
	return cookies, adopted, nil
}

// Checkpoint durably records the store and the upstream cookies as one commit
// (no-op without a state directory): the store's changes since the last one
// or, when a full one is due, a snapshot of the store. Cookies are captured
// before the store's changes are, so a committed cookie is never newer than
// the content it is committed with; it may be slightly older, and its resume
// then re-sends updates the content already holds, which re-apply soundly — a
// patch names every attribute touched in the interval, not their net
// difference (resync.Update.Patch).
func (t *Tier) Checkpoint() error {
	s, store := t.st, t.rep.Store()
	if s == nil {
		return nil
	}
	links := t.snapshotLinks()
	gen, _ := t.FilterGeneration()
	disk := diskState{Cookies: make(map[string]cookieEntry, len(links)), Generation: gen}
	for _, link := range links {
		disk.Cookies[link.spec.Key()] = cookieEntry{Cookie: link.sup.Cookie(), Addr: link.sup.Target()}
		if !link.base {
			disk.Adopted = append(disk.Adopted, diskSpecOf(link.spec))
		}
	}
	note, err := json.Marshal(disk)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// ok is false when the store's bounded journal no longer covers the
	// watermark: only a full snapshot can catch up.
	changes, ok := store.ChangesSince(s.watermark)
	switch {
	case s.needFull || !ok || s.journal.Due(t.cfg.JournalRetention):
		if err := s.journal.Snapshot(store.All(), string(note)); err != nil {
			return err
		}
		// A change landing between the two reads is in neither file; the
		// cookie captured before it has the upstream send it again.
		s.watermark, s.needFull = store.LastCSN(), false
		t.counters.Checkpoints.Add(1)
	case len(changes) > 0 || string(note) != s.note:
		if _, err := s.journal.Commit(false, changes, string(note)); err != nil {
			return err
		}
		if len(changes) > 0 {
			s.watermark = changes[len(changes)-1].CSN
		}
		t.counters.JournalAppends.Add(1)
	}
	s.note = string(note)
	return nil
}
