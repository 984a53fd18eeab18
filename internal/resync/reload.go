package resync

import (
	"maps"
	"sync"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// Reload snapshots (DESIGN.md §10, §14). A full content transfer — Begin's
// initial content, a reload after the journal stopped covering a session,
// every chunk of a chunked transfer and every resumed remainder — is served
// from a reload snapshot: the spec's content at one CSN, read in one
// Store.Snapshot, with everything derived from it (the DN-ordered add
// updates per attribute view, the chunk geometry and prefix fingerprints,
// the wire-encoding memo) built once and read by every session that uses
// it. The members of a content group share their group's snapshot for as
// long as the store stays at its CSN, which is what makes N replicas
// re-Beginning at once after a master restart cost one materialisation of
// the content instead of N.

// reloadSnapshot is the content of one spec at one CSN.
type reloadSnapshot struct {
	csn dit.CSN
	// entries are the store's own frozen entries in normalized-DN order.
	entries []*entry.Entry
	// content is the session content map at csn; a session takes a copy,
	// which it then advances on its own.
	content map[string]dn.DN

	mu    sync.Mutex
	views map[string]*reloadView
}

// reloadView is a snapshot seen through one attribute selection.
type reloadView struct {
	// updates is the whole content as add actions; a chunk is a subslice.
	updates []Update
	// chunkSize is the entries per chunk, 0 for a monolithic transfer.
	chunkSize int
	// encs[k] memoizes the wire encoding of chunk k's PDUs (of the whole
	// transfer when monolithic).
	encs []*SharedEnc
	// fps[i] is the running FNV-1a fingerprint of chunks [0, i), so any
	// acknowledged prefix can be verified when a token comes back; nil for
	// a monolithic transfer.
	fps []uint64
}

// nchunks returns the view's total chunk count (1 when monolithic).
func (v *reloadView) nchunks() uint32 { return uint32(len(v.encs)) }

// chunk returns the updates and encoding memo of chunk k.
func (v *reloadView) chunk(k uint32) ([]Update, *SharedEnc) {
	if v.chunkSize == 0 {
		return v.updates, v.encs[0]
	}
	lo := int(k) * v.chunkSize
	hi := min(lo+v.chunkSize, len(v.updates))
	return v.updates[lo:hi], v.encs[k]
}

// buildReload materialises the content of spec (attrs stripped).
func (e *Engine) buildReload(spec query.Query) *reloadSnapshot {
	csn, entries := e.store.Snapshot(spec)
	snap := &reloadSnapshot{
		csn:     csn,
		entries: entries,
		content: make(map[string]dn.DN, len(entries)),
		views:   make(map[string]*reloadView),
	}
	for _, ent := range entries {
		snap.content[ent.DN().Norm()] = ent.DN()
	}
	e.stats.ReloadSnapshotsBuilt.Add(1)
	return snap
}

// reloadSnapshot returns the snapshot a full transfer to a member of g is
// served from. Builders are single-flight under the group: members
// arriving while one materialises the content wait and then share it. The
// cached snapshot is reused only while the store is still at its CSN — a
// session started from an older one would be correct but begin its life
// behind, the further the longer the group lives — so the first request
// after a later commit replaces it. The (CSN, content) pair comes from one
// frozen view (Store.Snapshot): the group's shared-interval cache keys
// classifications by (spec, CSN) only, so a content map that did not match
// its CSN would be replayed onto every other member standing at that CSN
// and diverge them permanently.
func (e *Engine) reloadSnapshot(g *group) *reloadSnapshot {
	g.reloadMu.Lock()
	defer g.reloadMu.Unlock()
	if snap := g.reload.Load(); snap != nil && snap.csn == e.store.LastCSN() {
		e.stats.ReloadSnapshotsShared.Add(1)
		return snap
	}
	snap := e.buildReload(g.spec)
	g.reload.Store(snap)
	return snap
}

// dropReloadBefore lets go of the group's snapshot once a member exchange
// has seen the store move past it; in-flight chunked transfers keep the
// view they were started from alive through their own reference.
func (g *group) dropReloadBefore(csn dit.CSN) {
	if snap := g.reload.Load(); snap != nil && snap.csn < csn {
		g.reload.CompareAndSwap(snap, nil)
	}
}

// view returns the snapshot under one attribute selection, building it on
// first use: the selected entries (a frozen entry selected whole is the
// stored entry itself), and for a transfer larger than chunkSize the chunk
// geometry with its prefix fingerprints.
func (s *reloadSnapshot) view(key string, attrs []string, chunkSize int) *reloadView {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.views[key]; ok {
		return v
	}
	v := &reloadView{updates: make([]Update, len(s.entries))}
	for i, ent := range s.entries {
		sel := ent.Select(attrs).Freeze()
		v.updates[i] = Update{Action: ActionAdd, DN: sel.DN(), Entry: sel}
	}
	n := 1
	if chunkSize > 0 && len(v.updates) > chunkSize {
		v.chunkSize = chunkSize
		n = (len(v.updates) + chunkSize - 1) / chunkSize
		v.fps = make([]uint64, n+1)
		h := uint64(fnvOffset64)
		v.fps[0] = h
		for i, u := range v.updates {
			h = foldFPUpdate(h, u)
			if (i+1)%chunkSize == 0 || i == len(v.updates)-1 {
				v.fps[i/chunkSize+1] = h
			}
		}
	}
	v.encs = make([]*SharedEnc, n)
	for i := range v.encs {
		v.encs[i] = &SharedEnc{}
	}
	s.views[key] = v
	return v
}

// startFull positions the session at a reload snapshot — its own copy of
// the content map, one sync point at the snapshot's CSN under the session's
// current generation — and returns the view its transfer is served from.
// The caller holds sess.mu (or owns a session not yet registered).
func (e *Engine) startFull(sess *session) *reloadView {
	snap := e.reloadSnapshot(sess.group)
	sess.csn = snap.csn
	sess.content = maps.Clone(snap.content)
	sess.points = []syncPoint{{gen: sess.genSeq, csn: snap.csn}}
	return snap.view(sess.viewKey, sess.spec.Attrs, e.chunkSize)
}
