package resync

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// Content-group fan-out (DESIGN.md §10). Sessions whose (base, scope,
// filter) triples are equal after normalization share a content group, and
// no others do. A session's content map is a pure function of (spec, CSN),
// so every member standing at the same sync CSN classifies the same change
// interval to the same result; the group caches that classification and
// each member applies it as a cheap content-map delta replay, keeping its
// own sync points and undo history intact. Attribute selection stays
// per-session: members are sub-grouped into views (one per distinct attrs
// list) and the selected update batch is built once per view.

// contentKey canonicalizes the part of a spec that determines content
// membership — attrs are a per-session presentation concern.
func contentKey(q query.Query) string {
	n := stripAttrs(q).Normalize()
	return n.Base.Norm() + "\x00" + n.Scope.String() + "\x00" + n.FilterString()
}

// viewKey canonicalizes an attribute selection within a group.
func viewKey(attrs []string) string {
	if len(attrs) == 0 {
		return "*"
	}
	sorted := slices.Clone(attrs)
	slices.Sort(sorted)
	return strings.Join(sorted, ",")
}

// rawUpdate is one classified net change before attribute selection: add
// and modify carry the full-attribute final entry (plus, for modify, the
// start-of-interval snapshot that the per-view suppression check needs);
// delete carries only the DN the replica holds. A modify whose DN saw nothing
// but in-place modifies over the interval is patchable: touched then lists
// the (normalized) attributes those modifies named, in first-touch order. A
// modify with from set is a move from that DN (as the replica holds it), and
// touched lists what the move's patch names (see Update.OldDN).
type rawUpdate struct {
	action    Action
	dn        dn.DN
	from      dn.DN
	ent       *entry.Entry
	prior     *entry.Entry
	patchable bool
	touched   []string
}

// contentOp is one content-map transition of the interval; replaying the
// list through setContent/delContent yields the member's undo record.
type contentOp struct {
	norm    string
	dn      dn.DN
	present bool
}

// viewBatch is the update set of one interval as seen through one
// attribute selection, plus its shared wire-encoding memo.
type viewBatch struct {
	updates    []Update
	suppressed int64
	enc        *SharedEnc
}

// sharedInterval is one classified change interval (fromCSN → toCSN),
// computed once per group and consumed by every member that crosses it.
type sharedInterval struct {
	from, to dit.CSN
	raws     []rawUpdate
	delta    []contentOp

	mu    sync.Mutex
	views map[string]*viewBatch
}

// view returns the interval's update batch under one attribute selection,
// building (and memoizing) it on first use.
func (si *sharedInterval) view(key string, attrs []string) *viewBatch {
	si.mu.Lock()
	defer si.mu.Unlock()
	if vb, ok := si.views[key]; ok {
		return vb
	}
	vb := &viewBatch{enc: &SharedEnc{point: uint64(si.to)}}
	for _, r := range si.raws {
		switch r.action {
		case ActionAdd:
			sel := r.ent.Select(attrs)
			vb.updates = append(vb.updates, Update{Action: ActionAdd, DN: sel.DN(), Entry: sel})
		case ActionDelete:
			vb.updates = append(vb.updates, Update{Action: ActionDelete, DN: r.dn})
		case ActionModify:
			if !r.from.IsRoot() {
				// A move is never suppressed: whatever the view selects, the
				// DN changed.
				vb.updates = append(vb.updates, Update{Action: ActionModify, DN: r.ent.DN(), OldDN: r.from,
					Entry: r.ent.Restrict(selectedNames(r.touched, attrs)), Patch: true})
				continue
			}
			// Minimal update set (equation 3): an entry whose selected view
			// is net-unchanged over the interval — modifies confined to
			// unselected attributes, or modify-then-revert — produces no PDU.
			var names []string
			if r.patchable {
				if names = selectedNames(r.touched, attrs); len(names) == 0 {
					vb.suppressed++
					continue
				}
			}
			sel := r.ent.Select(attrs)
			if r.prior != nil {
				pv := r.prior.Select(attrs)
				if pv.Equal(sel) && pv.DN().SameSpelling(sel.DN()) {
					vb.suppressed++
					continue
				}
			}
			if !r.patchable {
				vb.updates = append(vb.updates, Update{Action: ActionModify, DN: sel.DN(), Entry: sel})
				continue
			}
			// The patch names every touched attribute the view selects, not
			// only the ones that differ from the start of the interval (see
			// Update.Patch); the values come from the final image.
			vb.updates = append(vb.updates, Update{Action: ActionModify, DN: r.ent.DN(), Entry: r.ent.Restrict(names), Patch: true})
		}
	}
	si.views[key] = vb
	return vb
}

// selectedNames returns the normalized attribute names of touched that the
// attribute selection attrs covers (all of them for an empty selection or
// one holding "*", as entry.Select reads it).
func selectedNames(touched, attrs []string) []string {
	if len(attrs) == 0 {
		return touched
	}
	var out []string
	for _, name := range touched {
		for _, a := range attrs {
			if a == "*" {
				return touched
			}
			if entry.NormName(a) == name {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

// maxSharedIntervals bounds the per-group interval cache. Members of one
// group poll at similar cadence, so they cross the same few intervals; a
// straggler beyond the window just classifies its own (larger) interval.
const maxSharedIntervals = 8

// group is one shared-content fan-out unit.
type group struct {
	key  string      // content key
	spec query.Query // founding spec, attrs stripped

	// served counts update PDUs classified for this group's members — a
	// live demand signal the tier control plane reads through GroupLoads.
	served atomic.Uint64

	mu        sync.Mutex
	members   int
	intervals []*sharedInterval

	// reload is the group's reload snapshot (reload.go), nil when none is
	// cached; reloadMu makes building one single-flight.
	reloadMu sync.Mutex
	reload   atomic.Pointer[reloadSnapshot]
}

// joinGroup finds or creates the content group for spec and adds a member.
func (e *Engine) joinGroup(spec query.Query) *group {
	key := contentKey(spec)
	e.groupMu.Lock()
	g := e.groups[key]
	if g == nil {
		g = &group{key: key, spec: stripAttrs(spec)}
		e.groups[key] = g
	}
	g.mu.Lock()
	g.members++
	g.mu.Unlock()
	e.groupMu.Unlock()
	e.stats.GroupJoins.Add(1)
	return g
}

// leaveGroup removes a member; the last member out frees the group's
// cached state.
func (e *Engine) leaveGroup(g *group) {
	e.groupMu.Lock()
	g.mu.Lock()
	g.members--
	if g.members == 0 {
		delete(e.groups, g.key)
		g.intervals = nil
		g.reload.Store(nil)
	}
	g.mu.Unlock()
	e.groupMu.Unlock()
	e.stats.GroupLeaves.Add(1)
}

// Groups reports the number of live content groups — an operator gauge and
// a test probe for last-member teardown.
func (e *Engine) Groups() int {
	e.groupMu.Lock()
	defer e.groupMu.Unlock()
	return len(e.groups)
}

// GroupLoad is one content group's live demand snapshot: its founding spec
// (attrs stripped), current membership, and cumulative update PDUs
// classified for it. The tier control plane folds these into its benefit
// accounting — a group that keeps serving updates to members is demand the
// covering stored filter should be credited for.
type GroupLoad struct {
	Spec    query.Query
	Members int
	Updates uint64
}

// GroupLoads snapshots every live content group's demand counters.
func (e *Engine) GroupLoads() []GroupLoad {
	e.groupMu.Lock()
	defer e.groupMu.Unlock()
	out := make([]GroupLoad, 0, len(e.groups))
	for _, g := range e.groups {
		g.mu.Lock()
		members := g.members
		g.mu.Unlock()
		out = append(out, GroupLoad{Spec: g.spec, Members: members, Updates: g.served.Load()})
	}
	return out
}

// lookupInterval returns the cached classification for [from, to], if any.
func (g *group) lookupInterval(from, to dit.CSN) *sharedInterval {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, si := range g.intervals {
		if si.from == from && si.to == to {
			return si
		}
	}
	return nil
}

// storeInterval caches a classification, keeping the first result when two
// members raced on the same interval.
func (g *group) storeInterval(si *sharedInterval) *sharedInterval {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, have := range g.intervals {
		if have.from == si.from && have.to == si.to {
			return have
		}
	}
	g.intervals = append(g.intervals, si)
	if len(g.intervals) > maxSharedIntervals {
		g.intervals = g.intervals[1:]
	}
	return si
}

// classifyFor produces one session's update batch and undo record for a
// change interval: the raw classification is computed once per group, the
// session's content map replays the interval's delta, and the
// attribute-selected batch comes from the per-view overlay. The caller holds
// sess.mu.
func (e *Engine) classifyFor(sess *session, changes []dit.Change) ([]Update, []undoOp, *SharedEnc) {
	if len(changes) == 0 {
		return nil, nil, nil
	}
	g := sess.group
	from, to := sess.csn, changes[len(changes)-1].CSN
	g.dropReloadBefore(to)
	si := g.lookupInterval(from, to)
	if si == nil {
		si = computeInterval(g.spec, sess.content, changes)
		si.from, si.to = from, to
		si = g.storeInterval(si)
		e.stats.SharedClassifyMisses.Add(1)
	} else {
		e.stats.SharedClassifyHits.Add(1)
	}
	undo := applyInterval(sess, si)
	vb := si.view(sess.viewKey, sess.spec.Attrs)
	if vb.suppressed > 0 {
		e.stats.SuppressedModifies.Add(vb.suppressed)
	}
	g.served.Add(uint64(len(vb.updates)))
	return vb.updates, undo, vb.enc
}

// applyInterval replays the interval's content-map transitions through the
// session, producing the undo record for its new sync point.
func applyInterval(sess *session, si *sharedInterval) []undoOp {
	var undo []undoOp
	for _, op := range si.delta {
		if op.present {
			sess.setContent(op.norm, op.dn, &undo)
		} else {
			sess.delContent(op.norm, &undo)
		}
	}
	return undo
}

// computeInterval replays journal changes against the start-of-interval
// content, classifying every touched DN to its net E01/E10/E11 action.
// content is read, never written: the per-session delta replay owns
// content-map mutation. The result is valid for every session of the spec
// standing at the interval's starting CSN — a session's content is a pure
// function of (spec, CSN).
func computeInterval(spec query.Query, content map[string]dn.DN, changes []dit.Change) *sharedInterval {
	// initial[norm] records whether the DN was in content at the start of
	// the interval; firstBefore holds the entry snapshot at that point, the
	// reference for net-change detection; finalEnt tracks the final entry
	// snapshot per DN.
	initial := make(map[string]bool)
	firstBefore := make(map[string]*entry.Entry)
	finalEnt := make(map[string]*entry.Entry)
	finalIn := make(map[string]bool)
	finalDN := make(map[string]dn.DN)
	changed := make(map[string]bool)
	// touched[norm] unions the attributes named by the in-place modifies of a
	// DN; whole[norm] marks a DN some other kind of record touched — an add,
	// a delete, a rename, a replace that respelled the DN — for which only
	// the complete image describes the change.
	touched := make(map[string][]string)
	whole := make(map[string]bool)
	// ids follows entries through renames, only where there are any.
	var ids *identities
	if slices.ContainsFunc(changes, func(c dit.Change) bool { return c.Type == dit.ChangeModifyDN }) {
		ids = &identities{at: make(map[string]*identity), by: make(map[string]*identity)}
	}

	note := func(d dn.DN, before bool, prior *entry.Entry) {
		norm := d.Norm()
		if _, seen := initial[norm]; !seen {
			initial[norm] = before
			firstBefore[norm] = prior
		}
		changed[norm] = true
		finalDN[norm] = d
	}
	inContent := func(ent *entry.Entry) bool {
		return ent != nil && spec.Selects(ent)
	}

	for _, c := range changes {
		switch c.Type {
		case dit.ChangeAdd, dit.ChangeModify:
			norm := c.DN.Norm()
			_, wasIn := content[norm]
			note(c.DN, wasIn, c.Before)
			finalIn[norm] = inContent(c.After)
			finalEnt[norm] = c.After
			inPlace := c.Type == dit.ChangeModify && c.Before != nil && c.Before.DN().SameSpelling(c.After.DN())
			if inPlace {
				touched[norm] = unionNames(touched[norm], c.Mods)
			} else {
				whole[norm] = true
			}
			if ids != nil {
				ids.record(c, inPlace)
			}
		case dit.ChangeDelete:
			norm := c.DN.Norm()
			_, wasIn := content[norm]
			note(c.DN, wasIn, c.Before)
			finalIn[norm] = false
			finalEnt[norm] = nil
			whole[norm] = true
			if ids != nil {
				ids.record(c, false)
			}
		case dit.ChangeModifyDN:
			oldNorm := c.DN.Norm()
			_, wasIn := content[oldNorm]
			note(c.DN, wasIn, c.Before)
			finalIn[oldNorm] = false
			finalEnt[oldNorm] = nil
			newNorm := c.NewDN.Norm()
			_, newWasIn := content[newNorm]
			note(c.NewDN, newWasIn, nil)
			finalIn[newNorm] = inContent(c.After)
			finalEnt[newNorm] = c.After
			whole[oldNorm], whole[newNorm] = true, true
			ids.record(c, false)
		}
	}
	if ids != nil {
		ids.settle(content, finalIn)
	}

	si := &sharedInterval{views: make(map[string]*viewBatch)}
	norms := make([]string, 0, len(changed))
	for norm := range changed {
		norms = append(norms, norm)
	}
	sort.Strings(norms)
	for _, norm := range norms {
		was, is := initial[norm], finalIn[norm]
		switch {
		case !was && is:
			ent := finalEnt[norm]
			if id := ids.moved(norm); id != nil {
				si.raws = append(si.raws, rawUpdate{action: ActionModify, ent: ent, from: content[id.start], touched: id.touched})
			} else {
				si.raws = append(si.raws, rawUpdate{action: ActionAdd, ent: ent})
			}
			si.delta = append(si.delta, contentOp{norm: norm, dn: ent.DN(), present: true})
		case was && !is:
			d := finalDN[norm]
			if held, ok := content[norm]; ok {
				d = held
			}
			if ids.moved(norm) == nil { // else the move's PDU, under its new DN, says it
				si.raws = append(si.raws, rawUpdate{action: ActionDelete, dn: d})
			}
			si.delta = append(si.delta, contentOp{norm: norm})
		case was && is:
			ent := finalEnt[norm]
			si.raws = append(si.raws, rawUpdate{action: ActionModify, ent: ent, prior: firstBefore[norm],
				patchable: !whole[norm], touched: touched[norm]})
			si.delta = append(si.delta, contentOp{norm: norm, dn: ent.DN(), present: true})
		}
	}
	return si
}

// unionNames adds the normalized attribute names of mods to names, keeping
// first-touch order; a modify names a handful, so a scan beats a set.
func unionNames(names []string, mods []dit.Mod) []string {
	for _, m := range mods {
		names = addName(names, m.Attr)
	}
	return names
}

// addName adds one attribute name, normalized, to names if it is not there.
func addName(names []string, name string) []string {
	if n := entry.NormName(name); !slices.Contains(names, n) {
		names = append(names, n)
	}
	return names
}

// identity is one entry followed through an interval's journal from the DN
// it was first seen at (start) to the one it was last seen at (final).
type identity struct {
	start, final string // normalized DNs
	// touched is what a move's patch names: the attributes its in-place
	// modifies named and the attribute types of every RDN it left or took.
	touched []string
	// broken marks an identity the interval did more to than rename and
	// modify in place — it was added, deleted or replaced under a new
	// spelling — or that shares a DN with another identity (a rename onto a
	// deleted DN, a fresh add at a DN it left): a move would not describe it.
	broken bool
	move   bool // settled: it travels as a move
}

// identities follows the entries of one interval through its renames, so
// that an entry renamed within the content can travel as one move instead of
// a delete and an add (Update.OldDN).
type identities struct {
	at map[string]*identity // DN → the identity standing at it now
	by map[string]*identity // DN → the identity that touched it
}

// here returns the identity standing at norm — one that was there at the
// start of the interval when no record put another there — and marks norm
// touched by it.
func (ids *identities) here(norm string) *identity {
	id := ids.at[norm]
	if id == nil {
		id = &identity{start: norm, final: norm}
		ids.at[norm] = id
	}
	ids.touch(norm, id)
	return id
}

// touch marks norm touched by id; a DN two identities touch breaks both.
func (ids *identities) touch(norm string, id *identity) {
	if other, ok := ids.by[norm]; ok && other != id {
		other.broken, id.broken = true, true
	}
	ids.by[norm] = id
}

// record follows one journal record.
func (ids *identities) record(c dit.Change, inPlace bool) {
	norm := c.DN.Norm()
	switch c.Type {
	case dit.ChangeAdd:
		id := &identity{start: norm, final: norm, broken: true}
		ids.at[norm] = id
		ids.touch(norm, id)
	case dit.ChangeDelete:
		ids.here(norm).broken = true
		delete(ids.at, norm)
	case dit.ChangeModify:
		id := ids.here(norm)
		if inPlace {
			id.touched = unionNames(id.touched, c.Mods)
		} else {
			id.broken = true
		}
	case dit.ChangeModifyDN:
		id := ids.here(norm)
		delete(ids.at, norm)
		to := c.NewDN.Norm()
		ids.touch(to, id)
		ids.at[to], id.final = id, to
		for _, d := range []dn.DN{c.DN, c.NewDN} {
			if leaf, ok := d.Leaf(); ok {
				id.touched = addName(id.touched, leaf.Attr)
			}
		}
	}
}

// settle decides which identities travel as moves: those that stood in the
// content at the start of the interval and stand in it at its end, under a
// DN that was not in it at the start, and that nothing but renames and
// in-place modifies touched. Every other rename keeps the paper's delete
// plus add (or image): renames into or out of the content, onto a deleted
// DN, and there and back.
func (ids *identities) settle(content map[string]dn.DN, finalIn map[string]bool) {
	for _, id := range ids.by {
		_, startIn := content[id.start]
		_, finalWasIn := content[id.final]
		id.move = !id.broken && startIn && !finalWasIn && finalIn[id.final]
	}
}

// moved returns the move that passed through norm, if any (ids may be nil).
// Only its start was in the content at the start of the interval and only
// its final DN is at the end, so the classification of norm says which end
// norm is.
func (ids *identities) moved(norm string) *identity {
	if ids == nil {
		return nil
	}
	if id := ids.by[norm]; id != nil && id.move {
		return id
	}
	return nil
}
