package dit

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
)

// ChangeType identifies an update operation.
type ChangeType int

// The four LDAP update operations.
const (
	ChangeAdd ChangeType = iota + 1
	ChangeDelete
	ChangeModify
	ChangeModifyDN
)

func (t ChangeType) String() string {
	switch t {
	case ChangeAdd:
		return "add"
	case ChangeDelete:
		return "delete"
	case ChangeModify:
		return "modify"
	case ChangeModifyDN:
		return "modifyDN"
	default:
		return fmt.Sprintf("change(%d)", int(t))
	}
}

// Change is one journal record: the operation plus full before/after entry
// snapshots, which let the ReSync engine classify every change against any
// content specification (moved in / moved out / changed within). For
// ChangeModifyDN, DN is the old name and NewDN the new one; subtree moves
// journal one ModifyDN record per moved entry.
type Change struct {
	CSN    CSN
	Type   ChangeType
	DN     dn.DN
	NewDN  dn.DN
	Before *entry.Entry
	After  *entry.Entry
	// Mods records the attribute-level modifications for ChangeModify; it is
	// what a changelog-style consumer sees (changed attributes only). Every
	// ChangeModify record carries them — a replace of a held entry journals
	// the ModReplace list that turns Before into After — so the attributes a
	// record touched are exactly the ones its Mods name, at every store.
	Mods []Mod
}

// ModOp is a modify sub-operation kind.
type ModOp int

// Modify sub-operations per RFC 2251.
const (
	ModAdd ModOp = iota + 1
	ModReplace
	ModDelete
)

// Mod is one attribute modification.
type Mod struct {
	Op     ModOp
	Attr   string
	Values []string
}

// JournalTrimmed returns the total number of journal records dropped by the
// WithJournalLimit bound — the changes sync consumers can no longer replay
// and must cover with a full reload.
func (s *Store) JournalTrimmed() uint64 {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return s.journalTrimmed
}

// ChangeSignal returns a channel closed at the next committed batch;
// persist-mode consumers re-arm by calling it again after each wakeup.
func (s *Store) ChangeSignal() <-chan struct{} {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return s.signal
}

// ChangesSince returns all journal records with CSN > after, and ok=false
// when that span has been trimmed from the journal (the consumer must then
// fall back to a full reload).
func (s *Store) ChangesSince(after CSN) (changes []Change, ok bool) {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	first := s.nextCSN // of an empty journal: nothing committed since the start or a Durable reopen
	if len(s.journal) > 0 {
		first = s.journal[0].CSN
	}
	if after+1 < first {
		return nil, false
	}
	// Journal CSNs are consecutive, so the records after a CSN are a suffix
	// found by subtraction; the copy keeps later trims and appends away from
	// the caller.
	if skip := int(after + 1 - first); skip < len(s.journal) {
		changes = append(changes, s.journal[skip:]...)
	}
	return changes, true
}

// Add inserts a new entry. The parent must exist unless the entry is a
// naming-context suffix. Schema validation applies when configured.
func (s *Store) Add(e *entry.Entry) error {
	_, err := s.submit(func() (CSN, error) { return s.addLocked(e) })
	return err
}

// addLocked validates and applies one add with seqMu held (as are all the
// *Locked update ops below, which run only inside a commit leader's batch).
func (s *Store) addLocked(e *entry.Entry) (CSN, error) {
	d := e.DN()
	norm := d.Norm()
	if !s.holdsTarget(d) {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchContext, d.String())
	}
	sh := s.shardFor(norm)
	if _, exists := sh.load().entries[norm]; exists {
		return 0, fmt.Errorf("%w: %q", ErrAlreadyExists, d.String())
	}
	if !s.isSuffixEntry(d) {
		parent, ok := d.Parent()
		if !ok {
			return 0, fmt.Errorf("%w: parent of %q", ErrNoSuchObject, d.String())
		}
		if _, exists := s.shardFor(parent.Norm()).load().entries[parent.Norm()]; !exists {
			return 0, fmt.Errorf("%w: parent %q", ErrNoSuchObject, parent.String())
		}
	}
	if s.schema != nil {
		if err := s.schema.Validate(e); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrSchema, err)
		}
	}
	cp := published(e)
	s.insert(cp, norm)
	return s.commitLocked(Change{Type: ChangeAdd, DN: d, After: cp}), nil
}

// published returns what the store may keep of a caller's entry: the entry
// itself when it is already frozen (nobody can change it, so it can be
// shared), else a frozen clone. Stored entries, the journal's Before/After
// images and everything a read returns without cloning alias one another on
// the strength of that bit.
func published(e *entry.Entry) *entry.Entry {
	return e.Select(nil).Freeze() // Select of everything: e itself when frozen, else a clone
}

// insert stores an (already validated) entry: the entry, its index terms
// and referral registration on its own shard, the child link on the
// parent's shard.
func (s *Store) insert(e *entry.Entry, norm string) {
	s.write(s.shardFor(norm), func(st *shardState) {
		st.entries[norm] = e
		st.indexEntry(e, norm)
	})
	s.linkChild(e.DN())
}

// remove deletes an entry from its shard and unlinks it from its parent.
func (s *Store) remove(e *entry.Entry, norm string) {
	s.write(s.shardFor(norm), func(st *shardState) {
		delete(st.entries, norm)
		st.unindexEntry(e, norm)
	})
	s.unlinkChild(e.DN())
}

// isSuffixEntry reports whether d is one of the store's context suffixes.
func (s *Store) isSuffixEntry(d dn.DN) bool {
	for _, suf := range s.suffixes {
		if suf.Equal(d) {
			return true
		}
	}
	return false
}

func (s *Store) linkChild(d dn.DN) {
	parent, ok := d.Parent()
	if !ok {
		return
	}
	s.write(s.shardFor(parent.Norm()), func(st *shardState) {
		st.link(parent.Norm(), d.Norm())
	})
}

func (s *Store) unlinkChild(d dn.DN) {
	parent, ok := d.Parent()
	if !ok {
		return
	}
	s.write(s.shardFor(parent.Norm()), func(st *shardState) {
		st.unlink(parent.Norm(), d.Norm())
	})
}

// Delete removes a leaf entry.
func (s *Store) Delete(d dn.DN) error {
	_, err := s.submit(func() (CSN, error) { return s.deleteLocked(d) })
	return err
}

func (s *Store) deleteLocked(d dn.DN) (CSN, error) {
	norm := d.Norm()
	e, ok := s.shardFor(norm).load().entries[norm]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchObject, d.String())
	}
	if len(s.shardFor(norm).load().children[norm]) > 0 {
		return 0, fmt.Errorf("%w: %q", ErrNotLeaf, d.String())
	}
	s.remove(e, norm)
	return s.commitLocked(Change{Type: ChangeDelete, DN: d, Before: e}), nil
}

// Modify applies attribute modifications to an entry.
func (s *Store) Modify(d dn.DN, mods []Mod) error {
	_, err := s.submit(func() (CSN, error) { return s.modifyLocked(d, cloneMods(mods)) })
	return err
}

// modifyLocked applies mods to the entry at d. The journal record keeps mods
// as it is: a caller that does not own the slice and its values passes a
// clone.
func (s *Store) modifyLocked(d dn.DN, mods []Mod) (CSN, error) {
	norm := d.Norm()
	sh := s.shardFor(norm)
	e, ok := sh.load().entries[norm]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchObject, d.String())
	}
	before := e
	after := e.Clone()
	for _, m := range mods {
		switch m.Op {
		case ModAdd:
			after.Add(m.Attr, m.Values...)
		case ModReplace:
			if len(m.Values) == 0 {
				// Replace with no values removes the attribute.
				if after.Has(m.Attr) {
					_ = after.DeleteValues(m.Attr)
				}
			} else {
				after.Put(m.Attr, m.Values...)
			}
		case ModDelete:
			if err := after.DeleteValues(m.Attr, m.Values...); err != nil {
				return 0, fmt.Errorf("modify %q: %w", d.String(), err)
			}
		default:
			return 0, fmt.Errorf("modify %q: unknown mod op %d", d.String(), m.Op)
		}
	}
	if s.schema != nil {
		if err := s.schema.Validate(after); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrSchema, err)
		}
	}
	after.Freeze()
	s.replace(sh, norm, before, after, mods)
	return s.commitLocked(Change{Type: ChangeModify, DN: d, Before: before, After: after, Mods: mods}), nil
}

// replace swaps the stored entry at norm from before to after, which differ
// in no attribute but the ones mods name: only those attributes' index terms
// (and, when the object class is among them, the referral registration) are
// rewritten.
func (s *Store) replace(sh *shard, norm string, before, after *entry.Entry, mods []Mod) {
	s.write(sh, func(st *shardState) {
		st.entries[norm] = after
		for _, m := range mods {
			attr := entry.NormName(m.Attr)
			old, _ := before.Lookup(attr)
			cur, _ := after.Lookup(attr)
			st.reindex(attr, norm, old, cur)
			if attr == entry.AttrObjectClass {
				if after.HasObjectClass(ReferralClass) {
					st.referrals[norm] = true
				} else {
					delete(st.referrals, norm)
				}
			}
		}
	})
}

// replaceMods is the ModReplace list that turns before into after: one mod
// per attribute whose values differ (compared exactly, in order), with no
// values for an attribute after lacks. The values are after's own slices;
// after is frozen, so the journal may share them.
func replaceMods(before, after *entry.Entry) []Mod {
	mods := []Mod{} // none is still "known": a modify record always carries its mods
	for i := 0; i < after.NumAttrs(); i++ {
		name, vals := after.AttrAt(i)
		if old, ok := before.Lookup(name); !ok || !slices.Equal(old, vals) {
			mods = append(mods, Mod{Op: ModReplace, Attr: name, Values: vals})
		}
	}
	for i := 0; i < before.NumAttrs(); i++ {
		if name, _ := before.AttrAt(i); !after.Has(name) {
			mods = append(mods, Mod{Op: ModReplace, Attr: name})
		}
	}
	return mods
}

func cloneMods(mods []Mod) []Mod {
	out := make([]Mod, len(mods))
	for i, m := range mods {
		out[i] = Mod{Op: m.Op, Attr: m.Attr, Values: append([]string(nil), m.Values...)}
	}
	return out
}

// ModifyDN renames an entry (and, for non-leaf entries, its whole subtree).
// newSuperior is the new parent DN; pass the current parent for a pure
// rename. The leaf RDN attribute value is updated in the entry when the RDN
// changes. One ModifyDN journal record is committed per moved entry.
func (s *Store) ModifyDN(old dn.DN, newRDN dn.RDN, newSuperior dn.DN) error {
	_, err := s.submit(func() (CSN, error) { return s.modifyDNLocked(old, newRDN, newSuperior) })
	return err
}

func (s *Store) modifyDNLocked(old dn.DN, newRDN dn.RDN, newSuperior dn.DN) (CSN, error) {
	oldNorm := old.Norm()
	if _, ok := s.shardFor(oldNorm).load().entries[oldNorm]; !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchObject, old.String())
	}
	newDN := newSuperior.Child(newRDN)
	if !s.holdsTarget(newDN) {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchContext, newDN.String())
	}
	if _, exists := s.shardFor(newDN.Norm()).load().entries[newDN.Norm()]; exists {
		return 0, fmt.Errorf("%w: %q", ErrAlreadyExists, newDN.String())
	}
	if !newSuperior.IsRoot() {
		if _, ok := s.shardFor(newSuperior.Norm()).load().entries[newSuperior.Norm()]; !ok && !s.isSuffixEntry(newDN) {
			return 0, fmt.Errorf("%w: new superior %q", ErrNoSuchObject, newSuperior.String())
		}
	}
	if old.IsSuffix(newDN) && !old.Equal(newDN) {
		return 0, fmt.Errorf("cannot move %q under itself", old.String())
	}

	// Collect the subtree rooted at old, parents before children; children
	// are visited in sorted order so the journal record sequence (and hence
	// replication traffic) is identical at every shard count.
	var subtree []dn.DN
	var collect func(d dn.DN)
	collect = func(d dn.DN) {
		subtree = append(subtree, d)
		kids := s.shardFor(d.Norm()).load().children[d.Norm()]
		norms := make([]string, 0, len(kids))
		for childNorm := range kids {
			norms = append(norms, childNorm)
		}
		sort.Strings(norms)
		for _, childNorm := range norms {
			if c, ok := s.shardFor(childNorm).load().entries[childNorm]; ok {
				collect(c.DN())
			}
		}
	}
	collect(old)

	var last CSN
	for _, cur := range subtree {
		tgt, err := dn.Rename(cur, old, newDN)
		if err != nil {
			return 0, err
		}
		e := s.shardFor(cur.Norm()).load().entries[cur.Norm()]
		s.remove(e, cur.Norm())

		// Stored entries are immutable (frozen views and journal records
		// may share them), so the move rewrites a clone.
		moved := e.Clone()
		moved.SetDN(tgt)
		if cur.Equal(old) {
			// Update the naming attribute to match the new RDN.
			oldLeaf, _ := cur.Leaf()
			if !strings.EqualFold(oldLeaf.Attr, newRDN.Attr) || !entry.EqualValues(oldLeaf.Value, newRDN.Value) {
				moved.Put(newRDN.Attr, newRDN.Value)
			}
		}
		s.insert(moved.Freeze(), tgt.Norm())
		last = s.commitLocked(Change{Type: ChangeModifyDN, DN: cur, NewDN: tgt, Before: e, After: moved})
	}
	return last, nil
}

// ApplyCSN applies an externally-described change (an edge-originated write
// forwarded up the cascade) and returns the CSN of the committed journal
// record — the sequencing a replica needs to match its pending op against
// the ReSync stream. A subtree ModifyDN commits one record per moved entry
// and returns the last CSN: the whole move is visible once the stream
// reaches it.
func (s *Store) ApplyCSN(c Change) (CSN, error) {
	return s.submit(func() (CSN, error) { return s.applyLocked(c) })
}

func (s *Store) applyLocked(c Change) (CSN, error) {
	switch c.Type {
	case ChangeAdd:
		if c.After == nil {
			return 0, fmt.Errorf("apply add %q: no entry image", c.DN.String())
		}
		return s.addLocked(c.After)
	case ChangeDelete:
		return s.deleteLocked(c.DN)
	case ChangeModify:
		return s.modifyLocked(c.DN, cloneMods(c.Mods))
	case ChangeModifyDN:
		leaf, ok := c.NewDN.Leaf()
		if !ok {
			return 0, fmt.Errorf("apply modifyDN %q: new DN lacks a leaf RDN", c.DN.String())
		}
		superior, _ := c.NewDN.Parent()
		return s.modifyDNLocked(c.DN, leaf, superior)
	default:
		return 0, fmt.Errorf("apply: unknown change type %v", c.Type)
	}
}

// SyncOp is one action of a replica-side content batch: insert or replace
// the entry Put when it is set; else, when Patch is set, replace in the held
// entry at Patch's DN each attribute Patch carries with the values it carries
// (an attribute without values is removed); else remove the entry at Remove.
//
// From, set beside Patch, makes the patch a move: the entry held at From is
// first re-keyed to Patch's DN and then patched. The move is sparse — the new
// parent need not be held, and nothing below the entry moves with it — and
// it is journaled as a ChangeModifyDN record followed by the patch's
// ChangeModify (none for a patch without attributes). Where From is not held
// the patch alone applies: a redelivered move finds the entry under its new
// name already. Where both names are held the entry at From is removed.
//
// Keep, set beside From, copies instead of re-keying: the entry at From
// stays, also where both names are held, and where only From is held a copy
// of it as it stands when the op applies goes in at Patch's DN (journaled as
// a ChangeAdd) before the patch.
type SyncOp struct {
	Put    *entry.Entry
	Patch  *entry.Entry
	From   dn.DN
	Keep   bool
	Remove dn.DN
}

// ErrPatchMiss reports a patch for an entry the store does not hold. A patch
// carries only the attributes that changed, so there is nothing to build the
// entry from: the consumer's content and its supplier's record of it have
// diverged, and only a full transfer re-establishes them.
var ErrPatchMiss = errors.New("patch for an entry not held")

// ApplyOwned commits a batch of replica-side content actions in one pass
// through the commit pipeline: one sequencer hold, one change signal, and
// for every action the same journal record under its own CSN that Upsert or
// RemoveAny would have written (a move: its rename, then its patch). Parents
// are not required and children do not block a removal (filter replicas hold
// sparse content); removing an absent entry is skipped, patching one fails
// with ErrPatchMiss. The store takes ownership of every Put and Patch entry:
// it is frozen and stored (or its values are) as it is, so the caller must
// hold no other mutable reference to it — a consumer hands over what it just
// decoded. The batch stops at the first failing action and returns its
// error; the actions before it stay committed.
func (s *Store) ApplyOwned(ops []SyncOp) error {
	if len(ops) == 0 {
		return nil
	}
	_, err := s.submit(func() (CSN, error) {
		// One record per action: reserved once, not by doubling on the way.
		s.journal = slices.Grow(s.journal, len(ops))
		var last CSN
		for _, op := range ops {
			csn, err := CSN(0), error(nil)
			switch {
			case op.Put != nil:
				csn, err = s.upsertLocked(op.Put.Freeze())
			case op.Patch != nil && !op.From.IsRoot():
				csn, err = s.moveLocked(op.From, op.Patch.Freeze(), op.Keep)
			case op.Patch != nil:
				csn, err = s.patchLocked(op.Patch.Freeze())
			default:
				csn, err = s.removeAnyLocked(op.Remove)
			}
			switch {
			case err == nil:
				last = csn
			case !errors.Is(err, ErrNoSuchObject):
				return last, err
			}
		}
		return last, nil
	})
	return err
}

// Upsert inserts or replaces an entry without requiring its parent to
// exist; the store keeps a copy. The change is journaled as an add or
// modify.
func (s *Store) Upsert(e *entry.Entry) error {
	return s.ApplyOwned([]SyncOp{{Put: published(e)}})
}

// upsertLocked stores the frozen entry e itself.
func (s *Store) upsertLocked(e *entry.Entry) (CSN, error) {
	d := e.DN()
	if !s.holdsTarget(d) {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchContext, d.String())
	}
	norm := d.Norm()
	sh := s.shardFor(norm)
	if prior, ok := sh.load().entries[norm]; ok {
		mods := replaceMods(prior, e)
		s.replace(sh, norm, prior, e, mods)
		return s.commitLocked(Change{Type: ChangeModify, DN: d, Before: prior, After: e, Mods: mods}), nil
	}
	s.insert(e, norm)
	return s.commitLocked(Change{Type: ChangeAdd, DN: d, After: e}), nil
}

// PatchMods reads a patch — an entry carrying only the attributes to replace
// — as the modify it stands for: one ModReplace per attribute, sharing the
// patch's value slices.
func PatchMods(p *entry.Entry) []Mod {
	mods := make([]Mod, p.NumAttrs())
	for i := range mods {
		name, vals := p.AttrAt(i)
		mods[i] = Mod{Op: ModReplace, Attr: name, Values: vals}
	}
	return mods
}

// patchLocked applies the frozen patch p as one modify of the held entry at
// its DN.
func (s *Store) patchLocked(p *entry.Entry) (CSN, error) {
	csn, err := s.modifyLocked(p.DN(), PatchMods(p))
	if errors.Is(err, ErrNoSuchObject) {
		return 0, fmt.Errorf("%w: %q", ErrPatchMiss, p.DN().String())
	}
	return csn, err
}

// moveLocked applies the frozen patch p as a move from the DN from, or with
// keep as a copy from it (see SyncOp.From).
func (s *Store) moveLocked(from dn.DN, p *entry.Entry, keep bool) (CSN, error) {
	to := p.DN()
	fromNorm, toNorm := from.Norm(), to.Norm()
	var last CSN
	if e, ok := s.shardFor(fromNorm).load().entries[fromNorm]; ok && fromNorm != toNorm {
		_, held := s.shardFor(toNorm).load().entries[toNorm]
		switch {
		case held && !keep:
			s.remove(e, fromNorm)
			last = s.commitLocked(Change{Type: ChangeDelete, DN: e.DN(), Before: e})
		case held:
		case !s.holdsTarget(to):
			return 0, fmt.Errorf("%w: %q", ErrNoSuchContext, to.String())
		default:
			moved := e.Clone()
			moved.SetDN(to)
			moved.Freeze()
			if keep {
				s.insert(moved, toNorm)
				last = s.commitLocked(Change{Type: ChangeAdd, DN: to, After: moved})
				break
			}
			s.remove(e, fromNorm)
			s.insert(moved, toNorm)
			last = s.commitLocked(Change{Type: ChangeModifyDN, DN: e.DN(), NewDN: to, Before: e, After: moved})
		}
	}
	if p.NumAttrs() > 0 {
		return s.patchLocked(p)
	}
	if _, held := s.shardFor(toNorm).load().entries[toNorm]; !held {
		return 0, fmt.Errorf("%w: %q", ErrPatchMiss, to.String())
	}
	return last, nil
}

// RemoveAny deletes an entry regardless of children (sparse replica content
// does not maintain tree completeness). Removing an absent entry is a
// no-op returning ErrNoSuchObject.
func (s *Store) RemoveAny(d dn.DN) error {
	_, err := s.submit(func() (CSN, error) { return s.removeAnyLocked(d) })
	return err
}

func (s *Store) removeAnyLocked(d dn.DN) (CSN, error) {
	norm := d.Norm()
	e, ok := s.shardFor(norm).load().entries[norm]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchObject, d.String())
	}
	s.remove(e, norm)
	return s.commitLocked(Change{Type: ChangeDelete, DN: d, Before: e}), nil
}

// Load bulk-inserts entries without journaling (initial population of a
// master or replica). Parents must precede children in the slice. Schema
// validation applies when configured.
func (s *Store) Load(entries []*entry.Entry) error {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	defer s.settleLocked()
	for _, e := range entries {
		d := e.DN()
		norm := d.Norm()
		if !s.holdsTarget(d) {
			return fmt.Errorf("%w: %q", ErrNoSuchContext, d.String())
		}
		if _, exists := s.shardFor(norm).load().entries[norm]; exists {
			return fmt.Errorf("%w: %q", ErrAlreadyExists, d.String())
		}
		if s.schema != nil {
			if err := s.schema.Validate(e); err != nil {
				return fmt.Errorf("%w: %v", ErrSchema, err)
			}
		}
		s.insert(published(e), norm)
	}
	return nil
}
