package supervisor

import (
	"encoding/json"
	"fmt"

	"filterdir/internal/dit"
	"filterdir/internal/persist"
	"filterdir/internal/proto"
	"filterdir/internal/resync"
)

// Durable replica state is a persist.Dir in the state directory. Every landed
// exchange is one committed batch of its journal: the exchange's own updates
// as change records (an image an add, a patch a modify of replaces, a move a
// rename and that modify, a reload behind a reset) and, on the commit line,
// the position it reached — content and position durable by the same fsync,
// never one ahead of the other. The journal is this supervisor's own because
// the supervisors of one replica share a store, whose journal cannot be split
// by owner. For the same reason restore replays it into a store of its own
// and hands the replica (through ApplySync, like a live exchange) only the
// content it ends with: an image this owner once held must not overwrite what
// another owner has since made of the entry.

// position is where in its upstream's history a link stands: the
// supervisor's one record of it, and, marshalled as it is, the note of every
// commit — so the content committed with a note stands exactly there.
type position struct {
	Cookie string `json:"cookie,omitempty"` // resumes the upstream session
	// Resume is the token of a chunked reload in flight: the content holds
	// the chunks before it and a restart continues the transfer.
	Resume *proto.ResumeToken `json:"resume,omitempty"`
	// Addr is the upstream that issued both, Master or Fallback. State from
	// another address, or for another Spec (the operator changed -filter),
	// is not restored.
	Addr string `json:"addr"`
	Spec string `json:"spec"`
}

// commit makes the exchange that just landed durable (no-op without a state
// directory): a batch of its updates under the position now held, or, once
// the journal is due for it, a snapshot of the spec's content in its place.
func (s *Supervisor) commit(updates []resync.Update) error {
	if s.journal == nil {
		return nil
	}
	note, err := json.Marshal(s.pos)
	if err != nil {
		return err
	}
	if s.journalGap || s.journal.Due() {
		spec := s.cfg.Spec
		spec.Attrs = nil // content entries already carry only selected attributes
		if err := s.journal.Snapshot(s.rep.Store().MatchAll(spec), string(note)); err != nil {
			return err
		}
		s.journalGap, s.contentReset = false, false
		s.counters.Checkpoints.Add(1)
		return nil
	}
	changes := make([]dit.Change, 0, len(updates))
	for _, u := range updates {
		switch {
		case u.Action == resync.ActionDelete:
			changes = append(changes, dit.Change{Type: dit.ChangeDelete, DN: u.DN})
		case u.Patch:
			if u.IsMove() {
				changes = append(changes, dit.Change{Type: dit.ChangeModifyDN, DN: u.OldDN, NewDN: u.DN})
				if u.Entry.NumAttrs() == 0 {
					continue
				}
			}
			changes = append(changes, dit.Change{Type: dit.ChangeModify, DN: u.DN, Mods: dit.PatchMods(u.Entry)})
		default:
			changes = append(changes, dit.Change{Type: dit.ChangeAdd, DN: u.DN, After: u.Entry})
		}
	}
	n, err := s.journal.Commit(s.contentReset, changes, string(note))
	if err != nil {
		// The exchange is applied and its position adopted, but the journal
		// does not hold it: batches after it would not continue what is there.
		s.journalGap = true
		return err
	}
	s.contentReset = false
	s.counters.JournalAppends.Add(1)
	s.counters.JournalBytes.Add(int64(n))
	return nil
}

// restore loads a previous incarnation's state into the replica and adopts
// its position. Missing, spec-mismatched, unknown-upstream or positionless
// state restores nothing: the supervisor then starts with a fresh Begin, which
// is always correct, just more expensive, and whose reset supersedes what the
// journal held. A resume token in a form this build does not read (the text
// form under "token" of earlier builds) restores only what the cookie
// proves: with a live cookie the session resumes by poll; without one
// nothing is restored.
func (s *Supervisor) restore() error {
	dir := persist.Dir{Path: s.cfg.StateDir}
	content, note, err := dir.OpenSparse([]string{""})
	if err != nil {
		return err
	}
	if s.journal, err = dir.Journal(); err != nil || note == "" {
		return err
	}
	var pos position
	if err := json.Unmarshal([]byte(note), &pos); err != nil {
		s.cfg.Logf("supervisor: discarding state with an unreadable commit note: %v", err)
		return nil
	}
	if pos.Spec != s.cfg.specKey || (pos.Cookie == "" && pos.Resume == nil) {
		return nil
	}
	if pos.Addr != s.cfg.Master && pos.Addr != s.cfg.Fallback {
		s.cfg.Logf("supervisor: discarding state for unknown upstream %s", pos.Addr)
		return nil
	}
	entries := content.All()
	updates := make([]resync.Update, len(entries))
	for i, e := range entries {
		updates[i] = resync.Update{Action: resync.ActionAdd, DN: e.DN(), Entry: e}
	}
	if err := s.rep.ApplySync(s.cfg.Spec, updates); err != nil {
		return fmt.Errorf("replay durable content: %w", err)
	}
	if pos.Resume == nil { // a transfer cut short answers once the rest has landed
		s.rep.AddStored(s.cfg.Spec, pos.Cookie)
		s.registered = true
	}
	// The note is the position, adopted as it stands. Its cookie names a
	// session at the server that issued it: resume there even if it is the
	// fallback (run then watches Master, as after a divert).
	s.pos = pos
	s.cfg.Logf("supervisor: restored %d entries, resuming at %s with cookie %q, resume token %+v",
		len(entries), pos.Addr, pos.Cookie, pos.Resume)
	return nil
}
