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

// position is the commit note: where in its upstream's history the content
// committed with it stands.
type position struct {
	Cookie string `json:"cookie,omitempty"` // resumes the upstream session
	// Token is the resume token of a chunked reload in flight: the content
	// holds the chunks before it and a restart continues the transfer.
	Token string `json:"token,omitempty"`
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
	pos := position{Cookie: s.Cookie(), Addr: s.Target(), Spec: s.cfg.specKey}
	if tok := s.ResumeToken(); !tok.IsZero() {
		pos.Token = tok.String()
	}
	note, err := json.Marshal(pos)
	if err != nil {
		return err
	}
	if s.journalGap || s.journal.Due(s.cfg.JournalRetention) {
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
// journal held. A resume token that fails to parse restores only what the
// cookie proves: with a live cookie the session resumes by poll; without one
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
	var tok proto.ResumeToken
	if pos.Token != "" {
		if tok, err = proto.ParseResumeTokenString(pos.Token); err != nil {
			// Stale token format: fall back to whatever the cookie covers.
			s.cfg.Logf("supervisor: discarding unparseable resume token: %v", err)
		}
	}
	if pos.Spec != s.cfg.specKey || (pos.Cookie == "" && tok.IsZero()) {
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
	s.rep.AddStored(s.cfg.Spec, pos.Cookie)
	if err := s.rep.ApplySync(s.cfg.Spec, updates); err != nil {
		return fmt.Errorf("replay durable content: %w", err)
	}
	// The cookie names a session at the server that issued it: resume there
	// even if it is the fallback (the probe-back timer re-prefers Master).
	s.cookie, s.resumeTok, s.target = pos.Cookie, tok, pos.Addr
	s.cfg.Logf("supervisor: restored %d entries, resuming session %q (reload chunk %d/%d) at %s",
		len(entries), pos.Cookie, tok.Chunk, tok.Chunks, s.target)
	return nil
}
