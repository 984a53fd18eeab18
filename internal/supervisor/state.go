package supervisor

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"filterdir/internal/ldif"
	"filterdir/internal/persist"
	"filterdir/internal/proto"
	"filterdir/internal/resync"
)

// Durable replica state is two files in the state directory, both written
// atomically (temp file + fsync + rename via internal/persist):
//
//	content.ldif — the replicated entries at the last checkpoint
//	state.json   — the session cookie and the spec key the content belongs to
//
// The state file is written after the content file, so its cookie is never
// newer than the content on disk. A crash between the two writes leaves the
// content one exchange ahead of the cookie: for each entry it holds some
// image from inside the interval the resume-poll re-derives. Adds, deletes
// and complete-image modifies re-apply idempotently. An in-place modify
// arrives as a patch, which is safe because a patch names the union of the
// attributes touched anywhere in the interval, not their net difference
// (resync.Update.Patch): a value the content already advanced and the master
// has since moved back is still replaced. A patch for an entry the content no
// longer holds (it applied a move-out the older cookie has not seen) fails
// with dit.ErrPatchMiss and the session is re-Begun.
const (
	contentFile = "content.ldif"
	stateFile   = "state.json"
)

// diskState is the JSON body of the state file.
type diskState struct {
	// Cookie resumes the upstream session.
	Cookie string `json:"cookie"`
	// SpecKey identifies the content spec the checkpoint belongs to; a
	// mismatch (the operator changed -filter) invalidates the checkpoint.
	SpecKey string `json:"spec_key"`
	// Addr is the upstream the cookie was issued by — the configured
	// Master, or the Fallback when the supervisor was diverted at
	// checkpoint time. A restart resumes against this address; an address
	// matching neither side of the current configuration invalidates the
	// checkpoint (empty means Master, for checkpoints written before
	// cascading existed).
	Addr string `json:"addr,omitempty"`
	// ResumeToken, when non-empty, is the durable text form of the
	// in-flight chunked reload's position (proto.ResumeToken.String): the
	// content file holds the chunks received so far and the restart
	// continues the transfer instead of re-Beginning. Written after the
	// content file, so the token never claims a chunk the content has not
	// durably absorbed. A token that fails to parse (torn write recovered
	// by the atomic rename, format bump) degrades to a fresh Begin.
	ResumeToken string `json:"resume_token,omitempty"`
}

// checkpoint durably records the cookie and content (no-op without a state
// directory).
func (s *Supervisor) checkpoint() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	spec := s.cfg.Spec
	spec.Attrs = nil // content entries already carry only selected attributes
	entries := s.rep.Store().MatchAll(spec)
	err := persist.WriteAtomic(filepath.Join(s.cfg.StateDir, contentFile), func(w io.Writer) error {
		return ldif.Write(w, entries...)
	})
	if err != nil {
		return err
	}
	state := diskState{Cookie: s.Cookie(), SpecKey: s.cfg.specKey, Addr: s.Target()}
	if tok := s.ResumeToken(); !tok.IsZero() {
		state.ResumeToken = tok.String()
	}
	err = persist.WriteAtomic(filepath.Join(s.cfg.StateDir, stateFile), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(state)
	})
	if err != nil {
		return err
	}
	s.counters.Checkpoints.Add(1)
	return nil
}

// restore loads a previous incarnation's checkpoint into the replica,
// returning the saved cookie, the in-flight resume token (zero when the
// checkpoint was not mid-transfer) and the upstream address they belong
// to. A missing, unreadable, spec-mismatched or unknown-address checkpoint
// restores nothing: the supervisor then starts with a fresh Begin, which
// is always correct, just more expensive. A checkpoint whose resume token
// fails to parse restores only what the cookie proves: with a live cookie
// the session resumes by poll; without one nothing is restored.
func (s *Supervisor) restore() (cookie string, tok proto.ResumeToken, addr string, restored bool, err error) {
	raw, err := os.ReadFile(filepath.Join(s.cfg.StateDir, stateFile))
	if errors.Is(err, os.ErrNotExist) {
		return "", tok, "", false, nil
	}
	if err != nil {
		return "", tok, "", false, err
	}
	var state diskState
	if err := json.Unmarshal(raw, &state); err != nil {
		s.cfg.Logf("supervisor: discarding corrupt state file: %v", err)
		return "", tok, "", false, nil
	}
	if state.ResumeToken != "" {
		tok, err = proto.ParseResumeTokenString(state.ResumeToken)
		if err != nil {
			// Torn or stale token: fall back to whatever the cookie covers.
			s.cfg.Logf("supervisor: discarding unparseable resume token: %v", err)
			tok = proto.ResumeToken{}
		}
	}
	if state.SpecKey != s.cfg.specKey || (state.Cookie == "" && tok.IsZero()) {
		return "", proto.ResumeToken{}, "", false, nil
	}
	if state.Addr != "" && state.Addr != s.cfg.Master && state.Addr != s.cfg.Fallback {
		s.cfg.Logf("supervisor: discarding checkpoint for unknown upstream %s", state.Addr)
		return "", proto.ResumeToken{}, "", false, nil
	}
	f, err := os.Open(filepath.Join(s.cfg.StateDir, contentFile))
	if errors.Is(err, os.ErrNotExist) {
		return "", proto.ResumeToken{}, "", false, nil
	}
	if err != nil {
		return "", proto.ResumeToken{}, "", false, err
	}
	defer f.Close()
	entries, err := ldif.Read(bufio.NewReader(f))
	if err != nil {
		s.cfg.Logf("supervisor: discarding corrupt content checkpoint: %v", err)
		return "", proto.ResumeToken{}, "", false, nil
	}
	updates := make([]resync.Update, 0, len(entries))
	for _, e := range entries {
		updates = append(updates, resync.Update{Action: resync.ActionAdd, DN: e.DN(), Entry: e})
	}
	s.rep.AddStored(s.cfg.Spec, state.Cookie)
	if err := s.rep.ApplySync(s.cfg.Spec, updates); err != nil {
		return "", proto.ResumeToken{}, "", false, fmt.Errorf("reload checkpointed content: %w", err)
	}
	return state.Cookie, tok, state.Addr, true, nil
}
