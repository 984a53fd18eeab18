package resync

import (
	"filterdir/internal/dit"
	"filterdir/internal/proto"
)

// Resumable chunked reloads (DESIGN.md §14). A full content transfer —
// Begin's initial content or a reload after the journal stopped covering
// the session's sync point — is serialized from one immutable store
// snapshot into deterministic DN-ordered chunks. Each exchange carries one
// chunk; an incomplete exchange ends with a resume token (snapshot CSN,
// next chunk index, running content fingerprint) instead of a cookie, and
// a reconnecting consumer presents the token to receive only the
// remainder. The snapshot's journal position is pinned with a store hold
// for the transfer's lifetime, so an aggressive journal-retention policy
// can never force the post-reload catch-up poll into yet another reload.
//
// Safety over cleverness: any token the supplier cannot prove belongs to
// the recorded transfer — unknown session, different snapshot CSN, wrong
// chunk geometry, or a prefix fingerprint that does not match — restarts
// the reload from chunk zero. A stale or forged token can cost wire bytes,
// never correctness.

// transfer is one in-flight (or just-completed) chunked reload of a
// session: the reload view it is served from (the full DN-ordered selected
// content at snapCSN with its chunk geometry and prefix fingerprints —
// shared with every group member that started from the same snapshot) and
// the session's own progress through it.
type transfer struct {
	snapCSN dit.CSN
	gen     uint64 // generation of the completion cookie
	view    *reloadView
	done    bool // final chunk handed out; awaiting cookie presentation
	hold    *dit.Hold
}

// matches verifies a presented token against the recorded transfer. Chunk
// indexes at or before the furthest point handed out are acceptable — a
// consumer may legitimately re-present an older token after losing the
// response that superseded it.
func (t *transfer) matches(tok proto.ResumeToken) bool {
	return uint64(t.snapCSN) == tok.CSN &&
		t.view.nchunks() == tok.Chunks &&
		tok.Chunk > 0 && tok.Chunk < tok.Chunks &&
		t.view.fps[tok.Chunk] == tok.Fingerprint
}

// FNV-1a, matching the oracle's traffic fingerprint fold.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func foldFPString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h ^= 0xff
	h *= fnvPrime64
	return h
}

// foldFPUpdate folds one update PDU into the running content fingerprint.
func foldFPUpdate(h uint64, u Update) uint64 {
	h = foldFPString(h, u.Action.String())
	h = foldFPString(h, u.DN.Norm())
	if u.Entry != nil {
		h = foldFPString(h, u.Entry.String())
	}
	return h
}

// beginTransfer records a chunked reload for the session and emits chunk
// zero. The session is already positioned at the transfer's final sync
// point (content map, points, csn) — only the consumer lags, chunk by
// chunk, until the final exchange hands it the completion cookie. The hold
// pins the journal after the snapshot for the transfer's lifetime; the
// view outlives the group's cached snapshot for as long as a transfer
// references it. The caller holds sess.mu.
func (e *Engine) beginTransfer(sess *session, view *reloadView) *PollResult {
	e.dropTransfer(sess) // supersede any previous transfer
	tr := &transfer{
		snapCSN: sess.csn,
		gen:     sess.genSeq,
		view:    view,
		hold:    e.store.Hold(sess.csn),
	}
	sess.transfer = tr
	e.stats.ChunkedReloads.Add(1)
	return e.emitChunk(sess, tr, 0)
}

// emitChunk produces chunk k of the transfer: the final chunk carries the
// completion cookie (and marks the transfer done), every earlier one a
// token for its successor. The caller holds sess.mu.
func (e *Engine) emitChunk(sess *session, tr *transfer, k uint32) *PollResult {
	res := &PollResult{FullReload: k == 0}
	res.Updates, res.Enc = tr.view.chunk(k)
	if k+1 == tr.view.nchunks() {
		tr.done = true
		res.Cookie = cookieString(sess.id, tr.gen)
		res.CSN = e.stampCSN(tr.snapCSN)
	} else {
		res.Resume = &proto.ResumeToken{
			Session:     sess.id,
			CSN:         uint64(tr.snapCSN),
			Chunk:       k + 1,
			Chunks:      tr.view.nchunks(),
			Fingerprint: tr.view.fps[k+1],
		}
	}
	e.stats.ReloadChunks.Add(1)
	e.countPDUs(res.Updates)
	e.observe(sess.id, res.Updates, k == 0)
	return res
}

// ResumeReload continues a chunked reload from a presented token. An
// unknown or ended session is the consumer's signal to re-Begin
// (ErrNoSuchSession, e-syncRefreshRequired on the wire); any other
// mismatch — stale snapshot, forged fingerprint, wrong geometry — degrades
// to a fresh reload from chunk zero. A valid token yields exactly the
// chunk it names, so reconnecting transfers only the remainder.
func (e *Engine) ResumeReload(tok proto.ResumeToken) (*PollResult, error) {
	sess, _, err := e.enter(tok.Session, exResume)
	if err != nil {
		e.stats.ResumeRejects.Add(1)
		return nil, err
	}
	defer sess.mu.Unlock()
	e.stats.Resumes.Add(1)
	tr := sess.transfer
	if tr == nil || !tr.matches(tok) {
		e.stats.ResumeRejects.Add(1)
		return e.reload(sess), nil
	}
	return e.emitChunk(sess, tr, tok.Chunk), nil
}

// dropTransfer releases the session's transfer (if any) and its pinned
// snapshot. The caller holds sess.mu.
func (e *Engine) dropTransfer(sess *session) {
	if tr := sess.transfer; tr != nil {
		e.store.Release(tr.hold)
		sess.transfer = nil
	}
}
