package resync

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/proto"
)

// These tests pin the resumable chunked reload contract (resume.go): a full
// transfer larger than the chunk size is served one chunk per exchange, each
// non-final chunk handing out a resume token; a valid token yields exactly
// the chunk it names; anything the supplier cannot verify restarts from
// chunk zero; and the snapshot hold is released only when the consumer
// proves completion by presenting the cookie.

// drainChunks follows a chunked transfer from its first result to the
// completion cookie, applying each chunk to held and recording the token
// chain (tokens[i] is the token returned with chunk i; the final chunk has
// none).
func drainChunks(t *testing.T, eng *Engine, res *PollResult, held map[string]bool) (map[string]bool, []proto.ResumeToken, *PollResult) {
	t.Helper()
	var tokens []proto.ResumeToken
	for i := 0; ; i++ {
		held = consumerContent(held, res)
		if res.Resume == nil {
			if res.Cookie == "" {
				t.Fatalf("chunk %d: neither token nor cookie", i)
			}
			return held, tokens, res
		}
		if res.Cookie != "" {
			t.Fatalf("chunk %d carries both token and cookie", i)
		}
		tokens = append(tokens, *res.Resume)
		next, err := eng.ResumeReload(*res.Resume)
		if err != nil {
			t.Fatalf("resume chunk %d: %v", i+1, err)
		}
		if next.FullReload {
			t.Fatalf("resume chunk %d unexpectedly restarted from zero", i+1)
		}
		res = next
		if i > 1000 {
			t.Fatal("chunk loop did not terminate")
		}
	}
}

func chunkedMaster(t *testing.T, n int, opts ...dit.Option) (*dit.Store, []string) {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	storeWithBase(t, st)
	var norms []string
	for i := 0; i < n; i++ {
		d := addPerson(t, st, fmt.Sprintf("p%03d", i), fmt.Sprintf("04%02d", i), "1")
		norms = append(norms, d.Norm())
	}
	return st, norms
}

func TestChunkedBeginConverges(t *testing.T) {
	master, norms := chunkedMaster(t, 10)
	eng := NewEngine(master, WithChunkSize(3))

	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resume == nil {
		t.Fatal("10-entry content with chunk size 3 not chunked")
	}
	if !res.FullReload {
		t.Fatal("chunk zero must carry FullReload")
	}
	if len(res.Updates) != 3 {
		t.Fatalf("chunk zero has %d updates, want 3", len(res.Updates))
	}

	held, tokens, final := drainChunks(t, eng, res, make(map[string]bool))
	if len(tokens) != 3 { // chunks 0..3: tokens after chunks 0,1,2
		t.Fatalf("token chain length = %d, want 3", len(tokens))
	}
	for i, tok := range tokens {
		if tok.Chunk != uint32(i+1) || tok.Chunks != 4 {
			t.Errorf("token %d = chunk %d/%d, want %d/4", i, tok.Chunk, tok.Chunks, i+1)
		}
	}
	if len(held) != len(norms) {
		t.Fatalf("consumer holds %d entries, want %d", len(held), len(norms))
	}
	for _, n := range norms {
		if !held[n] {
			t.Errorf("consumer missing %s", n)
		}
	}

	// The completion cookie is live: the next poll is incremental.
	a := addPerson(t, master, "extra", "0499", "1")
	next, err := eng.Poll(final.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if next.FullReload {
		t.Fatal("post-transfer poll degraded to reload")
	}
	held = consumerContent(held, next)
	if !held[a.Norm()] {
		t.Fatal("post-transfer poll missed the new entry")
	}

	snap := eng.Counters().Snapshot()
	if snap.ChunkedReloads != 1 || snap.ReloadChunks != 4 {
		t.Errorf("counters: chunked=%d chunks=%d, want 1/4", snap.ChunkedReloads, snap.ReloadChunks)
	}
	if snap.ResumeRejects != 0 {
		t.Errorf("spurious resume rejects: %d", snap.ResumeRejects)
	}
}

func TestChunkedMatchesMonolithic(t *testing.T) {
	// The chunked transfer must deliver byte-identical content to a
	// monolithic reload of the same snapshot.
	master, _ := chunkedMaster(t, 9)

	mono := NewEngine(master)
	mres, err := mono.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}

	chunked := NewEngine(master, WithChunkSize(4))
	res, err := chunked.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	var got []Update
	for {
		got = append(got, res.Updates...)
		if res.Resume == nil {
			break
		}
		res, err = chunked.ResumeReload(*res.Resume)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(mres.Updates) {
		t.Fatalf("chunked total = %d updates, monolithic = %d", len(got), len(mres.Updates))
	}
	for i := range got {
		if got[i].DN.Norm() != mres.Updates[i].DN.Norm() {
			t.Fatalf("update %d: chunked %s, monolithic %s (order must be deterministic)",
				i, got[i].DN, mres.Updates[i].DN)
		}
		if got[i].Entry.String() != mres.Updates[i].Entry.String() {
			t.Fatalf("update %d: entry bytes differ", i)
		}
	}
}

func TestResumeRetransmitsOnlyNamedChunk(t *testing.T) {
	master, _ := chunkedMaster(t, 10)
	eng := NewEngine(master, WithChunkSize(3))

	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	tok1 := *res.Resume // names chunk 1

	// Advance to chunk 2, then "lose" its response and re-present tok1's
	// successor... first walk forward once.
	res2, err := eng.ResumeReload(tok1)
	if err != nil {
		t.Fatal(err)
	}
	tok2 := *res2.Resume // names chunk 2

	// Reconnect presenting the older token: chunk 1 again, verbatim.
	again, err := eng.ResumeReload(tok1)
	if err != nil {
		t.Fatal(err)
	}
	if again.FullReload {
		t.Fatal("re-presented valid token restarted from zero")
	}
	if len(again.Updates) != len(res2.Updates) {
		t.Fatalf("retransmitted chunk has %d updates, original %d", len(again.Updates), len(res2.Updates))
	}
	for i := range again.Updates {
		if again.Updates[i].DN.Norm() != res2.Updates[i].DN.Norm() {
			t.Fatal("retransmitted chunk differs from original")
		}
	}
	if *again.Resume != tok2 {
		t.Fatalf("retransmitted chunk token = %+v, want %+v", *again.Resume, tok2)
	}
}

func TestForgedTokenRestartsFromZero(t *testing.T) {
	master, _ := chunkedMaster(t, 10)
	eng := NewEngine(master, WithChunkSize(3))

	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		forge func(proto.ResumeToken) proto.ResumeToken
	}{
		{"flipped fingerprint", func(tok proto.ResumeToken) proto.ResumeToken {
			tok.Fingerprint ^= 1
			return tok
		}},
		{"wrong snapshot csn", func(tok proto.ResumeToken) proto.ResumeToken {
			tok.CSN += 100
			return tok
		}},
		{"wrong chunk geometry", func(tok proto.ResumeToken) proto.ResumeToken {
			tok.Chunks++
			return tok
		}},
		{"chunk zero", func(tok proto.ResumeToken) proto.ResumeToken {
			tok.Chunk = 0
			return tok
		}},
		{"chunk out of range", func(tok proto.ResumeToken) proto.ResumeToken {
			tok.Chunk = tok.Chunks
			return tok
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := eng.Counters().Snapshot().ResumeRejects
			got, err := eng.ResumeReload(tc.forge(*res.Resume))
			if err != nil {
				t.Fatalf("forged token must degrade, not error: %v", err)
			}
			if !got.FullReload {
				t.Fatal("forged token did not restart from chunk zero")
			}
			if eng.Counters().Snapshot().ResumeRejects != before+1 {
				t.Error("reject not counted")
			}
			// The restart is itself resumable; keep the fresh token for the
			// next subtest round (res.Resume stays from the prior transfer,
			// which the restart superseded — refresh it).
			res = got
		})
	}
}

func TestStaleTokenAfterSupersession(t *testing.T) {
	master, _ := chunkedMaster(t, 10)
	eng := NewEngine(master, WithChunkSize(3))

	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	old := *res.Resume

	// New content commits, and a forged token forces a fresh transfer at a
	// newer snapshot CSN, superseding the first.
	addPerson(t, master, "late", "0498", "1")
	forged := old
	forged.Fingerprint ^= 1
	fresh, err := eng.ResumeReload(forged)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.FullReload || fresh.Resume == nil {
		t.Fatal("expected a fresh chunked restart")
	}
	if fresh.Resume.CSN == old.CSN {
		t.Fatal("fresh transfer did not advance the snapshot CSN")
	}

	// The token from the superseded transfer no longer verifies.
	got, err := eng.ResumeReload(old)
	if err != nil {
		t.Fatal(err)
	}
	if !got.FullReload {
		t.Fatal("stale token accepted after supersession")
	}
}

func TestResumeUnknownSession(t *testing.T) {
	master, _ := chunkedMaster(t, 10)
	eng := NewEngine(master, WithChunkSize(3))
	_, err := eng.ResumeReload(proto.ResumeToken{Session: "sess-99", CSN: 1, Chunk: 1, Chunks: 2})
	if !errors.Is(err, ErrNoSuchSession) {
		t.Fatalf("unknown session: err = %v, want ErrNoSuchSession", err)
	}

	// An ended session equally refuses resumption.
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	tok := *res.Resume
	if err := eng.End(cookieString(tok.Session, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ResumeReload(tok); !errors.Is(err, ErrNoSuchSession) {
		t.Fatalf("ended session: err = %v, want ErrNoSuchSession", err)
	}
}

func TestTransferHoldLifecycle(t *testing.T) {
	// The transfer pins its snapshot from first chunk to cookie
	// presentation — not merely to final-chunk delivery — so the post-reload
	// catch-up poll cannot be forced into another reload by journal trim.
	master, _ := chunkedMaster(t, 10, dit.WithJournalLimit(4))
	eng := NewEngine(master, WithChunkSize(3))

	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	if got := master.ActiveHolds(); got != 1 {
		t.Fatalf("holds during transfer = %d, want 1", got)
	}

	// Far more commits than the journal limit land mid-transfer; the hold
	// must keep the snapshot's suffix covered.
	for i := 0; i < 12; i++ {
		mustModify(t, master, dn.MustParse("cn=p000,c=us,o=xyz"), "dept", fmt.Sprintf("d%d", i))
	}

	held, _, final := drainChunks(t, eng, res, make(map[string]bool))
	if got := master.ActiveHolds(); got != 1 {
		t.Fatalf("holds after final chunk (cookie not yet presented) = %d, want 1", got)
	}

	next, err := eng.Poll(final.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if next.FullReload {
		t.Fatal("catch-up poll after pinned transfer degraded to reload")
	}
	held = consumerContent(held, next)
	if len(held) != 10 {
		t.Fatalf("consumer holds %d entries after catch-up, want 10", len(held))
	}
	if got := master.ActiveHolds(); got != 0 {
		t.Fatalf("holds after cookie presented = %d, want 0", got)
	}

	// With the hold gone the journal trims back to its limit on the next
	// commit.
	mustModify(t, master, dn.MustParse("cn=p001,c=us,o=xyz"), "dept", "z")
	if _, ok := master.ChangesSince(0); ok {
		t.Fatal("journal still covers CSN 0 after hold release; trim did not resume")
	}
}

// TestAbandonedTransferReleasesHold: a chunked transfer whose consumer never
// asks for another chunk (restarted without its state, or diverted) is
// dropped once it has been idle for transferIdle, and with it the hold, so
// the bounded journal trims again; a late token restarts from chunk zero.
func TestAbandonedTransferReleasesHold(t *testing.T) {
	defer func(d time.Duration) { transferIdle = d }(transferIdle)
	transferIdle = 50 * time.Millisecond
	master, _ := chunkedMaster(t, 10, dit.WithJournalLimit(8))
	eng := NewEngine(master, WithChunkSize(3))
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustModify(t, master, dn.MustParse("cn=p000,c=us,o=xyz"), "dept", fmt.Sprintf("d%d", i))
	}
	if got := master.ActiveHolds(); got != 1 {
		t.Fatalf("holds while the transfer is live = %d, want 1", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for master.ActiveHolds() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned transfer still holds the journal after its idle period")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mustModify(t, master, dn.MustParse("cn=p001,c=us,o=xyz"), "dept", "z")
	if _, ok := master.ChangesSince(0); ok {
		t.Fatal("journal still covers CSN 0 after the abandoned transfer was dropped")
	}
	late, err := eng.ResumeReload(*res.Resume)
	if err != nil {
		t.Fatal(err)
	}
	if !late.FullReload {
		t.Fatal("late token of a dropped transfer was served a remainder, want a restart from chunk zero")
	}
}

func TestEndReleasesTransferHold(t *testing.T) {
	master, _ := chunkedMaster(t, 10)
	eng := NewEngine(master, WithChunkSize(3))
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	if master.ActiveHolds() != 1 {
		t.Fatal("no hold during transfer")
	}
	if err := eng.End(cookieString(res.Resume.Session, 1)); err != nil {
		t.Fatal(err)
	}
	if got := master.ActiveHolds(); got != 0 {
		t.Fatalf("holds after End = %d, want 0", got)
	}
}

func TestPersistSettlesTransferHold(t *testing.T) {
	// Upgrading to persist mode with the completion cookie also proves the
	// consumer holds the content; the pinned snapshot is released.
	master, _ := chunkedMaster(t, 10)
	eng := NewEngine(master, WithChunkSize(3))
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	_, _, final := drainChunks(t, eng, res, make(map[string]bool))
	sub, err := eng.Persist(final.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if got := master.ActiveHolds(); got != 0 {
		t.Fatalf("holds after persist upgrade = %d, want 0", got)
	}
}

func TestRetainDropsTransferHold(t *testing.T) {
	// Retain mode replaces the session state wholesale, so whatever chunked
	// transfer the session carried — completed or abandoned part-way — is
	// over: its snapshot hold must go (it would otherwise pin the journal
	// until End), and a token of that transfer can no longer be served a
	// remainder.
	for _, tc := range []struct {
		name     string
		complete bool
	}{
		{"after completed transfer", true},
		{"after abandoned transfer", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			master, _ := chunkedMaster(t, 10)
			eng := NewEngine(master, WithChunkSize(3))
			res, err := eng.Begin(specSerial04)
			if err != nil {
				t.Fatal(err)
			}
			tok := *res.Resume
			cookie := cookieString(tok.Session, 1)
			if tc.complete {
				_, _, final := drainChunks(t, eng, res, make(map[string]bool))
				cookie = final.Cookie
			}
			if got := master.ActiveHolds(); got != 1 {
				t.Fatalf("holds before retain = %d, want 1", got)
			}
			if _, err := eng.PollRetain(cookie); err != nil {
				t.Fatal(err)
			}
			if got := master.ActiveHolds(); got != 0 {
				t.Fatalf("holds after retain poll = %d, want 0", got)
			}
			restart, err := eng.ResumeReload(tok)
			if err != nil {
				t.Fatal(err)
			}
			if !restart.FullReload || len(restart.Updates) != 3 {
				t.Fatalf("token after retain: FullReload=%v with %d updates, want a chunk-zero restart of 3",
					restart.FullReload, len(restart.Updates))
			}
		})
	}
}

func TestSmallReloadStaysMonolithic(t *testing.T) {
	master, _ := chunkedMaster(t, 3)
	eng := NewEngine(master, WithChunkSize(8))
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resume != nil {
		t.Fatal("content at or under the chunk size must not be chunked")
	}
	if res.Cookie == "" || len(res.Updates) != 3 {
		t.Fatalf("monolithic begin malformed: cookie=%q updates=%d", res.Cookie, len(res.Updates))
	}
	if master.ActiveHolds() != 0 {
		t.Fatal("monolithic begin left a hold")
	}
}

func TestTrimTriggeredReloadIsChunked(t *testing.T) {
	// A reload forced by journal trim rides the same chunked path as Begin.
	master, _ := chunkedMaster(t, 10, dit.WithJournalLimit(2))
	eng := NewEngine(master, WithChunkSize(3))
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	held, _, final := drainChunks(t, eng, res, make(map[string]bool))

	// Present the cookie once so the transfer's hold is released — until
	// then the pinned snapshot deliberately keeps the poll incremental.
	settled, err := eng.Poll(final.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	cookie := settled.Cookie

	// Push the journal past the session's sync point.
	for i := 0; i < 6; i++ {
		mustModify(t, master, dn.MustParse("cn=p002,c=us,o=xyz"), "dept", fmt.Sprintf("t%d", i))
	}
	res, err = eng.Poll(cookie)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullReload || res.Resume == nil {
		t.Fatalf("trimmed poll: FullReload=%v Resume=%v, want chunked reload", res.FullReload, res.Resume)
	}
	held, _, final = drainChunks(t, eng, res, held)
	if len(held) != 10 {
		t.Fatalf("consumer holds %d entries after chunked reload, want 10", len(held))
	}
}
