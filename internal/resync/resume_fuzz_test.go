package resync

import (
	"errors"
	"fmt"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/proto"
	"filterdir/internal/query"
)

// FuzzResumeToken drives arbitrary bytes and field combinations through the
// resume-token control a consumer presents and the engine's verifier.
// Invariants:
//
//   - ParseReSyncResume never panics on an arbitrary control value; a
//     failure is ErrBadResumeToken-typed, and a decoded token round-trips
//     exactly through NewReSyncResumeControl.
//   - A constructed token round-trips through the control too.
//   - The engine never accepts a token for the wrong snapshot: ResumeReload
//     on an arbitrary token either errors with ErrNoSuchSession, restarts
//     from chunk zero, or — only when every verified field matches the live
//     transfer — returns the named chunk.
func FuzzResumeToken(f *testing.F) {
	master, err := newFuzzMaster()
	if err != nil {
		f.Fatal(err)
	}
	eng := NewEngine(master, WithChunkSize(2))
	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
	res, err := eng.Begin(spec)
	if err != nil {
		f.Fatal(err)
	}
	if res.Resume == nil {
		f.Fatal("fuzz master content not chunked")
	}
	live := *res.Resume

	// Seeds: the live transfer's control, controls at the field extremes,
	// and cut or empty values.
	for _, tok := range []proto.ResumeToken{
		live,
		{Session: "s", CSN: 1<<63 - 1, Chunk: ^uint32(0), Chunks: ^uint32(0), Fingerprint: ^uint64(0)},
		{},
	} {
		v := proto.NewReSyncResumeControl(tok, true).Value
		f.Add(v, tok.CSN, tok.Chunk, tok.Chunks, tok.Fingerprint)
		f.Add(v[:len(v)/2], uint64(10), uint32(1), uint32(2), uint64(14695981039346656037))
	}
	f.Add([]byte{}, uint64(0), uint32(0), uint32(0), uint64(0))

	f.Fuzz(func(t *testing.T, value []byte, csn uint64, chunk, chunks uint32, fp uint64) {
		// Codec: decode arbitrary bytes as the control's value; a failure
		// must be typed, a success must survive the encode→decode round
		// trip.
		tok, err := proto.ParseReSyncResume(proto.Control{OID: proto.OIDReSyncResume, Value: value})
		if err != nil {
			if !errors.Is(err, proto.ErrBadResumeToken) {
				t.Fatalf("decode error not ErrBadResumeToken-typed: %v", err)
			}
		} else {
			roundTripControl(t, tok)
		}

		// Constructed token: the control round-trip is exact for any
		// field values the BER integer can carry.
		roundTripControl(t, proto.ResumeToken{Session: string(value), CSN: csn, Chunk: chunk, Chunks: chunks, Fingerprint: fp})

		// Verifier: an arbitrary token never panics the engine and never
		// yields a chunk for the wrong snapshot or geometry. (A re-presented
		// older token of the live transfer is legitimately accepted, so only
		// the snapshot-identity fields are asserted here; fingerprint
		// verification is pinned by the deterministic unit tests.)
		probe := proto.ResumeToken{Session: live.Session, CSN: csn, Chunk: chunk, Chunks: chunks, Fingerprint: fp}
		got, err := eng.ResumeReload(probe)
		if err != nil {
			t.Fatalf("resume on live session errored: %v", err)
		}
		if !got.FullReload &&
			(probe.CSN != live.CSN || probe.Chunks != live.Chunks ||
				probe.Chunk == 0 || probe.Chunk >= probe.Chunks) {
			t.Fatalf("engine accepted wrong-snapshot token %+v (live %+v)", probe, live)
		}
		if got.FullReload {
			// The probe superseded the transfer; re-arm for the next input.
			if got.Resume == nil {
				t.Fatal("restart of oversized content not chunked")
			}
			live = *got.Resume
		}

		if tok.Session != live.Session {
			if _, err := eng.ResumeReload(tok); err != nil && !errors.Is(err, ErrNoSuchSession) {
				t.Fatalf("unknown-session resume: err = %v, want ErrNoSuchSession", err)
			}
		}
	})
}

// roundTripControl BER-encodes a token as its wire control and decodes it
// back, requiring exact equality — except for CSNs past the int64 range,
// which the BER integer cannot carry and the decoder must refuse typed.
func roundTripControl(t *testing.T, tok proto.ResumeToken) {
	t.Helper()
	ctl := proto.NewReSyncResumeControl(tok, true)
	back, err := proto.ParseReSyncResume(ctl)
	if tok.CSN >= 1<<63 {
		if !errors.Is(err, proto.ErrBadResumeToken) {
			t.Fatalf("out-of-range CSN control decode: err = %v, want ErrBadResumeToken", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("decode control for %+v: %v", tok, err)
	}
	if back != tok {
		t.Fatalf("control round-trip: %+v → %+v", tok, back)
	}
}

// newFuzzMaster builds a small chunkable master without testing.T helpers
// (fuzz setup runs outside a test context).
func newFuzzMaster() (*dit.Store, error) {
	st, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		return nil, err
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		return nil, err
	}
	us := entry.New(dn.MustParse("c=us,o=xyz"))
	us.Put("objectclass", "country").Put("c", "us")
	if err := st.Add(us); err != nil {
		return nil, err
	}
	for i := 0; i < 7; i++ {
		d := dn.MustParse(fmt.Sprintf("cn=f%d,c=us,o=xyz", i))
		e := entry.New(d)
		e.Put("objectclass", "person").Put("cn", fmt.Sprintf("f%d", i)).
			Put("serialNumber", fmt.Sprintf("04%02d", i))
		if err := st.Add(e); err != nil {
			return nil, err
		}
	}
	return st, nil
}
