package proto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"filterdir/internal/ber"
)

// Resumable chunked reloads (DESIGN.md §14). A full (or reload-sized)
// transfer is serialized from one immutable snapshot into deterministic
// DN-ordered chunks; after each chunk the supplier hands the consumer a
// resume token naming exactly how far the transfer got. A reconnecting
// consumer presents the token and receives only the remainder. The token
// is the consumer's durable claim about received prefix state, so the
// supplier verifies every field — an unknown transfer, a different
// snapshot CSN, an out-of-range chunk index, or a fingerprint that does
// not match the recorded prefix all degrade to a fresh reload from chunk
// zero, never to corruption.

// OIDReSyncResume is attached both to a search request (the consumer
// presenting its token) and to the partial search-done of an incomplete
// chunked reload (the supplier minting the next token): value =
// SEQUENCE { session OCTET STRING, csn INTEGER, chunk INTEGER,
// chunks INTEGER, fingerprint OCTET STRING (8) }.
const OIDReSyncResume = "1.3.6.1.4.1.55555.1.6"

// ErrBadResumeToken marks a token that failed structural decoding. The
// verifier treats it exactly like a stale token: restart from chunk zero.
var ErrBadResumeToken = errors.New("malformed resume token")

// ResumeToken names a position inside one chunked reload: the supplier
// session and snapshot it belongs to, the next chunk the consumer needs,
// the transfer's total chunk count, and the running FNV-1a fingerprint of
// every entry PDU streamed in chunks [0, Chunk). The wire control below is
// its one encoding here; a durable consumer journals the struct as it is.
type ResumeToken struct {
	Session     string
	CSN         uint64
	Chunk       uint32
	Chunks      uint32
	Fingerprint uint64
}

// NewReSyncResumeControl builds the resume-token control. Request-side it
// is critical (a supplier that does not understand resumption must refuse
// rather than silently restart a transfer the consumer believes is half
// done); response-side the server reuses the same encoding uncritically.
func NewReSyncResumeControl(t ResumeToken, critical bool) Control {
	var fp [8]byte
	binary.BigEndian.PutUint64(fp[:], t.Fingerprint)
	var body []byte
	body = ber.AppendString(body, ber.ClassUniversal, ber.TagOctetString, t.Session)
	body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, int64(t.CSN))
	body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, int64(t.Chunk))
	body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, int64(t.Chunks))
	body = ber.AppendTLV(body, ber.ClassUniversal, false, ber.TagOctetString, fp[:])
	return Control{OID: OIDReSyncResume, Criticality: critical, Value: ber.AppendSequence(nil, body)}
}

// ParseReSyncResume decodes the resume-token control value. Every failure
// is ErrBadResumeToken-typed: a mutated or truncated token is a protocol
// fact to degrade on, not a crash.
func ParseReSyncResume(c Control) (ResumeToken, error) {
	rd := ber.NewReader(c.Value)
	seq, err := rd.ReadSequence()
	if err != nil {
		return ResumeToken{}, fmt.Errorf("%w: %v", ErrBadResumeToken, err)
	}
	var t ResumeToken
	if t.Session, err = seq.ReadString(); err != nil {
		return ResumeToken{}, fmt.Errorf("%w: session: %v", ErrBadResumeToken, err)
	}
	csn, err := seq.ReadInt()
	if err != nil || csn < 0 {
		return ResumeToken{}, fmt.Errorf("%w: csn", ErrBadResumeToken)
	}
	t.CSN = uint64(csn)
	chunk, err := seq.ReadInt()
	if err != nil || chunk < 0 || chunk > int64(^uint32(0)) {
		return ResumeToken{}, fmt.Errorf("%w: chunk", ErrBadResumeToken)
	}
	t.Chunk = uint32(chunk)
	chunks, err := seq.ReadInt()
	if err != nil || chunks < 0 || chunks > int64(^uint32(0)) {
		return ResumeToken{}, fmt.Errorf("%w: chunks", ErrBadResumeToken)
	}
	t.Chunks = uint32(chunks)
	h, fp, err := seq.Read()
	if err != nil || !h.Is(ber.ClassUniversal, ber.TagOctetString) || len(fp) != 8 {
		return ResumeToken{}, fmt.Errorf("%w: fingerprint", ErrBadResumeToken)
	}
	t.Fingerprint = binary.BigEndian.Uint64(fp)
	return t, nil
}
