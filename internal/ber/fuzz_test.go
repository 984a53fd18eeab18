package ber

import (
	"bytes"
	"testing"
)

// FuzzParseTLV feeds arbitrary bytes to the TLV reader. Property: Read
// never panics, and every successfully decoded TLV re-encodes (AppendTLV)
// to bytes that decode to the identical header and content — the
// parse/serialize fixed point the safe re-encode path relies on. The string
// reader sees the same elements and errors as the byte reader, and the
// sizes the sized encoders add up are the sizes the appenders write.
func FuzzParseTLV(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendInt(nil, ClassUniversal, TagInteger, 123456))
	f.Add(AppendString(nil, ClassUniversal, TagOctetString, "cn=e1,ou=oracle"))
	f.Add(AppendBool(nil, true))
	f.Add(AppendSequence(nil, AppendInt(nil, ClassUniversal, TagInteger, -7)))
	f.Add(AppendSet(nil, AppendString(nil, ClassContext, 0, "x")))
	f.Add([]byte{0x30, 0x80, 0x01, 0x02})                   // indefinite length
	f.Add([]byte{0x1f, 0x81, 0x01, 0x01, 0x00})             // high tag number
	f.Add([]byte{0x04, 0x85, 0x01, 0x01, 0x01, 0x01, 0x01}) // 5-byte length of length
	f.Add([]byte{0x02, 0x7f})                               // truncated content

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		str, pos := string(data), 0
		for !r.Empty() {
			h, content, err := r.Read()
			sh, scontent, next, serr := StringTLV(str, pos)
			if (err == nil) != (serr == nil) || sh != h || scontent != string(content) {
				t.Fatalf("string and byte readers disagree at %d: %+v %q %v vs %+v %q %v", pos, h, content, err, sh, scontent, serr)
			}
			pos = next
			if err != nil {
				return // malformed input must error, not panic
			}
			if got := len(AppendHeader(nil, h.Class, h.Constructed, h.Tag, h.Length)); got != HeaderLen(h.Length) || TLVLen(h.Length) != got+h.Length {
				t.Fatalf("HeaderLen(%d) = %d, AppendHeader wrote %d", h.Length, HeaderLen(h.Length), got)
			}
			if h.Length != len(content) {
				t.Fatalf("header length %d != content length %d", h.Length, len(content))
			}
			enc := AppendTLV(nil, h.Class, h.Constructed, h.Tag, content)
			h2, content2, err := NewReader(enc).Read()
			if err != nil {
				t.Fatalf("re-encoded TLV does not decode: %v (header %+v)", err, h)
			}
			if h2.Class != h.Class || h2.Constructed != h.Constructed || h2.Tag != h.Tag {
				t.Fatalf("re-encode changed header: %+v -> %+v", h, h2)
			}
			if !bytes.Equal(content, content2) {
				t.Fatalf("re-encode changed content: %x -> %x", content, content2)
			}
		}
	})
}
