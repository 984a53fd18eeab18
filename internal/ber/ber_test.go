package ber

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestIntRoundTrip(t *testing.T) {
	values := []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 1 << 20, -(1 << 20), 1<<40 + 3, -(1 << 40)}
	for _, v := range values {
		enc := AppendInt(nil, ClassUniversal, TagInteger, v)
		r := NewReader(enc)
		got, err := r.ReadInt()
		if err != nil {
			t.Errorf("ReadInt(%d): %v", v, err)
			continue
		}
		if got != v {
			t.Errorf("int round trip: got %d, want %d", got, v)
		}
		if !r.Empty() {
			t.Errorf("leftover bytes after %d", v)
		}
	}
}

func TestIntLen(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 1<<31 - 1, -1 << 31, 1<<63 - 1, -1 << 63} {
		enc := AppendInt(nil, ClassUniversal, TagInteger, v)
		if IntLen(v) != len(enc)-2 {
			t.Errorf("IntLen(%d) = %d, encoded content is %d bytes", v, IntLen(v), len(enc)-2)
		}
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		enc := AppendInt(nil, ClassUniversal, TagInteger, v)
		got, err := NewReader(enc).ReadInt()
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	values := []string{"", "a", "hello world", strings.Repeat("x", 127),
		strings.Repeat("y", 128), strings.Repeat("z", 70000), "\x00\xff binary"}
	for _, v := range values {
		enc := AppendString(nil, ClassUniversal, TagOctetString, v)
		got, err := NewReader(enc).ReadString()
		if err != nil {
			t.Errorf("ReadString(len %d): %v", len(v), err)
			continue
		}
		if got != v {
			t.Errorf("string round trip failed for len %d", len(v))
		}
	}
}

func TestBoolRoundTrip(t *testing.T) {
	for _, v := range []bool{true, false} {
		enc := AppendBool(nil, v)
		got, err := NewReader(enc).ReadBool()
		if err != nil || got != v {
			t.Errorf("bool round trip: got %v, %v", got, err)
		}
	}
}

func TestEnumRoundTrip(t *testing.T) {
	enc := AppendEnum(nil, 42)
	got, err := NewReader(enc).ReadEnum()
	if err != nil || got != 42 {
		t.Errorf("enum round trip: %d, %v", got, err)
	}
}

func TestNestedSequence(t *testing.T) {
	var inner []byte
	inner = AppendInt(inner, ClassUniversal, TagInteger, 7)
	inner = AppendString(inner, ClassUniversal, TagOctetString, "abc")
	enc := AppendSequence(nil, inner)
	seq, err := NewReader(enc).ReadSequence()
	if err != nil {
		t.Fatal(err)
	}
	n, err := seq.ReadInt()
	if err != nil || n != 7 {
		t.Fatalf("int in seq: %d, %v", n, err)
	}
	s, err := seq.ReadString()
	if err != nil || s != "abc" {
		t.Fatalf("string in seq: %q, %v", s, err)
	}
	if !seq.Empty() {
		t.Error("sequence not fully consumed")
	}
}

func TestContextTags(t *testing.T) {
	enc := AppendString(nil, ClassContext, 3, "value")
	h, content, err := NewReader(enc).Read()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Is(ClassContext, 3) || string(content) != "value" {
		t.Errorf("context tag: %+v %q", h, content)
	}
}

func TestApplicationConstructed(t *testing.T) {
	inner := AppendInt(nil, ClassUniversal, TagInteger, 3)
	enc := AppendTLV(nil, ClassApplication, true, 4, inner)
	h, content, err := NewReader(enc).Read()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Is(ClassApplication, 4) || !h.Constructed {
		t.Errorf("application header: %+v", h)
	}
	n, err := NewReader(content).ReadInt()
	if err != nil || n != 3 {
		t.Errorf("nested int: %d, %v", n, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},                 // empty
		{0x02},             // no length
		{0x02, 0x05, 0x01}, // truncated content
		{0x02, 0x85},       // length-of-length too big
		{0x02, 0x81},       // missing long length byte
		{0x1f, 0x01, 0x00}, // high tag number
		{0x02, 0x82, 0xff}, // truncated long length
	}
	for _, c := range cases {
		if _, _, err := NewReader(c).Read(); err == nil {
			t.Errorf("Read(% x) succeeded, want error", c)
		}
	}
	// Wrong tag.
	enc := AppendBool(nil, true)
	if _, err := NewReader(enc).ReadInt(); !errors.Is(err, ErrBadTag) {
		t.Errorf("ReadInt on boolean: %v", err)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	enc := AppendInt(nil, ClassUniversal, TagInteger, 5)
	r := NewReader(enc)
	h, err := r.Peek()
	if err != nil || !h.Is(ClassUniversal, TagInteger) {
		t.Fatalf("Peek: %+v, %v", h, err)
	}
	n, err := r.ReadInt()
	if err != nil || n != 5 {
		t.Errorf("Read after Peek: %d, %v", n, err)
	}
}

func TestLongLengths(t *testing.T) {
	for _, n := range []int{127, 128, 255, 256, 65535, 65536, 1 << 20} {
		payload := bytes.Repeat([]byte{0xab}, n)
		enc := AppendTLV(nil, ClassUniversal, false, TagOctetString, payload)
		h, content, err := NewReader(enc).Read()
		if err != nil {
			t.Fatalf("len %d: %v", n, err)
		}
		if h.Length != n || !bytes.Equal(content, payload) {
			t.Errorf("len %d round trip failed", n)
		}
		if TLVLen(n) != len(enc) {
			t.Errorf("TLVLen(%d) = %d, encoded %d", n, TLVLen(n), len(enc))
		}
		sh, s, next, err := StringTLV(string(enc), 0)
		if err != nil || sh != h || s != string(payload) || next != len(enc) {
			t.Errorf("len %d: StringTLV = %+v, %d bytes, next %d, %v", n, sh, len(s), next, err)
		}
	}
}

func TestMultipleElements(t *testing.T) {
	var enc []byte
	enc = AppendInt(enc, ClassUniversal, TagInteger, 1)
	enc = AppendString(enc, ClassUniversal, TagOctetString, "two")
	enc = AppendBool(enc, true)
	r := NewReader(enc)
	if v, _ := r.ReadInt(); v != 1 {
		t.Error("first element")
	}
	if s, _ := r.ReadString(); s != "two" {
		t.Error("second element")
	}
	if b, _ := r.ReadBool(); !b {
		t.Error("third element")
	}
	if !r.Empty() {
		t.Error("reader not empty")
	}
}
