// Package ber implements the subset of ASN.1 Basic Encoding Rules that the
// LDAP message layer requires: definite-length TLV encoding of booleans,
// integers, enumerateds, octet strings, sequences and sets, with universal,
// application and context-specific tag classes (tag numbers below 31).
package ber

import (
	"errors"
	"fmt"
)

// Class is the BER tag class.
type Class byte

// Tag classes.
const (
	ClassUniversal   Class = 0x00
	ClassApplication Class = 0x40
	ClassContext     Class = 0x80
)

// Universal tag numbers used by LDAP.
const (
	TagBoolean     = 0x01
	TagInteger     = 0x02
	TagOctetString = 0x04
	TagEnumerated  = 0x0a
	TagSequence    = 0x10
	TagSet         = 0x11
)

// Errors reported by the decoder.
var (
	ErrTruncated = errors.New("ber: truncated element")
	ErrBadLength = errors.New("ber: bad length")
	ErrBadTag    = errors.New("ber: unexpected tag")
)

// Header describes one decoded TLV header.
type Header struct {
	Class       Class
	Constructed bool
	Tag         int
	// Length is the content length in bytes.
	Length int
}

// Is reports whether the header matches the class/tag pair.
func (h Header) Is(class Class, tag int) bool {
	return h.Class == class && h.Tag == tag
}

// HeaderLen returns the number of identifier and length octets in front of
// a content of the given length.
func HeaderLen(length int) int {
	switch {
	case length < 0x80:
		return 2
	case length <= 0xff:
		return 3
	case length <= 0xffff:
		return 4
	case length <= 0xffffff:
		return 5
	default:
		return 6
	}
}

// TLVLen returns the encoded size of an element with the given content
// length. Encoders that know their content sizes add these up, allocate the
// output once and write it front to back with AppendHeader.
func TLVLen(length int) int { return HeaderLen(length) + length }

// AppendHeader writes the identifier and length octets of an element whose
// content, length bytes long, the caller appends next.
func AppendHeader(dst []byte, class Class, constructed bool, tag, length int) []byte {
	id := byte(class)
	if constructed {
		id |= 0x20
	}
	id |= byte(tag & 0x1f)
	dst = append(dst, id)
	switch {
	case length < 0x80:
		dst = append(dst, byte(length))
	case length <= 0xff:
		dst = append(dst, 0x81, byte(length))
	case length <= 0xffff:
		dst = append(dst, 0x82, byte(length>>8), byte(length))
	case length <= 0xffffff:
		dst = append(dst, 0x83, byte(length>>16), byte(length>>8), byte(length))
	default:
		dst = append(dst, 0x84, byte(length>>24), byte(length>>16), byte(length>>8), byte(length))
	}
	return dst
}

// AppendTLV appends a complete TLV element.
func AppendTLV(dst []byte, class Class, constructed bool, tag int, content []byte) []byte {
	dst = AppendHeader(dst, class, constructed, tag, len(content))
	return append(dst, content...)
}

// AppendInt appends an INTEGER (or other primitive carrying an integer, per
// the supplied class/tag) in minimal two's-complement form.
func AppendInt(dst []byte, class Class, tag int, v int64) []byte {
	n := IntLen(v)
	dst = AppendHeader(dst, class, false, tag, n)
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*uint(i))))
	}
	return dst
}

// IntLen returns the number of content octets of v in minimal
// two's-complement form.
func IntLen(v int64) int {
	n := 1
	for m := v; m > 0x7f || m < -0x80; m >>= 8 {
		n++
	}
	return n
}

// AppendString appends an OCTET STRING (or string-bearing primitive with
// the supplied class/tag).
func AppendString(dst []byte, class Class, tag int, s string) []byte {
	dst = AppendHeader(dst, class, false, tag, len(s))
	return append(dst, s...)
}

// AppendBool appends a BOOLEAN.
func AppendBool(dst []byte, v bool) []byte {
	b := byte(0x00)
	if v {
		b = 0xff
	}
	return append(AppendHeader(dst, ClassUniversal, false, TagBoolean, 1), b)
}

// AppendEnum appends an ENUMERATED.
func AppendEnum(dst []byte, v int64) []byte {
	return AppendInt(dst, ClassUniversal, TagEnumerated, v)
}

// AppendSequence appends a SEQUENCE with the given encoded content.
func AppendSequence(dst []byte, content []byte) []byte {
	return AppendTLV(dst, ClassUniversal, true, TagSequence, content)
}

// AppendSet appends a SET with the given encoded content.
func AppendSet(dst []byte, content []byte) []byte {
	return AppendTLV(dst, ClassUniversal, true, TagSet, content)
}

// Reader decodes TLV elements from a byte slice.
type Reader struct {
	data []byte
	pos  int
}

// NewReader wraps encoded bytes.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Empty reports whether all input was consumed.
func (r *Reader) Empty() bool { return r.pos >= len(r.data) }

// Peek decodes the next header without consuming it.
func (r *Reader) Peek() (Header, error) {
	save := r.pos
	h, _, err := r.Read()
	r.pos = save
	return h, err
}

// Read consumes the next TLV, returning its header and content bytes.
func (r *Reader) Read() (Header, []byte, error) {
	if r.pos >= len(r.data) {
		return Header{}, nil, ErrTruncated
	}
	id := r.data[r.pos]
	h := Header{
		Class:       Class(id & 0xc0),
		Constructed: id&0x20 != 0,
		Tag:         int(id & 0x1f),
	}
	if h.Tag == 0x1f {
		return Header{}, nil, fmt.Errorf("%w: high tag numbers unsupported", ErrBadTag)
	}
	r.pos++
	if r.pos >= len(r.data) {
		return Header{}, nil, ErrTruncated
	}
	l := r.data[r.pos]
	r.pos++
	length := 0
	if l < 0x80 {
		length = int(l)
	} else {
		n := int(l & 0x7f)
		if n == 0 || n > 4 {
			return Header{}, nil, fmt.Errorf("%w: length-of-length %d", ErrBadLength, n)
		}
		if r.pos+n > len(r.data) {
			return Header{}, nil, ErrTruncated
		}
		for i := 0; i < n; i++ {
			length = length<<8 | int(r.data[r.pos])
			r.pos++
		}
		if length < 0 {
			return Header{}, nil, ErrBadLength
		}
	}
	if r.pos+length > len(r.data) {
		return Header{}, nil, ErrTruncated
	}
	h.Length = length
	content := r.data[r.pos : r.pos+length]
	r.pos += length
	return h, content, nil
}

// StringTLV decodes the element at s[pos:], returning its header, its
// content as a substring of s, and the offset of the element after it. A
// decoder that keeps many values of one message copies the message into a
// string once and takes every value from it without another allocation.
//
// It is Reader.Read over a string, statement for statement: sharing the
// header parse between the two (a generic function, or a copy of the header
// octets into an array) cost the byte reader — the innermost loop of every
// decode — a fifth of its speed. FuzzParseTLV holds the two to the same
// elements and the same errors on every input.
func StringTLV(s string, pos int) (Header, string, int, error) {
	if pos >= len(s) {
		return Header{}, "", 0, ErrTruncated
	}
	id := s[pos]
	h := Header{
		Class:       Class(id & 0xc0),
		Constructed: id&0x20 != 0,
		Tag:         int(id & 0x1f),
	}
	if h.Tag == 0x1f {
		return Header{}, "", 0, fmt.Errorf("%w: high tag numbers unsupported", ErrBadTag)
	}
	pos++
	if pos >= len(s) {
		return Header{}, "", 0, ErrTruncated
	}
	l := s[pos]
	pos++
	length := 0
	if l < 0x80 {
		length = int(l)
	} else {
		n := int(l & 0x7f)
		if n == 0 || n > 4 {
			return Header{}, "", 0, fmt.Errorf("%w: length-of-length %d", ErrBadLength, n)
		}
		if pos+n > len(s) {
			return Header{}, "", 0, ErrTruncated
		}
		for i := 0; i < n; i++ {
			length = length<<8 | int(s[pos])
			pos++
		}
		if length < 0 {
			return Header{}, "", 0, ErrBadLength
		}
	}
	if pos+length > len(s) {
		return Header{}, "", 0, ErrTruncated
	}
	h.Length = length
	return h, s[pos : pos+length], pos + length, nil
}

// ReadExpect consumes the next TLV and verifies its class and tag.
func (r *Reader) ReadExpect(class Class, tag int) ([]byte, error) {
	h, content, err := r.Read()
	if err != nil {
		return nil, err
	}
	if !h.Is(class, tag) {
		return nil, fmt.Errorf("%w: got class %#x tag %d, want class %#x tag %d",
			ErrBadTag, h.Class, h.Tag, class, tag)
	}
	return content, nil
}

// ReadSequence consumes a SEQUENCE and returns a Reader over its content, by
// value: a decoder descends several sequences per message, and a reader
// handed back by pointer would be a heap object each time.
func (r *Reader) ReadSequence() (Reader, error) {
	content, err := r.ReadExpect(ClassUniversal, TagSequence)
	if err != nil {
		return Reader{}, err
	}
	return Reader{data: content}, nil
}

// ReadInt consumes an INTEGER.
func (r *Reader) ReadInt() (int64, error) {
	content, err := r.ReadExpect(ClassUniversal, TagInteger)
	if err != nil {
		return 0, err
	}
	return ParseInt(content)
}

// ReadEnum consumes an ENUMERATED.
func (r *Reader) ReadEnum() (int64, error) {
	content, err := r.ReadExpect(ClassUniversal, TagEnumerated)
	if err != nil {
		return 0, err
	}
	return ParseInt(content)
}

// ReadString consumes an OCTET STRING.
func (r *Reader) ReadString() (string, error) {
	content, err := r.ReadExpect(ClassUniversal, TagOctetString)
	if err != nil {
		return "", err
	}
	return string(content), nil
}

// ReadBool consumes a BOOLEAN.
func (r *Reader) ReadBool() (bool, error) {
	content, err := r.ReadExpect(ClassUniversal, TagBoolean)
	if err != nil {
		return false, err
	}
	if len(content) != 1 {
		return false, fmt.Errorf("%w: boolean of %d bytes", ErrBadLength, len(content))
	}
	return content[0] != 0, nil
}

// ParseInt decodes two's-complement integer content.
func ParseInt(content []byte) (int64, error) {
	if len(content) == 0 {
		return 0, fmt.Errorf("%w: empty integer", ErrBadLength)
	}
	if len(content) > 8 {
		return 0, fmt.Errorf("%w: integer of %d bytes", ErrBadLength, len(content))
	}
	v := int64(0)
	if content[0]&0x80 != 0 {
		v = -1
	}
	for _, b := range content {
		v = v<<8 | int64(b)
	}
	return v, nil
}
