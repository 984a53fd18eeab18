// Package proto implements the LDAP v3 message layer over BER (a faithful
// subset of RFC 2251): bind, unbind, abandon, search (request, entry,
// reference, done), the four update operations, result codes including
// referral, and the request controls that carry the paper's ReSync
// protocol. Messages are length-delimited BER SEQUENCEs, so they frame
// themselves on a TCP stream.
package proto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"unsafe"

	"filterdir/internal/ber"
)

// Application tags of the LDAP protocol ops (RFC 2251).
const (
	tagBindRequest      = 0
	tagBindResponse     = 1
	tagUnbindRequest    = 2
	tagSearchRequest    = 3
	tagSearchEntry      = 4
	tagSearchDone       = 5
	tagModifyRequest    = 6
	tagModifyResponse   = 7
	tagAddRequest       = 8
	tagAddResponse      = 9
	tagDelRequest       = 10
	tagDelResponse      = 11
	tagModifyDNRequest  = 12
	tagModifyDNResponse = 13
	tagAbandonRequest   = 16
	tagSearchReference  = 19
)

// ResultCode is an LDAP result code.
type ResultCode int

// Result codes used by this system.
const (
	ResultSuccess              ResultCode = 0
	ResultOperationsError      ResultCode = 1
	ResultProtocolError        ResultCode = 2
	ResultNoSuchObject         ResultCode = 32
	ResultInvalidCredentials   ResultCode = 49
	ResultEntryAlreadyExists   ResultCode = 68
	ResultNotAllowedOnNonLeaf  ResultCode = 66
	ResultObjectClassViolation ResultCode = 65
	ResultReferral             ResultCode = 10
	ResultBusy                 ResultCode = 51
	ResultUnwillingToPerform   ResultCode = 53
	ResultOther                ResultCode = 80
	// ResultESyncRefreshRequired (RFC 4533) tells a consumer its sync
	// session is gone on the server and it must start over with a new
	// Begin — distinct from transport failure, which is retryable with the
	// same cookie.
	ResultESyncRefreshRequired ResultCode = 4096
)

func (c ResultCode) String() string {
	switch c {
	case ResultSuccess:
		return "success"
	case ResultOperationsError:
		return "operationsError"
	case ResultProtocolError:
		return "protocolError"
	case ResultNoSuchObject:
		return "noSuchObject"
	case ResultInvalidCredentials:
		return "invalidCredentials"
	case ResultEntryAlreadyExists:
		return "entryAlreadyExists"
	case ResultNotAllowedOnNonLeaf:
		return "notAllowedOnNonLeaf"
	case ResultObjectClassViolation:
		return "objectClassViolation"
	case ResultReferral:
		return "referral"
	case ResultBusy:
		return "busy"
	case ResultUnwillingToPerform:
		return "unwillingToPerform"
	case ResultESyncRefreshRequired:
		return "e-syncRefreshRequired"
	default:
		return fmt.Sprintf("resultCode(%d)", int(c))
	}
}

// Op is one LDAP protocol operation.
type Op interface {
	// appTag returns the operation's application tag.
	appTag() int
	// encodeBody appends the operation's BER content (inside the
	// application TLV).
	encodeBody(dst []byte) ([]byte, error)
}

// Message is one LDAPMessage envelope.
type Message struct {
	ID       int64
	Op       Op
	Controls []Control
}

// ErrTooLarge guards against absurd message sizes on the wire.
var ErrTooLarge = errors.New("ldap message too large")

// maxMessageBytes bounds a single message (16 MiB).
const maxMessageBytes = 16 << 20

// Encode serializes the message.
func (m *Message) Encode() ([]byte, error) {
	opBody, err := m.Op.encodeBody(nil)
	if err != nil {
		return nil, err
	}
	return EncodeWithOpBody(m.ID, m.Op, opBody, m.Controls), nil
}

// EncodeOpBody BER-encodes just the operation's application-TLV content.
// The result is envelope-independent, so a PDU fanned out to many
// consumers can be encoded once and wrapped per message with
// EncodeWithOpBody.
func EncodeOpBody(op Op) ([]byte, error) {
	return op.encodeBody(nil)
}

// EncodeMessageTail BER-encodes the message-ID-independent suffix of a
// message: the operation TLV (around a pre-encoded body from EncodeOpBody)
// followed by the controls TLV. A PDU fanned out to many consumers whose
// messages differ only in message ID caches this tail once and wraps it
// per consumer with AppendWithTail. op supplies only the application tag;
// its fields are not re-encoded.
func EncodeMessageTail(op Op, opBody []byte, controls []Control) []byte {
	csLen := 0
	for _, c := range controls {
		csLen += ber.TLVLen(c.bodyLen())
	}
	size := ber.TLVLen(len(opBody))
	if len(controls) > 0 {
		size += ber.TLVLen(csLen)
	}
	tail := make([]byte, 0, size)
	tail = ber.AppendTLV(tail, ber.ClassApplication, true, op.appTag(), opBody)
	if len(controls) > 0 {
		tail = ber.AppendHeader(tail, ber.ClassContext, true, 0, csLen)
		for _, c := range controls {
			tail = c.append(tail)
		}
	}
	return tail
}

// MaxEnvelopeLen bounds what AppendWithTail adds around a tail: the outer
// SEQUENCE header (at most 6 bytes) and the message-ID TLV (at most 10).
const MaxEnvelopeLen = 16

// AppendWithTail appends a complete message around a pre-encoded tail (from
// EncodeMessageTail) to dst: just the message-ID TLV and the outer envelope
// are built here. A connection's response buffer takes a shared tail this
// way, so serving it to one more session copies it once, into that buffer,
// and allocates nothing while the buffer has room.
func AppendWithTail(dst []byte, id int64, tail []byte) []byte {
	bodyLen := ber.TLVLen(ber.IntLen(id)) + len(tail)
	if n := ber.TLVLen(bodyLen); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...) // sized once
	}
	dst = ber.AppendHeader(dst, ber.ClassUniversal, true, ber.TagSequence, bodyLen)
	dst = ber.AppendInt(dst, ber.ClassUniversal, ber.TagInteger, id)
	return append(dst, tail...)
}

// EncodeWithTail is AppendWithTail into a new buffer of the message's exact
// size: one allocation per message.
func EncodeWithTail(id int64, tail []byte) []byte {
	return AppendWithTail(nil, id, tail)
}

// EncodeWithOpBody serializes a message around a pre-encoded operation
// body (from EncodeOpBody). op supplies only the application tag; its
// fields are not re-encoded. Used when the controls vary per consumer
// (e.g. a per-session cookie), so the tail cannot be shared.
func EncodeWithOpBody(id int64, op Op, opBody []byte, controls []Control) []byte {
	return EncodeWithTail(id, EncodeMessageTail(op, opBody, controls))
}

// Write encodes the message and writes it to w.
func (m *Message) Write(w io.Writer) error {
	enc, err := m.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(enc)
	return err
}

// ReadMessage reads one message from a buffered stream.
func ReadMessage(r *bufio.Reader) (*Message, error) {
	// Read the outer SEQUENCE header byte-by-byte to learn the length.
	id, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if id != 0x30 {
		return nil, fmt.Errorf("ldap: bad message header byte %#x", id)
	}
	l, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	length := 0
	if l < 0x80 {
		length = int(l)
	} else {
		n := int(l & 0x7f)
		if n == 0 || n > 4 {
			return nil, fmt.Errorf("ldap: bad length-of-length %d", n)
		}
		for i := 0; i < n; i++ {
			b, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			length = length<<8 | int(b)
		}
	}
	if length < 0 || length > maxMessageBytes {
		return nil, ErrTooLarge
	}
	content := make([]byte, length)
	if _, err := io.ReadFull(r, content); err != nil {
		return nil, err
	}
	return decodeMessage(content)
}

// Decode parses a fully-buffered encoded message. The message does not alias
// data: the caller may reuse the buffer.
func Decode(data []byte) (*Message, error) {
	rd := ber.NewReader(data)
	content, err := rd.ReadExpect(ber.ClassUniversal, ber.TagSequence)
	if err != nil {
		return nil, err
	}
	return decodeMessage(bytes.Clone(content))
}

// decodeMessage decodes a message body and takes ownership of content: the
// buffer is never written again, and what a received PDU keeps of it — an
// entry's DN, names and values, a control's value — aliases it. The body is
// therefore allocated once, by whoever read it off the wire, and copied
// nowhere on the way into the store.
func decodeMessage(content []byte) (*Message, error) {
	rd := ber.NewReader(content)
	id, err := rd.ReadInt()
	if err != nil {
		return nil, fmt.Errorf("ldap: message id: %w", err)
	}
	h, opContent, err := rd.Read()
	if err != nil {
		return nil, fmt.Errorf("ldap: protocol op: %w", err)
	}
	if h.Class != ber.ClassApplication {
		return nil, fmt.Errorf("ldap: protocol op has class %#x", h.Class)
	}
	op, err := decodeOp(h.Tag, opContent)
	if err != nil {
		return nil, err
	}
	msg := &Message{ID: id, Op: op}
	if !rd.Empty() {
		ch, cs, err := rd.Read()
		if err != nil {
			return nil, fmt.Errorf("ldap: controls: %w", err)
		}
		if ch.Is(ber.ClassContext, 0) {
			controls, err := parseControls(cs)
			if err != nil {
				return nil, err
			}
			msg.Controls = controls
		}
	}
	return msg, nil
}

// bodyString views part of a message body as a string without copying it.
// Sound only on a body decodeMessage owns: a string must never change.
func bodyString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Control finds a control by OID.
func (m *Message) Control(oid string) (Control, bool) {
	for _, c := range m.Controls {
		if c.OID == oid {
			return c, true
		}
	}
	return Control{}, false
}
