package proto

import (
	"fmt"

	"filterdir/internal/ber"
)

// Server-side sorting control OIDs per RFC 2891 (the control the paper
// cites as an example of extending LDAP operations).
const (
	OIDSortRequest  = "1.2.840.113556.1.4.473"
	OIDSortResponse = "1.2.840.113556.1.4.474"
)

// SortKey is one key of a server-side sort request.
type SortKey struct {
	Attr string
	// Reverse orders descending.
	Reverse bool
}

// NewSortControl builds the RFC 2891 request control.
func NewSortControl(keys ...SortKey) Control {
	var list []byte
	for _, k := range keys {
		var one []byte
		one = ber.AppendString(one, ber.ClassUniversal, ber.TagOctetString, k.Attr)
		if k.Reverse {
			// reverseOrder [1] BOOLEAN
			one = ber.AppendTLV(one, ber.ClassContext, false, 1, []byte{0xff})
		}
		list = ber.AppendSequence(list, one)
	}
	return Control{OID: OIDSortRequest, Value: ber.AppendSequence(nil, list)}
}

// ParseSortKeys decodes the request control value.
func ParseSortKeys(c Control) ([]SortKey, error) {
	rd := ber.NewReader(c.Value)
	seq, err := rd.ReadSequence()
	if err != nil {
		return nil, fmt.Errorf("sort control: %w", err)
	}
	var keys []SortKey
	for !seq.Empty() {
		one, err := seq.ReadSequence()
		if err != nil {
			return nil, err
		}
		var k SortKey
		if k.Attr, err = one.ReadString(); err != nil {
			return nil, err
		}
		for !one.Empty() {
			h, content, err := one.Read()
			if err != nil {
				return nil, err
			}
			if h.Is(ber.ClassContext, 1) && len(content) == 1 {
				k.Reverse = content[0] != 0
			}
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// NewSortResponseControl reports the sorting outcome (0 = success).
func NewSortResponseControl(code int64) Control {
	var body []byte
	body = ber.AppendEnum(body, code)
	return Control{OID: OIDSortResponse, Value: ber.AppendSequence(nil, body)}
}
