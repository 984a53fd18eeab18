package entry

import (
	"strconv"
	"strings"
)

// Ordering identifies the ordering matching rule of an attribute type.
// LDAP attributes have syntaxes; ordering comparisons on an INTEGER-syntax
// attribute (integerOrderingMatch) are numeric and values that do not parse
// as integers simply cannot exist for such attributes, while string-syntax
// attributes order lexicographically on the normalized value
// (caseIgnoreOrderingMatch). Keeping the two regimes separate is what makes
// the containment package's range-emptiness reasoning sound: the same total
// order is used at evaluation time and at containment-analysis time.
type Ordering int

const (
	// OrderingString compares normalized values lexicographically.
	OrderingString Ordering = iota + 1
	// OrderingInteger compares values numerically; non-integer values do not
	// match ordering assertions at all.
	OrderingInteger
)

// integerAttrs lists the attribute types with INTEGER syntax in this system.
// The set is fixed at startup; it mirrors the enterprise schema the paper's
// directory uses (serialNumber, departmentNumber, dept are numeric IDs).
var integerAttrs = map[string]bool{
	"age":              true,
	"serialnumber":     true,
	"departmentnumber": true,
	"employeenumber":   true,
	"uidnumber":        true,
	"gidnumber":        true,
	"dept":             true,
}

// OrderingFor returns the ordering rule for an attribute type.
func OrderingFor(attr string) Ordering {
	if integerAttrs[strings.ToLower(attr)] {
		return OrderingInteger
	}
	return OrderingString
}

// ParseInt parses an attribute value as the INTEGER syntax (optional sign,
// decimal digits, surrounding space ignored).
func ParseInt(v string) (int64, bool) {
	n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	return n, err == nil
}

// CompareOrdered compares a and b under the given ordering rule. For
// OrderingInteger, ok is false when either value fails to parse (the
// comparison is then undefined and ordering assertions must not match).
func CompareOrdered(kind Ordering, a, b string) (cmp int, ok bool) {
	if kind == OrderingInteger {
		na, okA := ParseInt(a)
		nb, okB := ParseInt(b)
		if !okA || !okB {
			return 0, false
		}
		switch {
		case na < nb:
			return -1, true
		case na > nb:
			return 1, true
		default:
			return 0, true
		}
	}
	return compareNorm(a, b), true
}
