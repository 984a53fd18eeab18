// Package query defines the LDAP search request quadruple (base, scope,
// filter, attributes) — the paper's unit of replication — together with its
// string forms and the region predicate shared by the DIT, the replicas and
// the containment algorithms.
package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/filter"
)

// Scope is the LDAP search scope. The paper's QC algorithm relies on the
// integer ordering BASE < SingleLevel < Subtree.
type Scope int

// Search scopes.
const (
	ScopeBase Scope = iota
	ScopeSingleLevel
	ScopeSubtree
)

func (s Scope) String() string {
	switch s {
	case ScopeBase:
		return "base"
	case ScopeSingleLevel:
		return "one"
	case ScopeSubtree:
		return "sub"
	default:
		return fmt.Sprintf("scope(%d)", int(s))
	}
}

// ParseScope parses the textual scope names used in URLs and config.
func ParseScope(s string) (Scope, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "base":
		return ScopeBase, nil
	case "one", "onelevel", "single", "singlelevel":
		return ScopeSingleLevel, nil
	case "sub", "subtree":
		return ScopeSubtree, nil
	default:
		return 0, fmt.Errorf("unknown scope %q", s)
	}
}

// Query is an LDAP search request: the semantic information associated with
// a query per Section 2.2 of the paper. A nil Filter means (objectclass=*).
// An empty Attrs (or one containing "*") selects all user attributes.
type Query struct {
	Base   dn.DN
	Scope  Scope
	Filter *filter.Node
	Attrs  []string
}

// New builds a query, parsing the filter string. An empty filter string
// means (objectclass=*).
func New(base string, scope Scope, filterStr string, attrs ...string) (Query, error) {
	b, err := dn.Parse(base)
	if err != nil {
		return Query{}, fmt.Errorf("query base: %w", err)
	}
	var f *filter.Node
	if strings.TrimSpace(filterStr) != "" {
		f, err = filter.Parse(filterStr)
		if err != nil {
			return Query{}, fmt.Errorf("query filter: %w", err)
		}
	} else {
		f = filter.NewPresent("objectclass")
	}
	return Query{Base: b, Scope: scope, Filter: f, Attrs: attrs}, nil
}

// MustNew is New that panics on error; intended for tests and constants.
func MustNew(base string, scope Scope, filterStr string, attrs ...string) Query {
	q, err := New(base, scope, filterStr, attrs...)
	if err != nil {
		panic(err)
	}
	return q
}

// FilterString renders the filter, defaulting to (objectclass=*).
func (q Query) FilterString() string {
	if q.Filter == nil {
		return "(objectclass=*)"
	}
	return q.Filter.String()
}

// String renders the query in an LDAP-URL-like form for logs and metadata.
func (q Query) String() string {
	attrs := "*"
	if len(q.Attrs) > 0 {
		attrs = strings.Join(q.Attrs, ",")
	}
	return fmt.Sprintf("base=%q scope=%s filter=%s attrs=%s",
		q.Base.String(), q.Scope, q.FilterString(), attrs)
}

// Template returns the filter's template string (Section 3.4.2); queries
// generated from the same application prototype share a template.
func (q Query) Template() string {
	if q.Filter == nil {
		return "(objectclass=*)"
	}
	return q.Filter.Template()
}

// InScope reports whether target lies in the region defined by the query's
// base and scope.
func (q Query) InScope(target dn.DN) bool {
	switch q.Scope {
	case ScopeBase:
		return q.Base.Equal(target)
	case ScopeSingleLevel:
		return q.Base.IsParent(target)
	case ScopeSubtree:
		return q.Base.IsSuffix(target)
	default:
		return false
	}
}

// Selects reports whether e is in the query's result: in scope, and the
// filter matches (a query without a filter matches everything in scope).
func (q Query) Selects(e *entry.Entry) bool {
	return q.InScope(e.DN()) && (q.Filter == nil || q.Filter.Matches(e))
}

// WantsAllAttrs reports whether the query selects every user attribute.
func (q Query) WantsAllAttrs() bool {
	if len(q.Attrs) == 0 {
		return true
	}
	for _, a := range q.Attrs {
		if a == "*" {
			return true
		}
	}
	return false
}

// AttrsSubsetOf reports whether q's requested attributes are a subset of
// o's (condition (ii) of semantic query containment).
func (q Query) AttrsSubsetOf(o Query) bool {
	if o.WantsAllAttrs() {
		return true
	}
	if q.WantsAllAttrs() {
		return false
	}
	for _, a := range q.Attrs {
		if !o.Keeps(a) {
			return false
		}
	}
	return true
}

// Keeps reports whether the entries q returns carry attribute a: q selects
// all attributes or names a (compared case-insensitively).
func (q Query) Keeps(a string) bool {
	return q.WantsAllAttrs() || slices.ContainsFunc(q.Attrs, func(k string) bool { return strings.EqualFold(k, a) })
}

// Normalize returns the query with a normalized filter and sorted,
// lower-cased attribute list; used for stable metadata keys.
func (q Query) Normalize() Query {
	out := q
	if q.Filter != nil {
		out.Filter = q.Filter.Normalize()
	}
	if len(q.Attrs) > 0 {
		attrs := make([]string, len(q.Attrs))
		for i, a := range q.Attrs {
			attrs[i] = strings.ToLower(a)
		}
		sort.Strings(attrs)
		out.Attrs = attrs
	}
	return out
}

// Key returns a canonical string identifying the (normalized) query; two
// queries with the same Key are identical requests.
func (q Query) Key() string {
	n := q.Normalize()
	return n.Base.Norm() + "\x00" + n.Scope.String() + "\x00" + n.FilterString() + "\x00" + strings.Join(n.Attrs, ",")
}
