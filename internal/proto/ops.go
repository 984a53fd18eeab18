package proto

import (
	"fmt"
	"slices"

	"filterdir/internal/ber"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// Attribute is a wire attribute: a type plus its values.
type Attribute struct {
	Type   string
	Values []string
}

// BindRequest is a simple bind.
type BindRequest struct {
	Version int64
	Name    string
	// Password is the simple-authentication credential (context tag 0).
	Password string
}

func (*BindRequest) appTag() int { return tagBindRequest }

func (b *BindRequest) encodeBody(dst []byte) ([]byte, error) {
	dst = ber.AppendInt(dst, ber.ClassUniversal, ber.TagInteger, b.Version)
	dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, b.Name)
	dst = ber.AppendString(dst, ber.ClassContext, 0, b.Password)
	return dst, nil
}

// Result is the common LDAPResult body shared by responses.
type Result struct {
	Code      ResultCode
	MatchedDN string
	Message   string
	Referrals []string
}

func (r *Result) encode(dst []byte) []byte {
	dst = ber.AppendEnum(dst, int64(r.Code))
	dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, r.MatchedDN)
	dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, r.Message)
	if len(r.Referrals) > 0 {
		var refs []byte
		for _, u := range r.Referrals {
			refs = ber.AppendString(refs, ber.ClassUniversal, ber.TagOctetString, u)
		}
		dst = ber.AppendTLV(dst, ber.ClassContext, true, 3, refs)
	}
	return dst
}

func decodeResult(rd *ber.Reader) (Result, error) {
	var r Result
	code, err := rd.ReadEnum()
	if err != nil {
		return r, err
	}
	r.Code = ResultCode(code)
	if r.MatchedDN, err = rd.ReadString(); err != nil {
		return r, err
	}
	if r.Message, err = rd.ReadString(); err != nil {
		return r, err
	}
	if !rd.Empty() {
		h, content, err := rd.Read()
		if err != nil {
			return r, err
		}
		if h.Is(ber.ClassContext, 3) {
			refs := ber.NewReader(content)
			for !refs.Empty() {
				u, err := refs.ReadString()
				if err != nil {
					return r, err
				}
				r.Referrals = append(r.Referrals, u)
			}
		}
	}
	return r, nil
}

// resultOp is embedded by all plain-result responses.
type resultOp struct {
	Result
}

func (r *resultOp) encodeBody(dst []byte) ([]byte, error) { return r.Result.encode(dst), nil }

// LDAPResult is the response's result, to read or to set: the one accessor
// every LDAPResult-bodied response shares.
func (r *resultOp) LDAPResult() *Result { return &r.Result }

// BindResponse, SearchDone and friends are LDAPResult-bodied responses.
type (
	// BindResponse answers a bind.
	BindResponse struct{ resultOp }
	// SearchDone terminates a search result stream.
	SearchDone struct{ resultOp }
	// ModifyResponse answers a modify.
	ModifyResponse struct{ resultOp }
	// AddResponse answers an add.
	AddResponse struct{ resultOp }
	// DelResponse answers a delete.
	DelResponse struct{ resultOp }
	// ModifyDNResponse answers a modifyDN.
	ModifyDNResponse struct{ resultOp }
)

func (*BindResponse) appTag() int     { return tagBindResponse }
func (*SearchDone) appTag() int       { return tagSearchDone }
func (*ModifyResponse) appTag() int   { return tagModifyResponse }
func (*AddResponse) appTag() int      { return tagAddResponse }
func (*DelResponse) appTag() int      { return tagDelResponse }
func (*ModifyDNResponse) appTag() int { return tagModifyDNResponse }

// UnbindRequest ends a connection.
type UnbindRequest struct{}

func (*UnbindRequest) appTag() int                           { return tagUnbindRequest }
func (*UnbindRequest) encodeBody(dst []byte) ([]byte, error) { return dst, nil }

// AbandonRequest cancels an outstanding operation.
type AbandonRequest struct {
	MessageID int64
}

func (*AbandonRequest) appTag() int { return tagAbandonRequest }

func (a *AbandonRequest) encodeBody(dst []byte) ([]byte, error) {
	// AbandonRequest ::= [APPLICATION 16] MessageID — the tag wraps a bare
	// integer, so the content is the integer's content octets.
	rd := ber.AppendInt(nil, ber.ClassUniversal, ber.TagInteger, a.MessageID)
	// Strip the outer header: content starts after identifier+length.
	return append(dst, rd[2:]...), nil
}

// SearchRequest is an LDAP search.
type SearchRequest struct {
	Query query.Query
	// SizeLimit bounds the number of entries returned (0 = unlimited).
	SizeLimit int64
	// TypesOnly requests attribute types without values.
	TypesOnly bool
}

func (*SearchRequest) appTag() int { return tagSearchRequest }

func (s *SearchRequest) encodeBody(dst []byte) ([]byte, error) {
	q := s.Query
	dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, q.Base.String())
	dst = ber.AppendEnum(dst, int64(q.Scope))
	dst = ber.AppendEnum(dst, 0) // derefAliases: never
	dst = ber.AppendInt(dst, ber.ClassUniversal, ber.TagInteger, s.SizeLimit)
	dst = ber.AppendInt(dst, ber.ClassUniversal, ber.TagInteger, 0) // timeLimit
	dst = ber.AppendBool(dst, s.TypesOnly)
	f, err := encodeFilter(nil, q.Filter)
	if err != nil {
		return nil, err
	}
	dst = append(dst, f...)
	var attrs []byte
	for _, a := range q.Attrs {
		attrs = ber.AppendString(attrs, ber.ClassUniversal, ber.TagOctetString, a)
	}
	dst = ber.AppendSequence(dst, attrs)
	return dst, nil
}

// SearchEntry carries one result entry. The wire form is written from, and
// read into, the model entry itself: there is no intermediate attribute
// list to build on one side and unpack on the other. A nil Entry stands for
// the attribute-less entry at the root DN.
type SearchEntry struct {
	Entry *entry.Entry
}

func (*SearchEntry) appTag() int { return tagSearchEntry }

// encodeBody sizes the body first and grows dst once.
func (s *SearchEntry) encodeBody(dst []byte) ([]byte, error) {
	e := s.Entry
	if e == nil {
		e = &entry.Entry{}
	}
	d := e.DN().String()
	// Entries carry a handful of attributes: their set lengths stay on the
	// stack between the sizing pass and the writing one.
	var setBuf [16]int
	sets := setBuf[:0]
	attrsLen := 0
	for i := 0; i < e.NumAttrs(); i++ {
		a := e.AttrAt(i)
		sets = append(sets, valuesLen(a))
		attrsLen += ber.TLVLen(attrLen(a.Name(), sets[i]))
	}
	dst = slices.Grow(dst, ber.TLVLen(len(d))+ber.TLVLen(attrsLen))
	dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, d)
	dst = ber.AppendHeader(dst, ber.ClassUniversal, true, ber.TagSequence, attrsLen)
	for i := 0; i < e.NumAttrs(); i++ {
		a := e.AttrAt(i)
		dst = appendAttrHeader(dst, a.Name(), sets[i])
		for k := 0; k < a.Len(); k++ {
			dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, a.At(k))
		}
	}
	return dst, nil
}

// attrLen is the content length of one PartialAttribute SEQUENCE.
func attrLen(name string, setLen int) int {
	return ber.TLVLen(len(name)) + ber.TLVLen(setLen)
}

// valuesLen is the content length of an entry attribute's SET OF values.
func valuesLen(a entry.Attr) int {
	n := 0
	for i := 0; i < a.Len(); i++ {
		n += ber.TLVLen(len(a.At(i)))
	}
	return n
}

// appendAttrHeader appends a PartialAttribute's SEQUENCE header, its type
// and its SET header, for a set of content length setLen.
func appendAttrHeader(dst []byte, name string, setLen int) []byte {
	dst = ber.AppendHeader(dst, ber.ClassUniversal, true, ber.TagSequence, attrLen(name, setLen))
	dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, name)
	return ber.AppendHeader(dst, ber.ClassUniversal, true, ber.TagSet, setLen)
}

// stringsLen is the content length of a request attribute's SET OF values.
func stringsLen(vals []string) int {
	n := 0
	for _, v := range vals {
		n += ber.TLVLen(len(v))
	}
	return n
}

// SearchReference is a continuation referral inside a search stream.
type SearchReference struct {
	URLs []string
}

func (*SearchReference) appTag() int { return tagSearchReference }

func (s *SearchReference) encodeBody(dst []byte) ([]byte, error) {
	for _, u := range s.URLs {
		dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, u)
	}
	return dst, nil
}

// AddRequest inserts an entry.
type AddRequest struct {
	DN    string
	Attrs []Attribute
}

func (*AddRequest) appTag() int { return tagAddRequest }

func (a *AddRequest) encodeBody(dst []byte) ([]byte, error) {
	// AddRequest and SearchResultEntry share their wire shape.
	attrsLen := 0
	for _, at := range a.Attrs {
		attrsLen += ber.TLVLen(attrLen(at.Type, stringsLen(at.Values)))
	}
	dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, a.DN)
	dst = ber.AppendHeader(dst, ber.ClassUniversal, true, ber.TagSequence, attrsLen)
	for _, at := range a.Attrs {
		dst = appendAttrHeader(dst, at.Type, stringsLen(at.Values))
		for _, v := range at.Values {
			dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, v)
		}
	}
	return dst, nil
}

// Entry converts the request's attribute list to the model type.
func (a *AddRequest) Entry() (*entry.Entry, error) {
	d, err := dn.Parse(a.DN)
	if err != nil {
		return nil, fmt.Errorf("add request dn: %w", err)
	}
	e := entry.New(d)
	for _, at := range a.Attrs {
		e.Put(at.Type, at.Values...)
	}
	return e, nil
}

// DelRequest removes an entry.
type DelRequest struct {
	DN string
}

func (*DelRequest) appTag() int { return tagDelRequest }

func (d *DelRequest) encodeBody(dst []byte) ([]byte, error) {
	// DelRequest ::= [APPLICATION 10] LDAPDN — bare string content.
	return append(dst, d.DN...), nil
}

// ModifyOp codes per RFC 2251.
const (
	ModifyOpAdd     = 0
	ModifyOpDelete  = 1
	ModifyOpReplace = 2
)

// ModifyChange is one change of a modify request.
type ModifyChange struct {
	Op   int64
	Attr Attribute
}

// ModifyRequest alters an entry's attributes.
type ModifyRequest struct {
	DN      string
	Changes []ModifyChange
}

func (*ModifyRequest) appTag() int { return tagModifyRequest }

func (m *ModifyRequest) encodeBody(dst []byte) ([]byte, error) {
	dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, m.DN)
	var changes []byte
	for _, c := range m.Changes {
		var one []byte
		one = ber.AppendEnum(one, c.Op)
		var mod []byte
		mod = ber.AppendString(mod, ber.ClassUniversal, ber.TagOctetString, c.Attr.Type)
		var vals []byte
		for _, v := range c.Attr.Values {
			vals = ber.AppendString(vals, ber.ClassUniversal, ber.TagOctetString, v)
		}
		mod = ber.AppendSet(mod, vals)
		one = ber.AppendSequence(one, mod)
		changes = ber.AppendSequence(changes, one)
	}
	dst = ber.AppendSequence(dst, changes)
	return dst, nil
}

// ModifyDNRequest renames or moves an entry.
type ModifyDNRequest struct {
	DN           string
	NewRDN       string
	DeleteOldRDN bool
	NewSuperior  string // context tag 0, optional
}

func (*ModifyDNRequest) appTag() int { return tagModifyDNRequest }

func (m *ModifyDNRequest) encodeBody(dst []byte) ([]byte, error) {
	dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, m.DN)
	dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, m.NewRDN)
	dst = ber.AppendBool(dst, m.DeleteOldRDN)
	if m.NewSuperior != "" {
		dst = ber.AppendString(dst, ber.ClassContext, 0, m.NewSuperior)
	}
	return dst, nil
}

// decodeOp dispatches on the application tag.
func decodeOp(tag int, content []byte) (Op, error) {
	rd := ber.NewReader(content)
	switch tag {
	case tagBindRequest:
		return decodeBindRequest(rd)
	case tagBindResponse:
		return wrapResult(rd, func(r Result) Op { return &BindResponse{resultOp{r}} })
	case tagUnbindRequest:
		return &UnbindRequest{}, nil
	case tagSearchRequest:
		return decodeSearchRequest(rd)
	case tagSearchEntry:
		return decodeSearchEntry(content)
	case tagSearchDone:
		return wrapResult(rd, func(r Result) Op { return &SearchDone{resultOp{r}} })
	case tagSearchReference:
		ref := &SearchReference{}
		for !rd.Empty() {
			u, err := rd.ReadString()
			if err != nil {
				return nil, err
			}
			ref.URLs = append(ref.URLs, u)
		}
		return ref, nil
	case tagModifyRequest:
		return decodeModifyRequest(rd)
	case tagModifyResponse:
		return wrapResult(rd, func(r Result) Op { return &ModifyResponse{resultOp{r}} })
	case tagAddRequest:
		return decodeAddRequest(rd)
	case tagAddResponse:
		return wrapResult(rd, func(r Result) Op { return &AddResponse{resultOp{r}} })
	case tagDelRequest:
		return &DelRequest{DN: string(content)}, nil
	case tagDelResponse:
		return wrapResult(rd, func(r Result) Op { return &DelResponse{resultOp{r}} })
	case tagModifyDNRequest:
		return decodeModifyDNRequest(rd)
	case tagModifyDNResponse:
		return wrapResult(rd, func(r Result) Op { return &ModifyDNResponse{resultOp{r}} })
	case tagAbandonRequest:
		id, err := ber.ParseInt(content)
		if err != nil {
			return nil, err
		}
		return &AbandonRequest{MessageID: id}, nil
	default:
		return nil, fmt.Errorf("ldap: unknown application tag %d", tag)
	}
}

func wrapResult(rd *ber.Reader, mk func(Result) Op) (Op, error) {
	r, err := decodeResult(rd)
	if err != nil {
		return nil, err
	}
	return mk(r), nil
}

func decodeBindRequest(rd *ber.Reader) (*BindRequest, error) {
	var b BindRequest
	var err error
	if b.Version, err = rd.ReadInt(); err != nil {
		return nil, err
	}
	if b.Name, err = rd.ReadString(); err != nil {
		return nil, err
	}
	if !rd.Empty() {
		h, content, err := rd.Read()
		if err != nil {
			return nil, err
		}
		if h.Is(ber.ClassContext, 0) {
			b.Password = string(content)
		}
	}
	return &b, nil
}

func decodeSearchRequest(rd *ber.Reader) (*SearchRequest, error) {
	var s SearchRequest
	baseStr, err := rd.ReadString()
	if err != nil {
		return nil, err
	}
	base, err := dn.Parse(baseStr)
	if err != nil {
		return nil, fmt.Errorf("search base: %w", err)
	}
	scope, err := rd.ReadEnum()
	if err != nil {
		return nil, err
	}
	if _, err := rd.ReadEnum(); err != nil { // derefAliases
		return nil, err
	}
	if s.SizeLimit, err = rd.ReadInt(); err != nil {
		return nil, err
	}
	if _, err := rd.ReadInt(); err != nil { // timeLimit
		return nil, err
	}
	if s.TypesOnly, err = rd.ReadBool(); err != nil {
		return nil, err
	}
	nodes := 0
	f, err := decodeFilter(rd, 0, &nodes)
	if err != nil {
		return nil, err
	}
	attrSeq, err := rd.ReadSequence()
	if err != nil {
		return nil, err
	}
	var attrs []string
	for !attrSeq.Empty() {
		a, err := attrSeq.ReadString()
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, a)
	}
	s.Query = query.Query{Base: base, Scope: query.Scope(scope), Filter: f, Attrs: attrs}
	return &s, nil
}

// universalTLV is ber.StringTLV for an element that must carry the given
// universal tag.
func universalTLV(s string, pos, tag int) (content string, next int, err error) {
	h, content, next, err := ber.StringTLV(s, pos)
	if err != nil {
		return "", 0, err
	}
	if !h.Is(ber.ClassUniversal, tag) {
		return "", 0, fmt.Errorf("%w: got class %#x tag %d, want universal tag %d", ber.ErrBadTag, h.Class, h.Tag, tag)
	}
	return content, next, nil
}

// decodeSearchEntry materialises the entry in one pass: the entry's buffer
// is the message body, which the message owns and nobody writes again (see
// decodeMessage), and its table of every name's and value's range there is
// sized by a counting walk. The DN is a substring of the body too.
func decodeSearchEntry(content []byte) (*SearchEntry, error) {
	s := bodyString(content)
	dnStr, pos, err := universalTLV(s, 0, ber.TagOctetString)
	if err != nil {
		return nil, fmt.Errorf("search entry dn: %w", err)
	}
	d, err := dn.Parse(dnStr)
	if err != nil {
		return nil, fmt.Errorf("search entry dn: %w", err)
	}
	attrs, end, err := universalTLV(s, pos, ber.TagSequence)
	if err != nil {
		return nil, fmt.Errorf("search entry attributes: %w", err)
	}
	nattrs, nvals := 0, 0
	for pos := 0; pos < len(attrs); nattrs++ {
		var one string
		if one, pos, err = universalTLV(attrs, pos, ber.TagSequence); err != nil {
			return nil, fmt.Errorf("search entry attribute: %w", err)
		}
		name, next, err := universalTLV(one, 0, ber.TagOctetString)
		if err != nil {
			return nil, fmt.Errorf("search entry attribute type: %w", err)
		}
		set, _, err := universalTLV(one, next, ber.TagSet)
		if err != nil {
			return nil, fmt.Errorf("search entry attribute %q: %w", name, err)
		}
		for p := 0; p < len(set); nvals++ {
			if _, p, err = universalTLV(set, p, ber.TagOctetString); err != nil {
				return nil, fmt.Errorf("search entry attribute %q: %w", name, err)
			}
		}
	}
	// Checked by the counting walk. Each element's content ends where the
	// next read starts; its offset in the body adds up its parents'.
	l := entry.NewLayout(nattrs, nvals)
	at := end - len(attrs)
	for pos := 0; pos < len(attrs); {
		var one string
		one, pos, _ = universalTLV(attrs, pos, ber.TagSequence)
		oneAt := at + pos - len(one)
		name, next, _ := universalTLV(one, 0, ber.TagOctetString)
		l.Attr(oneAt+next-len(name), oneAt+next)
		set, setEnd, _ := universalTLV(one, next, ber.TagSet)
		setAt := oneAt + setEnd - len(set)
		for p := 0; p < len(set); {
			var v string
			_, v, p, _ = ber.StringTLV(set, p)
			l.Value(setAt+p-len(v), setAt+p)
		}
	}
	return &SearchEntry{Entry: entry.Assemble(d, s, l)}, nil
}

func decodeAddRequest(rd *ber.Reader) (*AddRequest, error) {
	var s AddRequest
	var err error
	if s.DN, err = rd.ReadString(); err != nil {
		return nil, err
	}
	attrSeq, err := rd.ReadSequence()
	if err != nil {
		return nil, err
	}
	for !attrSeq.Empty() {
		one, err := attrSeq.ReadSequence()
		if err != nil {
			return nil, err
		}
		var a Attribute
		if a.Type, err = one.ReadString(); err != nil {
			return nil, err
		}
		vals, err := one.ReadExpect(ber.ClassUniversal, ber.TagSet)
		if err != nil {
			return nil, err
		}
		vr := ber.NewReader(vals)
		for !vr.Empty() {
			v, err := vr.ReadString()
			if err != nil {
				return nil, err
			}
			a.Values = append(a.Values, v)
		}
		s.Attrs = append(s.Attrs, a)
	}
	return &s, nil
}

func decodeModifyRequest(rd *ber.Reader) (*ModifyRequest, error) {
	var m ModifyRequest
	var err error
	if m.DN, err = rd.ReadString(); err != nil {
		return nil, err
	}
	changes, err := rd.ReadSequence()
	if err != nil {
		return nil, err
	}
	for !changes.Empty() {
		one, err := changes.ReadSequence()
		if err != nil {
			return nil, err
		}
		var c ModifyChange
		if c.Op, err = one.ReadEnum(); err != nil {
			return nil, err
		}
		mod, err := one.ReadSequence()
		if err != nil {
			return nil, err
		}
		if c.Attr.Type, err = mod.ReadString(); err != nil {
			return nil, err
		}
		vals, err := mod.ReadExpect(ber.ClassUniversal, ber.TagSet)
		if err != nil {
			return nil, err
		}
		vr := ber.NewReader(vals)
		for !vr.Empty() {
			v, err := vr.ReadString()
			if err != nil {
				return nil, err
			}
			c.Attr.Values = append(c.Attr.Values, v)
		}
		m.Changes = append(m.Changes, c)
	}
	return &m, nil
}

func decodeModifyDNRequest(rd *ber.Reader) (*ModifyDNRequest, error) {
	var m ModifyDNRequest
	var err error
	if m.DN, err = rd.ReadString(); err != nil {
		return nil, err
	}
	if m.NewRDN, err = rd.ReadString(); err != nil {
		return nil, err
	}
	if m.DeleteOldRDN, err = rd.ReadBool(); err != nil {
		return nil, err
	}
	if !rd.Empty() {
		h, content, err := rd.Read()
		if err != nil {
			return nil, err
		}
		if h.Is(ber.ClassContext, 0) {
			m.NewSuperior = string(content)
		}
	}
	return &m, nil
}
