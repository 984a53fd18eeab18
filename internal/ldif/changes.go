package ldif

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
)

// modVerbs names the modify sub-operations in a change record.
var modVerbs = map[dit.ModOp]string{dit.ModAdd: "add", dit.ModDelete: "delete", dit.ModReplace: "replace"}

// AppendChange appends c as one LDIF change record to b.
func AppendChange(b []byte, c dit.Change) ([]byte, error) {
	b = appendDN(b, c.DN)
	switch c.Type {
	case dit.ChangeAdd:
		if c.After == nil {
			return b, fmt.Errorf("add change for %q lacks the entry", c.DN.String())
		}
		b = append(b, "changetype: add\n"...)
		for i := 0; i < c.After.NumAttrs(); i++ {
			a := c.After.AttrAt(i)
			for k := 0; k < a.Len(); k++ {
				b = appendLine(b, a.Name(), a.At(k))
			}
		}
	case dit.ChangeDelete:
		b = append(b, "changetype: delete\n"...)
	case dit.ChangeModify:
		b = append(b, "changetype: modify\n"...)
		for _, m := range c.Mods {
			verb, ok := modVerbs[m.Op]
			if !ok {
				return b, fmt.Errorf("unknown mod op %d", m.Op)
			}
			b = appendLine(b, verb, m.Attr)
			for _, v := range m.Values {
				b = appendLine(b, m.Attr, v)
			}
			b = append(b, "-\n"...)
		}
	case dit.ChangeModifyDN:
		leaf, ok := c.NewDN.Leaf()
		if !ok {
			return b, fmt.Errorf("modrdn change for %q lacks a new RDN", c.DN.String())
		}
		b = append(b, "changetype: modrdn\n"...)
		b = appendLine(b, "newrdn", leaf.String())
		b = append(b, "deleteoldrdn: 1\n"...)
		if parent, ok := c.NewDN.Parent(); ok && !parent.IsRoot() {
			b = appendLine(b, "newsuperior", parent.String())
		}
	default:
		return b, fmt.Errorf("unknown change type %v", c.Type)
	}
	return b, nil
}

// ChangeRecord is a parsed LDIF change record.
type ChangeRecord struct {
	Type  dit.ChangeType
	DN    dn.DN
	NewDN dn.DN
	// Attrs holds the added entry's attributes for add records, names their
	// order in the record.
	Attrs map[string][]string
	names []string
	// Mods holds the attribute changes for modify records.
	Mods []dit.Mod
}

// scanBufs lends ReadChanges its read buffer: a journal is read one batch at
// a time, thousands of calls of a few lines each.
var scanBufs = sync.Pool{New: func() any { return new([64 * 1024]byte) }}

// ReadChanges parses LDIF change records.
func ReadChanges(r io.Reader) ([]ChangeRecord, error) {
	buf := scanBufs.Get().(*[64 * 1024]byte)
	defer scanBufs.Put(buf)
	rd := newReader(r, buf[:])
	var recs []ChangeRecord
	for {
		_, lines, err := rd.nextRecord()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		rec, err := parseChange(lines)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// AsChange converts a parsed record back into a journal change sufficient
// for re-serialization with AppendChange and for store replay. Before
// snapshots (not part of the interchange format) are not recovered.
func (rec ChangeRecord) AsChange() (dit.Change, error) {
	c := dit.Change{Type: rec.Type, DN: rec.DN, NewDN: rec.NewDN, Mods: rec.Mods}
	if rec.Type == dit.ChangeAdd {
		e := entry.New(rec.DN)
		for _, name := range rec.names {
			e.Put(name, rec.Attrs[name]...)
		}
		c.After = e
	}
	return c, nil
}

func parseChange(lines []string) (ChangeRecord, error) {
	var rec ChangeRecord
	name, value, err := splitLine(lines[0])
	if err != nil {
		return rec, err
	}
	if !strings.EqualFold(name, "dn") {
		return rec, fmt.Errorf("%w: change record must start with dn:", ErrBadRecord)
	}
	if rec.DN, err = dn.Parse(value); err != nil {
		return rec, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	if len(lines) < 2 {
		return rec, fmt.Errorf("%w: missing changetype", ErrBadRecord)
	}
	name, value, err = splitLine(lines[1])
	if err != nil {
		return rec, err
	}
	if !strings.EqualFold(name, "changetype") {
		return rec, fmt.Errorf("%w: expected changetype, got %q", ErrBadRecord, name)
	}
	body := lines[2:]
	switch strings.ToLower(value) {
	case "add":
		rec.Type = dit.ChangeAdd
		rec.Attrs = make(map[string][]string)
		for _, line := range body {
			n, v, err := splitLine(line)
			if err != nil {
				return rec, err
			}
			n = strings.ToLower(n)
			if _, seen := rec.Attrs[n]; !seen {
				rec.names = append(rec.names, n)
			}
			rec.Attrs[n] = append(rec.Attrs[n], v)
		}
	case "delete":
		rec.Type = dit.ChangeDelete
	case "modify":
		rec.Type = dit.ChangeModify
		var cur *dit.Mod
		for _, line := range body {
			if line == "-" {
				if cur != nil {
					rec.Mods = append(rec.Mods, *cur)
					cur = nil
				}
				continue
			}
			n, v, err := splitLine(line)
			if err != nil {
				return rec, err
			}
			if cur == nil {
				var op dit.ModOp
				switch strings.ToLower(n) {
				case "add":
					op = dit.ModAdd
				case "delete":
					op = dit.ModDelete
				case "replace":
					op = dit.ModReplace
				default:
					return rec, fmt.Errorf("%w: unknown mod verb %q", ErrBadRecord, n)
				}
				cur = &dit.Mod{Op: op, Attr: v}
				continue
			}
			cur.Values = append(cur.Values, v)
		}
		if cur != nil {
			rec.Mods = append(rec.Mods, *cur)
		}
	case "modrdn", "moddn":
		rec.Type = dit.ChangeModifyDN
		var newRDN, newSuperior string
		for _, line := range body {
			n, v, err := splitLine(line)
			if err != nil {
				return rec, err
			}
			switch strings.ToLower(n) {
			case "newrdn":
				newRDN = v
			case "newsuperior":
				newSuperior = v
			}
		}
		if newRDN == "" {
			return rec, fmt.Errorf("%w: modrdn without newrdn", ErrBadRecord)
		}
		rdnDN, err := dn.Parse(newRDN)
		if err != nil {
			return rec, fmt.Errorf("%w: newrdn: %v", ErrBadRecord, err)
		}
		leaf, ok := rdnDN.Leaf()
		if !ok {
			return rec, fmt.Errorf("%w: empty newrdn", ErrBadRecord)
		}
		superior, _ := rec.DN.Parent()
		if newSuperior != "" {
			if superior, err = dn.Parse(newSuperior); err != nil {
				return rec, fmt.Errorf("%w: newsuperior: %v", ErrBadRecord, err)
			}
		}
		rec.NewDN = superior.Child(leaf)
	default:
		return rec, fmt.Errorf("%w: unknown changetype %q", ErrBadRecord, value)
	}
	return rec, nil
}
