package ldif

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
)

// modVerbs names the modify sub-operations in a change record.
var modVerbs = [...]string{dit.ModAdd: "add", dit.ModDelete: "delete", dit.ModReplace: "replace"}

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
			if m.Op < dit.ModAdd || int(m.Op) >= len(modVerbs) {
				return b, fmt.Errorf("unknown mod op %d", m.Op)
			}
			b = appendLine(b, modVerbs[m.Op], m.Attr)
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

// scanBufs lends ReadChanges its read buffer: a journal is read one batch at
// a time, thousands of calls of a few lines each.
var scanBufs = sync.Pool{New: func() any { return new([64 * 1024]byte) }}

// ReadChanges parses LDIF change records into the changes AppendChange
// writes them from. An add record's entry is built as a content record's is
// (buildEntry); the before images a store journals are not part of the
// interchange format and are not recovered.
func ReadChanges(r io.Reader) ([]dit.Change, error) {
	buf := scanBufs.Get().(*[64 * 1024]byte)
	defer scanBufs.Put(buf)
	rd := newReader(r, buf[:])
	var changes []dit.Change
	for {
		rec, lines, err := rd.nextRecord()
		if err == io.EOF {
			return changes, nil
		}
		if err != nil {
			return nil, err
		}
		c, err := parseChange(rec, lines)
		if err != nil {
			return changes, err
		}
		changes = append(changes, c)
	}
}

func parseChange(rec string, lines []string) (dit.Change, error) {
	var c dit.Change
	d, err := recordDN(lines[0])
	if err != nil {
		return c, err
	}
	c.DN = d
	if len(lines) < 2 {
		return c, fmt.Errorf("%w: missing changetype", ErrBadRecord)
	}
	name, value, err := splitLine(lines[1])
	if err != nil {
		return c, err
	}
	if !strings.EqualFold(name, "changetype") {
		return c, fmt.Errorf("%w: expected changetype, got %q", ErrBadRecord, name)
	}
	body := lines[2:]
	switch strings.ToLower(value) {
	case "add":
		c.Type = dit.ChangeAdd
		c.After, err = buildEntry(rec, d, body)
		return c, err
	case "delete":
		c.Type = dit.ChangeDelete
	case "modify":
		c.Type = dit.ChangeModify
		open := false // the last mod's values are being read
		for _, line := range body {
			if line == "-" {
				open = false
				continue
			}
			n, v, err := splitLine(line)
			if err != nil {
				return c, err
			}
			if open {
				m := &c.Mods[len(c.Mods)-1]
				m.Values = append(m.Values, v)
				continue
			}
			// The attribute must open its value lines: a colon in it would
			// read as the line's own, a newline as its end, a leading '#'
			// or space as a comment or a folded line.
			op := dit.ModOp(slices.Index(modVerbs[:], strings.ToLower(n)))
			if op < dit.ModAdd || v == "" || v[0] == '#' || v[0] == ' ' || strings.ContainsAny(v, ":\n") {
				return c, fmt.Errorf("%w: %q opens no mod", ErrBadRecord, line)
			}
			c.Mods, open = append(c.Mods, dit.Mod{Op: op, Attr: v}), true
		}
	case "modrdn", "moddn":
		c.Type = dit.ChangeModifyDN
		var newRDN, newSuperior string
		for _, line := range body {
			n, v, err := splitLine(line)
			if err != nil {
				return c, err
			}
			switch strings.ToLower(n) {
			case "newrdn":
				newRDN = v
			case "newsuperior":
				newSuperior = v
			}
		}
		if newRDN == "" {
			return c, fmt.Errorf("%w: modrdn without newrdn", ErrBadRecord)
		}
		rdnDN, err := dn.Parse(newRDN)
		if err != nil {
			return c, fmt.Errorf("%w: newrdn: %v", ErrBadRecord, err)
		}
		leaf, ok := rdnDN.Leaf()
		if !ok {
			return c, fmt.Errorf("%w: empty newrdn", ErrBadRecord)
		}
		superior, _ := c.DN.Parent()
		if newSuperior != "" {
			if superior, err = dn.Parse(newSuperior); err != nil {
				return c, fmt.Errorf("%w: newsuperior: %v", ErrBadRecord, err)
			}
		}
		c.NewDN = superior.Child(leaf)
	default:
		return c, fmt.Errorf("%w: unknown changetype %q", ErrBadRecord, value)
	}
	return c, nil
}
