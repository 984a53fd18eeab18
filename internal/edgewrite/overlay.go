package edgewrite

import (
	"fmt"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// overlayImage is the local effect of one pending op on one DN: the entry
// image the op produces there, or a tombstone (nil entry) where the op
// removes one. Images are computed at accept time against the replica's
// current content, so reads need no store access to project the pending op.
type overlayImage struct {
	d dn.DN
	e *entry.Entry // nil = tombstone
}

// computeImages projects a change into its overlay images. lookup resolves
// the current local image of a DN (the replica's content store); ops whose
// base entry is not held locally yield what can be known without it (a
// delete still tombstones; a modify of an unheld entry yields nothing — the
// containment gate only admits such ops when the replica holds the target,
// so this is a recovery-time corner, not the steady state).
func computeImages(c dit.Change, lookup func(dn.DN) (*entry.Entry, bool)) ([]overlayImage, error) {
	get := func(d dn.DN) (*entry.Entry, bool) {
		if lookup == nil {
			return nil, false
		}
		return lookup(d)
	}
	switch c.Type {
	case dit.ChangeAdd:
		if c.After == nil {
			return nil, fmt.Errorf("add %q lacks the entry", c.DN.String())
		}
		return []overlayImage{{d: c.DN, e: c.After.Clone()}}, nil
	case dit.ChangeDelete:
		return []overlayImage{{d: c.DN}}, nil
	case dit.ChangeModify:
		base, ok := get(c.DN)
		if !ok {
			return nil, nil
		}
		after := base.Clone()
		if err := dit.ApplyMods(after, c.Mods); err != nil {
			return nil, fmt.Errorf("modify %q: %w", base.DN().String(), err)
		}
		return []overlayImage{{d: c.DN, e: after}}, nil
	case dit.ChangeModifyDN:
		images := []overlayImage{{d: c.DN}} // tombstone at the old name
		if base, ok := get(c.DN); ok {
			moved := base.Clone()
			moved.SetDN(c.NewDN)
			if leaf, ok := c.NewDN.Leaf(); ok {
				moved.Put(leaf.Attr, leaf.Value)
			}
			images = append(images, overlayImage{d: c.NewDN, e: moved})
		}
		return images, nil
	default:
		return nil, fmt.Errorf("unknown change type %v", c.Type)
	}
}

// Overlay projects the pending ops onto a query answer, in submit order:
// tombstoned entries disappear, pending images that match the query replace
// or join the synced result, and pending images that moved an entry out of
// the query's reach remove it. Plug it into FilterReplica.SetReadOverlay to
// give the writing client read-your-writes from submit until the op's CSN
// echoes back down the sync stream.
func (w *Writer) Overlay(q query.Query, entries []*entry.Entry) []*entry.Entry {
	w.mu.Lock()
	var images []overlayImage
	for _, p := range w.pending {
		images = append(images, p.images...)
	}
	w.mu.Unlock()
	if len(images) == 0 {
		return entries
	}

	nq := q.Normalize()
	out := append([]*entry.Entry(nil), entries...)
	remove := func(norm string) {
		for i, e := range out {
			if e.DN().Norm() == norm {
				out = append(out[:i], out[i+1:]...)
				return
			}
		}
	}
	for _, img := range images {
		norm := img.d.Norm()
		if img.e == nil {
			remove(norm)
			continue
		}
		if nq.Selects(img.e) {
			sel := img.e.Select(nq.Attrs)
			replaced := false
			for i, e := range out {
				if e.DN().Norm() == norm {
					out[i] = sel
					replaced = true
					break
				}
			}
			if !replaced {
				out = append(out, sel)
			}
		} else {
			// The pending op carries the entry out of this query's reach.
			remove(norm)
		}
	}
	return out
}
