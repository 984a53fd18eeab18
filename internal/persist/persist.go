// Package persist makes a DIT durable with plain interchange formats: a
// full LDIF snapshot plus an appendable journal of LDIF change records.
// Recovery loads the snapshot and replays the journal, so a server restart
// (or a cold replica) reconstructs the exact directory state. Checkpoints
// are written atomically (temp file + rename).
package persist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/entry"
	"filterdir/internal/ldif"
)

// Save writes a full LDIF snapshot of the store, parents before children so
// Load can re-add entries in order.
func Save(w io.Writer, st *dit.Store) error {
	entries := st.All()
	sort.Slice(entries, func(i, j int) bool {
		if d := entries[i].DN().Depth() - entries[j].DN().Depth(); d != 0 {
			return d < 0
		}
		return entries[i].DN().Norm() < entries[j].DN().Norm()
	})
	return ldif.Write(w, entries...)
}

// Load builds a store from an LDIF snapshot.
func Load(r io.Reader, suffixes []string, opts ...dit.Option) (*dit.Store, error) {
	st, err := dit.NewStore(suffixes, opts...)
	if err != nil {
		return nil, err
	}
	entries, err := ldif.Read(r)
	if err != nil {
		return nil, fmt.Errorf("read snapshot: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].DN().Depth() < entries[j].DN().Depth()
	})
	if err := st.Load(entries); err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	return st, nil
}

// commitMarker prefixes the comment line terminating each durable batch.
// LDIF readers skip comment lines, so marked journals stay plain LDIF;
// recovery uses the last marker as the committed high-water mark.
const commitMarker = "# commit "

// AppendJournal writes journal changes as LDIF change records followed by a
// commit marker: one call is one durable batch, and crash recovery replays
// a batch all-or-none (records after the last marker are discarded).
func AppendJournal(w io.Writer, changes []dit.Change) error {
	if len(changes) == 0 {
		return nil
	}
	if err := ldif.WriteChanges(w, changes...); err != nil {
		return err
	}
	// Terminate the batch: marker, then a blank separator so the stream
	// stays parseable.
	_, err := fmt.Fprintf(w, "%s%d\n\n", commitMarker, changes[len(changes)-1].CSN)
	return err
}

// applyRecords replays journal records onto a store; a record that does not
// apply (an add of a present entry, a delete of an absent one — the journal
// does not continue the snapshot) is an error.
func applyRecords(st *dit.Store, records []ldif.ChangeRecord, sparse bool) error {
	for _, rec := range records {
		if err := applyRecord(st, rec, sparse); err != nil {
			return fmt.Errorf("replay %s %q: %w", rec.Type, rec.DN.String(), err)
		}
	}
	return nil
}

func applyRecord(st *dit.Store, rec ldif.ChangeRecord, sparse bool) error {
	switch rec.Type {
	case dit.ChangeAdd:
		e := entry.New(rec.DN)
		for name, vals := range rec.Attrs {
			e.Put(name, vals...)
		}
		if sparse {
			return st.Upsert(e)
		}
		return st.Add(e)
	case dit.ChangeDelete:
		if sparse {
			return st.RemoveAny(rec.DN)
		}
		return st.Delete(rec.DN)
	case dit.ChangeModify:
		return st.Modify(rec.DN, rec.Mods)
	case dit.ChangeModifyDN:
		leaf, ok := rec.NewDN.Leaf()
		if !ok {
			return fmt.Errorf("modrdn record lacks a leaf RDN")
		}
		superior, _ := rec.NewDN.Parent()
		return st.ModifyDN(rec.DN, leaf, superior)
	default:
		return fmt.Errorf("unknown change type %v", rec.Type)
	}
}

// Dir is a durable home for one directory: snapshot.ldif plus journal.ldif
// inside a filesystem directory.
type Dir struct {
	Path string
}

const (
	snapshotName = "snapshot.ldif"
	journalName  = "journal.ldif"
)

// Open loads the directory state from path (creating the path if needed):
// the snapshot is loaded if present and the journal replayed on top. A
// torn final journal batch — a crash mid-append — is recovered from: the
// state up to the last committed batch is reconstructed and the journal
// file repaired so later appends stay parseable. The returned CSN
// watermark tells the caller where its in-memory journal starts relative
// to durable state (always 0 for a fresh store, since loading does not
// journal).
func (d Dir) Open(suffixes []string, opts ...dit.Option) (*dit.Store, error) {
	return d.open(suffixes, false, opts)
}

// OpenSparse is Open for sparse replica content: stores that do not
// maintain tree completeness (a filter replica holds matching entries
// without their ancestors). Journal adds are applied as upserts and
// deletes ignore children — exactly how live synchronization applies
// updates (dit.Store.Upsert / RemoveAny) — so an add whose parent lies
// outside the selection replays cleanly.
func (d Dir) OpenSparse(suffixes []string, opts ...dit.Option) (*dit.Store, error) {
	return d.open(suffixes, true, opts)
}

func (d Dir) open(suffixes []string, sparse bool, opts []dit.Option) (*dit.Store, error) {
	if err := os.MkdirAll(d.Path, 0o755); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(d.Path, snapshotName)
	var st *dit.Store
	if f, err := os.Open(snapPath); err == nil {
		defer f.Close()
		st, err = Load(bufio.NewReader(f), suffixes, opts...)
		if err != nil {
			return nil, err
		}
	} else if errors.Is(err, os.ErrNotExist) {
		st, err = dit.NewStore(suffixes, opts...)
		if err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}

	jPath := filepath.Join(d.Path, journalName)
	if raw, err := os.ReadFile(jPath); err == nil {
		records, torn, rerr := readCommitted(raw)
		if rerr != nil {
			return nil, fmt.Errorf("parse journal: %w", rerr)
		}
		if err := applyRecords(st, records, sparse); err != nil {
			return nil, err
		}
		if torn {
			if err := rewriteJournal(jPath, records); err != nil {
				return nil, fmt.Errorf("repair torn journal: %w", err)
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return st, nil
}

// readCommitted parses journal bytes up to the batch-commit high-water
// mark: everything after the last commit marker — an interrupted batch
// append — is discarded, so a batch replays all-or-none. Every writer ends a
// batch with its marker (AppendJournal), so a journal holding no marker
// holds no committed batch: nothing is replayed, and any non-blank bytes are
// a torn first batch for the caller to repair away.
func readCommitted(raw []byte) ([]ldif.ChangeRecord, bool, error) {
	prefix, torn, found := committedPrefix(raw)
	if !found {
		return nil, len(bytes.TrimSpace(raw)) > 0, nil
	}
	recs, err := ldif.ReadChanges(bytes.NewReader(prefix))
	if err != nil {
		// The committed prefix should always parse (it was fsynced before
		// its marker); recover what residual damage leaves readable.
		return ldif.ReadChangesTail(bytes.NewReader(prefix))
	}
	return recs, torn, nil
}

// committedPrefix splits raw journal bytes at the end of the last commit
// marker line. torn reports whether non-blank bytes (an unfinished batch)
// follow the marker; found is false when the journal holds no marker.
func committedPrefix(raw []byte) (prefix []byte, torn, found bool) {
	marker := []byte(commitMarker)
	i := bytes.LastIndex(raw, append([]byte("\n"), marker...))
	switch {
	case i >= 0:
		i++ // first byte of the marker line
	case bytes.HasPrefix(raw, marker):
		i = 0
	default:
		return nil, false, false
	}
	end := bytes.IndexByte(raw[i:], '\n')
	if end < 0 {
		// Marker line itself torn mid-write: the previous marker (if any)
		// is the real high-water mark.
		return committedPrefix(raw[:i])
	}
	cut := i + end + 1
	tail := bytes.TrimSpace(raw[cut:])
	return raw[:cut], len(tail) > 0, true
}

// rewriteJournal atomically replaces the journal with only its complete
// records, dropping a torn tail so subsequent appends cannot merge into
// the partial record.
func rewriteJournal(path string, records []ldif.ChangeRecord) error {
	changes := make([]dit.Change, 0, len(records))
	for _, rec := range records {
		c, err := rec.AsChange()
		if err != nil {
			return err
		}
		changes = append(changes, c)
	}
	return WriteAtomic(path, func(w io.Writer) error {
		return AppendJournal(w, changes)
	})
}

// WriteAtomic writes a file via temp file + fsync + rename in the target's
// directory, so readers (and crash recovery) never observe a partial file.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Checkpoint atomically writes a fresh snapshot of the store and truncates
// the journal: the snapshot now embodies every applied change.
func (d Dir) Checkpoint(st *dit.Store) error {
	err := WriteAtomic(filepath.Join(d.Path, snapshotName), func(w io.Writer) error {
		return Save(w, st)
	})
	if err != nil {
		return err
	}
	// The journal's changes are folded into the snapshot.
	return os.WriteFile(filepath.Join(d.Path, journalName), nil, 0o644)
}

// JournalRetention bounds how much change history accumulates in the
// on-disk journal before it is folded into a fresh snapshot. A zero value
// disables the corresponding bound; the zero policy never forces a
// checkpoint (journals then grow until Checkpoint is called explicitly,
// the pre-policy behaviour).
type JournalRetention struct {
	// MaxBytes checkpoints once journal.ldif exceeds this size.
	MaxBytes int64
	// MaxAge checkpoints once the journal has been accumulating for this
	// long — measured as time since the last snapshot checkpoint. A
	// non-empty journal with no snapshot at all counts as over-age.
	MaxAge time.Duration
}

// Enabled reports whether any bound is armed.
func (p JournalRetention) Enabled() bool { return p.MaxBytes > 0 || p.MaxAge > 0 }

// String renders the policy in the flag syntax ParseJournalRetention reads.
func (p JournalRetention) String() string {
	switch {
	case p.MaxBytes > 0 && p.MaxAge > 0:
		return fmt.Sprintf("bytes=%d,age=%s", p.MaxBytes, p.MaxAge)
	case p.MaxBytes > 0:
		return fmt.Sprintf("bytes=%d", p.MaxBytes)
	case p.MaxAge > 0:
		return fmt.Sprintf("age=%s", p.MaxAge)
	default:
		return ""
	}
}

// ParseJournalRetention reads the -journal-retention flag syntax: a
// comma-separated list of "bytes=<n>[k|m|g]" and "age=<duration>" terms,
// e.g. "bytes=64m,age=1h". The empty string is the disabled policy.
func ParseJournalRetention(s string) (JournalRetention, error) {
	var p JournalRetention
	if s == "" {
		return p, nil
	}
	for _, term := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return p, fmt.Errorf("journal retention: term %q is not key=value", term)
		}
		switch key {
		case "bytes":
			n, err := parseByteSize(val)
			if err != nil {
				return p, fmt.Errorf("journal retention: %w", err)
			}
			p.MaxBytes = n
		case "age":
			d, err := time.ParseDuration(val)
			if err != nil {
				return p, fmt.Errorf("journal retention: age %q: %w", val, err)
			}
			if d < 0 {
				return p, fmt.Errorf("journal retention: age %q is negative", val)
			}
			p.MaxAge = d
		default:
			return p, fmt.Errorf("journal retention: unknown term %q (want bytes= or age=)", key)
		}
	}
	return p, nil
}

// parseByteSize reads a non-negative integer with an optional k/m/g
// (binary) suffix.
func parseByteSize(s string) (int64, error) {
	mult := int64(1)
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			mult, s = 1<<10, s[:n-1]
		case 'm', 'M':
			mult, s = 1<<20, s[:n-1]
		case 'g', 'G':
			mult, s = 1<<30, s[:n-1]
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}

// OverRetention reports whether the on-disk journal currently exceeds the
// policy, meaning the next checkpoint opportunity should fold it into a
// fresh snapshot.
func (d Dir) OverRetention(pol JournalRetention) (bool, error) {
	return d.retentionExceeded(pol, time.Now())
}

// retentionExceeded reports whether the on-disk journal is over the
// policy's bounds at instant now. An absent or empty journal is never
// over; with an age bound armed, a journal that predates any snapshot is.
func (d Dir) retentionExceeded(pol JournalRetention, now time.Time) (bool, error) {
	ji, err := os.Stat(filepath.Join(d.Path, journalName))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if ji.Size() == 0 {
		return false, nil
	}
	if pol.MaxBytes > 0 && ji.Size() > pol.MaxBytes {
		return true, nil
	}
	if pol.MaxAge > 0 {
		si, err := os.Stat(filepath.Join(d.Path, snapshotName))
		if errors.Is(err, os.ErrNotExist) {
			return true, nil // never checkpointed: the journal is all we have
		}
		if err != nil {
			return false, err
		}
		if now.Sub(si.ModTime()) > pol.MaxAge {
			return true, nil
		}
	}
	return false, nil
}

// Maintain appends changes since the given CSN like AppendChanges, then
// enforces the retention policy: a journal over its size or age bound is
// folded into a fresh snapshot (Checkpoint), emptying it. The returned
// watermark advances past the appended changes either way — retention
// only moves history from the journal file into the snapshot, it never
// discards durable state.
func (d Dir) Maintain(st *dit.Store, after dit.CSN, pol JournalRetention) (dit.CSN, error) {
	w, err := d.AppendChanges(st, after)
	if err != nil {
		return after, err
	}
	if !pol.Enabled() {
		return w, nil
	}
	over, err := d.retentionExceeded(pol, time.Now())
	if err != nil || !over {
		return w, err
	}
	if err := d.Checkpoint(st); err != nil {
		return w, fmt.Errorf("retention checkpoint: %w", err)
	}
	return w, nil
}

// AppendChanges durably appends journal changes since the given CSN,
// returning the new watermark. Call it periodically (or after each batch of
// updates) with the last returned watermark.
func (d Dir) AppendChanges(st *dit.Store, after dit.CSN) (dit.CSN, error) {
	changes, ok := st.ChangesSince(after)
	if !ok {
		return after, fmt.Errorf("journal history since CSN %d no longer available; checkpoint instead", after)
	}
	if len(changes) == 0 {
		return after, nil
	}
	f, err := os.OpenFile(filepath.Join(d.Path, journalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return after, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := AppendJournal(bw, changes); err != nil {
		return after, err
	}
	if err := bw.Flush(); err != nil {
		return after, err
	}
	if err := f.Sync(); err != nil {
		return after, err
	}
	return changes[len(changes)-1].CSN, nil
}
