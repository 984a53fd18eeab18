// Package persist makes directory content durable with plain interchange
// formats, and is the one mechanism that does: a master's DIT, a supervisor's
// replicated content and an edge writer's accepted writes each live in a Dir,
// two files in one filesystem directory:
//
//	snapshot.ldif  "# snapshot <generation> <note>", then the content as LDIF
//	journal.ldif   "# journal <generation>", then committed batches
//
// A committed batch is a blank line, an optional "# reset" line (what was
// held before is dropped), LDIF change records and, last, a "# commit <note>"
// line: one write, one fsync. The note is one line of the caller's — a CSN, a
// session cookie with its resume token, an edge write's transition — and
// because it ends the batch it is never newer than the content it stands
// behind: recovery (Batches, the one reader of the journal) replays up to the
// last complete commit line and cuts away what follows. LDIF readers skip
// comment lines: both files stay plain LDIF. Every caller commits a batch
// before acting on it — a master's store before acknowledging a write (Open).
//
// A snapshot embodies the journal it replaces and takes the next generation;
// a journal older than the snapshot beside it (a crash between the snapshot's
// rename and the journal's truncation) is dropped, not replayed twice. A file
// without its header line is damage, and is refused.
package persist

import (
	"bufio"
	"bytes"
	"cmp"
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

const (
	snapshotName = "snapshot.ldif"
	journalName  = "journal.ldif"

	snapshotHeader = "# snapshot "
	journalHeader  = "# journal "
	resetLine      = "# reset"
	commitMarker   = "# commit "

	// journalFloor is the journal size under which no snapshot is worth
	// writing when no retention policy says otherwise (Journal.Due).
	journalFloor = 1 << 20
)

// appendBatch appends one batch to b: the blank line that sets it off, the
// reset line if asked for, the change records, and the commit line carrying
// note, which must be a single line.
func appendBatch(b []byte, reset bool, changes []dit.Change, note string) ([]byte, error) {
	if strings.ContainsAny(note, "\r\n") {
		return b, fmt.Errorf("commit note spans lines: %q", note)
	}
	b = append(b, '\n')
	if reset {
		b = append(append(b, resetLine...), '\n')
	}
	for i, c := range changes {
		if i > 0 {
			b = append(b, '\n')
		}
		var err error
		if b, err = ldif.AppendChange(b, c); err != nil {
			return b, err
		}
	}
	b = append(b, commitMarker...)
	b = append(b, note...)
	return append(b, '\n'), nil
}

// csnNote is the note of a batch of a store's own journal: its last CSN.
func csnNote(csn dit.CSN) string { return strconv.FormatUint(uint64(csn), 10) }

// AppendJournal writes journal changes as one batch with their last CSN as
// its note, without a sync. The library commits through Journal.Commit; this
// stays for the benchmark ladder (bench/loadrig/ladder.go), which times it.
func AppendJournal(w io.Writer, changes []dit.Change) error {
	if len(changes) == 0 {
		return nil
	}
	b, err := appendBatch(make([]byte, 0, 512), false, changes, csnNote(changes[len(changes)-1].CSN))
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// applyRecord replays one journal record onto a store. A record that does not
// apply (an add of a present entry, a delete of an absent one, a rename under
// an absent parent) is an error; sparse content is replayed as live
// synchronization applies it: adds, and modifies of the held image, as
// upserts (Modify would refuse an image without an objectclass value),
// deletes whatever lies below and whether or not the entry is there, renames
// under any parent. A rename re-keys the one entry it names
// (dit.SyncOp.From); a subtree rename journals one per moved entry. At a full
// store it sets the naming attribute when the leaf RDN changed, as
// Store.ModifyDN did; a sparse store's move journals the patch it applied as
// the modify record that follows.
func applyRecord(st *dit.Store, rec ldif.ChangeRecord, sparse bool) error {
	switch rec.Type {
	case dit.ChangeAdd:
		c, _ := rec.AsChange()
		if sparse {
			return st.Upsert(c.After)
		}
		return st.Add(c.After)
	case dit.ChangeDelete:
		if !sparse {
			return st.Delete(rec.DN)
		}
		if err := st.RemoveAny(rec.DN); !errors.Is(err, dit.ErrNoSuchObject) {
			return err
		}
		return nil
	case dit.ChangeModify:
		if !sparse {
			return st.Modify(rec.DN, rec.Mods)
		}
		e, ok := st.Get(rec.DN)
		if !ok {
			return fmt.Errorf("%w: %q", dit.ErrNoSuchObject, rec.DN.String())
		}
		if err := dit.ApplyMods(e, rec.Mods); err != nil {
			return err
		}
		return st.Upsert(e)
	case dit.ChangeModifyDN:
		oldLeaf, _ := rec.DN.Leaf()
		leaf, ok := rec.NewDN.Leaf()
		if !ok {
			return fmt.Errorf("modrdn record lacks a leaf RDN")
		}
		patch := entry.New(rec.NewDN)
		if !sparse {
			if superior, _ := rec.NewDN.Parent(); !superior.IsRoot() {
				if _, held := st.Held(superior.Norm()); !held {
					return fmt.Errorf("%w: new superior %q", dit.ErrNoSuchObject, superior.String())
				}
			}
			if !strings.EqualFold(oldLeaf.Attr, leaf.Attr) || !entry.EqualValues(oldLeaf.Value, leaf.Value) {
				patch.Put(leaf.Attr, leaf.Value)
			}
		}
		return st.ApplyOwned([]dit.SyncOp{{From: rec.DN, Patch: patch}})
	default:
		return fmt.Errorf("unknown change type %v", rec.Type)
	}
}

// Dir is a durable home for one directory: snapshot.ldif plus journal.ldif
// inside a filesystem directory.
type Dir struct {
	Path string
}

// Journal is the append handle on a Dir: the open journal file, its
// generation, and the sizes Due decides by. Not safe for concurrent use.
type Journal struct {
	// Sync makes a Commit durable: (*os.File).Sync, unless a test replaces
	// it to count the calls or fail them.
	Sync func(*os.File) error

	dir      string
	f        *os.File
	gen      uint64 // of the snapshot the journal extends
	size     int64  // of the journal file
	snapSize int64
	snapTime time.Time // zero without a snapshot
	snapNote string
	buf      []byte // the batch being built
}

func (j *Journal) path(name string) string { return filepath.Join(j.dir, name) }

// Journal opens the append handle (creating the path if needed) without
// reading the journal — Open, OpenSparse and Batches do that, dropping a stale
// journal and repairing a torn one, and a restart calls one of them first. The
// snapshot's first line, "# snapshot <generation> <note>", gives both; a
// snapshot that starts otherwise is refused.
func (d Dir) Journal() (*Journal, error) {
	if err := os.MkdirAll(d.Path, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{dir: d.Path, Sync: (*os.File).Sync}
	if f, err := os.Open(j.path(snapshotName)); err == nil {
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return nil, err
		}
		j.snapSize, j.snapTime = fi.Size(), fi.ModTime()
		line, err := bufio.NewReader(f).ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, err
		}
		header, ok := strings.CutPrefix(strings.TrimSuffix(line, "\n"), snapshotHeader)
		gen, note, _ := strings.Cut(header, " ")
		if j.gen, err = strconv.ParseUint(gen, 10, 64); !ok || err != nil {
			return nil, fmt.Errorf("snapshot header %.40q: want %q<generation> <note>", line, snapshotHeader)
		}
		j.snapNote = note
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	f, err := os.OpenFile(j.path(journalName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	j.f, j.size = f, fi.Size()
	return j, nil
}

func (j *Journal) truncate(size int64) error {
	err := j.f.Truncate(size)
	if err == nil {
		j.size = size
	}
	return err
}

// Close releases the handle. Everything committed is durable already.
func (j *Journal) Close() error { return j.f.Close() }

// Batches is the one reader of journal.ldif. It drops a journal older than the
// snapshot beside it, hands visit every committed batch in order — whether it
// resets what was held before, its change records, its note — and cuts a torn
// final batch, a crash mid-append, off the file. It returns the note of the
// snapshot the batches extend ("" without one).
func (j *Journal) Batches(visit func(reset bool, records []ldif.ChangeRecord, note string) error) (snapNote string, err error) {
	raw, err := os.ReadFile(j.path(journalName))
	if err != nil {
		return "", err
	}
	hdr := bytes.IndexByte(raw, '\n') + 1 // 0: no line is complete, all of it is torn tail
	if hdr > 0 {
		gen, ok := bytes.CutPrefix(raw[:hdr-1], []byte(journalHeader))
		g, err := strconv.ParseUint(string(gen), 10, 64)
		if !ok || err != nil || g > j.gen {
			return "", fmt.Errorf("journal header %.40q beside a snapshot of generation %d", raw[:hdr-1], j.gen)
		}
		if g < j.gen {
			// A crash between the snapshot's rename and the journal's
			// truncation: every record here is in the snapshot already.
			if err := j.truncate(0); err != nil {
				return "", err
			}
			raw, hdr = nil, 0
		}
	}
	cut, start, reset := hdr, hdr, false // of the committed bytes, the batch being read, and whether it resets
	for at := hdr; ; {
		nl := bytes.IndexByte(raw[at:], '\n')
		if nl < 0 {
			break // a line without its newline is part of the torn tail
		}
		line, next := raw[at:at+nl], at+nl+1
		if string(line) == resetLine {
			start, reset = next, true // what the batch held before the line is dropped with the rest
		} else if note, ok := bytes.CutPrefix(line, []byte(commitMarker)); ok {
			var records []ldif.ChangeRecord
			if body := bytes.TrimSpace(raw[start:at]); len(body) > 0 {
				if records, err = ldif.ReadChanges(bytes.NewReader(body)); err != nil {
					return "", fmt.Errorf("parse journal: %w", err)
				}
			}
			if err := visit(reset, records, string(note)); err != nil {
				return "", err
			}
			cut, start, reset = next, next, false
		}
		at = next
	}
	if cut < len(raw) {
		if err := j.truncate(int64(cut)); err != nil {
			return "", fmt.Errorf("repair torn journal: %w", err)
		}
	}
	return j.snapNote, nil
}

// Open loads a master's directory state from path (creating the path if
// needed) — the snapshot, the journal's committed batches replayed on top —
// and returns the store durable by construction: each batch its commit
// pipeline flushes is one Commit, noted with its last CSN, before any writer
// in it returns, then a fold into a fresh snapshot if Due(pol) (dit.Store.Durable).
// CSNs continue from the last note. A failed commit or fold fails its batch's
// writes and every later one; so does closing the returned journal.
func (d Dir) Open(suffixes []string, pol JournalRetention, opts ...dit.Option) (st *dit.Store, journal io.Closer, err error) {
	j, err := d.Journal()
	if err != nil {
		return nil, nil, err
	}
	st, note, err := j.load(suffixes, false, opts)
	last, perr := strconv.ParseUint(cmp.Or(note, "0"), 10, 64) // "": nothing committed yet
	if perr != nil && err == nil {
		err = fmt.Errorf("commit note %q is not a CSN", note)
	}
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	st.Durable(dit.CSN(last), func(changes []dit.Change, content func() []*entry.Entry) error {
		note := csnNote(changes[len(changes)-1].CSN)
		if _, err := j.Commit(false, changes, note); err != nil || !j.Due(pol) {
			return err
		}
		return j.Snapshot(content(), note)
	})
	return st, j, nil
}

// OpenSparse loads sparse replica content — a filter replica holds matching
// entries without their ancestors (applyRecord) — with the last commit's
// note. Its owner commits to the directory itself.
func (d Dir) OpenSparse(suffixes []string, opts ...dit.Option) (*dit.Store, string, error) {
	j, err := d.Journal()
	if err != nil {
		return nil, "", err
	}
	defer j.Close()
	return j.load(suffixes, true, opts)
}

// load replays what the directory durably holds into a new store — the
// snapshot's entries (none past a committed reset), then the change records
// committed on top of them — and returns it with the last commit's note (the
// snapshot's own when nothing was committed since).
func (j *Journal) load(suffixes []string, sparse bool, opts []dit.Option) (*dit.Store, string, error) {
	var records []ldif.ChangeRecord
	reset, note := false, j.snapNote
	if _, err := j.Batches(func(r bool, recs []ldif.ChangeRecord, n string) error {
		if r {
			reset, records = true, nil
		}
		records, note = append(records, recs...), n
		return nil
	}); err != nil {
		return nil, "", err
	}
	var entries []*entry.Entry
	if !reset {
		f, err := os.Open(j.path(snapshotName))
		if err == nil {
			entries, err = ldif.Read(bufio.NewReader(f))
			f.Close()
		}
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, "", fmt.Errorf("read snapshot: %w", err)
		}
	}
	st, err := dit.NewStore(suffixes, opts...)
	if err != nil {
		return nil, "", err
	}
	// A sparse snapshot goes in as live synchronization puts it (its images
	// may lack an objectclass, which Load refuses); the journal those puts
	// leave is the caller's to drop, as the replayed records' is.
	sort.SliceStable(entries, func(i, k int) bool { return entries[i].DN().Depth() < entries[k].DN().Depth() })
	if sparse {
		ops := make([]dit.SyncOp, len(entries))
		for i, e := range entries {
			ops[i].Put = e
		}
		err = st.ApplyOwned(ops)
	} else {
		err = st.Load(entries)
	}
	if err != nil {
		return nil, "", fmt.Errorf("load snapshot: %w", err)
	}
	for _, rec := range records {
		if err := applyRecord(st, rec, sparse); err != nil {
			return nil, "", fmt.Errorf("replay %s %q: %w", rec.Type, rec.DN.String(), err)
		}
	}
	return st, note, nil
}

// Commit durably appends one batch — a reset of what was held if asked for,
// the change records, the commit line carrying note — with one write and one
// fsync, and returns the bytes written. Without changes the note alone moves.
// A batch that fails is taken back off the file: committing it again is safe.
func (j *Journal) Commit(reset bool, changes []dit.Change, note string) (int, error) {
	b := j.buf[:0]
	if j.size == 0 {
		b = fmt.Appendf(b, "%s%d\n", journalHeader, j.gen)
	}
	b, err := appendBatch(b, reset, changes, note)
	if j.buf = b; cap(b) > 64<<10 {
		j.buf = nil // a reload chunk's worth is not kept for the patches that follow
	}
	if err != nil {
		return 0, err
	}
	n, err := j.f.Write(b)
	if err == nil {
		err = j.Sync(j.f)
	}
	if err != nil {
		_ = j.truncate(j.size) // leave no batch, or half of one, that the caller was told failed
		return 0, err
	}
	j.size += int64(n)
	return n, nil
}

// Snapshot atomically writes entries, with note in the header, as the
// snapshot of the next generation and empties the journal it embodies.
func (j *Journal) Snapshot(entries []*entry.Entry, note string) error {
	if strings.ContainsAny(note, "\r\n") {
		return fmt.Errorf("snapshot note spans lines: %q", note)
	}
	path := j.path(snapshotName)
	err := WriteAtomic(path, func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "%s%d %s\n", snapshotHeader, j.gen+1, note); err != nil {
			return err
		}
		return ldif.Write(w, entries...)
	})
	if err != nil {
		return err
	}
	// From here a crash finds the journal emptied or of the older generation.
	j.gen++
	if err := j.truncate(0); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	j.snapSize, j.snapTime = fi.Size(), fi.ModTime()
	return nil
}

// WriteAtomic writes a file via temp file + fsync + rename in the target's
// directory, then fsyncs the directory, so readers (and crash recovery) never
// observe a partial file and a completed write survives a crash.
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
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Checkpoint atomically writes a fresh snapshot of the store and empties the
// journal: the snapshot now embodies every applied change. It seeds a first
// run, which Open then continues, and the benchmark ladder
// (bench/loadrig/ladder.go) times it. Never call it beside an Open of the
// directory: that store folds its own journal.
func (d Dir) Checkpoint(st *dit.Store) error {
	j, err := d.Journal()
	if err != nil {
		return err
	}
	defer j.Close()
	return j.Snapshot(st.All(), csnNote(st.LastCSN()))
}

// JournalRetention bounds how much change history accumulates in the
// on-disk journal before it is folded into a fresh snapshot (Journal.Due). A
// zero value disables the corresponding bound; the zero policy folds by
// Due's own rule.
type JournalRetention struct {
	// MaxBytes checkpoints once journal.ldif exceeds this size.
	MaxBytes int64
	// MaxAge checkpoints once the journal has been accumulating for this
	// long — measured as time since the last snapshot checkpoint. A
	// non-empty journal with no snapshot at all counts as over-age.
	MaxAge time.Duration
}

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
// e.g. "bytes=64m,age=1h". The empty string is the zero policy.
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

// Due reports whether the journal should now be folded into a fresh snapshot.
// Under a policy: when it is over the policy's size or age bound. Without one:
// when it has outgrown both the snapshot it extends and journalFloor, so that
// every snapshot byte written answers for a journal byte written before it.
// An empty journal is never due.
func (j *Journal) Due(pol JournalRetention) bool {
	switch {
	case j.size == 0:
		return false
	case pol == JournalRetention{}:
		return j.size > max(j.snapSize, journalFloor)
	default:
		return pol.MaxBytes > 0 && j.size > pol.MaxBytes ||
			pol.MaxAge > 0 && time.Since(j.snapTime) > pol.MaxAge
	}
}
