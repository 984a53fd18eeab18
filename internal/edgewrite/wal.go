// Package edgewrite gives replicas a write path: an LDAP update accepted at
// a leaf or mid-tier replica is journaled to a durable per-replica
// write-ahead log, forwarded up the cascade to the master (the single CSN
// sequencer) in a prepare→commit exchange, and held visible-locally-pending
// — an overlay on FilterReplica reads — until its assigned CSN flows back
// down the ReSync stream, at which point the op is retired. The writing
// client gets read-your-writes; everyone else still receives the minimal
// update sets of equation (3).
//
// The log is a persist.Dir, and every transition of an op one committed batch
// of its journal, told apart by the commit note:
//
//	op <id>            the batch's one change record is the accepted write
//	commit <id> <csn>  the master applied it and assigned csn
//	retire <id>        its CSN echoed back, or the master refused it for good
//
// The snapshot holds no entries: its header note, "<replicaID> <nextSeq>",
// names the replica and the first sequence number not minted when the journal
// was last folded; it carries the op and commit batches of the ops live then.
// An id that was handed to Forward is never minted again: a write is forwarded
// only after its op batch is committed, a committed batch survives recovery,
// and recovery starts past every id it finds.
package edgewrite

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"filterdir/internal/dit"
	"filterdir/internal/ldif"
	"filterdir/internal/persist"
)

// walOp is one journaled edge write that has not retired.
type walOp struct {
	ID     string
	Seq    uint64
	Change dit.Change

	// Committed is set once the master has applied the op and assigned a
	// CSN; an uncommitted op is re-forwarded on recovery (the master's
	// dedup-by-id makes the replay exactly-once).
	Committed bool
	CSN       uint64
}

// wal is the durable edge-write log: the journal handle, held open for the
// writer's life, and the ops it holds that have not retired.
type wal struct {
	replicaID string

	mu      sync.Mutex
	j       *persist.Journal
	ops     map[string]*walOp
	nextSeq uint64
}

// openWAL opens (or creates) the edge-write log in dir. replicaID prefixes
// op ids; when empty, the id in the snapshot's note is reused, or a random one
// minted for a fresh directory.
func openWAL(dir, replicaID string) (*wal, error) {
	old := filepath.Join(dir, "ops.wal")
	if _, err := os.Stat(old); err == nil {
		return nil, fmt.Errorf("edgewrite: %s is a log in the previous format: drain it with the build that wrote it", old)
	}
	j, err := persist.Dir{Path: dir}.Journal()
	if err != nil {
		return nil, err
	}
	w := &wal{replicaID: replicaID, j: j, ops: make(map[string]*walOp)}
	note, err := j.Batches(w.fold)
	if err == nil {
		err = w.adopt(note)
	}
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("edgewrite: recover %s: %w", dir, err)
	}
	return w, nil
}

// fold replays one committed batch onto the op table.
func (w *wal) fold(_ bool, records []ldif.ChangeRecord, note string) error {
	verb, rest, _ := strings.Cut(note, " ")
	switch verb {
	case "op":
		seq, err := strconv.ParseUint(rest[strings.LastIndexByte(rest, '.')+1:], 10, 64)
		if err != nil || len(records) != 1 {
			return fmt.Errorf("batch %q with %d change records: want an id ending in a sequence number and one record", note, len(records))
		}
		c, err := records[0].AsChange()
		if err != nil {
			return err
		}
		w.ops[rest] = &walOp{ID: rest, Seq: seq, Change: c}
		w.nextSeq = max(w.nextSeq, seq+1)
	case "commit":
		sp := strings.LastIndexByte(rest, ' ')
		csn, err := strconv.ParseUint(rest[sp+1:], 10, 64)
		if err != nil || sp < 0 {
			return fmt.Errorf("batch %q: want an id and a CSN", note)
		}
		if op := w.ops[rest[:sp]]; op != nil {
			op.Committed, op.CSN = true, csn
		}
	case "retire":
		delete(w.ops, rest)
	default:
		return fmt.Errorf("batch %q is no edge-write transition", note)
	}
	return nil
}

// adopt takes the sequence floor and, unless the caller named one, the replica
// id from the snapshot's note. A directory without a snapshot is fresh: its
// first one makes the replica id durable before the first op.
func (w *wal) adopt(note string) error {
	if note == "" {
		if w.replicaID == "" {
			var buf [6]byte
			if _, err := rand.Read(buf[:]); err != nil {
				return err
			}
			w.replicaID = "r" + hex.EncodeToString(buf[:])
		}
		return w.snapshot()
	}
	sp := strings.LastIndexByte(note, ' ')
	seq, err := strconv.ParseUint(note[sp+1:], 10, 64)
	if err != nil || sp < 0 {
		return fmt.Errorf("snapshot note %q: want a replica id and a sequence number", note)
	}
	w.nextSeq = max(w.nextSeq, seq)
	if w.replicaID == "" {
		w.replicaID = note[:sp]
	}
	return nil
}

// snapshot folds the journal into a snapshot carrying each live op as the
// batches that made it: its op and, once committed, its commit.
func (w *wal) snapshot() error {
	var carried []persist.Batch
	for _, op := range w.live() {
		carried = append(carried, persist.Batch{Changes: []dit.Change{op.Change}, Note: "op " + op.ID})
		if op.Committed {
			carried = append(carried, persist.Batch{Note: "commit " + op.ID + " " + strconv.FormatUint(op.CSN, 10)})
		}
	}
	return w.j.Snapshot(nil, w.replicaID+" "+strconv.FormatUint(w.nextSeq, 10), carried...)
}

// recovered returns the journaled ops in append order — the pending set a
// restarted replica re-arms (uncommitted ops are re-forwarded; committed
// ones await their CSN echo).
func (w *wal) recovered() []*walOp {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.live()
}

// live returns the ops not yet retired, in append order; w.mu is held.
func (w *wal) live() []*walOp {
	out := make([]*walOp, 0, len(w.ops))
	for _, op := range w.ops {
		out = append(out, op)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// append journals a new op durably and returns it: a crash after return
// cannot lose the accepted write.
func (w *wal) append(c dit.Change) (*walOp, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	op := &walOp{ID: w.replicaID + "." + strconv.FormatUint(w.nextSeq, 10), Seq: w.nextSeq, Change: c}
	// The number is spent even if the commit fails: should taking the batch
	// back off the file fail too, no later op shares its id.
	w.nextSeq++
	if _, err := w.j.Commit(false, []dit.Change{c}, "op "+op.ID); err != nil {
		return nil, err
	}
	w.ops[op.ID] = op
	return op, nil
}

// markCommitted durably records the master-assigned CSN for an op.
func (w *wal) markCommitted(id string, csn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	op, ok := w.ops[id]
	if !ok {
		return fmt.Errorf("edge-write op %q not in WAL", id)
	}
	if _, err := w.j.Commit(false, nil, "commit "+id+" "+strconv.FormatUint(csn, 10)); err != nil {
		return err
	}
	op.Committed, op.CSN = true, csn
	return nil
}

// markRetired durably records that an op's CSN echoed back down the sync
// stream, or that the master refused it for good. Once the journal is due for
// it, it is folded, carrying the ops still live.
func (w *wal) markRetired(id string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.ops[id]; !ok {
		return fmt.Errorf("edge-write op %q not in WAL", id)
	}
	if _, err := w.j.Commit(false, nil, "retire "+id); err != nil {
		return err
	}
	delete(w.ops, id)
	if w.j.Due() {
		return w.snapshot()
	}
	return nil
}

// close releases the journal handle. Everything journaled is durable already.
func (w *wal) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	_ = w.j.Close() // nothing is lost with it: every Commit was fsynced
}
