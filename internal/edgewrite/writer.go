package edgewrite

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/metrics"
)

// Forwarder carries an accepted edge write up the cascade to the CSN
// sequencer. Forward blocks for one prepare→commit exchange and returns the
// master-assigned CSN; duplicate reports that the master had already
// applied this op id (a replayed forward after a crash or lost response).
// Implementations retry transient transport failures internally; a returned
// error leaves the op journaled and the background replay loop re-forwards
// it, so accepted ops reach the master at-least-once and the master's dedup
// makes them exactly-once.
type Forwarder interface {
	Forward(c dit.Change, opID string) (csn uint64, duplicate bool, err error)
}

// ForwardFunc adapts a function to the Forwarder interface.
type ForwardFunc func(c dit.Change, opID string) (uint64, bool, error)

// Forward implements Forwarder.
func (f ForwardFunc) Forward(c dit.Change, opID string) (uint64, bool, error) { return f(c, opID) }

var (
	// ErrRejected marks a write refused by the containment gate: this
	// replica does not track the target, so the client should follow the
	// referral to the master.
	ErrRejected = errors.New("edge write not accepted at this replica")
	// ErrPending marks a write that is durably journaled here but whose
	// commit at the master is not yet confirmed; the replay loop keeps
	// forwarding it.
	ErrPending = errors.New("edge write journaled, upstream commit pending")
)

// PermanentError marks a forward failure that retrying cannot fix: the
// sequencer evaluated the op and refused it (e.g. the entry already exists
// at the master). The writer aborts the op — retired in the WAL, dropped
// from the overlay — and surfaces the wrapped cause to the submitter;
// without this classification a doomed op would replay forever.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return e.Err.Error() }

// Unwrap exposes the sequencer's verdict to errors.Is/As.
func (e *PermanentError) Unwrap() error { return e.Err }

// Config configures an edge-write Writer.
type Config struct {
	// Dir is the durable home of the per-replica WAL.
	Dir string
	// ReplicaID prefixes op ids (persisted in the WAL's snapshot note; a
	// random id is minted for a fresh directory when empty).
	ReplicaID string
	// Forward is the upstream commit path (required).
	Forward Forwarder
	// Admit gates ops before they are journaled; nil accepts everything.
	// Rejections surface as ErrRejected.
	Admit func(dit.Change) error
	// Lookup resolves a DN in the replica's content store, supplying base
	// images for modify/rename overlays.
	Lookup func(dn.DN) (*entry.Entry, bool)
	// Counters receives lifecycle metrics (optional).
	Counters *metrics.WriteCounters
	// Logf receives diagnostics (optional).
	Logf func(format string, args ...any)
}

// pendingOp is one accepted write between journal append and retirement.
type pendingOp struct {
	id     string
	change dit.Change
	images []overlayImage

	committed bool
	csn       uint64
	inFlight  bool // a forward for this op is on the wire right now
}

// Writer accepts edge writes at a replica: admit → WAL append (fsync) →
// overlay → forward upstream → commit → retire when the CSN echoes back.
type Writer struct {
	cfg Config
	wal *wal
	c   *metrics.WriteCounters

	mu        sync.Mutex
	pending   []*pendingOp
	watermark uint64 // SetWatermark's bound: committed ops at or below it retire
	started   bool
	stop      chan struct{}
	done      chan struct{}
}

// Open opens (or creates) the WAL in cfg.Dir and re-arms the pending set: a
// journaled op without a commit record is queued for re-forwarding, a
// committed-but-unretired op goes back on the read overlay to await its CSN
// echo. Call Start to run the background replay loop.
func Open(cfg Config) (*Writer, error) {
	if cfg.Forward == nil {
		return nil, fmt.Errorf("edgewrite: Config.Forward is required")
	}
	wl, err := openWAL(cfg.Dir, cfg.ReplicaID)
	if err != nil {
		return nil, err
	}
	c := cfg.Counters
	if c == nil {
		c = &metrics.WriteCounters{}
	}
	w := &Writer{cfg: cfg, wal: wl, c: c}
	for _, op := range wl.recovered() {
		images, err := computeImages(op.Change, cfg.Lookup)
		if err != nil {
			// The journaled op no longer projects onto local content (e.g.
			// the base entry vanished before the crash was recovered); keep
			// forwarding it — the master is the authority — just without a
			// local overlay.
			images = nil
		}
		w.pending = append(w.pending, &pendingOp{
			id: op.ID, change: op.Change, images: images,
			committed: op.Committed, csn: op.CSN,
		})
	}
	w.notePending()
	return w, nil
}

// notePending publishes the pending-overlay depth and its high-water mark.
func (w *Writer) notePending() {
	n := int64(len(w.pending))
	w.c.Pending.Store(n)
	w.c.PendingHighWater.Observe(n)
}

// ReplicaID returns the id prefixing this replica's op ids.
func (w *Writer) ReplicaID() string { return w.wal.replicaID }

// Pending returns the number of ops on the overlay (accepted, not retired).
func (w *Writer) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// PendingUncommitted returns the number of accepted ops still awaiting
// their upstream commit.
func (w *Writer) PendingUncommitted() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, p := range w.pending {
		if !p.committed {
			n++
		}
	}
	return n
}

// Submit accepts one edge write: the op is admitted, durably journaled,
// projected onto the read overlay, and forwarded upstream. On success the
// master-assigned CSN is returned and the op stays pending-visible until
// that CSN echoes back down the sync stream. A forward failure returns
// ErrPending — the write is durable here and will be replayed — while an
// admission failure returns ErrRejected and journals nothing.
func (w *Writer) Submit(c dit.Change) (uint64, error) {
	if w.cfg.Admit != nil {
		if err := w.cfg.Admit(c); err != nil {
			w.c.Rejected.Add(1)
			return 0, fmt.Errorf("%w: %v", ErrRejected, err)
		}
	}
	images, err := computeImages(c, w.cfg.Lookup)
	if err != nil {
		w.c.Rejected.Add(1)
		return 0, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	op, err := w.wal.append(c)
	if err != nil {
		return 0, err
	}
	w.c.Accepted.Add(1)
	p := &pendingOp{id: op.ID, change: c, images: images, inFlight: true}
	w.mu.Lock()
	w.pending = append(w.pending, p)
	w.notePending()
	w.mu.Unlock()

	csn, err := w.forward(p)
	if err != nil {
		var pe *PermanentError
		if errors.As(err, &pe) {
			return 0, pe.Err
		}
		return 0, fmt.Errorf("%w: %v", ErrPending, err)
	}
	return csn, nil
}

// forward runs one upstream exchange for p and records the commit.
func (w *Writer) forward(p *pendingOp) (uint64, error) {
	w.c.Forwarded.Add(1)
	csn, _, err := w.cfg.Forward.Forward(p.change, p.id)
	w.mu.Lock()
	p.inFlight = false
	w.mu.Unlock()
	if err != nil {
		var pe *PermanentError
		if errors.As(err, &pe) {
			w.abort(p)
		}
		return 0, err
	}
	if err := w.wal.markCommitted(p.id, csn); err != nil {
		return 0, err
	}
	w.mu.Lock()
	p.committed = true
	p.csn = csn
	w.mu.Unlock()
	w.c.Committed.Add(1)
	w.retireEligible()
	return csn, nil
}

// abort drops a permanently refused op: off the overlay, retired in the
// WAL (the op id is burned either way — the sequencer saw it).
func (w *Writer) abort(p *pendingOp) {
	w.mu.Lock()
	keep := w.pending[:0]
	for _, q := range w.pending {
		if q != p {
			keep = append(keep, q)
		}
	}
	w.pending = keep
	w.notePending()
	w.mu.Unlock()
	if err := w.wal.markRetired(p.id); err != nil && w.cfg.Logf != nil {
		w.cfg.Logf("edgewrite: abort %s: %v", p.id, err)
	}
	w.c.Rejected.Add(1)
}

// SetWatermark records the master CSN the replica's content has synced to
// and retires the committed ops at or below it. The replica owns the bound:
// a query answered via any of its stored filters reflects only that filter's
// sync position, so the owner passes the minimum over its live filters, and 0
// while any of them has not reported (nothing retires). It may regress (a
// link falling back to a lagging upstream re-reports from the new session).
func (w *Writer) SetWatermark(csn uint64) {
	w.mu.Lock()
	w.watermark = csn
	w.mu.Unlock()
	w.retireEligible()
}

// retireEligible drops committed ops whose CSN the watermark has reached.
func (w *Writer) retireEligible() {
	w.mu.Lock()
	wm := w.watermark
	var retire []*pendingOp
	keep := w.pending[:0]
	for _, p := range w.pending {
		if p.committed && p.csn <= wm {
			retire = append(retire, p)
		} else {
			keep = append(keep, p)
		}
	}
	w.pending = keep
	w.notePending()
	w.mu.Unlock()
	for _, p := range retire {
		if err := w.wal.markRetired(p.id); err != nil && w.cfg.Logf != nil {
			w.cfg.Logf("edgewrite: retire %s: %v", p.id, err)
		}
		w.c.Retired.Add(1)
	}
}

// Replay re-forwards every journaled op whose upstream commit is
// unconfirmed — crash recovery and forward-failure retry share this path.
// The master dedups by op id, so replaying an op whose commit response was
// lost is answered from the dedup table, not applied twice.
func (w *Writer) Replay() {
	w.mu.Lock()
	var todo []*pendingOp
	for _, p := range w.pending {
		if !p.committed && !p.inFlight {
			p.inFlight = true
			todo = append(todo, p)
		}
	}
	w.mu.Unlock()
	for _, p := range todo {
		w.c.WALReplays.Add(1)
		if _, err := w.forward(p); err != nil && w.cfg.Logf != nil {
			w.cfg.Logf("edgewrite: replay %s: %v", p.id, err)
		}
	}
}

// Start runs the background replay loop until Close.
func (w *Writer) Start() {
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		return
	}
	w.started = true
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	w.mu.Unlock()
	go w.replayLoop()
}

// replayInterval is the background re-forward cadence for journaled but
// uncommitted ops.
const replayInterval = 2 * time.Second

func (w *Writer) replayLoop() {
	defer close(w.done)
	t := time.NewTicker(replayInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.Replay()
		}
	}
}

// Close stops the replay loop and releases the WAL's journal handle. Every
// append was fsynced, and a reopened Writer resumes from it.
func (w *Writer) Close() {
	w.mu.Lock()
	started := w.started
	w.started = false
	stop, done := w.stop, w.done
	w.mu.Unlock()
	if started {
		close(stop)
		<-done
	}
	w.wal.close()
}
