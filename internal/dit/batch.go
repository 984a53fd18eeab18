package dit

import "time"

// defaultBatchLimit bounds how many pending updates one commit leader
// drains per flush; the rest wait for the next leader, keeping worst-case
// sequencer-lock hold times bounded.
const defaultBatchLimit = 128

// writeOp is one update waiting in the commit pipeline: a closure applied
// by the batch leader with the sequencer lock held, plus its outcome.
type writeOp struct {
	apply func() (CSN, error)
	csn   CSN
	err   error
	done  chan struct{}
}

// submit runs an update through the group-commit pipeline. The op is
// enqueued; whichever submitter wins the sequencer lock becomes the batch
// leader and applies every pending op (up to the batch limit) serially, in
// arrival order, each committing with its own consecutive CSN — so batching
// changes lock traffic and journal-signal frequency, never the per-update
// semantics. The optional batch window is slept before contending so
// concurrent writers accumulate into one flush; it is never slept while
// holding the sequencer lock.
func (s *Store) submit(apply func() (CSN, error)) (CSN, error) {
	op := &writeOp{apply: apply, done: make(chan struct{})}
	s.pendMu.Lock()
	s.pending = append(s.pending, op)
	s.pendMu.Unlock()

	if s.batchWindow > 0 {
		time.Sleep(s.batchWindow)
	}
	for {
		select {
		case <-op.done:
			return op.csn, op.err
		default:
		}
		s.seqMu.Lock()
		select {
		case <-op.done:
			// Another leader flushed us while we waited for the lock.
			s.seqMu.Unlock()
			return op.csn, op.err
		default:
		}
		s.flushLocked()
		s.seqMu.Unlock()
		// The queue drains FIFO, so each flush makes progress toward our
		// op even when it was beyond this batch's limit.
	}
}

// flushLocked drains up to batchLimit pending ops in arrival order and
// applies them with seqMu held: each op validates against, and mutates,
// the current shard states and commits its own journal record. The durable
// commit, trimming and the change signal happen once per batch. Callers hold
// seqMu.
func (s *Store) flushLocked() {
	s.pendMu.Lock()
	n := len(s.pending)
	if n == 0 {
		s.pendMu.Unlock()
		return
	}
	if n > s.batchLimit {
		n = s.batchLimit
	}
	batch := make([]*writeOp, n)
	copy(batch, s.pending[:n])
	rest := copy(s.pending, s.pending[n:])
	for i := rest; i < len(s.pending); i++ {
		s.pending[i] = nil
	}
	s.pending = s.pending[:rest]
	s.pendMu.Unlock()

	// An op can commit records and still fail (a content batch stopped by
	// a later action), so "something committed" is read off the sequence.
	first := s.nextCSN
	if s.failed == nil {
		for _, op := range batch {
			op.csn, op.err = op.apply()
		}
	}
	if s.nextCSN != first {
		s.settleLocked()
		if s.durable != nil {
			// The batch's records are the journal's tail: trimming comes after.
			s.failed = s.durable(s.journal[len(s.journal)-int(s.nextCSN-first):], s.contentLocked)
		}
		if s.failed == nil {
			s.trimLocked()
			close(s.signal)
			s.signal = make(chan struct{})
		}
	}
	s.counters.Batch.Observe(int64(n))
	s.counters.MaxBatch.Observe(int64(n))
	for _, op := range batch {
		if s.failed != nil {
			op.csn, op.err = 0, s.failed
		}
		close(op.done)
	}
}

// settleLocked merges the index value lists this batch has let grow past
// their threshold (attrIndex.mergeIfDue): a batch of any size costs an index
// one merge. A state marked due was written in this batch, so it is not
// frozen and owns the indexes that are due. Callers hold seqMu.
func (s *Store) settleLocked() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if st := sh.state; st.due {
			for _, ix := range st.indexes {
				ix.mergeIfDue()
			}
			st.due = false
		}
		sh.mu.Unlock()
	}
}

// trimLocked enforces the journal bound once per batch, clamped by the
// lowest outstanding hold: records needed to answer ChangesSince(minHold)
// are kept regardless of the limit, so an active resumable transfer's
// pinned snapshot stays incrementally catch-up-able. Callers hold seqMu.
func (s *Store) trimLocked() {
	drop := s.droppableLocked()
	if drop <= 0 {
		return
	}
	// Dropped in place, in O(drop): the slots are cleared so that their
	// entries can be collected, and the next append that outgrows the array
	// moves only the kept records to a new one. Copying the kept records
	// here instead would cost O(limit) on every batch.
	clear(s.journal[:drop])
	s.journal = s.journal[drop:]
	s.journalTrimmed += uint64(drop)
}

// droppableLocked returns how many of the oldest records the journal bound
// drops, clamped by the lowest outstanding hold. Callers hold seqMu.
func (s *Store) droppableLocked() int {
	if s.journalLimit <= 0 || len(s.journal) <= s.journalLimit {
		return 0
	}
	drop := len(s.journal) - s.journalLimit
	if floor, held := s.minHoldLocked(); held {
		// Journal CSNs are consecutive, so the count of droppable records
		// (CSN <= floor) is a subtraction, not a scan.
		maxDrop := 0
		if first := s.journal[0].CSN; floor+1 > first {
			maxDrop = min(int(floor+1-first), len(s.journal))
		}
		drop = min(drop, maxDrop)
	}
	return drop
}

// inBatchTrim reports whether the journal is bounded and trimmed inside a
// batch too: only when no durable hook must see the batch's records first.
func (s *Store) inBatchTrim() bool { return s.journalLimit > 0 && s.durable == nil }

// compactLocked trims the journal inside a batch that has filled it to twice
// its limit: the kept records move to the front of the same array, so a
// batch of any size holds at most twice the limit in records, and the copy
// — O(limit), once per limit records — costs each record O(1). Callers hold
// seqMu.
func (s *Store) compactLocked() {
	drop := s.droppableLocked()
	if drop <= 0 {
		return
	}
	n := copy(s.journal, s.journal[drop:])
	clear(s.journal[n:])
	s.journal = s.journal[:n]
	s.journalTrimmed += uint64(drop)
}

// commitLocked stamps and appends one journal record. Trimming and the
// change signal are handled per batch by flushLocked, but for a batch that
// fills a journal trimmed in batch to twice its limit. Callers hold seqMu.
func (s *Store) commitLocked(c Change) CSN {
	c.CSN = s.nextCSN
	s.nextCSN++
	if s.inBatchTrim() && len(s.journal) >= 2*s.journalLimit {
		s.compactLocked()
	}
	s.journal = append(s.journal, c)
	return c.CSN
}
