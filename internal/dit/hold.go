package dit

// Snapshot holds (DESIGN.md §14). A hold pins the journal suffix after a
// CSN: while any hold at CSN h is outstanding, trimLocked keeps every
// record with CSN > h, so ChangesSince(h) keeps answering incrementally.
// Resumable chunked transfers take a hold on their snapshot CSN the moment
// the snapshot is frozen — an aggressive journal-retention policy can then
// never destroy the history an in-flight transfer still needs to finish
// with an incremental catch-up poll instead of another full reload.
//
// Holds are deliberately cheap and revocation-free: they only raise the
// trim floor, they never block commits, and releasing one simply lets the
// next batch's trim collect the history.

// Hold pins journal history after a snapshot CSN. Release it exactly once;
// Release is idempotent via the registry (double release of the same Hold
// is a no-op, a Hold is never reused).
type Hold struct {
	id  uint64
	csn CSN
}

// Hold registers a trim floor at csn: journal records needed to answer
// ChangesSince(csn) survive trimming until the hold is released.
func (s *Store) Hold(csn CSN) *Hold {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	s.holdSeq++
	h := &Hold{id: s.holdSeq, csn: csn}
	if s.holds == nil {
		s.holds = make(map[uint64]CSN)
	}
	s.holds[h.id] = csn
	return h
}

// Release removes a hold; the next committed batch's trim may then collect
// the history it pinned. Releasing nil or an already-released hold is a
// no-op.
func (s *Store) Release(h *Hold) {
	if h == nil {
		return
	}
	s.seqMu.Lock()
	delete(s.holds, h.id)
	s.seqMu.Unlock()
}

// ActiveHolds reports the number of outstanding holds — an operator gauge
// and a test probe for hold lifecycle leaks.
func (s *Store) ActiveHolds() int {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return len(s.holds)
}

// minHoldLocked returns the lowest held CSN, if any. Callers hold seqMu.
func (s *Store) minHoldLocked() (CSN, bool) {
	found := false
	var min CSN
	for _, csn := range s.holds {
		if !found || csn < min {
			min, found = csn, true
		}
	}
	return min, found
}
