package ldapnet

import (
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// The ReSync half of Backend is written twice, once per answer a server can
// give: engineSync serves it, noSync refuses it. A backend embeds one of them
// and writes only what is its own (search, updates, bind).

// engineSync serves the six ReSync methods of Backend, and SyncCounterSource,
// straight from a resync.Engine: each method is the engine call of the same
// name. A master embeds it ungated; a cascade mid-tier sets admit so that a
// session is established only for a spec the tier provably holds. Every
// later exchange names a session that Begin already admitted and is not
// re-checked.
type engineSync struct {
	Engine *resync.Engine
	// admit gates Begin when non-nil; its error is returned as is.
	admit func(q query.Query) error
}

func (s engineSync) ReSyncBegin(q query.Query) (*resync.PollResult, error) {
	if s.admit != nil {
		if err := s.admit(q); err != nil {
			return nil, err
		}
	}
	return s.Engine.Begin(q)
}

func (s engineSync) ReSyncPoll(cookie string) (*resync.PollResult, error) {
	return s.Engine.Poll(cookie)
}

func (s engineSync) ReSyncResume(tok proto.ResumeToken) (*resync.PollResult, error) {
	return s.Engine.ResumeReload(tok)
}

func (s engineSync) ReSyncRetain(cookie string) (*resync.PollResult, error) {
	return s.Engine.PollRetain(cookie)
}

func (s engineSync) ReSyncPersist(cookie string) (*resync.Subscription, error) {
	return s.Engine.Persist(cookie)
}

func (s engineSync) ReSyncEnd(cookie string) error { return s.Engine.End(cookie) }

// SyncCounters implements SyncCounterSource with the engine's counters, so
// the server's streaming accounting lands in the same place.
func (s engineSync) SyncCounters() *metrics.SyncCounters { return s.Engine.Counters() }

// noSync refuses the six ReSync methods of Backend with ErrReadOnly: a
// replica that is only a consumer supplies nobody.
type noSync struct{}

func (noSync) ReSyncBegin(query.Query) (*resync.PollResult, error)        { return nil, ErrReadOnly }
func (noSync) ReSyncPoll(string) (*resync.PollResult, error)              { return nil, ErrReadOnly }
func (noSync) ReSyncResume(proto.ResumeToken) (*resync.PollResult, error) { return nil, ErrReadOnly }
func (noSync) ReSyncRetain(string) (*resync.PollResult, error)            { return nil, ErrReadOnly }
func (noSync) ReSyncPersist(string) (*resync.Subscription, error)         { return nil, ErrReadOnly }
func (noSync) ReSyncEnd(string) error                                     { return ErrReadOnly }
