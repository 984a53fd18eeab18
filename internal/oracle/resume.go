package oracle

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/ldapnet"
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
	"filterdir/internal/sim"
	"filterdir/internal/supervisor"
)

// The Resume preset (this file) is the crash/resume gate for resumable
// chunked full transfers (DESIGN.md §14). Per history it serializes one
// reload shape — a synthetic DIT whose selected content spans several
// chunks — and then replays that transfer under every interesting cut:
//
//   - an uncut baseline, which also measures the exact client-side byte
//     offset at which each chunk's exchange completes;
//   - a cut at every chunk boundary (the supervisor has applied chunk k
//     and holds the token for chunk k+1), with a burst of journal-trimming
//     churn committed at the instant of the cut so the transfer's pinned
//     snapshot is under real retention pressure;
//   - a cut strictly inside every chunk, at the byte midpoint between the
//     baseline's boundary offsets;
//   - a forged token (flipped fingerprint) and a stale token (presented to
//     a supplier with no record of the session).
//
// Every run must end byte-identically converged with the reference model,
// and progress must be monotone: the supplier serves at most one full
// reload's worth of chunks plus one re-sent chunk per cut. A cut at a
// boundary re-sends nothing — reconnecting transfers only the remainder.

// resumeShape derives the history's reload geometry from its seed, so a
// -oracle.n=1 replay reruns the same shape.
func resumeShape(cfg Config, hseed int64) (entries, chunk int) {
	mod := func(n int64, m int64) int {
		r := n % m
		if r < 0 {
			r += m
		}
		return int(r)
	}
	entries = cfg.Entries + mod(hseed, 5)*4
	chunk = cfg.ChunkSize
	if chunk <= 0 {
		chunk = 3 + mod(hseed, 6)
	}
	if entries <= 2*chunk {
		entries = 2*chunk + 3 // at least three chunks, so interior cuts exist
	}
	return entries, chunk
}

// synthResumeConfig bounds the journal tightly: the boundary-cut churn
// bursts overflow it, so only the transfer's snapshot hold keeps the
// post-reload catch-up poll answerable.
func synthResumeConfig(hseed int64, entries int) sim.SynthConfig {
	return sim.SynthConfig{Seed: hseed, Entries: entries, JournalLimit: 4}
}

// resumeChurn is the number of operations committed at a boundary cut;
// it exceeds the journal bound so an unpinned snapshot would be trimmed.
const resumeChurn = 6

// genResumeHistory lists the cuts the history's reload shape admits: after
// every chunk but the last, inside every chunk, then the bad tokens.
func genResumeHistory(cfg Config, hseed int64) []Event {
	entries, chunk := resumeShape(cfg, hseed)
	nchunks := (entries + chunk - 1) / chunk
	var events []Event
	for b := 1; b < nchunks; b++ {
		events = append(events, Event{Kind: EvCut, Rep: b})
	}
	for j := 0; j < nchunks; j++ {
		events = append(events, Event{Kind: EvCut, Rep: j, Lost: true})
	}
	return append(events, Event{Kind: EvBadTokens})
}

// resumeKill describes where one attempt cuts the replica's connection.
// The zero value is the uncut baseline.
type resumeKill struct {
	afterChunks int   // >0: close the conn once this many chunk exchanges applied
	atByte      int64 // >0: fail conn #1 reads past this cumulative byte offset
	churn       int   // ops committed at the cut (boundary cuts only)
}

// resumeResult carries one attempt's measurements.
type resumeResult struct {
	boundaries []int64 // cumulative conn-#1 bytes when chunk i's exchange applied
	sup        metrics.ReplicaSnapshot
	eng        metrics.SyncSnapshot
}

// resume is one Resume history: its reload shape and the uncut baseline's
// measurements. Every attempt runs against a fresh master.
type resume struct {
	*hist
	entries, chunk, nchunks int
	spec                    query.Query
	base                    *resumeResult
}

func runResume(cfg Config, hseed int64, events []Event, rep *Report) *Failure {
	r := &resume{hist: &hist{cfg: cfg, seed: hseed, rep: rep},
		spec: query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(cn=e*)")}
	r.entries, r.chunk = resumeShape(cfg, hseed)
	r.nchunks = (r.entries + r.chunk - 1) / r.chunk

	// Uncut baseline: pins the clean-geometry counters and measures the
	// byte offset of every chunk boundary for the mid-chunk cuts.
	base, f := r.attempt(resumeKill{})
	if f != nil {
		return f
	}
	n := r.nchunks
	if len(base.boundaries) != n {
		return r.fail("baseline applied %d chunk exchanges, want %d", len(base.boundaries), n)
	}
	for i := 1; i < n; i++ {
		if base.boundaries[i] <= base.boundaries[i-1] {
			return r.fail("baseline boundary offsets not increasing: %v", base.boundaries)
		}
	}
	if base.eng.Begins != 1 || base.eng.ChunkedReloads != 1 || base.eng.ReloadChunks != int64(n) ||
		base.eng.ResumeRejects != 0 || base.eng.FullReloads != 0 {
		return r.fail("baseline engine counters begins=%d chunked=%d chunks=%d rejects=%d reloads=%d, want 1/1/%d/0/0",
			base.eng.Begins, base.eng.ChunkedReloads, base.eng.ReloadChunks,
			base.eng.ResumeRejects, base.eng.FullReloads, n)
	}
	if base.sup.ChunkResumes != int64(n-1) {
		return r.fail("baseline replica resumed %d chunks, want %d", base.sup.ChunkResumes, n-1)
	}
	r.base = base
	return r.play(events, func(ev Event) *Failure {
		switch {
		case ev.Kind == EvCut && ev.Lost:
			return r.cutInside(ev.Rep)
		case ev.Kind == EvCut:
			return r.cutAfter(ev.Rep)
		case ev.Kind == EvBadTokens:
			return r.badTokens()
		}
		return r.fail("unknown event kind %d in resume history", ev.Kind)
	})
}

// cutAfter checks a boundary cut: the consumer has applied chunk b-1 and
// holds the token for chunk b when the connection dies and the churn burst
// lands. Reconnecting must transfer only the remaining chunks —
// ReloadChunks stays at exactly one full reload — and the churn must
// surface as incremental updates after the transfer, never as a second
// reload (the pinned snapshot survived the journal trim).
func (r *resume) cutAfter(b int) *Failure {
	n := r.nchunks
	res, f := r.attempt(resumeKill{afterChunks: b, churn: resumeChurn})
	if f != nil {
		return f
	}
	if res.sup.Reconnects < 1 {
		return r.fail("boundary cut %d/%d: replica never reconnected", b, n)
	}
	if res.eng.Begins != 1 || res.eng.ChunkedReloads != 1 {
		return r.fail("boundary cut %d/%d: transfer restarted (begins=%d chunked reloads=%d), want a resume",
			b, n, res.eng.Begins, res.eng.ChunkedReloads)
	}
	if res.eng.ReloadChunks != int64(n) {
		return r.fail("boundary cut %d/%d: served %d chunk exchanges, want exactly %d (only the remainder)",
			b, n, res.eng.ReloadChunks, n)
	}
	if res.eng.ResumeRejects != 0 {
		return r.fail("boundary cut %d/%d: %d resume tokens rejected", b, n, res.eng.ResumeRejects)
	}
	if res.eng.FullReloads != 0 {
		return r.fail("boundary cut %d/%d: catch-up degraded to %d full reloads — the transfer's snapshot hold did not pin the journal through the churn trim",
			b, n, res.eng.FullReloads)
	}
	// The reconnect's token presentation is accounted as a session resume;
	// the remaining same-connection continuations as chunk resumes —
	// together still one exchange per outstanding chunk.
	if res.sup.Resumes < 1 || res.sup.ChunkResumes != int64(n-2) {
		return r.fail("boundary cut %d/%d: resumes=%d chunk resumes=%d, want >=1 and exactly %d",
			b, n, res.sup.Resumes, res.sup.ChunkResumes, n-2)
	}
	return nil
}

// cutInside checks a mid-chunk cut: the connection dies at the byte
// midpoint of chunk j's exchange. The interrupted chunk is the bounded
// per-attempt overhead — it is served twice, everything else exactly once.
// Inside chunk 0 no token exists yet, so the only legal recovery is a clean
// re-Begin.
func (r *resume) cutInside(j int) *Failure {
	n, bounds := r.nchunks, r.base.boundaries
	at := bounds[0] / 2
	if j > 0 {
		at = (bounds[j-1] + bounds[j]) / 2
	}
	res, f := r.attempt(resumeKill{atByte: at})
	if f != nil {
		return f
	}
	if res.sup.Reconnects < 1 {
		return r.fail("mid-chunk cut %d (byte %d): replica never reconnected", j, at)
	}
	if res.eng.ReloadChunks != int64(n+1) {
		return r.fail("mid-chunk cut %d (byte %d): served %d chunk exchanges, want %d (one full reload plus the interrupted chunk)",
			j, at, res.eng.ReloadChunks, n+1)
	}
	if res.eng.FullReloads != 0 || res.eng.ResumeRejects != 0 {
		return r.fail("mid-chunk cut %d (byte %d): reloads=%d rejects=%d, want 0/0",
			j, at, res.eng.FullReloads, res.eng.ResumeRejects)
	}
	if j == 0 {
		if res.eng.Begins != 2 || res.eng.ChunkedReloads != 2 {
			return r.fail("mid-chunk-0 cut: begins=%d chunked reloads=%d, want a clean restart (2/2): no token exists before the first chunk applies",
				res.eng.Begins, res.eng.ChunkedReloads)
		}
	} else if res.eng.Begins != 1 || res.eng.ChunkedReloads != 1 ||
		res.sup.Resumes < 1 || res.sup.ChunkResumes != int64(n-2) {
		return r.fail("mid-chunk cut %d: begins=%d chunked reloads=%d resumes=%d chunk resumes=%d, want 1/1/>=1/%d (the interrupted fetch is retried via the token, nothing else repeats)",
			j, res.eng.Begins, res.eng.ChunkedReloads, res.sup.Resumes, res.sup.ChunkResumes, n-2)
	}
	return nil
}

// attempt runs one supervisor-driven transfer against a fresh master built
// from the history's shape — identical stores serialize identical chunk
// streams, so byte offsets measured on the baseline attempt are exact cut
// positions on every later one.
func (r *resume) attempt(kill resumeKill) (*resumeResult, *Failure) {
	a, f := newHist(r.cfg, r.seed, r.rep, synthResumeConfig(r.seed, r.entries))
	if f != nil {
		return nil, f
	}
	gen := sim.NewOpGen(synthResumeConfig(r.seed, r.entries))
	backend := ldapnet.NewStoreBackend(a.st, resync.WithChunkSize(r.chunk))
	w := &wireNet{h: a}
	defer w.close()
	addr, _, f := w.serve(backend, false, 0)
	if f != nil {
		return nil, f
	}

	// mu guards the model and the boundary samples: the OnApplied hook runs
	// in the supervision loop, the convergence wait in this goroutine.
	var (
		mu         sync.Mutex
		boundaries []int64
		applies    int
		cut        bool
		churnFail  *Failure
	)
	dialer := &resumeDialer{atByte: kill.atByte}
	l, f := w.leaf(supervisor.Config{
		Master: addr,
		Spec:   r.spec,
		Mode:   supervisor.ModePoll,
		Seed:   r.seed,
		Dial:   dialer.dial,
		OnApplied: func(int) {
			mu.Lock()
			defer mu.Unlock()
			applies++
			if len(boundaries) < r.nchunks {
				boundaries = append(boundaries, dialer.bytes.Load())
			}
			if kill.afterChunks > 0 && applies == kill.afterChunks && !cut {
				cut = true
				// Commit the churn while the transfer's snapshot hold is the
				// only thing pinning the bounded journal, then cut the wire.
				for i := 0; i < kill.churn; i++ {
					if churnFail = a.op(gen.Next()); churnFail != nil {
						return
					}
				}
				dialer.killFirst()
			}
		},
	})
	if f != nil {
		return nil, f
	}
	f = a.await(fmt.Sprintf("convergence after cut %+v", kill), 15*time.Second, func() string {
		mu.Lock()
		defer mu.Unlock()
		if churnFail != nil {
			return ""
		}
		diff := describeDiff(snapshot(l.frep.Store()), a.mdl.selection(r.spec))
		if diff != "" {
			diff = fmt.Sprintf("state %v, %d exchanges:\n%s", l.sup.State(), l.sup.Exchanges(), diff)
		}
		return diff
	})
	_ = l.sup.Stop() // always nil; stopped first so its counters are final
	mu.Lock()
	defer mu.Unlock()
	if churnFail != nil {
		return nil, churnFail
	}
	if f != nil {
		return nil, f
	}
	return &resumeResult{
		boundaries: boundaries,
		sup:        l.sup.Counters().Snapshot(),
		eng:        backend.Engine.Counters().Snapshot(),
	}, nil
}

// badTokens drives raw-client transfers to verify token verification: a
// forged fingerprint restarts the reload from chunk zero on the same
// session, and a token presented to a supplier with no record of the
// session is refused outright so the consumer re-Begins cleanly. Both
// recoveries must still deliver exactly one full, correct content.
func (r *resume) badTokens() *Failure {
	a, f := newHist(r.cfg, r.seed, r.rep, synthResumeConfig(r.seed, r.entries))
	if f != nil {
		return f
	}
	ref := a.mdl.selection(r.spec)
	w := &wireNet{h: a}
	defer w.close()
	supplier := func() (*ldapnet.StoreBackend, *ldapnet.Client, *Failure) {
		backend := ldapnet.NewStoreBackend(a.st, resync.WithChunkSize(r.chunk))
		addr, _, f := w.serve(backend, false, 0)
		if f != nil {
			return nil, nil, f
		}
		c, err := ldapnet.Dial(addr)
		if err != nil {
			return nil, nil, a.fail("dial: %v", err)
		}
		w.stops = append(w.stops, func() { c.Close() })
		return backend, c, nil
	}

	// complete drains a started transfer by following its tokens, checking
	// it delivered exactly one full, correct content.
	complete := func(what string, c *ldapnet.Client, cur *resync.PollResult) *Failure {
		got := make(model)
		total := 0
		for {
			for _, u := range cur.Updates {
				got[u.DN.Norm()] = u.Entry
			}
			total += len(cur.Updates)
			if cur.Resume == nil {
				break
			}
			next, err := c.SyncResume(*cur.Resume)
			if err != nil {
				return a.fail("continue transfer: %v", err)
			}
			cur = next
		}
		if cur.Cookie == "" {
			return a.fail("transfer ended without a completion cookie")
		}
		if diff := describeDiff(got, ref); diff != "" {
			return a.fail("content after %s restart diverged:\n%s", what, diff)
		}
		if total != len(ref) {
			return a.fail("%s restart transferred %d updates, want exactly one full reload of %d", what, total, len(ref))
		}
		return nil
	}

	backendA, cA, f := supplier()
	if f != nil {
		return f
	}
	res, err := cA.Sync(r.spec, proto.ReSyncModePoll, "")
	if err != nil {
		return a.fail("begin: %v", err)
	}
	if res.Resume == nil || !res.FullReload {
		return a.fail("begin of %d entries (chunk %d) was not a chunked reload", r.entries, r.chunk)
	}

	// Forged fingerprint: the supplier must not serve a remainder it cannot
	// verify — it restarts from chunk zero and the consumer still ends with
	// exactly one full content.
	forged := *res.Resume
	forged.Fingerprint ^= 0x6b6b6b6b6b6b6b6b
	restart, err := cA.SyncResume(forged)
	if err != nil {
		return a.fail("forged token: err=%v, want a degraded restart from chunk zero", err)
	}
	if !restart.FullReload {
		return a.fail("forged fingerprint resumed mid-transfer instead of restarting from chunk zero")
	}
	if got := backendA.Engine.Counters().Snapshot().ResumeRejects; got != 1 {
		return a.fail("forged token: %d resume rejects recorded, want 1", got)
	}
	if f := complete("forged-token", cA, restart); f != nil {
		return f
	}

	// Stale token: a supplier that has no record of the session (here: a
	// fresh incarnation) refuses the token outright; the consumer re-Begins
	// from scratch and converges.
	backendB, cB, f := supplier()
	if f != nil {
		return f
	}
	if _, err := cB.SyncResume(*res.Resume); !errors.Is(err, resync.ErrNoSuchSession) {
		return a.fail("stale token on a fresh supplier: err=%v, want ErrNoSuchSession", err)
	}
	if got := backendB.Engine.Counters().Snapshot().ResumeRejects; got != 1 {
		return a.fail("stale token: %d resume rejects recorded, want 1", got)
	}
	restart, err = cB.Sync(r.spec, proto.ReSyncModePoll, "")
	if err != nil {
		return a.fail("re-begin after stale token: %v", err)
	}
	return complete("stale-token", cB, restart)
}

// resumeDialer dials plain TCP and meters connection #1: reads are counted
// (chunk-boundary byte offsets are sampled from the counter) and optionally
// cut at an exact cumulative offset. Reconnects get ordinary connections —
// each attempt's fault fires at most once.
type resumeDialer struct {
	atByte int64
	conns  atomic.Int32
	bytes  atomic.Int64
	first  atomic.Value // net.Conn: connection #1, for boundary cuts
}

func (d *resumeDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if d.conns.Add(1) > 1 {
		return c, nil
	}
	d.first.Store(c)
	return &meteredConn{Conn: c, d: d}, nil
}

// killFirst cuts connection #1 (no-op before the first dial).
func (d *resumeDialer) killFirst() {
	if c, ok := d.first.Load().(net.Conn); ok {
		_ = c.Close()
	}
}

// meteredConn counts reads and enforces the dialer's byte budget: the read
// that would cross it is truncated to end exactly on the budget, and the
// next one closes the connection — a transport cut at a precise offset of
// the chunk stream.
type meteredConn struct {
	net.Conn
	d *resumeDialer
}

func (m *meteredConn) Read(p []byte) (int, error) {
	if limit := m.d.atByte; limit > 0 {
		read := m.d.bytes.Load()
		if read >= limit {
			_ = m.Conn.Close()
			return 0, fmt.Errorf("oracle: connection cut at byte %d", read)
		}
		if int64(len(p)) > limit-read {
			p = p[:limit-read]
		}
	}
	n, err := m.Conn.Read(p)
	m.d.bytes.Add(int64(n))
	return n, err
}
