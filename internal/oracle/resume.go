package oracle

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/sim"
	"filterdir/internal/supervisor"
)

// The resume oracle (this file) is the crash/resume gate for resumable
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

// ResumeConfig parameterizes a resumable-reload oracle run.
type ResumeConfig struct {
	// Seed derives every history; equal seeds replay equal runs.
	Seed int64
	// Histories is the number of independent reload shapes swept.
	Histories int
	// Entries is the base synthetic DIT leaf count; each history grows it
	// by a seed-derived amount so chunk geometries vary (default 15).
	Entries int
	// ChunkSize is the reload chunk size (0 = derived per history, 3..8).
	ChunkSize int
}

func (c *ResumeConfig) fillDefaults() {
	if c.Histories <= 0 {
		c.Histories = 2
	}
	if c.Entries <= 0 {
		c.Entries = 15
	}
}

// resumeShape derives the history's reload geometry from its seed, so a
// -oracle.n=1 replay reruns the same shape.
func resumeShape(cfg ResumeConfig, hseed int64) (entries, chunk int) {
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

// RunResume executes a resumable-reload oracle run.
func RunResume(cfg ResumeConfig) *Report {
	cfg.fillDefaults()
	rep := &Report{}
	for h := 0; h < cfg.Histories; h++ {
		hseed := historySeed(cfg.Seed, h)
		if f := runResume(cfg, hseed, rep); f != nil {
			f.Replay = fmt.Sprintf(
				"go test ./internal/oracle -run TestOracleResumeSweep -oracle.seed=%d -oracle.n=1", hseed)
			rep.Failure = f
			return rep
		}
		rep.Histories++
	}
	return rep
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
	exchanges  int64
	sup        metrics.ReplicaSnapshot
	eng        metrics.SyncSnapshot
}

func runResume(cfg ResumeConfig, hseed int64, rep *Report) *Failure {
	entries, chunk := resumeShape(cfg, hseed)
	spec := query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(cn=e*)")
	nchunks := (entries + chunk - 1) / chunk
	fail := func(format string, args ...any) *Failure {
		return &Failure{HistorySeed: hseed, Msg: fmt.Sprintf(format, args...)}
	}

	// Uncut baseline: pins the clean-geometry counters and measures the
	// byte offset of every chunk boundary for the mid-chunk cuts below.
	base, f := resumeAttempt(hseed, entries, chunk, spec, resumeKill{}, nchunks, rep)
	if f != nil {
		return f
	}
	if len(base.boundaries) != nchunks {
		return fail("baseline applied %d chunk exchanges, want %d", len(base.boundaries), nchunks)
	}
	for i := 1; i < nchunks; i++ {
		if base.boundaries[i] <= base.boundaries[i-1] {
			return fail("baseline boundary offsets not increasing: %v", base.boundaries)
		}
	}
	if base.eng.Begins != 1 || base.eng.ChunkedReloads != 1 || base.eng.ReloadChunks != int64(nchunks) ||
		base.eng.ResumeRejects != 0 || base.eng.FullReloads != 0 {
		return fail("baseline engine counters begins=%d chunked=%d chunks=%d rejects=%d reloads=%d, want 1/1/%d/0/0",
			base.eng.Begins, base.eng.ChunkedReloads, base.eng.ReloadChunks,
			base.eng.ResumeRejects, base.eng.FullReloads, nchunks)
	}
	if base.sup.ChunkResumes != int64(nchunks-1) {
		return fail("baseline replica resumed %d chunks, want %d", base.sup.ChunkResumes, nchunks-1)
	}

	// Boundary cuts: the consumer has applied chunk b-1 and holds the token
	// for chunk b when the connection dies and the churn burst lands.
	// Reconnecting must transfer only the remaining chunks — ReloadChunks
	// stays at exactly one full reload — and the churn must surface as
	// incremental updates after the transfer, never as a second reload
	// (the pinned snapshot survived the journal trim).
	for b := 1; b < nchunks; b++ {
		res, f := resumeAttempt(hseed, entries, chunk, spec,
			resumeKill{afterChunks: b, churn: resumeChurn}, nchunks, rep)
		if f != nil {
			return f
		}
		if res.sup.Reconnects < 1 {
			return fail("boundary cut %d/%d: replica never reconnected", b, nchunks)
		}
		if res.eng.Begins != 1 || res.eng.ChunkedReloads != 1 {
			return fail("boundary cut %d/%d: transfer restarted (begins=%d chunked reloads=%d), want a resume",
				b, nchunks, res.eng.Begins, res.eng.ChunkedReloads)
		}
		if res.eng.ReloadChunks != int64(nchunks) {
			return fail("boundary cut %d/%d: served %d chunk exchanges, want exactly %d (only the remainder)",
				b, nchunks, res.eng.ReloadChunks, nchunks)
		}
		if res.eng.ResumeRejects != 0 {
			return fail("boundary cut %d/%d: %d resume tokens rejected", b, nchunks, res.eng.ResumeRejects)
		}
		if res.eng.FullReloads != 0 {
			return fail("boundary cut %d/%d: catch-up degraded to %d full reloads — the transfer's snapshot hold did not pin the journal through the churn trim",
				b, nchunks, res.eng.FullReloads)
		}
		// The reconnect's token presentation is accounted as a session
		// resume; the remaining same-connection continuations as chunk
		// resumes — together still one exchange per outstanding chunk.
		if res.sup.Resumes < 1 || res.sup.ChunkResumes != int64(nchunks-2) {
			return fail("boundary cut %d/%d: resumes=%d chunk resumes=%d, want >=1 and exactly %d",
				b, nchunks, res.sup.Resumes, res.sup.ChunkResumes, nchunks-2)
		}
	}

	// Mid-chunk cuts: the connection dies at the byte midpoint of chunk j's
	// exchange. The interrupted chunk is the bounded per-attempt overhead —
	// it is served twice, everything else exactly once. Inside chunk 0 no
	// token exists yet, so the only legal recovery is a clean re-Begin.
	for j := 0; j < nchunks; j++ {
		at := base.boundaries[0] / 2
		if j > 0 {
			at = (base.boundaries[j-1] + base.boundaries[j]) / 2
		}
		res, f := resumeAttempt(hseed, entries, chunk, spec, resumeKill{atByte: at}, nchunks, rep)
		if f != nil {
			return f
		}
		if res.sup.Reconnects < 1 {
			return fail("mid-chunk cut %d (byte %d): replica never reconnected", j, at)
		}
		if res.eng.ReloadChunks != int64(nchunks+1) {
			return fail("mid-chunk cut %d (byte %d): served %d chunk exchanges, want %d (one full reload plus the interrupted chunk)",
				j, at, res.eng.ReloadChunks, nchunks+1)
		}
		if res.eng.FullReloads != 0 || res.eng.ResumeRejects != 0 {
			return fail("mid-chunk cut %d (byte %d): reloads=%d rejects=%d, want 0/0",
				j, at, res.eng.FullReloads, res.eng.ResumeRejects)
		}
		if j == 0 {
			if res.eng.Begins != 2 || res.eng.ChunkedReloads != 2 {
				return fail("mid-chunk-0 cut: begins=%d chunked reloads=%d, want a clean restart (2/2): no token exists before the first chunk applies",
					res.eng.Begins, res.eng.ChunkedReloads)
			}
		} else if res.eng.Begins != 1 || res.eng.ChunkedReloads != 1 ||
			res.sup.Resumes < 1 || res.sup.ChunkResumes != int64(nchunks-2) {
			return fail("mid-chunk cut %d: begins=%d chunked reloads=%d resumes=%d chunk resumes=%d, want 1/1/>=1/%d (the interrupted fetch is retried via the token, nothing else repeats)",
				j, res.eng.Begins, res.eng.ChunkedReloads, res.sup.Resumes, res.sup.ChunkResumes, nchunks-2)
		}
	}

	return checkResumeTokenSafety(hseed, entries, chunk, spec, rep)
}

// resumeAttempt runs one supervisor-driven transfer against a fresh master
// built from (hseed, entries) — identical stores serialize identical chunk
// streams, so byte offsets measured on the baseline attempt are exact cut
// positions on every later one.
func resumeAttempt(hseed int64, entries, chunk int, spec query.Query, kill resumeKill, wantChunks int, rep *Report) (*resumeResult, *Failure) {
	st, err := sim.BuildSynthStore(synthResumeConfig(hseed, entries))
	if err != nil {
		return nil, &Failure{HistorySeed: hseed, Msg: "build synthetic store: " + err.Error()}
	}
	mdl := newModel(st)
	gen := sim.NewOpGen(synthResumeConfig(hseed, entries))
	backend := ldapnet.NewStoreBackend(st, resync.WithChunkSize(chunk))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, &Failure{HistorySeed: hseed, Msg: "listen: " + err.Error()}
	}
	srv := ldapnet.ServeListener(ln, backend)
	defer srv.Close()

	dialer := &resumeDialer{atByte: kill.atByte}
	frep, err := replica.NewFilterReplica()
	if err != nil {
		return nil, &Failure{HistorySeed: hseed, Msg: "new replica: " + err.Error()}
	}

	// mu guards the model and the boundary samples: the OnApplied hook runs
	// in the supervision loop, the convergence wait in this goroutine.
	var (
		mu         sync.Mutex
		boundaries []int64
		applies    int
		cut        bool
		churnErr   error
	)
	sup, err := supervisor.New(supervisor.Config{
		Master:       ln.Addr().String(),
		Spec:         spec,
		Mode:         supervisor.ModePoll,
		PollInterval: 3 * time.Millisecond,
		BackoffBase:  2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		DialTimeout:  2 * time.Second,
		Seed:         hseed,
		Dial:         dialer.dial,
		OnApplied: func(int) {
			mu.Lock()
			defer mu.Unlock()
			applies++
			if len(boundaries) < wantChunks {
				boundaries = append(boundaries, dialer.bytes.Load())
			}
			if kill.afterChunks > 0 && applies == kill.afterChunks && !cut {
				cut = true
				// Commit the churn while the transfer's snapshot hold is the
				// only thing pinning the bounded journal, then cut the wire.
				for i := 0; i < kill.churn; i++ {
					op := gen.Next()
					if !mdl.valid(op) {
						continue
					}
					if err := sim.ApplyOp(st, op); err != nil && churnErr == nil {
						churnErr = err
						return
					}
					mdl.apply(op)
				}
				dialer.killFirst()
			}
		},
	}, frep)
	if err != nil {
		return nil, &Failure{HistorySeed: hseed, Msg: "new supervisor: " + err.Error()}
	}
	sup.Start()
	defer sup.Stop()

	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		ref := mdl.selection(spec)
		cerr := churnErr
		mu.Unlock()
		if cerr != nil {
			return nil, &Failure{HistorySeed: hseed, Msg: "churn op rejected by store: " + cerr.Error()}
		}
		got := wireSnapshot(frep)
		diff := describeDiff(got, ref)
		if diff == "" {
			break
		}
		if time.Now().After(deadline) {
			return nil, &Failure{HistorySeed: hseed, Msg: fmt.Sprintf(
				"replica did not converge within 15s after cut %+v (state %v, %d exchanges):\n%s",
				kill, sup.State(), sup.Exchanges(), diff)}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := sup.Stop(); err != nil {
		return nil, &Failure{HistorySeed: hseed, Msg: "stop supervisor: " + err.Error()}
	}

	if rep != nil {
		rep.Events++
		rep.Polls += int(sup.Exchanges())
	}
	mu.Lock()
	defer mu.Unlock()
	return &resumeResult{
		boundaries: boundaries,
		exchanges:  sup.Exchanges(),
		sup:        sup.Counters().Snapshot(),
		eng:        backend.Engine.Counters().Snapshot(),
	}, nil
}

// checkResumeTokenSafety drives raw-client transfers to verify token
// verification: a forged fingerprint restarts the reload from chunk zero
// on the same session, and a token presented to a supplier with no record
// of the session is refused outright so the consumer re-Begins cleanly.
// Both recoveries must still deliver exactly one full, correct content.
func checkResumeTokenSafety(hseed int64, entries, chunk int, spec query.Query, rep *Report) *Failure {
	fail := func(format string, args ...any) *Failure {
		return &Failure{HistorySeed: hseed, Msg: fmt.Sprintf(format, args...)}
	}
	st, err := sim.BuildSynthStore(synthResumeConfig(hseed, entries))
	if err != nil {
		return fail("build synthetic store: %v", err)
	}
	ref := newModel(st).selection(spec)

	serve := func() (*ldapnet.StoreBackend, *ldapnet.Client, func(), *Failure) {
		backend := ldapnet.NewStoreBackend(st, resync.WithChunkSize(chunk))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, fail("listen: %v", err)
		}
		srv := ldapnet.ServeListener(ln, backend)
		c, err := ldapnet.Dial(ln.Addr().String())
		if err != nil {
			srv.Close()
			return nil, nil, nil, fail("dial: %v", err)
		}
		return backend, c, func() { c.Close(); srv.Close() }, nil
	}

	// complete drains a started transfer by following its tokens, returning
	// the collected content and the total update count.
	complete := func(c *ldapnet.Client, first *resync.PollResult) (map[string]*entry.Entry, int, *Failure) {
		got := make(map[string]*entry.Entry)
		total := 0
		cur := first
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
				return nil, 0, fail("continue transfer: %v", err)
			}
			cur = next
		}
		if cur.Cookie == "" {
			return nil, 0, fail("transfer ended without a completion cookie")
		}
		return got, total, nil
	}

	backendA, cA, closeA, f := serve()
	if f != nil {
		return f
	}
	defer closeA()
	res, err := cA.Sync(spec, proto.ReSyncModePoll, "")
	if err != nil {
		return fail("begin: %v", err)
	}
	if res.Resume == nil || !res.FullReload {
		return fail("begin of %d entries (chunk %d) was not a chunked reload", entries, chunk)
	}

	// Forged fingerprint: the supplier must not serve a remainder it cannot
	// verify — it restarts from chunk zero and the consumer still ends with
	// exactly one full content.
	forged := *res.Resume
	forged.Fingerprint ^= 0x6b6b6b6b6b6b6b6b
	r, err := cA.SyncResume(forged)
	if err != nil {
		return fail("forged token: err=%v, want a degraded restart from chunk zero", err)
	}
	if !r.FullReload {
		return fail("forged fingerprint resumed mid-transfer instead of restarting from chunk zero")
	}
	if got := backendA.Engine.Counters().Snapshot().ResumeRejects; got != 1 {
		return fail("forged token: %d resume rejects recorded, want 1", got)
	}
	got, total, f := complete(cA, r)
	if f != nil {
		return f
	}
	if diff := describeDiff(got, ref); diff != "" {
		return fail("content after forged-token restart diverged:\n%s", diff)
	}
	if total != len(ref) {
		return fail("forged-token restart transferred %d updates, want exactly one full reload of %d", total, len(ref))
	}
	if rep != nil {
		rep.Events++
	}

	// Stale token: a supplier that has no record of the session (here: a
	// fresh incarnation) refuses the token outright; the consumer re-Begins
	// from scratch and converges.
	backendB, cB, closeB, f := serve()
	if f != nil {
		return f
	}
	defer closeB()
	if _, err := cB.SyncResume(*res.Resume); !errors.Is(err, resync.ErrNoSuchSession) {
		return fail("stale token on a fresh supplier: err=%v, want ErrNoSuchSession", err)
	}
	if gotRej := backendB.Engine.Counters().Snapshot().ResumeRejects; gotRej != 1 {
		return fail("stale token: %d resume rejects recorded, want 1", gotRej)
	}
	r0, err := cB.Sync(spec, proto.ReSyncModePoll, "")
	if err != nil {
		return fail("re-begin after stale token: %v", err)
	}
	got, total, f = complete(cB, r0)
	if f != nil {
		return f
	}
	if diff := describeDiff(got, ref); diff != "" {
		return fail("content after stale-token restart diverged:\n%s", diff)
	}
	if total != len(ref) {
		return fail("stale-token restart transferred %d updates, want exactly one full reload of %d", total, len(ref))
	}
	if rep != nil {
		rep.Events++
	}
	return nil
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
