package main

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"filterdir/internal/ber"
	"filterdir/internal/containment"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/filter"
	"filterdir/internal/ldapnet"
	"filterdir/internal/persist"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/workload"
)

// The ladder replays, after the traced run's timed window and with every
// server and supervisor stopped, the inputs captured from that same run
// through each layer's public functions — one rung per layer, real
// b.N-style iteration for at least the rung budget, ns and allocs per call.
// It takes every number from outside the program: nothing under internal/
// knows it is being measured.

// ladderInputs is what the traced run hands to the ladder.
type ladderInputs struct {
	budget   time.Duration
	tmp      string
	dir      *workload.Directory
	sessions []query.Query // one spec per leaf session, duplicates included
	front    []query.Query // the specs of the replica searches go to
	changes  []dit.Change  // the master's journal over the timed window
	pdus     [][]byte      // LDAP messages the master and the replica wrote
	queries  []query.Query // the search trace
}

const (
	ladderChanges = 4000
	ladderQueries = 512
)

func captureLadderInputs(topo *topology, cfg runConfig, since dit.CSN, tmp string) *ladderInputs {
	in := &ladderInputs{budget: cfg.ladderBudget, tmp: tmp, dir: topo.dir}
	for _, l := range topo.leaves {
		in.sessions = append(in.sessions, l.spec)
	}
	in.front = topo.frontSpecs
	if ch, ok := topo.dir.Master.ChangesSince(since); ok {
		if len(ch) > ladderChanges {
			ch = ch[:ladderChanges]
		}
		in.changes = ch
	}
	in.pdus = append(in.pdus, topo.replWire.takePDUs()...)
	in.pdus = append(in.pdus, topo.clientWire.takePDUs()...)
	in.pdus = append(in.pdus, topo.frontWire.takePDUs()...)
	gen := topo.traceGenerator(cfg.seed*104729 + 7)
	for i := 0; i < ladderQueries; i++ {
		in.queries = append(in.queries, gen.Next().Query)
	}
	return in
}

// rungBudget is the minimum time each rung iterates for in a full run.
const rungBudget = 150 * time.Millisecond

type rungResult struct{ ns, allocs float64 }

// sinks parks the results of measured calls so the compiler cannot drop
// them; one per ladder run, kept alive until the ladder returns.
type sinks struct {
	i int
	b bool
	p []byte
	a any
}

// rung iterates fn for at least budget and reports time and heap
// allocations per call. The batch grows until one batch takes about a
// millisecond, so the clock is read rarely enough not to be the cost.
func rung(budget time.Duration, fn func(i int)) rungResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n, batch := 0, 1
	for {
		t := time.Now()
		for j := 0; j < batch; j++ {
			fn(n)
			n++
		}
		if time.Since(start) >= budget {
			break
		}
		if time.Since(t) < time.Millisecond && batch < 1<<20 {
			batch *= 2
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return rungResult{
		ns:     float64(el) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
	}
}

func berWalk(b []byte) int {
	r := ber.NewReader(b)
	n := 0
	for !r.Empty() {
		h, content, err := r.Read()
		if err != nil {
			return n
		}
		n++
		if h.Constructed {
			n += berWalk(content)
		}
	}
	return n
}

// runLadder runs every rung and returns ns-or-µs figures keyed by metric
// name. A rung whose input is empty for this workload reports 0.
func runLadder(in *ladderInputs) map[string]float64 {
	out := map[string]float64{}
	master := in.dir.Master
	b := in.budget
	var sink sinks
	defer runtime.KeepAlive(&sink)

	// ber, proto: the captured PDUs.
	var msgs []*proto.Message
	var wire int
	for _, p := range in.pdus {
		if m, err := proto.Decode(p); err == nil {
			msgs = append(msgs, m)
			wire += len(p)
		}
	}
	if len(msgs) > 0 {
		pdus := in.pdus
		r := rung(b, func(i int) { sink.i = berWalk(pdus[i%len(pdus)]) })
		out["ber.parse_ns_per_pdu"], out["ber.allocs_per_pdu"] = r.ns, r.allocs
		r = rung(b, func(i int) { sink.a, _ = proto.Decode(pdus[i%len(pdus)]) })
		out["proto.decode_ns_per_pdu"], out["proto.allocs_per_pdu"] = r.ns, r.allocs
		out["proto.bytes_per_pdu"] = float64(wire) / float64(len(msgs))
		r = rung(b, func(i int) { sink.p, _ = msgs[i%len(msgs)].Encode() })
		out["proto.encode_ns_per_pdu"] = r.ns
		var tailMsgs []*proto.Message
		var bodies [][]byte
		for _, m := range msgs {
			if body, err := proto.EncodeOpBody(m.Op); err == nil {
				tailMsgs, bodies = append(tailMsgs, m), append(bodies, body)
			}
		}
		if len(tailMsgs) > 0 {
			r = rung(b, func(i int) {
				m := tailMsgs[i%len(tailMsgs)]
				tail := proto.EncodeMessageTail(m.Op, bodies[i%len(bodies)], m.Controls)
				sink.p = proto.EncodeWithTail(m.ID, tail)
			})
			out["proto.encode_tail_ns_per_pdu"] = r.ns
		}
	}

	// dn, entry, filter: the changed entries against the session specs.
	var changed []*entry.Entry
	var mods []dit.Change
	for _, c := range in.changes {
		if c.After != nil {
			changed = append(changed, c.After)
		}
		if c.Type == dit.ChangeModify && c.After != nil && c.After.Has(markerAttr) {
			mods = append(mods, c)
		}
	}
	if len(changed) == 0 {
		changed = master.MatchAll(in.sessions[0])
	}
	if len(changed) > 0 {
		strs := make([]string, len(changed))
		for i, e := range changed {
			strs[i] = e.DN().String()
		}
		r := rung(b, func(i int) { sink.a, _ = dn.Parse(strs[i%len(strs)]) })
		out["dn.parse_ns"] = r.ns
		bases := []dn.DN{suffixDN, dn.MustParse("c=us," + workload.Suffix), dn.MustParse("ou=divisions," + workload.Suffix)}
		r = rung(b, func(i int) { sink.b = bases[i%len(bases)].IsSuffix(changed[i%len(changed)].DN()) })
		out["dn.issuffix_ns"], out["dn.issuffix_allocs"] = r.ns, r.allocs
		r = rung(b, func(i int) { sink.a = changed[i%len(changed)].Clone() })
		out["entry.clone_ns"] = r.ns
		r = rung(b, func(i int) {
			e := changed[i%len(changed)]
			sink.b = entry.EqualValues(e.First("cn"), e.First("mail"))
		})
		out["entry.equalvalues_ns"] = r.ns

		var filters []*filter.Node
		var fstrs []string
		for _, s := range in.sessions {
			if s.Filter != nil {
				filters = append(filters, s.Filter)
				fstrs = append(fstrs, s.FilterString())
			}
		}
		r = rung(b, func(i int) { sink.a, _ = filter.Parse(fstrs[i%len(fstrs)]) })
		out["filter.parse_ns"] = r.ns
		r = rung(b, func(i int) {
			sink.b = filters[i%len(filters)].Matches(changed[(i/len(filters))%len(changed)])
		})
		out["filter.match_ns"], out["filter.match_allocs"] = r.ns, r.allocs
	}

	// containment: the trace against the front replica's stored specs.
	chk := containment.NewChecker()
	r := rung(b, func(i int) {
		sink.b = chk.QueryContains(in.queries[i%len(in.queries)], in.front[(i/len(in.queries))%len(in.front)])
	})
	out["containment.check_ns"] = r.ns
	st := chk.Stats()
	planned := st.SameTemplate + st.Compiled + st.ImpossiblePruned + st.AlwaysAccepted
	out["containment.plan_hit_ratio"] = ratio(float64(planned), float64(planned+st.Fallback))

	// dit: commit, search, snapshot on the master store itself (idle now).
	seq := 0
	modify := func(c dit.Change) {
		seq++
		_, _ = master.ApplyCSN(dit.Change{Type: dit.ChangeModify, DN: c.DN, Mods: []dit.Mod{{
			Op: dit.ModReplace, Attr: markerAttr, Values: []string{"L" + strconv.Itoa(seq)},
		}}})
	}
	if len(mods) > 0 {
		r = rung(b, func(i int) { modify(mods[i%len(mods)]) })
		out["dit.commit_us"] = r.ns / 1e3
	}
	rebased := make([]query.Query, len(in.queries))
	for i, q := range in.queries {
		if q.Base.IsRoot() {
			q.Base = suffixDN
		}
		rebased[i] = q
	}
	r = rung(b, func(i int) { sink.a, _ = master.Search(rebased[i%len(rebased)]) })
	out["dit.search_us"] = r.ns / 1e3
	var snapEntries, snapCalls int
	r = rung(b, func(i int) {
		_, es := master.Snapshot(in.sessions[i%len(in.sessions)])
		snapEntries += len(es)
		snapCalls++
	})
	out["dit.snapshot_us_per_kentry"] = ratio(r.ns*float64(snapCalls)/1e3, float64(snapEntries)/1e3)

	// resync: a fresh engine with the workload's session layout.
	eng := resync.NewEngine(master)
	cookies := make([]string, 0, len(in.sessions))
	begun := 0
	t0 := time.Now()
	for _, spec := range in.sessions {
		res, err := eng.Begin(spec)
		if err != nil {
			continue
		}
		cookies = append(cookies, res.Cookie)
		begun += len(res.Updates)
	}
	out["resync.begin_us_per_kentry"] = ratio(float64(time.Since(t0))/1e3, float64(begun)/1e3)
	if len(mods) > 0 && len(cookies) > 0 {
		var pollNs time.Duration
		polls := 0
		start := time.Now()
		for k := 0; time.Since(start) < 2*b; k++ {
			modify(mods[k%len(mods)])
			t := time.Now()
			for i, c := range cookies {
				if res, err := eng.Poll(c); err == nil {
					cookies[i] = res.Cookie
				}
				polls++
			}
			pollNs += time.Since(t)
		}
		out["resync.poll_us_per_session"] = ratio(float64(pollNs)/1e3, float64(polls))
	}
	for _, c := range cookies {
		_ = eng.End(c)
	}

	// replica: apply and answer on a scratch replica holding the front specs.
	rep, err := replica.NewFilterReplica(replica.WithContentIndexes(contentIndexes...))
	if err == nil {
		var batch []resync.Update
		for _, spec := range in.front {
			rep.AddStored(spec, "ladder")
			var ups []resync.Update
			for _, e := range master.MatchAll(spec) {
				ups = append(ups, resync.Update{Action: resync.ActionAdd, DN: e.DN(), Entry: e})
			}
			_ = rep.ApplySync(spec, ups)
			if len(batch) == 0 {
				for i, u := range ups {
					if i >= 64 {
						break
					}
					batch = append(batch, resync.Update{Action: resync.ActionModify, DN: u.DN, Entry: u.Entry})
				}
			}
		}
		if len(batch) > 0 {
			r = rung(b, func(i int) { _ = rep.ApplySync(in.front[0], batch[i%len(batch):i%len(batch)+1]) })
			out["replica.apply_us_per_update"] = r.ns / 1e3
		}
		var hitNs, missNs time.Duration
		hits, misses := 0, 0
		start := time.Now()
		for i := 0; time.Since(start) < 2*b; i++ {
			t := time.Now()
			_, hit, _ := rep.Answer(in.queries[i%len(in.queries)])
			if d := time.Since(t); hit {
				hitNs += d
				hits++
			} else {
				missNs += d
				misses++
			}
		}
		out["replica.answer_hit_us"] = ratio(float64(hitNs)/1e3, float64(hits))
		out["replica.answer_miss_us"] = ratio(float64(missNs)/1e3, float64(misses))
	}

	// persist: a checkpoint of one leaf session's content (what a leaf with
	// a StateDir rewrites after every applied batch), and journal appends.
	if leaf, err := dit.NewStore([]string{""}); err == nil {
		for _, e := range master.MatchAll(in.sessions[0]) {
			_ = leaf.Upsert(e) // as a replica stores selected entries: parents not required
		}
		ck := persist.Dir{Path: filepath.Join(in.tmp, "ladder-checkpoint")}
		if err := os.MkdirAll(ck.Path, 0o755); err == nil {
			var ms []float64
			for i := 0; i < 3; i++ {
				t := time.Now()
				if err := ck.Checkpoint(leaf); err == nil {
					ms = append(ms, float64(time.Since(t))/1e6)
				}
			}
			out["persist.checkpoint_ms"] = median(ms)
		}
	}
	if len(in.changes) > 0 {
		if f, err := os.Create(filepath.Join(in.tmp, "ladder-journal.ldif")); err == nil {
			w := bufio.NewWriter(f)
			r = rung(b, func(i int) { _ = persist.AppendJournal(w, in.changes[i%len(in.changes):i%len(in.changes)+1]) })
			_ = w.Flush()
			_ = f.Close()
			out["persist.append_us_per_change"] = r.ns / 1e3
		}
	}

	// ldapnet: wire + codec + write queue only, against a canned backend.
	if rtt, err := stubRTT(b, changed); err == nil {
		out["ldapnet.stub_rtt_us"] = rtt
	}
	return out
}

// stubBackend answers every request from canned results.
type stubBackend struct{ res *dit.Result }

var errStub = errors.New("loadrig stub: not served")

func (s *stubBackend) Bind(string, string) proto.ResultCode                { return proto.ResultSuccess }
func (s *stubBackend) Search(query.Query) (*dit.Result, error)             { return s.res, nil }
func (s *stubBackend) Add(*proto.AddRequest) error                         { return nil }
func (s *stubBackend) Delete(*proto.DelRequest) error                      { return nil }
func (s *stubBackend) Modify(*proto.ModifyRequest) error                   { return nil }
func (s *stubBackend) ModifyDN(*proto.ModifyDNRequest) error               { return nil }
func (s *stubBackend) ReSyncEnd(string) error                              { return errStub }
func (s *stubBackend) ReSyncBegin(query.Query) (*resync.PollResult, error) { return nil, errStub }
func (s *stubBackend) ReSyncPoll(string) (*resync.PollResult, error)       { return nil, errStub }
func (s *stubBackend) ReSyncRetain(string) (*resync.PollResult, error) {
	return nil, errStub
}
func (s *stubBackend) ReSyncResume(proto.ResumeToken) (*resync.PollResult, error) {
	return nil, errStub
}
func (s *stubBackend) ReSyncPersist(string) (*resync.Subscription, error) {
	return nil, errStub
}

// stubRTT is the mean round trip of a client Modify against the stub.
func stubRTT(budget time.Duration, entries []*entry.Entry) (float64, error) {
	if len(entries) == 0 {
		return 0, errStub
	}
	srv, err := ldapnet.Serve("127.0.0.1:0", &stubBackend{res: &dit.Result{Entries: entries[:1]}})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cl, err := ldapnet.DialTimeout(srv.Addr(), clientTimeout)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	change := []proto.ModifyChange{{Op: proto.ModifyOpReplace,
		Attr: proto.Attribute{Type: markerAttr, Values: []string{"1"}}}}
	var firstErr error
	r := rung(budget, func(i int) {
		if err := cl.Modify(entries[i%len(entries)].DN(), change); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return r.ns / 1e3, firstErr
}
