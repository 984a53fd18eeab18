// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 7), plus the ablations called out in DESIGN.md. Each figure
// benchmark runs the full experiment per iteration and reports the headline
// quantities as custom metrics, so `go test -bench=. -benchmem` both
// exercises the system end to end and prints the reproduced results.
package filterdir

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/cascade"
	"filterdir/internal/containment"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/filter"
	"filterdir/internal/ldapnet"
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/selection"
	"filterdir/internal/sim"
	"filterdir/internal/supervisor"
	"filterdir/internal/tierctl"
	"filterdir/internal/workload"
)

// benchConfig keeps the per-iteration experiment cost moderate.
func benchConfig() sim.Config {
	return sim.Config{
		Employees:       3000,
		MeasureQueries:  3000,
		WarmupQueries:   3000,
		BudgetFractions: []float64{0.02, 0.05, 0.10, 0.20, 0.35},
		Updates:         1500,
		Seed:            1,
		PayloadBytes:    128,
	}
}

func reportSeries(b *testing.B, fig *metrics.Figure, name, metric string, x float64) {
	b.Helper()
	s := fig.SeriesByName(name)
	if s == nil {
		b.Fatalf("series %q missing", name)
	}
	if y, ok := s.YAt(x); ok {
		b.ReportMetric(y, metric)
	}
}

// BenchmarkTable1WorkloadMix regenerates the Table 1 query-type mix.
func BenchmarkTable1WorkloadMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := sim.Table1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "measured %", "serial_pct", 1)
			reportSeries(b, fig, "measured %", "mail_pct", 2)
		}
	}
}

// BenchmarkFigure2ReferralRoundTrips measures the referral mechanism of
// Figure 2 over real TCP: one subtree search across three servers.
func BenchmarkFigure2ReferralRoundTrips(b *testing.B) {
	storeA, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		b.Fatal(err)
	}
	mustAdd := func(st *dit.Store, dnStr string, attrs map[string][]string) {
		e := entry.New(dn.MustParse(dnStr))
		for k, v := range attrs {
			e.Put(k, v...)
		}
		if err := st.Add(e); err != nil {
			b.Fatal(err)
		}
	}
	mustAdd(storeA, "o=xyz", map[string][]string{"objectclass": {"organization"}, "o": {"xyz"}})
	mustAdd(storeA, "c=us,o=xyz", map[string][]string{"objectclass": {"country"}, "c": {"us"}})
	mustAdd(storeA, "ou=research,c=us,o=xyz", map[string][]string{
		"objectclass": {dit.ReferralClass}, dit.RefAttr: {"ldap://hostB/ou=research,c=us,o=xyz"}})
	mustAdd(storeA, "c=in,o=xyz", map[string][]string{
		"objectclass": {dit.ReferralClass}, dit.RefAttr: {"ldap://hostC/c=in,o=xyz"}})

	storeB, err := dit.NewStore([]string{"ou=research,c=us,o=xyz"}, dit.WithDefaultReferral("ldap://hostA"))
	if err != nil {
		b.Fatal(err)
	}
	mustAdd(storeB, "ou=research,c=us,o=xyz", map[string][]string{"objectclass": {"organizationalUnit"}, "ou": {"research"}})
	mustAdd(storeB, "cn=John Doe,ou=research,c=us,o=xyz", map[string][]string{
		"objectclass": {"person"}, "cn": {"John Doe"}, "sn": {"Doe"}})
	storeC, err := dit.NewStore([]string{"c=in,o=xyz"}, dit.WithDefaultReferral("ldap://hostA"))
	if err != nil {
		b.Fatal(err)
	}
	mustAdd(storeC, "c=in,o=xyz", map[string][]string{"objectclass": {"country"}, "c": {"in"}})

	srvA, err := ldapnet.Serve("127.0.0.1:0", ldapnet.NewStoreBackend(storeA))
	if err != nil {
		b.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := ldapnet.Serve("127.0.0.1:0", ldapnet.NewStoreBackend(storeB))
	if err != nil {
		b.Fatal(err)
	}
	defer srvB.Close()
	srvC, err := ldapnet.Serve("127.0.0.1:0", ldapnet.NewStoreBackend(storeC))
	if err != nil {
		b.Fatal(err)
	}
	defer srvC.Close()

	q := query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=*)")
	b.ResetTimer()
	var lastRT int
	for i := 0; i < b.N; i++ {
		r := ldapnet.NewResolver()
		r.Register("hostA", srvA.Addr())
		r.Register("hostB", srvB.Addr())
		r.Register("hostC", srvC.Addr())
		if _, err := r.SearchChasing("hostB", q); err != nil {
			b.Fatal(err)
		}
		lastRT = r.RoundTrips()
		r.Close()
	}
	b.ReportMetric(float64(lastRT), "round_trips")
}

// benchFigure runs one experiment per iteration, reporting headline points.
func benchFigure(b *testing.B, id string, report func(*testing.B, *metrics.Figure)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := sim.ByID(id, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, fig)
		}
	}
}

// BenchmarkFigure4HitRatioVsReplicaSize reproduces Figure 4.
func BenchmarkFigure4HitRatioVsReplicaSize(b *testing.B) {
	benchFigure(b, "figure4", func(b *testing.B, fig *metrics.Figure) {
		reportSeries(b, fig, "filter-based", "filter_hit_at_10pct", 0.10)
		reportSeries(b, fig, "subtree-based", "subtree_hit_at_10pct", 0.10)
		reportSeries(b, fig, "filter-based", "filter_hit_at_35pct", 0.35)
		reportSeries(b, fig, "subtree-based", "subtree_hit_at_35pct", 0.35)
	})
}

// BenchmarkFigure5DeptHitRatio reproduces Figure 5.
func BenchmarkFigure5DeptHitRatio(b *testing.B) {
	benchFigure(b, "figure5", func(b *testing.B, fig *metrics.Figure) {
		reportSeries(b, fig, "filter R=6000", "r6000_hit_at_20pct", 0.20)
		reportSeries(b, fig, "filter R=10000", "r10000_hit_at_20pct", 0.20)
	})
}

// BenchmarkFigure6UpdateTraffic reproduces Figure 6.
func BenchmarkFigure6UpdateTraffic(b *testing.B) {
	benchFigure(b, "figure6", func(b *testing.B, fig *metrics.Figure) {
		if s := fig.SeriesByName("filter-based"); s != nil {
			b.ReportMetric(s.MaxY(), "filter_max_traffic")
		}
		if s := fig.SeriesByName("subtree-based"); s != nil {
			b.ReportMetric(s.MaxY(), "subtree_max_traffic")
		}
	})
}

// BenchmarkFigure7DeptUpdateTraffic reproduces Figure 7.
func BenchmarkFigure7DeptUpdateTraffic(b *testing.B) {
	benchFigure(b, "figure7", func(b *testing.B, fig *metrics.Figure) {
		if s := fig.SeriesByName("filter R=6000"); s != nil {
			b.ReportMetric(s.MaxY(), "r6000_max_traffic")
		}
		if s := fig.SeriesByName("filter R=10000"); s != nil {
			b.ReportMetric(s.MaxY(), "r10000_max_traffic")
		}
		if s := fig.SeriesByName("subtree-based"); s != nil {
			b.ReportMetric(s.MaxY(), "subtree_max_traffic")
		}
	})
}

// BenchmarkFigure8HitRatioVsFilters reproduces Figure 8.
func BenchmarkFigure8HitRatioVsFilters(b *testing.B) {
	benchFigure(b, "figure8", func(b *testing.B, fig *metrics.Figure) {
		reportSeries(b, fig, "user queries only", "user_hit_at_200", 200)
		reportSeries(b, fig, "generalized only", "gen_hit_at_200", 200)
		reportSeries(b, fig, "generalized + user", "both_hit_at_200", 200)
	})
}

// BenchmarkFigure9DeptHitRatioVsFilters reproduces Figure 9.
func BenchmarkFigure9DeptHitRatioVsFilters(b *testing.B) {
	benchFigure(b, "figure9", func(b *testing.B, fig *metrics.Figure) {
		reportSeries(b, fig, "user queries only", "user_hit_at_200", 200)
		reportSeries(b, fig, "generalized only", "gen_hit_at_200", 200)
		reportSeries(b, fig, "generalized + user", "both_hit_at_200", 200)
	})
}

// BenchmarkMailLocationQueries reproduces the Section 7.2(c) observations.
func BenchmarkMailLocationQueries(b *testing.B) {
	benchFigure(b, "mail-location", func(b *testing.B, fig *metrics.Figure) {
		reportSeries(b, fig, "hit ratio", "mail_generalized_hit", 1)
		reportSeries(b, fig, "hit ratio", "mail_cached_hit", 2)
		reportSeries(b, fig, "hit ratio", "location_hit", 3)
	})
}

// --- Ablations (DESIGN.md Section 5) -----------------------------------------

// BenchmarkContainmentTemplateVsNaive compares a compiled template-pair
// containment decision against the naive per-pair Proposition 1 check.
func BenchmarkContainmentTemplateVsNaive(b *testing.B) {
	f1 := filter.MustParse("(&(objectclass=inetorgperson)(departmentnumber=2406))")
	f2 := filter.MustParse("(&(objectclass=inetorgperson)(departmentnumber=240*))")
	b.Run("compiled", func(b *testing.B) {
		c := containment.NewChecker()
		c.FilterContains(f1, f2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !c.FilterContains(f1, f2) {
				b.Fatal("expected containment")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ok, err := containment.FilterContainsGeneric(f1, f2)
			if err != nil || !ok {
				b.Fatal("expected containment")
			}
		}
	})
}

// BenchmarkDITIndexVsScan compares index-assisted search with a subtree
// scan over the synthetic directory.
func BenchmarkDITIndexVsScan(b *testing.B) {
	build := func(index bool) *workload.Directory {
		cfg := workload.DefaultDirectoryConfig(3000)
		cfg.PayloadBytes = 64
		if !index {
			cfg.IndexAttrs = nil
		}
		dir, err := workload.BuildDirectory(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return dir
	}
	run := func(b *testing.B, dir *workload.Directory) {
		q := query.MustNew("", query.ScopeSubtree,
			fmt.Sprintf("(serialnumber=%s)", dir.Employees[1234].Serial))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := dir.Master.MatchAll(q); len(got) != 1 {
				b.Fatalf("got %d entries", len(got))
			}
		}
	}
	b.Run("indexed", func(b *testing.B) { run(b, build(true)) })
	b.Run("scan", func(b *testing.B) { run(b, build(false)) })
}

// BenchmarkResyncVsBaselines compares the synchronization traffic of the
// ReSync protocol against the retain-mode, tombstone and full-reload
// baselines for the same update burst.
func BenchmarkResyncVsBaselines(b *testing.B) {
	cfg := workload.DefaultDirectoryConfig(2000)
	cfg.PayloadBytes = 128
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=10*)")

	var resyncBytes, retainBytes, tombBytes, reloadBytes float64
	for i := 0; i < b.N; i++ {
		dir, err := workload.BuildDirectory(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng := resync.NewEngine(dir.Master)
		ts := resync.NewTombstoneServer(dir.Master)

		resA, err := eng.Begin(spec)
		if err != nil {
			b.Fatal(err)
		}
		resB, err := eng.Begin(spec)
		if err != nil {
			b.Fatal(err)
		}
		_, tsSess := ts.Begin(spec)

		upd := workload.NewUpdater(dir, workload.DefaultUpdateConfig())
		if _, err := upd.Apply(800); err != nil {
			b.Fatal(err)
		}

		polled, err := eng.Poll(resA.Cookie)
		if err != nil {
			b.Fatal(err)
		}
		retained, err := eng.PollRetain(resB.Cookie)
		if err != nil {
			b.Fatal(err)
		}
		tombs, ok := ts.Poll(tsSess)
		if !ok {
			b.Fatal("tombstone poll failed")
		}
		reload := resync.FullReload(dir.Master, spec)

		var t1, t2, t3, t4 resync.Traffic
		for _, u := range polled.Updates {
			t1.Add(u)
		}
		for _, u := range retained.Updates {
			t2.Add(u)
		}
		for _, u := range tombs.Updates {
			t3.Add(u)
		}
		for _, u := range reload {
			t4.Add(u)
		}
		resyncBytes, retainBytes = float64(t1.Bytes), float64(t2.Bytes)
		tombBytes, reloadBytes = float64(t3.Bytes), float64(t4.Bytes)
	}
	b.ReportMetric(resyncBytes, "resync_bytes")
	b.ReportMetric(retainBytes, "retain_bytes")
	b.ReportMetric(tombBytes, "tombstone_bytes")
	b.ReportMetric(reloadBytes, "reload_bytes")
}

// BenchmarkResyncConcurrentPolls measures multi-replica synchronization
// throughput on one master. Each iteration applies an update burst and then
// polls every replica session concurrently. The custom "parallelism" metric
// is effective parallelism — summed in-poll work time divided by wall time —
// which exceeds 1 because sessions lock individually. (The "global-lock"
// variant that emulated the engine-wide mutex removed in PR 1 is gone: on
// the 2-core host it measured 0.81 against 0.82 and so measured nothing.)
func BenchmarkResyncConcurrentPolls(b *testing.B) {
	const replicas = 8
	b.Run("per-session", func(b *testing.B) {
		cfg := workload.DefaultDirectoryConfig(2000)
		cfg.PayloadBytes = 64
		dir, err := workload.BuildDirectory(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng := resync.NewEngine(dir.Master)
		// Every session's filter matches all employees, so each poll
		// classifies the full update burst — the realistic worst case for
		// lock hold time.
		spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=1*)")
		cookies := make([]string, replicas)
		for i := range cookies {
			res, err := eng.Begin(spec)
			if err != nil {
				b.Fatal(err)
			}
			cookies[i] = res.Cookie
		}
		upd := workload.NewUpdater(dir, workload.DefaultUpdateConfig())

		var workNanos atomic.Int64
		var wallNanos int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// The burst is sized so each poll's classify work comfortably
			// exceeds a scheduler timeslice; overlapping progress then shows
			// up in the metric even on a single CPU.
			if _, err := upd.Apply(2000); err != nil {
				b.Fatal(err)
			}
			// Collect the burst's garbage on the untimed budget so a GC
			// cycle doesn't land inside the timed section on a coin flip
			// (at -benchtime=1x that made the timing bimodal).
			runtime.GC()
			b.StartTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for _, c := range cookies {
				wg.Add(1)
				go func(cookie string) {
					defer wg.Done()
					t0 := time.Now()
					if _, err := eng.Poll(cookie); err != nil {
						b.Error(err)
					}
					workNanos.Add(time.Since(t0).Nanoseconds())
				}(c)
			}
			wg.Wait()
			wallNanos += time.Since(start).Nanoseconds()
		}
		if wallNanos > 0 {
			b.ReportMetric(float64(workNanos.Load())/float64(wallNanos), "parallelism")
		}
	})
}

// encodeFanoutBatch mirrors the wire server's streamUpdates encoding work:
// every update becomes a search-entry PDU with an entry-change control,
// except an add without a cookie, which travels bare.
// With a shared-encoding memo the BER body is built once per content view
// and only the envelope (message ID + per-session cookie) is rebuilt per
// session; without one the whole message is encoded from scratch. cookie
// rides on the last PDU (a persist-mode push; empty for a poll-mode reload,
// whose cookie travels on the search-done); emit, when set, receives every
// PDU. Returns the bytes encoded.
func encodeFanoutBatch(b *testing.B, id int64, res *resync.PollResult, cookie string, emit func([]byte)) int {
	b.Helper()
	total := 0
	envelope := &proto.SearchEntry{} // supplies only the application tag
	for i, u := range res.Updates {
		u := u
		action := proto.ChangeActionDelete
		switch u.Action {
		case resync.ActionAdd:
			action = proto.ChangeActionAdd
		case resync.ActionModify:
			action = proto.ChangeActionModify
		}
		mkOp := func() *proto.SearchEntry {
			if u.Entry != nil {
				return &proto.SearchEntry{Entry: u.Entry}
			}
			return &proto.SearchEntry{Entry: entry.New(u.DN)}
		}
		last := ""
		if i == len(res.Updates)-1 {
			last = cookie
		}
		var controls []proto.Control
		if action != proto.ChangeActionAdd || last != "" {
			controls = []proto.Control{proto.EntryChange{Action: action, Cookie: last}.Control()}
		}
		var msg []byte
		var err error
		switch {
		case res.Enc == nil:
			msg, err = (&proto.Message{ID: id, Op: mkOp(), Controls: controls}).Encode()
		case last == "":
			var tail []byte
			tail, _, err = res.Enc.GetTail(i, func() ([]byte, error) {
				body, berr := proto.EncodeOpBody(mkOp())
				if berr != nil {
					return nil, berr
				}
				return proto.EncodeMessageTail(envelope, body, controls), nil
			})
			msg = proto.EncodeWithTail(id, tail)
		default:
			var body []byte
			body, _, err = res.Enc.Get(i, func() ([]byte, error) { return proto.EncodeOpBody(mkOp()) })
			msg = proto.EncodeWithOpBody(id, envelope, body, controls)
		}
		if err != nil {
			b.Fatal(err)
		}
		total += len(msg)
		if emit != nil {
			emit(msg)
		}
	}
	return total
}

// BenchmarkReloadFanout measures a master restart as the replicas see it:
// `sessions` replicas Begin at once, the master streams each its full
// content, each replica decodes the PDUs and applies them to its content
// store — engine Begin, encode, decode, ApplySync, everything but the
// socket. "shared" puts every replica on one spec, so the content group
// materialises and encodes the content once; "distinct" gives each replica
// a spec of its own with the same content (the filters differ in a branch
// nothing matches, which the containment checker cannot prove equivalent),
// so no group has two members and nothing is shared. B/op and allocs/op
// are the bulk path's memory bill; wire_bytes/op is what it put on the
// wire, the yardstick ROADMAP item 6 holds B/op against.
func BenchmarkReloadFanout(b *testing.B) {
	cfg := workload.DefaultDirectoryConfig(1000)
	dir, err := workload.BuildDirectory(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, sessions := range []int{1, 16} {
		for _, mode := range []string{"shared", "distinct"} {
			specs := make([]query.Query, sessions)
			for i := range specs {
				f := "(serialnumber=10*)"
				if mode == "distinct" {
					f = fmt.Sprintf("(|(serialnumber=10*)(uid=nobody%02d))", i)
				}
				specs[i] = query.MustNew("", query.ScopeSubtree, f)
			}
			b.Run(fmt.Sprintf("sessions=%d/%s", sessions, mode), func(b *testing.B) {
				b.ReportAllocs()
				wire, entries := 0, 0
				for i := 0; i < b.N; i++ {
					eng := resync.NewEngine(dir.Master)
					for s, spec := range specs {
						res, err := eng.Begin(spec)
						if err != nil {
							b.Fatal(err)
						}
						rep, err := replica.NewFilterReplica(replica.WithContentIndexes(cfg.IndexAttrs...))
						if err != nil {
							b.Fatal(err)
						}
						rep.AddStored(spec, res.Cookie)
						updates := make([]resync.Update, 0, len(res.Updates))
						wire += encodeFanoutBatch(b, int64(s+1), res, "", func(pdu []byte) {
							m, err := proto.Decode(pdu)
							if err != nil {
								b.Fatal(err)
							}
							e := m.Op.(*proto.SearchEntry).Entry
							updates = append(updates, resync.Update{Action: resync.ActionAdd, DN: e.DN(), Entry: e})
						})
						if err := rep.ApplySync(spec, updates); err != nil {
							b.Fatal(err)
						}
						entries += rep.EntryCount()
					}
					if groups := eng.Groups(); (mode == "shared") != (groups == 1) && sessions > 1 {
						b.Fatalf("%s: %d content groups for %d sessions", mode, groups, sessions)
					}
				}
				b.ReportMetric(float64(wire)/float64(b.N), "wire_bytes/op")
				b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
			})
		}
	}
}

// BenchmarkPersistFanout measures the master-side cost of one update cycle
// fanned out to many same-filter sessions: classify the change interval,
// replay each session's content delta, and BER-encode every update PDU —
// exactly the work the persist broadcaster performs per cycle. "shared" is
// the content-group engine (classification and PDU bodies computed once per
// group and view); "baseline" is the WithoutGrouping ablation doing full
// per-session work. ns/op is the whole cycle, so per-session cost is
// ns/op ÷ sessions; the fanout win is baseline ns/op over shared ns/op at
// equal session counts.
func BenchmarkPersistFanout(b *testing.B) {
	const burst = 200
	for _, sessions := range []int{1, 10, 100, 1000} {
		for _, mode := range []struct {
			name string
			opts []resync.EngineOption
		}{
			{"shared", nil},
			{"baseline", []resync.EngineOption{resync.WithoutGrouping()}},
		} {
			b.Run(fmt.Sprintf("sessions=%d/%s", sessions, mode.name), func(b *testing.B) {
				cfg := workload.DefaultDirectoryConfig(1000)
				cfg.PayloadBytes = 64
				dir, err := workload.BuildDirectory(cfg)
				if err != nil {
					b.Fatal(err)
				}
				eng := resync.NewEngine(dir.Master, mode.opts...)
				spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=1*)")
				cookies := make([]string, sessions)
				for i := range cookies {
					res, err := eng.Begin(spec)
					if err != nil {
						b.Fatal(err)
					}
					cookies[i] = res.Cookie
				}
				upd := workload.NewUpdater(dir, workload.DefaultUpdateConfig())

				encoded := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if _, err := upd.Apply(burst); err != nil {
						b.Fatal(err)
					}
					runtime.GC() // keep GC debt out of the timed section
					b.StartTimer()
					for s, c := range cookies {
						res, err := eng.Poll(c)
						if err != nil {
							b.Fatal(err)
						}
						cookies[s] = res.Cookie
						encoded += encodeFanoutBatch(b, int64(s), res, res.Cookie, nil)
					}
				}
				b.StopTimer()
				snap := eng.Counters().Snapshot()
				if hm := snap.SharedClassifyHits + snap.SharedClassifyMisses; hm > 0 {
					b.ReportMetric(float64(snap.SharedClassifyHits)/float64(hm), "classify_dedup")
				}
				b.ReportMetric(float64(encoded)/float64(b.N), "wire_bytes/cycle")
			})
		}
	}
}

// BenchmarkResumableReload measures the crash-recovery payoff of resumable
// chunked reloads (DESIGN.md §14). A replica whose connection dies partway
// through a full transfer and reconnects with its resume token pays only
// for the remaining chunks; the pre-resumption protocol restarted from byte
// zero. Each iteration drives chunked transfers to 25/50/75% completion,
// "crashes", and resumes; the custom metrics are the bytes still owed from
// each position next to a restart-from-zero reload of the same content.
func BenchmarkResumableReload(b *testing.B) {
	cfg := workload.DefaultDirectoryConfig(2000)
	cfg.PayloadBytes = 128
	dir, err := workload.BuildDirectory(cfg)
	if err != nil {
		b.Fatal(err)
	}
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=1*)")
	const chunkSize = 32

	// drain follows a transfer from res to completion, folding its chunks
	// into tr.
	drain := func(eng *resync.Engine, res *resync.PollResult, tr *resync.Traffic) {
		for {
			for _, u := range res.Updates {
				tr.Add(u)
			}
			if res.Resume == nil {
				return
			}
			next, err := eng.ResumeReload(*res.Resume)
			if err != nil {
				b.Fatal(err)
			}
			res = next
		}
	}

	fractions := []float64{0.25, 0.50, 0.75}
	var restartBytes float64
	resumeBytes := make([]float64, len(fractions))
	for i := 0; i < b.N; i++ {
		eng := resync.NewEngine(dir.Master, resync.WithChunkSize(chunkSize))

		// Restart-from-zero: the whole content over again.
		var full resync.Traffic
		res, err := eng.Begin(spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Resume == nil {
			b.Fatal("reload not chunked; grow the selection or shrink the chunk size")
		}
		drain(eng, res, &full)
		restartBytes = float64(full.Bytes)

		for fi, frac := range fractions {
			res, err := eng.Begin(spec)
			if err != nil {
				b.Fatal(err)
			}
			tok := *res.Resume
			for float64(tok.Chunk) < frac*float64(tok.Chunks) {
				next, err := eng.ResumeReload(tok)
				if err != nil {
					b.Fatal(err)
				}
				if next.Resume == nil {
					b.Fatalf("transfer completed before %.0f%%", frac*100)
				}
				tok = *next.Resume
			}
			// Crash here: the reconnecting consumer presents tok and pays
			// only for the chunks it never received.
			var rem resync.Traffic
			cont, err := eng.ResumeReload(tok)
			if err != nil {
				b.Fatal(err)
			}
			drain(eng, cont, &rem)
			resumeBytes[fi] = float64(rem.Bytes)
		}
	}
	b.ReportMetric(restartBytes, "restart_bytes")
	b.ReportMetric(resumeBytes[0], "resume25_bytes")
	b.ReportMetric(resumeBytes[1], "resume50_bytes")
	b.ReportMetric(resumeBytes[2], "resume75_bytes")
}

// BenchmarkSelectionPolicies asks what reorganising continually costs: the
// paper's periodic benefit/size revolution (every 500 queries) against the
// same selector reorganising on every query, on a drifting workload,
// reporting achieved hit ratios and stored-set churn (deltas that changed
// the stored set, each of which costs a content transfer).
func BenchmarkSelectionPolicies(b *testing.B) {
	cfg := workload.DefaultDirectoryConfig(2000)
	cfg.PayloadBytes = 64
	intervals := []int{500, 1}
	hitRatio := make([]float64, len(intervals))
	churn := make([]float64, len(intervals))
	for i := 0; i < b.N; i++ {
		dir, err := workload.BuildDirectory(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sizeOf := func(q query.Query) int { return len(dir.Master.MatchAll(q)) }
		rule := selection.PrefixRule{Attr: "serialnumber", PrefixLen: workload.SerialPrefixLen}
		budget := dir.EmployeeCount / 10

		for k, interval := range intervals {
			sel := selection.NewSelector(selection.NewGeneralizer(rule), sizeOf, budget, interval)
			g := workload.NewGenerator(dir, workload.DefaultTraceConfig())
			stored := map[string]bool{}
			hits, changes := 0, 0
			const n = 3000
			for j := 0; j < n; j++ {
				if j == n/2 {
					g.Reshuffle(99)
				}
				obs := g.NextOfKind(workload.KindSerial).Query
				obs.Base = dn.Root
				// A hit means some stored filter contains the query; with
				// prefix candidates this is a prefix check on the key set.
				if stored[obs.Filter.SlotValues()[0][:workload.SerialPrefixLen]] {
					hits++
				}
				if d := sel.Observe(obs); d != nil && len(d.Add)+len(d.Remove) > 0 {
					changes++
					stored = map[string]bool{}
					for _, q := range sel.StoredSet() {
						stored[q.Filter.SlotValues()[0]] = true
					}
				}
			}
			hitRatio[k] = float64(hits) / float64(n)
			churn[k] = float64(changes)
		}
	}
	b.ReportMetric(hitRatio[0], "periodic_hit_ratio")
	b.ReportMetric(churn[0], "periodic_churn")
	b.ReportMetric(hitRatio[1], "continual_hit_ratio")
	b.ReportMetric(churn[1], "continual_churn")
}

// BenchmarkCascadeFanout compares the MASTER-side cost of one update cycle
// delivered to N leaves in a flat topology (every leaf holds a session at
// the master) against a two-tier cascade (√N mid-tier replicas hold the
// master sessions; each mid re-serves √N leaves from its own engine). Only
// master-engine work is on the clock: in the cascade the mid-tier
// application and the leaf polls run on other machines' budgets, so they
// happen off-timer here. master_pdus/cycle counts update PDUs the master
// emits per cycle; leaf_pdus/cycle confirms both topologies deliver the
// same downstream traffic.
func BenchmarkCascadeFanout(b *testing.B) {
	const burst = 200
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=1*)")
	for _, leaves := range []int{16, 64, 256} {
		mids := 4
		for mids*mids < leaves {
			mids *= 2
		}
		b.Run(fmt.Sprintf("leaves=%d/flat", leaves), func(b *testing.B) {
			cfg := workload.DefaultDirectoryConfig(1000)
			cfg.PayloadBytes = 64
			dir, err := workload.BuildDirectory(cfg)
			if err != nil {
				b.Fatal(err)
			}
			eng := resync.NewEngine(dir.Master)
			cookies := make([]string, leaves)
			for i := range cookies {
				res, err := eng.Begin(spec)
				if err != nil {
					b.Fatal(err)
				}
				cookies[i] = res.Cookie
			}
			upd := workload.NewUpdater(dir, workload.DefaultUpdateConfig())
			var masterPDUs, leafPDUs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := upd.Apply(burst); err != nil {
					b.Fatal(err)
				}
				// Collect on the untimed budget: at -benchtime=1x a GC cycle
				// triggered by the burst's garbage lands inside the single
				// timed poll loop on roughly a coin flip, which made this
				// benchmark bimodal (~2.5x spread between modes).
				runtime.GC()
				b.StartTimer()
				for s, c := range cookies {
					res, err := eng.Poll(c)
					if err != nil {
						b.Fatal(err)
					}
					cookies[s] = res.Cookie
					masterPDUs += len(res.Updates)
				}
			}
			b.StopTimer()
			leafPDUs = masterPDUs // flat: every master PDU goes to a leaf
			b.ReportMetric(float64(masterPDUs)/float64(b.N), "master_pdus/cycle")
			b.ReportMetric(float64(leafPDUs)/float64(b.N), "leaf_pdus/cycle")
		})
		b.Run(fmt.Sprintf("leaves=%d/two-tier", leaves), func(b *testing.B) {
			cfg := workload.DefaultDirectoryConfig(1000)
			cfg.PayloadBytes = 64
			dir, err := workload.BuildDirectory(cfg)
			if err != nil {
				b.Fatal(err)
			}
			eng := resync.NewEngine(dir.Master)
			type mid struct {
				frep   *replica.FilterReplica
				eng    *resync.Engine
				cookie string
				leaves []string
			}
			tiers := make([]*mid, mids)
			perMid := (leaves + mids - 1) / mids
			for i := range tiers {
				frep, err := replica.NewFilterReplica()
				if err != nil {
					b.Fatal(err)
				}
				res, err := eng.Begin(spec)
				if err != nil {
					b.Fatal(err)
				}
				frep.AddStored(spec, res.Cookie)
				if err := frep.ApplySync(spec, res.Updates); err != nil {
					b.Fatal(err)
				}
				m := &mid{frep: frep, eng: resync.NewEngine(frep.Store()), cookie: res.Cookie}
				for l := 0; l < perMid; l++ {
					lres, err := m.eng.Begin(spec)
					if err != nil {
						b.Fatal(err)
					}
					m.leaves = append(m.leaves, lres.Cookie)
				}
				tiers[i] = m
			}
			upd := workload.NewUpdater(dir, workload.DefaultUpdateConfig())
			var masterPDUs, leafPDUs int
			results := make([]*resync.PollResult, mids)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := upd.Apply(burst); err != nil {
					b.Fatal(err)
				}
				runtime.GC() // keep GC debt out of the timed section (see flat)
				b.StartTimer()
				// Master-side work: one poll per mid-tier, nothing else.
				for mi, m := range tiers {
					res, err := eng.Poll(m.cookie)
					if err != nil {
						b.Fatal(err)
					}
					m.cookie = res.Cookie
					masterPDUs += len(res.Updates)
					results[mi] = res
				}
				b.StopTimer()
				// Downstream propagation happens on the mids' own budgets.
				for mi, m := range tiers {
					if err := m.frep.ApplySync(spec, results[mi].Updates); err != nil {
						b.Fatal(err)
					}
					for l, c := range m.leaves {
						lres, err := m.eng.Poll(c)
						if err != nil {
							b.Fatal(err)
						}
						m.leaves[l] = lres.Cookie
						leafPDUs += len(lres.Updates)
					}
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(masterPDUs)/float64(b.N), "master_pdus/cycle")
			b.ReportMetric(float64(leafPDUs)/float64(b.N), "leaf_pdus/cycle")
		})
	}
}

// BenchmarkAdaptiveReTier measures the adaptive control plane closing a
// traffic shift. Leaves querying a region the tier does not cover are
// rejected and divert to the fallback master, which then carries their full
// synchronization load (periodic rejected probes included). Starting the
// controller widens the tier into its spare budget; the filters-changed
// notification migrates the leaves back within one probe. The timed section
// spans the re-tier — controller start through the last leaf's migration —
// plus the post-shift churn cycles; the reported metrics compare the
// fallback master's PDU load per churn cycle before and after.
func BenchmarkAdaptiveReTier(b *testing.B) {
	const (
		leafCount   = 8
		opsPerCycle = 30
		cycles      = 3
	)
	baseSpec := query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=0)")
	hotSpec := query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)")

	var pduBefore, pduAfter, retierMs, setChanges float64
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		scfg := sim.SynthConfig{Seed: int64(n + 1), Entries: 60, Groups: 2, Vals: 4}
		st, err := sim.BuildSynthStore(scfg)
		if err != nil {
			b.Fatal(err)
		}
		backend := ldapnet.NewStoreBackend(st)
		masterSrv, err := ldapnet.Serve("127.0.0.1:0", backend)
		if err != nil {
			b.Fatal(err)
		}
		tier, err := cascade.New(cascade.Config{
			Upstream:     masterSrv.Addr(),
			Specs:        []query.Query{baseSpec},
			PollInterval: 2 * time.Millisecond,
			BackoffBase:  time.Millisecond,
			BackoffMax:   20 * time.Millisecond,
			DialTimeout:  2 * time.Second,
			Seed:         scfg.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		tier.Start()
		tierSrv, err := ldapnet.Serve("127.0.0.1:0",
			ldapnet.NewCascadeBackend(tier.Replica(), tier, "ldap://"+masterSrv.Addr()))
		if err != nil {
			b.Fatal(err)
		}

		type benchLeaf struct {
			sup  *supervisor.Supervisor
			frep *replica.FilterReplica
		}
		leaves := make([]*benchLeaf, leafCount)
		for i := range leaves {
			frep, err := replica.NewFilterReplica()
			if err != nil {
				b.Fatal(err)
			}
			sup, err := supervisor.New(supervisor.Config{
				Master:             tierSrv.Addr(),
				Fallback:           masterSrv.Addr(),
				RetryUpstreamAfter: 60 * time.Millisecond,
				WatchFilters:       true,
				Spec:               hotSpec,
				Mode:               supervisor.ModePoll,
				PollInterval:       2 * time.Millisecond,
				BackoffBase:        time.Millisecond,
				BackoffMax:         20 * time.Millisecond,
				DialTimeout:        2 * time.Second,
				Seed:               scfg.Seed + int64(i),
			}, frep)
			if err != nil {
				b.Fatal(err)
			}
			sup.Start()
			leaves[i] = &benchLeaf{sup: sup, frep: frep}
		}
		waitUntil := func(what string, cond func() bool) {
			deadline := time.Now().Add(15 * time.Second)
			for !cond() {
				if time.Now().After(deadline) {
					b.Fatalf("timed out waiting for %s", what)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		converged := func() bool {
			for _, l := range leaves {
				if ok, _ := resync.Converged(st, l.frep.Store(), hotSpec); !ok {
					return false
				}
			}
			return true
		}
		waitUntil("initial leaf sync", converged)

		gen := sim.NewOpGen(scfg)
		churn := func() {
			for c := 0; c < cycles; c++ {
				for i := 0; i < opsPerCycle; i++ {
					_ = sim.ApplyOp(st, gen.Next()) // invalid ops are no-ops
				}
				waitUntil("churn convergence", converged)
			}
		}
		masterPDUs := func() float64 {
			s := backend.Engine.Counters().Snapshot()
			return float64(s.PDUAdds + s.PDUDeletes + s.PDUModifies)
		}

		start := masterPDUs()
		churn()
		pduBefore += (masterPDUs() - start) / cycles

		ctrl, err := tierctl.New(tierctl.Config{Tier: tier, Budget: 2, Interval: 4 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		armed := time.Now()
		ctrl.Start()
		waitUntil("leaf migration", func() bool {
			for _, l := range leaves {
				if l.sup.Target() != tierSrv.Addr() {
					return false
				}
			}
			return true
		})
		retierMs += float64(time.Since(armed)) / float64(time.Millisecond)
		churn()
		b.StopTimer()

		start = masterPDUs()
		churn()
		pduAfter += (masterPDUs() - start) / cycles

		ctrl.Stop()
		setChanges += float64(ctrl.Counters().Generalizations.Load() + ctrl.Counters().FiltersRetired.Load())
		for _, l := range leaves {
			_ = l.sup.Stop()
		}
		_ = tierSrv.Close()
		_ = tier.Stop()
		_ = masterSrv.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(pduBefore/float64(b.N), "fallback_pdus_before/cycle")
	b.ReportMetric(pduAfter/float64(b.N), "fallback_pdus_after/cycle")
	b.ReportMetric(retierMs/float64(b.N), "retier_ms")
	b.ReportMetric(setChanges/float64(b.N), "stored_set_changes")
}
