package ldapnet

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"testing"

	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/workload"
)

// wireConn counts the bytes written to it and hands each write — one whole
// message, as the connection writer writes them — to emit, if set.
type wireConn struct {
	discardConn
	n    int
	emit func([]byte)
}

func (c *wireConn) Write(p []byte) (int, error) {
	c.n += len(p)
	if c.emit != nil {
		c.emit(p)
	}
	return len(p), nil
}

// fanoutWire is a server writing synchronously to one wireConn, which every
// session of a fan-out benchmark streams through Server.streamUpdates.
func fanoutWire(b *testing.B) (*Server, *connState, *wireConn) {
	conn := &wireConn{}
	state := &connState{w: newConnWriter(conn, nil)}
	b.Cleanup(state.w.close)
	return &Server{conns: map[net.Conn]bool{}}, state, conn
}

// BenchmarkReloadFanout measures a master restart as the replicas see it:
// each of `sessions` replicas Begins, is streamed its full content, decodes it
// and applies it. "shared" puts them on one spec, whose content group encodes
// the content once; "distinct" on specs of the same content that containment
// cannot prove equivalent, so nothing is shared. wire_bytes/op is what
// streamUpdates wrote.
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
				srv, state, conn := fanoutWire(b)
				var updates []resync.Update
				conn.emit = func(pdu []byte) {
					m, err := proto.Decode(pdu)
					if err != nil {
						b.Fatal(err)
					}
					u, _, _, err := decodeUpdate(m, m.Op.(*proto.SearchEntry))
					if err != nil {
						b.Fatal(err)
					}
					updates = append(updates, u)
				}
				b.ReportAllocs()
				entries := 0
				for i := 0; i < b.N; i++ {
					eng := resync.NewEngine(dir.Master)
					for s, spec := range specs {
						res, err := eng.Begin(spec)
						if err != nil {
							b.Fatal(err)
						}
						updates = make([]resync.Update, 0, len(res.Updates))
						if err := srv.streamUpdates(state, conn, int64(s+1), res.Updates, "", res.CSN, res.Enc, false); err != nil {
							b.Fatal(err)
						}
						rep, err := replica.NewFilterReplica(replica.WithContentIndexes(cfg.IndexAttrs...))
						if err != nil {
							b.Fatal(err)
						}
						rep.AddStored(spec, res.Cookie)
						if err := rep.ApplySync(spec, updates); err != nil {
							b.Fatal(err)
						}
						entries += rep.EntryCount()
					}
					if groups := eng.Groups(); (mode == "shared") != (groups == 1) && sessions > 1 {
						b.Fatalf("%s: %d content groups for %d sessions", mode, groups, sessions)
					}
				}
				b.ReportMetric(float64(conn.n)/float64(b.N), "wire_bytes/op")
				b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
			})
		}
	}
}

// BenchmarkPersistFanout measures the persist broadcaster's work for one
// 200-update cycle fanned out to same-filter sessions: classify, replay each
// session's delta, stream its PDUs with its cookie on the last. "shared"
// puts every session on one engine, whose content group classifies and
// encodes once; "baseline" gives each session its own engine over the same
// store, so nothing is shared. The fan-out win is baseline over shared ns/op.
func BenchmarkPersistFanout(b *testing.B) {
	for _, sessions := range []int{1, 10, 100, 1000} {
		for _, mode := range []string{"shared", "baseline"} {
			b.Run(fmt.Sprintf("sessions=%d/%s", sessions, mode), func(b *testing.B) {
				cfg := workload.DefaultDirectoryConfig(1000)
				cfg.PayloadBytes = 64
				dir, err := workload.BuildDirectory(cfg)
				if err != nil {
					b.Fatal(err)
				}
				spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=1*)")
				engs := make([]*resync.Engine, sessions)
				cookies := make([]string, sessions)
				for i := range cookies {
					if engs[i] = resync.NewEngine(dir.Master); i > 0 && mode == "shared" {
						engs[i] = engs[0]
					}
					res, err := engs[i].Begin(spec)
					if err != nil {
						b.Fatal(err)
					}
					cookies[i] = res.Cookie
				}
				upd := workload.NewUpdater(dir, workload.DefaultUpdateConfig())
				srv, state, conn := fanoutWire(b)

				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if _, err := upd.Apply(200); err != nil {
						b.Fatal(err)
					}
					runtime.GC() // keep GC debt out of the timed section
					b.StartTimer()
					for s, c := range cookies {
						res, err := engs[s].Poll(c)
						if err != nil {
							b.Fatal(err)
						}
						cookies[s] = res.Cookie
						if err := srv.streamUpdates(state, conn, int64(s+1), res.Updates, res.Cookie, res.CSN, res.Enc, false); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				var hits, misses int64
				for _, eng := range slices.Compact(engs) {
					snap := eng.Counters().Snapshot()
					hits, misses = hits+snap.SharedClassifyHits, misses+snap.SharedClassifyMisses
				}
				if hits+misses > 0 {
					b.ReportMetric(float64(hits)/float64(hits+misses), "classify_dedup")
				}
				b.ReportMetric(float64(conn.n)/float64(b.N), "wire_bytes/cycle")
			})
		}
	}
}
