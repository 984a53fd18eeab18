package ldapnet

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"testing"

	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/workload"
)

// wireConn counts the bytes written to it and, if emit is set, splits each
// write into the messages it carries — the connection writer puts a whole
// response buffer, many messages, into one write — and hands emit each.
type wireConn struct {
	discardConn
	n    int
	emit func(*proto.Message)
}

func (c *wireConn) Write(p []byte) (int, error) {
	c.n += len(p)
	if c.emit != nil {
		msgs, err := splitMessages(p)
		if err != nil {
			return 0, err
		}
		for _, m := range msgs {
			c.emit(m)
		}
	}
	return len(p), nil
}

// fanoutWire is a server writing to one wireConn, to which every session of
// a fan-out benchmark is written through Server.writeBatch, the server's
// write of a pushed batch.
func fanoutWire() (*Server, *connWriter, *wireConn) {
	conn := &wireConn{}
	return &Server{conns: map[net.Conn]bool{}, syncStats: &metrics.SyncCounters{}}, newConnWriter(conn), conn
}

// pushedBatch is res as a persist stream pushes it.
func pushedBatch(res *resync.PollResult) resync.Batch {
	_, point, _ := resync.SplitCookie(res.Cookie)
	return resync.Batch{Updates: res.Updates, Point: point, CSN: res.CSN, Enc: res.Enc}
}

// BenchmarkReloadFanout measures a master restart as the replicas see it:
// each of `sessions` replicas Begins, is streamed its full content, decodes it
// and applies it. "shared" puts them on one spec, whose content group encodes
// the content once; "distinct" on specs of the same content whose normalized
// keys differ, so nothing is shared. wire_bytes/op is what writeBatch wrote.
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
				srv, w, conn := fanoutWire()
				var updates []resync.Update
				conn.emit = func(m *proto.Message) {
					u, _, err := decodeUpdate(m, m.Op.(*proto.SearchEntry))
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
						if err := srv.writeBatch(w, int64(s+1), resync.Batch{Updates: res.Updates, CSN: res.CSN, Enc: res.Enc}, proto.EntryChange{}); err != nil {
							b.Fatal(err)
						}
						if len(updates) != len(res.Updates) {
							b.Fatalf("session %d: %d updates decoded off the wire, Begin sent %d", s, len(updates), len(res.Updates))
						}
						rep, err := replica.NewFilterReplica(replica.WithContentIndexes(cfg.IndexAttrs...))
						if err != nil {
							b.Fatal(err)
						}
						rep.AddStored(spec, res.Cookie)
						if err := rep.ApplySync(spec, updates); err != nil {
							b.Fatal(err)
						}
						if rep.EntryCount() != len(res.Updates) {
							b.Fatalf("session %d: replica holds %d entries, Begin sent %d", s, rep.EntryCount(), len(res.Updates))
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

// BenchmarkPersistFanout measures the work of persist streams for one cycle
// of `updates` committed updates fanned out to same-filter sessions: each
// session's poll, then Server.writeBatch of its batch — exactly what each
// stream's goroutine does once the store has committed (Subscription.Next):
// classify, replay the session's delta, stream its PDUs with its sync point
// on the last. "shared" puts every session on one engine, whose content group
// classifies and encodes once; "baseline" gives each session its own engine
// over the same store, so nothing is shared. The fan-out win is baseline over
// shared ns/op. The rows of 200 updates per cycle are a burst; the
// "updates=1" rows are what a content group is pushed one commit at a time,
// one PDU per batch, where the final PDU is the whole batch.
// allocs/session is the allocations of a cycle per session.
func BenchmarkPersistFanout(b *testing.B) {
	type row struct {
		sessions, updates int
		mode              string
	}
	var rows []row
	for _, sessions := range []int{1, 10, 100, 1000} {
		for _, mode := range []string{"shared", "baseline"} {
			rows = append(rows, row{sessions, 200, mode})
		}
	}
	for _, sessions := range []int{16, 1000} {
		rows = append(rows, row{sessions, 1, "shared"})
	}
	for _, r := range rows {
		name := fmt.Sprintf("sessions=%d/%s", r.sessions, r.mode)
		if r.updates != 200 {
			name += fmt.Sprintf("/updates=%d", r.updates)
		}
		b.Run(name, func(b *testing.B) {
			cfg := workload.DefaultDirectoryConfig(1000)
			cfg.PayloadBytes = 64
			dir, err := workload.BuildDirectory(cfg)
			if err != nil {
				b.Fatal(err)
			}
			spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=1*)")
			engs := make([]*resync.Engine, r.sessions)
			cookies := make([]string, r.sessions)
			for i := range cookies {
				if engs[i] = resync.NewEngine(dir.Master); i > 0 && r.mode == "shared" {
					engs[i] = engs[0]
				}
				res, err := engs[i].Begin(spec)
				if err != nil {
					b.Fatal(err)
				}
				cookies[i] = res.Cookie
			}
			upd := workload.NewUpdater(dir, workload.DefaultUpdateConfig())
			srv, w, conn := fanoutWire()

			var allocs uint64
			var ms runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := upd.Apply(r.updates); err != nil {
					b.Fatal(err)
				}
				runtime.GC() // keep GC debt out of the timed section
				runtime.ReadMemStats(&ms)
				allocs -= ms.Mallocs
				b.StartTimer()
				for s, c := range cookies {
					res, err := engs[s].Poll(c)
					if err != nil {
						b.Fatal(err)
					}
					cookies[s] = res.Cookie
					pb := pushedBatch(res)
					if err := srv.writeBatch(w, int64(s+1), pb, pushedEnd(pb)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				allocs += ms.Mallocs
				b.StartTimer()
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
			b.ReportMetric(float64(allocs)/float64(b.N)/float64(r.sessions), "allocs/session")
		})
	}
}
