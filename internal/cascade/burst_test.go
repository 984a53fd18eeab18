package cascade

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"testing"
	"time"

	"filterdir/internal/dn"
	"filterdir/internal/ldapnet"
	"filterdir/internal/persist"
	"filterdir/internal/proto"
	"filterdir/internal/resync/resynctest"
	"filterdir/internal/supervisor"
)

// BenchmarkDurableTierBurst is what durability costs a tier (EXPERIMENTS.md,
// "PR 19"): a durable persist-mode tier under an unpaced burst of 1,000 master
// commits inside its spec — eight in ten in-place modifies, the rest adds and
// deletes — sent by one LDAP client over loopback, so that they reach the
// master at a wire's pace and not a loop's. Per burst it reports the fsyncs
// the tier's links made (one per journal append, two per snapshot), the
// journal bytes they wrote, the exchanges they landed, the wall time from the
// first commit to the tier holding the master's content, and what the state
// directory weighs once a restart has folded every journal into a snapshot.
// Run it with -benchtime=1x.
func BenchmarkDurableTierBurst(b *testing.B) {
	const commits = 1000
	var fsyncs, journalBytes, exchanges, diskBytes int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		h := newHarness(b)
		cfg := h.tierConfig(b)
		cfg.Logf = nil
		cfg.StateDir = b.TempDir()
		cfg.Mode = supervisor.ModePersist
		tier, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tier.Start()
		<-tier.Supervisors()[0].Synced()

		client, err := ldapnet.Dial(h.srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for c := 0; c < commits; c++ {
			switch d := dn.MustParse(fmt.Sprintf("cn=04-p%d,c=us,o=xyz", c%8)); {
			case c%10 == 3:
				err = client.Add(personEntry("04", 1000+c))
			case c%10 == 8:
				err = client.Delete(personEntry("04", 1000+c-5).DN())
			default:
				err = client.Modify(d, []proto.ModifyChange{{Op: proto.ModifyOpReplace,
					Attr: proto.Attribute{Type: "sn", Values: []string{fmt.Sprint("burst", c)}}}})
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		_ = client.Close()
		for ok := false; !ok; time.Sleep(200 * time.Microsecond) {
			if ok, _ = resynctest.Converged(h.store, tier.Replica().Store(), h.tierSpec); time.Since(start) > time.Minute {
				b.Fatal("tier did not converge")
			}
		}
		wall += time.Since(start)
		if err := tier.Stop(); err != nil {
			b.Fatal(err)
		}
		for _, sup := range tier.Supervisors() {
			c := sup.Counters().Snapshot()
			fsyncs += c.JournalAppends + 2*c.Checkpoints
			journalBytes += c.JournalBytes
			exchanges += c.StreamBatches + c.Polls + c.Begins
		}

		// A restart under a retention bound of one byte snapshots at the next
		// exchange that lands.
		cfg.JournalRetention = persist.JournalRetention{MaxBytes: 1}
		if tier, err = New(cfg); err != nil {
			b.Fatal(err)
		}
		tier.Start()
		<-tier.Supervisors()[0].Synced()
		if err := h.store.Add(personEntry("04", 9999)); err != nil {
			b.Fatal(err)
		}
		for tier.Supervisors()[0].Counters().Checkpoints.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		if err := tier.Stop(); err != nil {
			b.Fatal(err)
		}
		err = filepath.WalkDir(cfg.StateDir, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				fi, err := d.Info()
				if err != nil {
					return err
				}
				diskBytes += fi.Size()
			}
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(fsyncs)/n, "fsyncs/burst")
	b.ReportMetric(float64(journalBytes)/n, "journal-B/burst")
	b.ReportMetric(float64(exchanges)/n, "exchanges/burst")
	b.ReportMetric(float64(wall.Microseconds())/1e3/n, "converge-ms/burst")
	b.ReportMetric(float64(diskBytes)/n, "disk-B")
}
