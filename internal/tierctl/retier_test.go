package tierctl

import (
	"fmt"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/ldapnet"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync/resynctest"
	"filterdir/internal/supervisor"
)

// BenchmarkAdaptiveReTier times the adaptive control plane closing a traffic
// shift: eight leaves on the master's 05 region, which the tier's
// (serialnumber=04*) does not cover, divert to the fallback master until the
// controller widens the tier and they migrate back — controller start to the
// last migration. The fallback master's update PDUs per churn cycle (one
// modify of each 05 entry) are reported before and after.
func BenchmarkAdaptiveReTier(b *testing.B) {
	const cycles = 3
	var pduBefore, pduAfter, retierMs, setChanges float64
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		st, tier, masterSrv := newTier(b)
		tierSrv, err := ldapnet.Serve("127.0.0.1:0",
			ldapnet.NewCascadeBackend(tier.Replica(), tier, "ldap://"+masterSrv.Addr()))
		if err != nil {
			b.Fatal(err)
		}
		sups := make([]*supervisor.Supervisor, 8)
		reps := make([]*replica.FilterReplica, len(sups))
		spec := func(i int) query.Query {
			return query.MustNew("o=xyz", query.ScopeSubtree, fmt.Sprintf("(serialnumber=050%d)", i%4))
		}
		for i := range sups {
			if reps[i], err = replica.NewFilterReplica(); err != nil {
				b.Fatal(err)
			}
			sups[i], err = supervisor.New(supervisor.Config{
				Master:             tierSrv.Addr(),
				Fallback:           masterSrv.Addr(),
				RetryUpstreamAfter: 60 * time.Millisecond,
				WatchFilters:       true,
				Spec:               spec(i),
				PollInterval:       2 * time.Millisecond,
				BackoffBase:        time.Millisecond,
				BackoffMax:         20 * time.Millisecond,
				DialTimeout:        2 * time.Second,
				Seed:               int64(i + 1),
			}, reps[i])
			if err != nil {
				b.Fatal(err)
			}
			sups[i].Start()
		}
		converged := func() bool {
			for i, rep := range reps {
				if ok, _ := resynctest.Converged(st, rep.Store(), spec(i)); !ok {
					return false
				}
			}
			return true
		}
		waitFor(b, "initial leaf sync", 15*time.Second, converged)

		version := 0
		churn := func() float64 {
			pdus := func() int64 {
				s := masterSrv.SyncCounters().Snapshot()
				return s.PDUAdds + s.PDUDeletes + s.PDUModifies
			}
			start := pdus()
			for c := 0; c < cycles; c++ {
				version++
				for i := 0; i < 4; i++ {
					if err := st.Modify(dn.MustParse(fmt.Sprintf("cn=05-p%d,o=xyz", i)),
						[]dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{fmt.Sprint("v", version)}}}); err != nil {
						b.Fatal(err)
					}
				}
				waitFor(b, "churn convergence", 15*time.Second, converged)
			}
			return float64(pdus()-start) / cycles
		}
		pduBefore += churn()

		ctrl, err := New(Config{Tier: tier, Budget: 2, Interval: 4 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		armed := time.Now()
		ctrl.Start()
		waitFor(b, "leaf migration", 15*time.Second, func() bool {
			for _, sup := range sups {
				if sup.Target() != tierSrv.Addr() {
					return false
				}
			}
			return true
		})
		retierMs += float64(time.Since(armed)) / float64(time.Millisecond)
		b.StopTimer()
		pduAfter += churn()

		ctrl.Stop()
		setChanges += float64(ctrl.Counters().Generalizations.Load() + ctrl.Counters().FiltersRetired.Load())
		for _, sup := range sups {
			_ = sup.Stop()
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
