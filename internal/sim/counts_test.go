package sim

import (
	"fmt"

	"filterdir/internal/dn"
	"filterdir/internal/metrics"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/selection"
	"filterdir/internal/workload"
)

// pinned are the evaluation's counts no experiment produces, each a figure
// at its own configuration, by figure id; TestGoldenFigures pins them too.
var pinned = []figureRun{
	{"resync-baselines", resyncBaselines},
	{"resumable-reload", resumableReload},
	{"selection-policies", selectionPolicies},
	{"cascade-fanout", cascadeFanout},
}

// directory builds the seed-1 directory of n employees, padded by payload.
func directory(n, payload int) (*workload.Directory, error) {
	cfg := workload.DefaultDirectoryConfig(n)
	cfg.PayloadBytes = payload
	return workload.BuildDirectory(cfg)
}

// resyncBaselines is §5.2's comparison: the bytes one 800-update burst costs
// a (serialnumber=10*) replica of a 2,000-employee directory under ReSync,
// retain mode, tombstones and a full reload.
func resyncBaselines() (*metrics.Figure, error) {
	const burst = 800
	dir, err := directory(2000, 128)
	if err != nil {
		return nil, err
	}
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=10*)")
	eng := resync.NewEngine(dir.Master)
	ts := tombstoneServer{store: dir.Master}
	resA, err := eng.Begin(spec)
	if err != nil {
		return nil, err
	}
	resB, err := eng.Begin(spec)
	if err != nil {
		return nil, err
	}
	_, tsSess := ts.begin(spec)

	if _, err := workload.NewUpdater(dir, workload.DefaultUpdateConfig()).Apply(burst); err != nil {
		return nil, err
	}
	polled, err := eng.Poll(resA.Cookie)
	if err != nil {
		return nil, err
	}
	retained, err := eng.PollRetain(resB.Cookie)
	if err != nil {
		return nil, err
	}
	tombs, ok := ts.poll(tsSess)
	if !ok {
		return nil, fmt.Errorf("tombstone poll failed")
	}

	fig := &metrics.Figure{ID: "resync-baselines", Title: "Bytes of one update burst (Section 5.2)"}
	fig.AddSeries("resync").Add(burst, wireBytes(polled.Updates))
	fig.AddSeries("retain").Add(burst, wireBytes(retained.Updates))
	fig.AddSeries("tombstone").Add(burst, wireBytes(tombs.Updates))
	fig.AddSeries("full reload").Add(burst, wireBytes(fullReload(dir.Master, spec)))
	return fig, nil
}

// resumableReload is the crash-recovery payoff of resumable chunked reloads
// (DESIGN.md §14): the bytes a (serialnumber=1*) replica of a 2,000-employee
// directory is still owed when its 32-entry-chunk transfer is cut at 25, 50
// and 75 % and resumed by token, beside a restart from zero (x = 0).
func resumableReload() (*metrics.Figure, error) {
	dir, err := directory(2000, 128)
	if err != nil {
		return nil, err
	}
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=1*)")
	eng := resync.NewEngine(dir.Master, resync.WithChunkSize(32))
	// chunks is the bytes of each chunk of one transfer, each resumed by token.
	var chunks []float64
	res, err := eng.Begin(spec)
	for err == nil {
		chunks = append(chunks, wireBytes(res.Updates))
		if res.Resume == nil {
			break
		}
		res, err = eng.ResumeReload(*res.Resume)
	}
	if err != nil {
		return nil, err
	}
	fig := &metrics.Figure{ID: "resumable-reload", Title: "Bytes owed after a cut reload (DESIGN.md §14)"}
	restart, resume := fig.AddSeries("restart"), fig.AddSeries("resume")
	for _, frac := range []float64{0, 0.25, 0.50, 0.75} {
		// Cut once frac of the chunks are in, the consumer presents its
		// token and is sent only the chunks it never received.
		owed, s := 0.0, resume
		for i, b := range chunks {
			if float64(i) >= frac*float64(len(chunks)) {
				owed += b
			}
		}
		if frac == 0 {
			s = restart
		}
		s.Add(frac, owed)
	}
	return fig, nil
}

// wireBytes is the bytes of updates as resync.Traffic counts them.
func wireBytes(updates []resync.Update) float64 {
	var tr resync.Traffic
	for _, u := range updates {
		tr.Add(u)
	}
	return float64(tr.Bytes)
}

// selectionPolicies is the paper's periodic revolution (every 500 queries)
// against the same selector reorganising on every query: hit ratio and
// stored-set changes (each a content transfer) over 3,000 serial queries,
// reshuffled halfway, at a budget of a tenth of 2,000 employees.
func selectionPolicies() (*metrics.Figure, error) {
	const n = 3000
	fig := &metrics.Figure{ID: "selection-policies", Title: "Periodic vs continual revolution, by interval"}
	hitS, changeS := fig.AddSeries("hit ratio"), fig.AddSeries("stored-set changes")
	for _, interval := range []int{500, 1} {
		dir, err := directory(2000, 64)
		if err != nil {
			return nil, err
		}
		sizeOf := func(q query.Query) int { return len(dir.Master.MatchAll(q)) }
		rule := selection.PrefixRule{Attr: "serialnumber", PrefixLen: workload.SerialPrefixLen}
		sel := selection.NewSelector(selection.NewGeneralizer(rule), sizeOf, dir.EmployeeCount/10, interval)
		g := workload.NewGenerator(dir, workload.DefaultTraceConfig())
		stored := map[string]bool{}
		hits, changes := 0, 0
		for j := 0; j < n; j++ {
			if j == n/2 {
				g.Reshuffle(99)
			}
			obs := g.NextOfKind(workload.KindSerial).Query
			obs.Base = dn.Root
			// A hit means some stored filter contains the query; with prefix
			// candidates that is a prefix lookup in the stored set.
			if stored[obs.Filter.SlotValues()[0][:workload.SerialPrefixLen]] {
				hits++
			}
			if d := sel.Observe(obs); d != nil && len(d.Add)+len(d.Remove) > 0 {
				changes++
				for _, q := range d.Remove {
					delete(stored, q.Filter.SlotValues()[0])
				}
				for _, q := range d.Add {
					stored[q.Filter.SlotValues()[0]] = true
				}
			}
		}
		hitS.Add(float64(interval), float64(hits)/n)
		changeS.Add(float64(interval), float64(changes))
	}
	return fig, nil
}

// cascadeFanout counts the update PDUs of one 200-update cycle delivered to N
// leaves of (serialnumber=1*) over 1,000 employees: flat, every leaf holds a
// master session; two-tier, √N mid-tier replicas do and re-serve the leaves
// from engines of their own, and the leaves' PDUs are counted too.
func cascadeFanout() (*metrics.Figure, error) {
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=1*)")
	fig := &metrics.Figure{ID: "cascade-fanout", Title: "Update PDUs per cycle, flat vs two-tier, by leaves"}
	flatS := fig.AddSeries("flat master PDUs")
	tierS := fig.AddSeries("two-tier master PDUs")
	leafS := fig.AddSeries("two-tier leaf PDUs")
	for _, leaves := range []int{16, 64, 256} {
		mids := 4
		for mids*mids < leaves {
			mids *= 2
		}
		dir, err := directory(1000, 64)
		if err != nil {
			return nil, err
		}
		// The flat leaves and the mid-tiers are sessions of one master
		// engine, so both topologies see the same burst.
		eng := resync.NewEngine(dir.Master)
		flat := make([]string, leaves)
		for i := range flat {
			res, err := eng.Begin(spec)
			if err != nil {
				return nil, err
			}
			flat[i] = res.Cookie
		}
		type mid struct {
			frep    *replica.FilterReplica
			eng     *resync.Engine
			cookie  string
			cookies []string // its leaves' sessions
		}
		tier := make([]*mid, mids)
		for i := range tier {
			frep, err := replica.NewFilterReplica()
			if err != nil {
				return nil, err
			}
			res, err := eng.Begin(spec)
			if err != nil {
				return nil, err
			}
			frep.AddStored(spec, res.Cookie)
			if err := frep.ApplySync(spec, res.Updates); err != nil {
				return nil, err
			}
			m := &mid{frep: frep, eng: resync.NewEngine(frep.Store()), cookie: res.Cookie}
			for len(m.cookies) < (leaves+mids-1)/mids {
				lres, err := m.eng.Begin(spec)
				if err != nil {
					return nil, err
				}
				m.cookies = append(m.cookies, lres.Cookie)
			}
			tier[i] = m
		}

		if _, err := workload.NewUpdater(dir, workload.DefaultUpdateConfig()).Apply(200); err != nil {
			return nil, err
		}
		flatPDUs, err := pollAll(eng, flat)
		if err != nil {
			return nil, err
		}
		masterPDUs, leafPDUs := 0, 0
		for _, m := range tier {
			res, err := eng.Poll(m.cookie)
			if err != nil {
				return nil, err
			}
			masterPDUs += len(res.Updates)
			if err := m.frep.ApplySync(spec, res.Updates); err != nil {
				return nil, err
			}
			n, err := pollAll(m.eng, m.cookies)
			if err != nil {
				return nil, err
			}
			leafPDUs += n
		}
		flatS.Add(float64(leaves), float64(flatPDUs))
		tierS.Add(float64(leaves), float64(masterPDUs))
		leafS.Add(float64(leaves), float64(leafPDUs))
	}
	return fig, nil
}

// pollAll polls every session of cookies at eng and returns the update PDUs
// they received.
func pollAll(eng *resync.Engine, cookies []string) (int, error) {
	pdus := 0
	for _, c := range cookies {
		res, err := eng.Poll(c)
		if err != nil {
			return 0, err
		}
		pdus += len(res.Updates)
	}
	return pdus, nil
}
