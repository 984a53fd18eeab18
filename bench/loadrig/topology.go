package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"filterdir/internal/cascade"
	"filterdir/internal/dit"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/supervisor"
	"filterdir/internal/workload"
)

var contentIndexes = []string{"serialnumber", "mail", "dept", "location", "uid"}

// replicaCacheCap is ldapreplica's default recent-query window.
const replicaCacheCap = 64

// topology is one assembled system under test: a master, optional cascade
// mid-tiers and the leaf replicas, all in this process, all talking LDAP
// over loopback TCP through the repo's public constructors.
type topology struct {
	def workloadDef
	dir *workload.Directory

	backend *ldapnet.StoreBackend
	// The master serves two listeners over one backend: replication
	// sessions (mids or leaves) attach to replSrv, load clients (writers,
	// referral chases) to clientSrv — so the bytes the master pays to keep
	// replicas fresh are counted apart from query traffic.
	replWire, clientWire, frontWire *wireCounters
	replSrv, clientSrv              *ldapnet.Server

	mids   []*midNode
	reps   []*replica.FilterReplica
	leaves []*leafNode
	// front is where searches go: a ReplicaBackend over reps[0].
	front      *ldapnet.Server
	frontSpecs []query.Query

	// specs are the distinct content specs (mid specs first); member maps
	// a normalized DN to the set of specs whose content holds it.
	specs    []query.Query
	specKeys map[string]int
	member   map[string]uint64
	// bySpec lists, per distinct spec, the trackers of the stores holding it.
	bySpec [][]*storeTracker

	tr *tracer // nil unless the run is traced

	stateDir string
	setup    setupStats
}

type midNode struct {
	tier  *cascade.Tier
	srv   *ldapnet.Server
	wire  *wireCounters
	spec  query.Query
	track *storeTracker
	stop  chan struct{}
	done  chan struct{}
}

// leafNode is one (replica, filter) pair: the unit a supervisor keeps
// fresh and the unit propagation is measured on.
type leafNode struct {
	rep    *replica.FilterReplica
	spec   query.Query
	sup    *supervisor.Supervisor
	dialer *cutDialer
	track  *storeTracker
	mid    int
}

// setupStats is what one set-up measured.
type setupStats struct {
	seconds       float64 // directory build + servers up + every initial sync, to barrier release
	reloadSeconds float64 // all leaves started cold → every leaf synced
	reloadEntries int64   // entries the leaves applied in that stage
	reloadBytes   int64   // bytes their suppliers' listeners wrote in that stage
}

func mustSpec(filter string) query.Query {
	return query.MustNew("", query.ScopeSubtree, filter)
}

// buildTopology assembles and synchronizes the workload's topology and
// returns once the READY barrier holds: every supervisor's first exchange
// is applied and every persist stream is established.
func buildTopology(def workloadDef, seed int64, tmpRoot string, tr *tracer) (*topology, error) {
	t := &topology{def: def, tr: tr, specKeys: map[string]int{}, member: map[string]uint64{}}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	t0 := time.Now()

	cfg := workload.DefaultDirectoryConfig(def.employees)
	cfg.Seed = seed
	dir, err := workload.BuildDirectory(cfg)
	if err != nil {
		return nil, err
	}
	t.dir = dir

	t.backend = ldapnet.NewStoreBackend(dir.Master)
	replLn, err := listenCounting()
	if err != nil {
		return nil, err
	}
	t.replWire = replLn.c
	t.replSrv = ldapnet.ServeListener(replLn, tr.wrapBackend("master", t.backend))
	clientLn, err := listenCounting()
	if err != nil {
		return nil, err
	}
	t.clientWire = clientLn.c
	t.clientSrv = ldapnet.ServeListener(clientLn, tr.wrapBackend("master", t.backend))
	masterURL := "ldap://" + t.clientSrv.Addr()

	if def.reloadChunk > 0 {
		t.stateDir, err = os.MkdirTemp(tmpRoot, "state-")
		if err != nil {
			return nil, err
		}
	}

	// Mid-tiers first: they must hold their content before a leaf's spec
	// can be served from them.
	for i, f := range def.mids {
		spec := mustSpec(f)
		tier, err := cascade.New(cascade.Config{
			Upstream:       t.replSrv.Addr(),
			Specs:          []query.Query{spec},
			Depth:          1,
			Mode:           supervisor.ModePersist,
			ReloadChunk:    def.reloadChunk,
			ContentIndexes: contentIndexes,
			BackoffBase:    5 * time.Millisecond,
			Seed:           seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		ln, err := listenCounting()
		if err != nil {
			return nil, err
		}
		m := &midNode{tier: tier, wire: ln.c, spec: spec,
			track: &storeTracker{store: tier.Replica().Store(), mid: true, tr: tr, node: fmt.Sprintf("mid%d", i)}}
		t.mids = append(t.mids, m)
		tier.Start()
		cb := ldapnet.NewCascadeBackend(tier.Replica(), tier, masterURL)
		m.srv = ldapnet.ServeListener(ln, tr.wrapBackend(fmt.Sprintf("mid%d", i), cb))
		t.addSpec(spec, m.track)
	}
	for _, m := range t.mids {
		for _, sup := range m.tier.Supervisors() {
			if err := waitSynced(sup, "mid-tier"); err != nil {
				return nil, err
			}
		}
	}
	if err := waitStreams(t.backend.SyncCounters().PersistStreams.Load, len(t.mids), "master→mid"); err != nil {
		return nil, err
	}

	// Leaves: all start cold at once.
	for ri, rd := range def.replicas {
		rep, err := replica.NewFilterReplica(
			replica.WithCacheCapacity(replicaCacheCap),
			replica.WithContentIndexes(contentIndexes...))
		if err != nil {
			return nil, err
		}
		t.reps = append(t.reps, rep)
		for fi, f := range rd.filters {
			leaf := &leafNode{rep: rep, spec: mustSpec(f), mid: rd.upstream,
				dialer: &cutDialer{}, track: &storeTracker{store: rep.Store(), tr: tr, node: fmt.Sprintf("leaf%d", len(t.leaves))}}
			up := t.replSrv.Addr()
			if rd.upstream >= 0 {
				up = t.mids[rd.upstream].srv.Addr()
			}
			scfg := supervisor.Config{
				Master:      up,
				Spec:        leaf.spec,
				Mode:        supervisor.ModePersist,
				BackoffBase: 5 * time.Millisecond,
				// In persist mode this is the cadence of a demoted leaf's
				// catch-up polls and a tenth of its demotion cool-down.
				PollInterval: leafPollInterval,
				Seed:         seed + int64(100+len(t.leaves)),
				Dial:         leaf.dialer.dial,
				OnApplied:    func(int) { leaf.track.check() },
			}
			if def.reloadChunk > 0 {
				// The second request on a leaf's first connection is the
				// SyncResume for chunk 1: fail it.
				leaf.dialer.cutWrite = 2
				scfg.StateDir = filepath.Join(t.stateDir, fmt.Sprintf("leaf%02d-%d", ri, fi))
				if err := os.MkdirAll(scfg.StateDir, 0o755); err != nil {
					return nil, err
				}
			}
			leaf.sup, err = supervisor.New(scfg, rep)
			if err != nil {
				return nil, err
			}
			t.leaves = append(t.leaves, leaf)
			t.addSpec(leaf.spec, leaf.track)
		}
	}
	supplierBytes := func() int64 {
		if len(t.mids) == 0 {
			return t.replWire.bytes.Load()
		}
		var n int64
		for _, m := range t.mids {
			n += m.wire.bytes.Load()
		}
		return n
	}
	bytes0 := supplierBytes()
	reload0 := time.Now()
	for _, l := range t.leaves {
		l.sup.Start()
	}
	for _, l := range t.leaves {
		if err := waitSynced(l.sup, "leaf"); err != nil {
			return nil, err
		}
	}
	t.setup.reloadSeconds = time.Since(reload0).Seconds()
	t.setup.reloadBytes = supplierBytes() - bytes0
	for _, l := range t.leaves {
		t.setup.reloadEntries += l.sup.Counters().UpdatesApplied.Load()
	}

	frontLn, err := listenCounting()
	if err != nil {
		return nil, err
	}
	t.frontWire = frontLn.c
	t.front = ldapnet.ServeListener(frontLn, tr.wrapBackend("replica",
		ldapnet.NewReplicaBackend(t.reps[0], masterURL)))
	for _, l := range t.leaves {
		if l.rep == t.reps[0] {
			t.frontSpecs = append(t.frontSpecs, l.spec)
		}
	}

	// Every persist stream must be up before load is released, or the
	// first commits would be delivered by a catch-up poll instead.
	direct := len(t.mids)
	perMid := make([]int, len(t.mids))
	for _, l := range t.leaves {
		if l.mid < 0 {
			direct++
		} else {
			perMid[l.mid]++
		}
	}
	if err := waitStreams(t.backend.SyncCounters().PersistStreams.Load, direct, "master"); err != nil {
		return nil, err
	}
	for i, m := range t.mids {
		if err := waitStreams(m.tier.SyncCounters().PersistStreams.Load, perMid[i], "mid-tier"); err != nil {
			return nil, err
		}
	}
	t.setup.seconds = time.Since(t0).Seconds()
	ok = true
	return t, nil
}

func (t *topology) addSpec(spec query.Query, tr *storeTracker) {
	key := spec.Normalize().Key()
	i, ok := t.specKeys[key]
	if !ok {
		i = len(t.specs)
		t.specKeys[key] = i
		t.specs = append(t.specs, spec)
		t.bySpec = append(t.bySpec, nil)
	}
	t.bySpec[i] = append(t.bySpec[i], tr)
}

const barrierTimeout = 120 * time.Second

// leafPollInterval keeps a leaf the master's slow-consumer policy demoted
// under closed-loop saturation from staying in poll mode for ten seconds
// (the default cool-down is 10 × a 1 s interval), which would bleed into the
// next round's open-loop phase.
const leafPollInterval = 200 * time.Millisecond

// awaitStreaming waits, untimed, until every leaf is back on its persist
// stream after a closed-loop phase may have had it demoted.
func (t *topology) awaitStreaming(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for {
		ok := true
		for _, l := range t.leaves {
			if l.sup.State() != supervisor.StateStreaming {
				ok = false
				break
			}
		}
		if ok || time.Now().After(deadline) {
			return ok
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitSynced(sup *supervisor.Supervisor, what string) error {
	select {
	case <-sup.Synced():
		return nil
	case <-time.After(barrierTimeout):
		return fmt.Errorf("barrier: %s supervisor not synced after %s (state %s)", what, barrierTimeout, sup.State())
	}
}

func waitStreams(load func() int64, want int, what string) error {
	deadline := time.Now().Add(barrierTimeout)
	for load() < int64(want) {
		if time.Now().After(deadline) {
			return fmt.Errorf("barrier: %s has %d of %d persist streams after %s", what, load(), want, barrierTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// computeMembership records, for every entry some spec selects, which
// specs select it. The specs filter on attributes the write stream never
// changes, so membership of an existing entry is fixed for the run.
func (t *topology) computeMembership() {
	for i, spec := range t.specs {
		for _, e := range t.dir.Master.MatchAll(spec) {
			t.member[e.DN().Norm()] |= 1 << uint(i)
		}
	}
}

// maskOf evaluates every distinct spec on a new entry.
func (t *topology) maskOf(e *entry.Entry) uint64 {
	var m uint64
	for i, spec := range t.specs {
		if spec.InScope(e.DN()) && (spec.Filter == nil || spec.Filter.Matches(e)) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// expect registers the commit with every store whose spec holds it. Mid
// stores are only followed when the run is traced (hop timing).
func (t *topology) expect(c *commit) {
	for i := 0; c.specs>>uint(i) != 0; i++ {
		if c.specs&(1<<uint(i)) == 0 {
			continue
		}
		for _, tr := range t.bySpec[i] {
			if tr.mid && t.tr == nil {
				continue
			}
			tr.expect(c)
		}
	}
}

// nudger returns drain's nudge: a modify of the organisation entry, which
// no spec selects, so it commits at the master and reaches no replica.
func (t *topology) nudger(cl *ldapnet.Client) func() {
	n := 0
	return func() {
		n++
		_ = cl.Modify(suffixDN, []proto.ModifyChange{{Op: proto.ModifyOpReplace,
			Attr: proto.Attribute{Type: "description", Values: []string{"nudge " + strconv.Itoa(n)}}}})
	}
}

func (t *topology) trackers() []*storeTracker {
	var out []*storeTracker
	for _, m := range t.mids {
		out = append(out, m.track)
	}
	for _, l := range t.leaves {
		out = append(out, l.track)
	}
	return out
}

// watchMids starts, for a traced run, one goroutine per mid-tier that wakes
// on the tier store's change signal and stamps mid-applied times.
func (t *topology) watchMids() {
	for _, m := range t.mids {
		m.stop, m.done = make(chan struct{}), make(chan struct{})
		go func(m *midNode) {
			defer close(m.done)
			st := m.tier.Replica().Store()
			for {
				sig := st.ChangeSignal()
				m.track.check()
				select {
				case <-sig:
				case <-m.stop:
					return
				}
			}
		}(m)
	}
}

// fingerprint is the value-level identity of an entry.
func fingerprint(e *entry.Entry) string {
	names := e.AttributeNames()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		vals := append([]string(nil), e.Values(n)...)
		sort.Strings(vals)
		b.WriteString(strings.ToLower(n))
		b.WriteByte('=')
		b.WriteString(strings.Join(vals, "\x00"))
		b.WriteByte('\n')
	}
	return b.String()
}

// verifyContent is the convergence gate: each replica's store must equal
// the union of master.MatchAll over its specs — same DN set, same values.
func (t *topology) verifyContent() error {
	type holder struct {
		st    *dit.Store
		specs []query.Query
		name  string
	}
	var hs []holder
	for i, m := range t.mids {
		hs = append(hs, holder{m.tier.Replica().Store(), []query.Query{m.spec}, fmt.Sprintf("mid %d", i)})
	}
	for ri, rep := range t.reps {
		h := holder{st: rep.Store(), name: fmt.Sprintf("replica %d", ri)}
		for _, l := range t.leaves {
			if l.rep == rep {
				h.specs = append(h.specs, l.spec)
			}
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		want := map[string]string{}
		for _, spec := range h.specs {
			for _, e := range t.dir.Master.MatchAll(spec) {
				want[e.DN().Norm()] = fingerprint(e)
			}
		}
		got := h.st.All()
		if len(got) != len(want) {
			return fmt.Errorf("%s holds %d entries, master selects %d", h.name, len(got), len(want))
		}
		for _, e := range got {
			w, ok := want[e.DN().Norm()]
			if !ok {
				return fmt.Errorf("%s holds %q, which the master does not select", h.name, e.DN().String())
			}
			if fingerprint(e) != w {
				return fmt.Errorf("%s: entry %q differs from the master's", h.name, e.DN().String())
			}
		}
	}
	return nil
}

// verifyReloads checks the cut-and-resume contract of a chunked set-up:
// every leaf's first connection was cut exactly once and re-dialled, no
// transfer restarted from chunk zero, no resume token was refused.
func (t *topology) verifyReloads() error {
	if t.def.reloadChunk <= 0 {
		return nil
	}
	for i, l := range t.leaves {
		c := l.sup.Counters()
		if cuts := l.dialer.cuts.Load(); cuts != 1 {
			return fmt.Errorf("leaf %d: first connection cut %d times, want 1", i, cuts)
		}
		if l.dialer.dials.Load() < 2 {
			return fmt.Errorf("leaf %d: never re-dialled after the cut", i)
		}
		if c.Resumes.Load() < 1 {
			return fmt.Errorf("leaf %d: reconnect did not resume by token", i)
		}
		if n := c.FullReloads.Load(); n > 1 {
			return fmt.Errorf("leaf %d: %d transfers from chunk zero, want 1", i, n)
		}
	}
	for i, m := range t.mids {
		if n := m.tier.SyncCounters().ResumeRejects.Load(); n != 0 {
			return fmt.Errorf("mid %d refused %d resume tokens", i, n)
		}
	}
	return nil
}

// close tears the topology down, consumers before suppliers so nothing
// reconnects into a closing server.
func (t *topology) close() {
	for _, m := range t.mids {
		if m.stop != nil {
			close(m.stop)
			<-m.done
		}
	}
	for _, l := range t.leaves {
		if l.sup != nil {
			_ = l.sup.Stop()
		}
	}
	if t.front != nil {
		_ = t.front.Close()
	}
	for _, m := range t.mids {
		if m.srv != nil {
			_ = m.srv.Close()
		}
		_ = m.tier.Stop()
	}
	if t.replSrv != nil {
		_ = t.replSrv.Close()
	}
	if t.clientSrv != nil {
		_ = t.clientSrv.Close()
	}
	if t.stateDir != "" {
		_ = os.RemoveAll(t.stateDir)
	}
	// The directory and every replica store become garbage here; collect
	// them now so the next set-up or workload starts from the same heap.
	*t = topology{}
	runtime.GC()
}
