// Command ldapreplica runs a filter-based replica against a master served
// by ldapmaster. Each configured filter is owned by a supervisor that
// drives the full ReSync lifecycle — begin, steady-state poll or persist
// stream, reconnect with capped backoff, resume by cookie — while the
// replica serves contained queries on its own LDAP port (misses are
// answered with a referral to the master).
//
// With -state, every exchange a filter lands is appended, with the cookie it
// reached, to that filter's journal and fsynced once; a restarted replica —
// leaf or mid-tier alike — replays its content from disk and resumes the
// master session with a poll instead of a full content transfer.
//
// Cascaded topologies: -upstream points the replica at a mid-tier replica
// instead of the master (-master stays the fallback the supervisors divert
// to when the upstream rejects their spec or forgets their session), and
// -serve turns this replica into a mid-tier itself — it runs its own sync
// engine over the replicated content and serves ReSync to downstream
// replicas, admitting only specs provably contained in its filters.
//
// With -serve -adaptive the mid-tier re-tiers itself under shifting demand:
// admission rejections feed a filter selector that widens the tier into
// spare -tier-budget (pulling the widened content from upstream and bumping
// the filter generation so diverted leaves running -watch-filters migrate
// back), and narrows it again when adopted filters decay.
//
// Usage:
//
//	ldapreplica -master 127.0.0.1:3890 -addr 127.0.0.1:3891 \
//	    -filter '(serialnumber=1004*)' -filter '(location=*)' \
//	    -mode persist -state /var/lib/filterdir-replica
//
//	# mid-tier: pulls (location=*) from the master, serves it downstream
//	ldapreplica -master 127.0.0.1:3890 -addr 127.0.0.1:3892 -serve \
//	    -filter '(location=*)'
//
//	# leaf attached to the mid-tier, falling back to the master
//	ldapreplica -master 127.0.0.1:3890 -upstream 127.0.0.1:3892 \
//	    -addr 127.0.0.1:3893 -filter '(location=site001)'
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"filterdir"
	"filterdir/internal/cascade"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/edgewrite"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/metrics"
	"filterdir/internal/persist"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/supervisor"
	"filterdir/internal/tierctl"
)

type filterList []string

func (f *filterList) String() string { return strings.Join(*f, ",") }

func (f *filterList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// options carries the parsed command line.
type options struct {
	master, upstream, addr string
	serve                  bool
	mode                   supervisor.Mode
	stateDir               string
	interval               time.Duration
	backoffBase            time.Duration
	backoffMax             time.Duration
	idleTimeout            time.Duration
	retryUpstream          time.Duration
	journalLimit           int
	reloadChunk            int
	keepSyncPoints         int
	journalRetention       persist.JournalRetention
	depth                  int
	statusEvery            time.Duration
	edgeWrites             bool
	adaptive               bool
	tierBudget             int
	watchFilters           bool
	filters                filterList
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldapreplica:", err)
		os.Exit(2)
	}
	if o.serve {
		err = runTier(o)
	} else {
		err = runLeaf(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldapreplica:", err)
		os.Exit(1)
	}
}

// modeOnly pairs each flag that only one mode reads with the flag selecting
// that mode: runLeaf reads none of the -serve flags, and -tier-budget sizes
// only the -adaptive control plane.
var modeOnly = []struct{ flag, mode string }{
	{"journal-limit", "serve"},
	{"reload-chunk", "serve"},
	{"keep-sync-points", "serve"},
	{"depth", "serve"},
	{"adaptive", "serve"},
	{"tier-budget", "adaptive"},
}

// parseFlags defines the command line on fs and parses args into options.
// A flag set explicitly without the mode that reads it is an error rather
// than silently ignored.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.master, "master", "127.0.0.1:3890", "root master server address (the fallback when -upstream is set)")
	fs.StringVar(&o.upstream, "upstream", "", "upstream to synchronize from when it is not the master (e.g. a mid-tier replica)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:3891", "replica listen address")
	fs.BoolVar(&o.serve, "serve", false, "serve ReSync to downstream replicas (cascade mid-tier mode)")
	mode := fs.String("mode", "poll", `steady-state sync mode: "poll" or "persist"`)
	fs.StringVar(&o.stateDir, "state", "", "state directory: each filter journals the exchanges it lands, content and cookie together (empty disables)")
	fs.DurationVar(&o.interval, "interval", 5*time.Second, "poll interval")
	fs.DurationVar(&o.backoffBase, "backoff", 50*time.Millisecond, "reconnect backoff base")
	fs.DurationVar(&o.backoffMax, "backoff-max", 5*time.Second, "reconnect backoff cap")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 0, "persist-stream idle timeout (0 = none)")
	fs.DurationVar(&o.retryUpstream, "retry-upstream", time.Minute, "how long a diverted supervisor stays on the fallback master before re-probing -upstream")
	fs.IntVar(&o.journalLimit, "journal-limit", 4096, "mid-tier store journal bound (with -serve): how far a downstream session may lag before a full reload")
	fs.IntVar(&o.reloadChunk, "reload-chunk", 0, "serve downstream full reloads in resumable chunks of n entries (with -serve; 0 = monolithic)")
	fs.IntVar(&o.keepSyncPoints, "keep-sync-points", 0, "downstream per-session resume history: keep the last n sync points (with -serve; 0 = default 64)")
	journalRetention := fs.String("journal-retention", "", `when to fold a durable journal into a fresh snapshot (with -state), e.g. "bytes=64m,age=1h" (empty = once it outgrows the snapshot it extends)`)
	fs.IntVar(&o.depth, "depth", 1, "tier depth below the master (with -serve; reporting only)")
	fs.DurationVar(&o.statusEvery, "status-every", time.Minute, "supervision-counter status report interval (0 disables)")
	fs.BoolVar(&o.edgeWrites, "edge-writes", false, "accept LDAP writes here: journal to a per-replica WAL, forward upstream for commit, overlay locally until the CSN echoes back")
	fs.BoolVar(&o.adaptive, "adaptive", false, "run the demand-driven control plane over the tier's filter set: widen on admission rejections, narrow on decay (with -serve)")
	fs.IntVar(&o.tierBudget, "tier-budget", 0, "adaptive filter-set budget in specs, base filters included (with -adaptive; 0 = number of -filter flags + 2)")
	fs.BoolVar(&o.watchFilters, "watch-filters", false, "while diverted to the fallback master, long-poll the upstream for filter-set changes and re-probe the moment it widens")
	fs.Var(&o.filters, "filter", "replicated filter (repeatable)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if len(o.filters) == 0 {
		o.filters = filterList{"(objectclass=location)"}
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	on := map[string]bool{"serve": o.serve, "adaptive": o.adaptive}
	for _, m := range modeOnly {
		if set[m.flag] && !on[m.mode] {
			return o, fmt.Errorf("-%s is read only with -%s", m.flag, m.mode)
		}
	}

	retention, err := persist.ParseJournalRetention(*journalRetention)
	if err != nil {
		return o, err
	}
	o.journalRetention = retention

	switch *mode {
	case "poll":
		o.mode = supervisor.ModePoll
	case "persist":
		o.mode = supervisor.ModePersist
	default:
		return o, fmt.Errorf("unknown -mode %q", *mode)
	}
	return o, nil
}

// specs parses the -filter list into subtree queries.
func specs(filters filterList) ([]query.Query, error) {
	out := make([]query.Query, 0, len(filters))
	for _, f := range filters {
		spec, err := query.New("", filterdir.ScopeSubtree, f)
		if err != nil {
			return nil, fmt.Errorf("filter %q: %w", f, err)
		}
		out = append(out, spec)
	}
	return out, nil
}

// upstreamOf resolves which address the supervisors synchronize from and
// which (if any) they fall back to.
func upstreamOf(o options) (upstream, fallback string) {
	if o.upstream != "" && o.upstream != o.master {
		return o.upstream, o.master
	}
	return o.master, ""
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ldapreplica: "+format+"\n", args...)
}

// openEdgeWriter opens the WAL-backed edge writer over an upstream
// forwarder. The WAL lives under the state directory when one is
// configured — surviving restarts — and in a throwaway temp directory
// otherwise, which still covers the accept→forward window within one run;
// closeEdge, for shutdown, closes the writer and removes that directory.
func openEdgeWriter(o options, fwd edgewrite.Forwarder,
	admit func(dit.Change) error, lookup func(dn.DN) (*entry.Entry, bool),
	counters *metrics.WriteCounters) (w *edgewrite.Writer, closeEdge func(), err error) {

	dir, remove := filepath.Join(o.stateDir, "edgewrite"), func() {}
	if o.stateDir == "" {
		if dir, err = os.MkdirTemp("", "filterdir-edgewrite-"); err != nil {
			return nil, nil, err
		}
		remove = func() { os.RemoveAll(dir) }
	}
	w, err = edgewrite.Open(edgewrite.Config{
		Dir:      dir,
		Forward:  fwd,
		Admit:    admit,
		Lookup:   lookup,
		Counters: counters,
		Logf:     logf,
	})
	if err != nil {
		remove()
		return nil, nil, err
	}
	if n := w.Pending(); n > 0 {
		logf("edge WAL %s: recovered %d pending op(s) for replay", dir, n)
	}
	fmt.Printf("ldapreplica: accepting edge writes (replica id %s, WAL %s)\n", w.ReplicaID(), dir)
	return w, func() {
		w.Close()
		remove()
	}, nil
}

// serveLoop runs the status/shutdown select shared by both modes.
func serveLoop(srv *ldapnet.Server, statusEvery time.Duration, printStatus func(), shutdown func()) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var statusC <-chan time.Time
	if statusEvery > 0 {
		statusTicker := time.NewTicker(statusEvery)
		defer statusTicker.Stop()
		statusC = statusTicker.C
	}
	for {
		select {
		case <-statusC:
			printStatus()
		case <-sig:
			// Graceful shutdown: stop serving queries, then stop the
			// synchronization machinery and report the final counters.
			fmt.Println("ldapreplica: shutting down")
			closeErr := srv.Close()
			shutdown()
			printStatus()
			return closeErr
		}
	}
}

// leafJournalLimit bounds a leaf's content-store journal. Nothing reads it —
// only a tier's downstream engine replays its store's journal — so without a
// bound it would hold the before- and after-image of every applied update
// for the life of the process.
const leafJournalLimit = 64

func newLeafReplica() (*filterdir.FilterReplica, error) {
	return filterdir.NewFilterReplica(
		filterdir.WithContentIndexes("serialnumber", "mail", "dept", "location", "uid"),
		replica.WithJournalLimit(leafJournalLimit))
}

// runLeaf is the classic consumer replica: one supervisor per filter, no
// downstream service.
func runLeaf(o options) error {
	rep, err := newLeafReplica()
	if err != nil {
		return err
	}
	qs, err := specs(o.filters)
	if err != nil {
		return err
	}
	upstream, fallback := upstreamOf(o)

	// The edge writer must exist before the supervisors so each filter's
	// config can report its applied-CSN watermark (retirement consumes the
	// minimum across all filters).
	var edge *edgewrite.Writer
	var closeEdge func()
	var fwd *ldapnet.EdgeForwarder
	writes := &metrics.WriteCounters{}
	if o.edgeWrites {
		fwd = ldapnet.NewEdgeForwarder(upstream)
		fwd.FallbackAddr = fallback
		edge, closeEdge, err = openEdgeWriter(o, fwd,
			edgewrite.Admitter(qs, rep.Store().Get), rep.Store().Get, writes)
		if err != nil {
			fwd.Close()
			return err
		}
	}

	// One supervisor per filter, all applying into the shared replica; each
	// owns its own state subdirectory, so every journal is one owner's.
	sups := make([]*supervisor.Supervisor, 0, len(qs))
	for i, spec := range qs {
		cfg := supervisor.Config{
			Master:             upstream,
			Fallback:           fallback,
			RetryUpstreamAfter: o.retryUpstream,
			Spec:               spec,
			Mode:               o.mode,
			PollInterval:       o.interval,
			IdleTimeout:        o.idleTimeout,
			BackoffBase:        o.backoffBase,
			BackoffMax:         o.backoffMax,
			WatchFilters:       o.watchFilters,
			JournalRetention:   o.journalRetention,
			Logf:               logf,
		}
		if o.stateDir != "" {
			cfg.StateDir = filepath.Join(o.stateDir, fmt.Sprintf("filter%02d", i))
			if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
				return err
			}
		}
		if edge != nil {
			key := spec.Key()
			edge.RegisterSource(key)
			cfg.OnWatermark = func(csn uint64) { edge.SetWatermark(key, csn) }
		}
		sup, err := supervisor.New(cfg, rep)
		if err != nil {
			return fmt.Errorf("filter %q: %w", o.filters[i], err)
		}
		sups = append(sups, sup)
	}
	for i, sup := range sups {
		sup.Start()
		fmt.Printf("ldapreplica: supervising %q against %s\n", o.filters[i], upstream)
	}

	backend := ldapnet.NewReplicaBackend(rep, "ldap://"+o.master)
	if edge != nil {
		rep.SetReadOverlay(edge.Overlay)
		backend.Edge = edge
		edge.Start()
	}
	srv, err := ldapnet.Serve(o.addr, backend)
	if err != nil {
		return err
	}
	fmt.Printf("ldapreplica: serving on %s; %d filters in %s mode\n",
		srv.Addr(), len(sups), map[supervisor.Mode]string{
			supervisor.ModePoll: "poll", supervisor.ModePersist: "persist"}[o.mode])

	printStatus := func() {
		m := rep.Metrics()
		fmt.Printf("ldapreplica: %d entries; hit ratio %.2f (%d queries)\n",
			rep.EntryCount(), m.HitRatio(), m.Queries)
		if edge != nil {
			fmt.Printf("ldapreplica: %s\n", writes.Snapshot())
		}
		for i, sup := range sups {
			fmt.Printf("ldapreplica: %q [%s→%s] %s\n", o.filters[i], sup.State(), sup.Target(), sup.Counters().Snapshot())
		}
	}
	return serveLoop(srv, o.statusEvery, printStatus, func() {
		for i, sup := range sups {
			if err := sup.Stop(); err != nil {
				fmt.Fprintf(os.Stderr, "ldapreplica: stop %q: %v\n", o.filters[i], err)
			}
		}
		// After the supervisors: a watermark they report retires an op in the WAL.
		if edge != nil {
			closeEdge()
			fwd.Close()
		}
	})
}

// runTier is the cascade mid-tier: the replica both consumes its filters
// from upstream and serves ReSync to downstream replicas.
func runTier(o options) error {
	qs, err := specs(o.filters)
	if err != nil {
		return err
	}
	upstream, fallback := upstreamOf(o)
	stateDir := o.stateDir
	if stateDir != "" {
		stateDir = filepath.Join(stateDir, "cascade")
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return err
		}
	}
	tier, err := cascade.New(cascade.Config{
		Upstream:           upstream,
		Fallback:           fallback,
		RetryUpstreamAfter: o.retryUpstream,
		Specs:              qs,
		Depth:              o.depth,
		Mode:               o.mode,
		StateDir:           stateDir,
		JournalLimit:       o.journalLimit,
		ReloadChunk:        o.reloadChunk,
		KeepSyncPoints:     o.keepSyncPoints,
		JournalRetention:   o.journalRetention,
		ContentIndexes:     []string{"serialnumber", "mail", "dept", "location", "uid"},
		PollInterval:       o.interval,
		IdleTimeout:        o.idleTimeout,
		BackoffBase:        o.backoffBase,
		BackoffMax:         o.backoffMax,
		WatchFilters:       o.watchFilters,
		Logf:               logf,
	})
	if err != nil {
		return err
	}

	var ctrl *tierctl.Controller
	if o.adaptive {
		budget := o.tierBudget
		if budget <= 0 {
			budget = len(qs) + 2
		}
		ctrl, err = tierctl.New(tierctl.Config{Tier: tier, Budget: budget, Logf: logf})
		if err != nil {
			return err
		}
	}

	// A mid-tier always relays downstream edge-write forwards one hop
	// closer to the master; with -edge-writes it also accepts writes from
	// its own LDAP clients through the same forwarder.
	fwd := ldapnet.NewEdgeForwarder(upstream)
	fwd.FallbackAddr = fallback
	var edge *edgewrite.Writer
	var closeEdge func()
	writes := &metrics.WriteCounters{}
	if o.edgeWrites {
		edge, closeEdge, err = openEdgeWriter(o, fwd, tier.AdmitWrite, tier.Replica().Store().Get, writes)
		if err != nil {
			fwd.Close()
			return err
		}
		tier.AttachEdgeWriter(edge)
		tier.Replica().SetReadOverlay(edge.Overlay)
	}

	tier.Start()
	for i := range qs {
		fmt.Printf("ldapreplica: supervising %q against %s (serving downstream)\n", o.filters[i], upstream)
	}
	if ctrl != nil {
		ctrl.Start()
		fmt.Printf("ldapreplica: adaptive control plane armed (budget %d specs)\n",
			func() int {
				if o.tierBudget > 0 {
					return o.tierBudget
				}
				return len(qs) + 2
			}())
	}

	backend := ldapnet.NewCascadeBackend(tier.Replica(), tier, "ldap://"+o.master)
	backend.Upstream = fwd
	if edge != nil {
		backend.Edge = edge
		edge.Start()
	}
	srv, err := ldapnet.Serve(o.addr, backend)
	if err != nil {
		return err
	}
	fmt.Printf("ldapreplica: mid-tier serving on %s; %d filters in %s mode, depth %d\n",
		srv.Addr(), len(qs), map[supervisor.Mode]string{
			supervisor.ModePoll: "poll", supervisor.ModePersist: "persist"}[o.mode], o.depth)

	printStatus := func() {
		rep := tier.Replica()
		m := rep.Metrics()
		fmt.Printf("ldapreplica: %d entries; hit ratio %.2f (%d queries)\n",
			rep.EntryCount(), m.HitRatio(), m.Queries)
		fmt.Printf("ldapreplica: %s\n", tier.Counters().Snapshot())
		fmt.Printf("ldapreplica: downstream %s\n", tier.SyncCounters().Snapshot())
		if edge != nil {
			fmt.Printf("ldapreplica: %s\n", writes.Snapshot())
		}
		if ctrl != nil {
			fmt.Printf("ldapreplica: %s\n", ctrl.Counters().Snapshot())
		}
		// The adaptive control plane adds and removes links at runtime, so
		// labels come from the tier's live spec set, not the -filter flags.
		liveSpecs := tier.Specs()
		for i, sup := range tier.Supervisors() {
			label := "?"
			if i < len(liveSpecs) {
				label = liveSpecs[i].FilterString()
			}
			fmt.Printf("ldapreplica: %q [%s→%s] %s\n", label, sup.State(), sup.Target(), sup.Counters().Snapshot())
		}
	}
	return serveLoop(srv, o.statusEvery, printStatus, func() {
		if ctrl != nil {
			ctrl.Stop()
		}
		if err := tier.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "ldapreplica: stop tier: %v\n", err)
		}
		// After the tier's links: a watermark they report retires an op in the WAL.
		if edge != nil {
			closeEdge()
		}
		fwd.Close()
	})
}
