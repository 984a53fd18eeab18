// Command ldapreplica runs a filter-based replica against a master served
// by ldapmaster. The replica is one cascade.Tier: each configured filter is
// an upstream link whose supervisor drives the full ReSync lifecycle —
// begin, steady-state poll or persist stream, reconnect with capped
// backoff, resume by cookie — while the replica serves contained queries on
// its own LDAP port (misses are answered with a referral to the master). A
// leaf is a tier whose sync engine no listener serves; -serve makes the same
// tier a mid-tier that serves ReSync to downstream replicas, admitting only
// specs provably contained in its filters.
//
// With -state, every exchange a filter lands is appended, with the cookie it
// reached, to that filter's journal under <state>/cascade/links and fsynced
// once; a restarted replica — leaf or mid-tier alike, whichever it ran as
// before — replays its content from disk and resumes the master session
// with a poll instead of a full content transfer.
//
// Cascaded topologies: -upstream points the replica at a mid-tier replica
// instead of the master (-master stays the fallback the supervisors divert
// to when the upstream rejects their spec, forgets their session, or is a
// replica run without -serve, which supplies nobody).
//
// A leaf diverted to -master holds one filters watch on -upstream and moves
// back when the upstream answers it: when the upstream admits the leaf's
// filter and a link of its own that contains the filter has loaded.
//
// With -serve -adaptive the mid-tier re-tiers itself under shifting demand:
// admission rejections feed a filter selector that widens the tier into
// spare -tier-budget (pulling the widened content from upstream, whose first
// exchange answers the watches of the diverted leaves it covers), and narrows
// it again when adopted filters decay.
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
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"filterdir/internal/cascade"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/edgewrite"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/metrics"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
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
	journalLimit           int
	reloadChunk            int
	depth                  int
	statusEvery            time.Duration
	edgeWrites             bool
	adaptive               bool
	tierBudget             int
	specs                  []query.Query // the -filter list as subtree queries
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldapreplica:", err)
		os.Exit(2)
	}
	srv, stop, status, err := start(o)
	if err == nil {
		err = serveLoop(srv, o.statusEvery, status, stop)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldapreplica:", err)
		os.Exit(1)
	}
}

// modeOnly pairs each flag that only one mode reads with the flag selecting
// that mode: a leaf reads none of the -serve flags, and -tier-budget sizes
// only the -adaptive control plane.
var modeOnly = []struct{ flag, mode string }{
	{"journal-limit", "serve"},
	{"reload-chunk", "serve"},
	{"depth", "serve"},
	{"adaptive", "serve"},
	{"tier-budget", "adaptive"},
}

// parseFlags defines the command line on fs and parses args into options.
// A flag set explicitly without the mode that reads it is an error rather
// than silently ignored.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	var filters filterList
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
	fs.IntVar(&o.journalLimit, "journal-limit", resync.DefaultJournalLimit, "mid-tier store journal bound (with -serve): how far a downstream session may lag before a full reload")
	fs.IntVar(&o.reloadChunk, "reload-chunk", 0, "serve downstream full reloads in resumable chunks of n entries (with -serve; 0 = monolithic)")
	fs.IntVar(&o.depth, "depth", 1, "tier depth below the master (with -serve; reporting only)")
	fs.DurationVar(&o.statusEvery, "status-every", time.Minute, "supervision-counter status report interval (0 disables)")
	fs.BoolVar(&o.edgeWrites, "edge-writes", false, "accept LDAP writes here: journal to a per-replica WAL, forward upstream for commit, overlay locally until the CSN echoes back")
	fs.BoolVar(&o.adaptive, "adaptive", false, "run the demand-driven control plane over the tier's filter set: widen on admission rejections, narrow on decay (with -serve)")
	fs.IntVar(&o.tierBudget, "tier-budget", 0, "adaptive filter-set budget in specs, base filters included (with -adaptive; 0 = number of -filter flags + 2)")
	fs.Var(&filters, "filter", "replicated filter (repeatable)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if len(filters) == 0 {
		filters = filterList{"(objectclass=location)"}
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	on := map[string]bool{"serve": o.serve, "adaptive": o.adaptive}
	for _, m := range modeOnly {
		if set[m.flag] && !on[m.mode] {
			return o, fmt.Errorf("-%s is read only with -%s", m.flag, m.mode)
		}
	}

	switch *mode {
	case "poll":
		o.mode = supervisor.ModePoll
	case "persist":
		o.mode = supervisor.ModePersist
	default:
		return o, fmt.Errorf("unknown -mode %q", *mode)
	}

	for _, f := range filters {
		spec, err := query.New("", query.ScopeSubtree, f)
		if err != nil {
			return o, fmt.Errorf("filter %q: %w", f, err)
		}
		o.specs = append(o.specs, spec)
	}
	return o, nil
}

// tierConfig is the tier the options describe. A leaf and a mid-tier differ
// here only in the store journal's bound; the rest of -serve is in start.
func tierConfig(o options) cascade.Config {
	cfg := cascade.Config{
		Upstream:       o.master,
		Specs:          o.specs,
		Depth:          o.depth,
		Mode:           o.mode,
		JournalLimit:   o.journalLimit,
		ReloadChunk:    o.reloadChunk,
		ContentIndexes: []string{"serialnumber", "mail", "dept", "location", "uid"},
		PollInterval:   o.interval,
		IdleTimeout:    o.idleTimeout,
		BackoffBase:    o.backoffBase,
		BackoffMax:     o.backoffMax,
		Logf:           logf,
	}
	if o.upstream != "" && o.upstream != o.master {
		cfg.Upstream, cfg.Fallback = o.upstream, o.master
	}
	if o.stateDir != "" {
		cfg.StateDir = filepath.Join(o.stateDir, "cascade")
	}
	if !o.serve {
		cfg.JournalLimit = replica.DefaultJournalLimit
	}
	return cfg
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

// start builds the tier the options describe, starts its links and serves
// it on -addr: its content to LDAP clients, and with -serve its engine to
// downstream replicas. It returns the server, stop (everything but the
// server, in shutdown order) and the status report.
func start(o options) (srv *ldapnet.Server, stop func(), status func(io.Writer), err error) {
	cfg := tierConfig(o)
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, nil, nil, err
		}
	}
	tier, err := cascade.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}

	// A mid-tier relays downstream edge-write forwards one hop closer to
	// the master; with -edge-writes any replica also forwards the writes of
	// its own LDAP clients.
	fwd := ldapnet.NewEdgeForwarder(cfg.Upstream)
	fwd.FallbackAddr = cfg.Fallback
	var ctrl *tierctl.Controller
	var edge *edgewrite.Writer
	var closeEdge func()
	stop = func() {
		if ctrl != nil {
			ctrl.Stop()
		}
		if err := tier.Stop(); err != nil {
			logf("stop tier: %v", err)
		}
		// After the tier's links: a watermark they report retires an op in the WAL.
		if edge != nil {
			closeEdge()
		}
		fwd.Close()
	}
	defer func() {
		if err != nil {
			stop()
		}
	}()

	writes := &metrics.WriteCounters{}
	if o.edgeWrites {
		w, closeW, err := openEdgeWriter(o, fwd, tier.AdmitWrite, tier.Replica().Store().Get, writes)
		if err != nil {
			return nil, nil, nil, err
		}
		edge, closeEdge = w, closeW
		tier.AttachEdgeWriter(edge)
		tier.Replica().SetReadOverlay(edge.Overlay)
	}

	tier.Start()
	for _, spec := range cfg.Specs {
		fmt.Printf("ldapreplica: supervising %q against %s\n", spec.FilterString(), cfg.Upstream)
	}
	if o.adaptive {
		budget := o.tierBudget
		if budget <= 0 {
			budget = len(cfg.Specs) + 2
		}
		if ctrl, err = tierctl.New(tierctl.Config{Tier: tier, Budget: budget, Logf: logf}); err != nil {
			return nil, nil, nil, err
		}
		ctrl.Start()
		fmt.Printf("ldapreplica: adaptive control plane armed (budget %d specs)\n", budget)
	}

	rb := ldapnet.NewReplicaBackend(tier.Replica(), "ldap://"+o.master)
	var backend ldapnet.Backend = rb
	role := "leaf"
	if o.serve {
		cb := ldapnet.NewCascadeBackend(tier.Replica(), tier, rb.MasterURL)
		cb.Upstream = fwd
		rb, backend = cb.ReplicaBackend, cb
		role = fmt.Sprintf("mid-tier at depth %d", cfg.Depth)
	}
	if edge != nil {
		rb.Edge = edge
		edge.Start()
	}
	if srv, err = ldapnet.Serve(o.addr, backend); err != nil {
		return nil, nil, nil, err
	}
	fmt.Printf("ldapreplica: %s serving on %s; %d filters in %s mode\n",
		role, srv.Addr(), len(cfg.Specs), map[supervisor.Mode]string{
			supervisor.ModePoll: "poll", supervisor.ModePersist: "persist"}[o.mode])

	status = func(w io.Writer) {
		rep := tier.Replica()
		fmt.Fprintf(w, "ldapreplica: %d entries; hit ratio %.2f\n", rep.EntryCount(), rep.Counters().HitRatio())
		fmt.Fprintf(w, "ldapreplica: %s\n", rep.Counters())
		if o.serve {
			fmt.Fprintf(w, "ldapreplica: %s\n", tier.Counters())
			fmt.Fprintf(w, "ldapreplica: downstream %s\n", tier.SyncCounters())
		}
		if edge != nil {
			fmt.Fprintf(w, "ldapreplica: %s\n", writes)
		}
		if ctrl != nil {
			fmt.Fprintf(w, "ldapreplica: %s\n", ctrl.Counters())
		}
		// Each supervisor names its own spec: the adaptive control plane
		// adds and removes links between any two reads of the link set.
		for _, sup := range tier.Supervisors() {
			fmt.Fprintf(w, "ldapreplica: %q [%s→%s] %s\n",
				sup.Spec().FilterString(), sup.State(), sup.Target(), sup.Counters())
		}
	}
	return srv, stop, status, nil
}

// serveLoop reports status every statusEvery until SIGINT or SIGTERM, then
// shuts down: the server first, then stop, then one last report.
func serveLoop(srv *ldapnet.Server, statusEvery time.Duration, status func(io.Writer), stop func()) error {
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
			status(os.Stdout)
		case <-sig:
			fmt.Println("ldapreplica: shutting down")
			closeErr := srv.Close()
			stop()
			status(os.Stdout)
			return closeErr
		}
	}
}
