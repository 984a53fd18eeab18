// Command ldapmaster serves a directory over the LDAP wire protocol. The
// directory is loaded from a durable data directory (snapshot + journal),
// from LDIF, or generated synthetically; with -data, updates are journaled
// to disk and a checkpoint is written on shutdown.
//
// With -chaos, every accepted connection is wrapped in the fault-injection
// layer, so replica recovery can be exercised against a real server:
//
//	ldapmaster -chaos 'drop-every=40,latency=1ms..5ms,seed=7'
//
// Usage:
//
//	ldapmaster -addr 127.0.0.1:3890 -employees 5000
//	ldapmaster -addr 127.0.0.1:3890 -ldif dir.ldif -suffix o=xyz
//	ldapmaster -addr 127.0.0.1:3890 -data /var/lib/filterdir
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"filterdir"
	"filterdir/internal/chaos"
	"filterdir/internal/ldapnet"
	"filterdir/internal/ldif"
	"filterdir/internal/persist"
	"filterdir/internal/resync"
	"filterdir/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:3890", "listen address")
	ldifPath := flag.String("ldif", "", "LDIF file to load (otherwise synthetic)")
	dataDir := flag.String("data", "", "durable data directory (snapshot + journal)")
	journalEvery := flag.Duration("journal-every", 5*time.Second, "journal flush interval with -data")
	suffix := flag.String("suffix", "o=xyz", "naming-context suffix")
	employees := flag.Int("employees", 5000, "synthetic directory population")
	seed := flag.Int64("seed", 1, "deterministic seed for the synthetic directory")
	statusEvery := flag.Duration("status-every", time.Minute, "sync-counter status report interval (0 disables)")
	journalLimit := flag.Int("journal-limit", 0, "bound the in-memory update journal to the most recent n changes (0 = unbounded)")
	shards := flag.Int("shards", 0, "DIT store shard count (0 = GOMAXPROCS, or the FILTERDIR_SHARDS environment override)")
	chaosSpec := flag.String("chaos", "", `fault-injection plan for accepted connections, e.g. "drop-every=40,latency=1ms..5ms,seed=7" (empty disables)`)
	reloadChunk := flag.Int("reload-chunk", 0, "serve full reloads in resumable chunks of n entries (0 = monolithic reloads)")
	keepSyncPoints := flag.Int("keep-sync-points", 0, "per-session resume history: keep the last n sync points (0 = default 64)")
	journalRetention := flag.String("journal-retention", "", `on-disk journal retention policy with -data, e.g. "bytes=64m,age=1h" (empty = checkpoint only on shutdown)`)
	flag.Parse()

	plan, err := chaos.ParsePlan(*chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldapmaster:", err)
		os.Exit(2)
	}
	retention, err := persist.ParseJournalRetention(*journalRetention)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldapmaster:", err)
		os.Exit(2)
	}
	if err := run(*addr, *ldifPath, *dataDir, *journalEvery, *suffix, *employees, *seed, *statusEvery, *journalLimit, *shards, plan, *reloadChunk, *keepSyncPoints, retention); err != nil {
		fmt.Fprintln(os.Stderr, "ldapmaster:", err)
		os.Exit(1)
	}
}

// storeOptions assembles the directory options common to every load path.
func storeOptions(journalLimit, shards int) []filterdir.DirectoryOption {
	opts := []filterdir.DirectoryOption{
		filterdir.WithIndexes("serialnumber", "mail", "dept", "location", "uid"),
	}
	if journalLimit > 0 {
		opts = append(opts, filterdir.WithJournalLimit(journalLimit))
	}
	if shards > 0 {
		opts = append(opts, filterdir.WithShards(shards))
	}
	return opts
}

// printStatus reports the sync counters, store state, fan-out (live
// downstream sessions and connections — in a cascaded topology these count
// mid-tiers, not leaves) and injected-fault totals on stdout.
func printStatus(srv *filterdir.Server, backend *ldapnet.StoreBackend, store *filterdir.Directory, inj *chaos.Injector) {
	c := srv.SyncCounters()
	if c == nil {
		return
	}
	fmt.Printf("ldapmaster: entries=%d journal-trimmed=%d sessions=%d conns=%d | %s\n",
		store.Len(), store.JournalTrimmed(), backend.Engine.Sessions(), srv.ActiveConns(), c.Snapshot())
	fmt.Printf("ldapmaster: shards=%d | %s\n", store.Shards(), store.Counters().Snapshot())
	if w := backend.Writes.Snapshot(); w.Applied > 0 || w.Duplicates > 0 {
		fmt.Printf("ldapmaster: edge writes applied=%d duplicates=%d\n", w.Applied, w.Duplicates)
	}
	if inj != nil {
		fmt.Printf("ldapmaster: %s\n", inj.Stats())
	}
}

func run(addr, ldifPath, dataDir string, journalEvery time.Duration, suffix string, employees int, seed int64, statusEvery time.Duration, journalLimit, shards int, plan chaos.Plan, reloadChunk, keepSyncPoints int, retention persist.JournalRetention) error {
	var store *filterdir.Directory
	var home *persist.Dir
	if dataDir != "" {
		home = &persist.Dir{Path: dataDir}
		st, _, err := home.Open([]string{suffix}, storeOptions(journalLimit, shards)...)
		if err != nil {
			return err
		}
		store = st
		if store.Len() == 0 && ldifPath == "" {
			// First run: seed with the synthetic directory and checkpoint.
			cfg := workload.DefaultDirectoryConfig(employees)
			cfg.Seed = seed
			cfg.JournalLimit = journalLimit
			cfg.Shards = shards
			dir, err := workload.BuildDirectory(cfg)
			if err != nil {
				return err
			}
			store = dir.Master
			if err := home.Checkpoint(store); err != nil {
				return err
			}
		}
	} else if ldifPath != "" {
		st, err := filterdir.NewDirectory([]string{suffix}, storeOptions(journalLimit, shards)...)
		if err != nil {
			return err
		}
		f, err := os.Open(ldifPath)
		if err != nil {
			return err
		}
		defer f.Close()
		entries, err := ldif.Read(f)
		if err != nil {
			return err
		}
		sort.Slice(entries, func(i, j int) bool {
			return entries[i].DN().Depth() < entries[j].DN().Depth()
		})
		if err := st.Load(entries); err != nil {
			return err
		}
		store = st
	} else {
		cfg := workload.DefaultDirectoryConfig(employees)
		cfg.Seed = seed
		cfg.JournalLimit = journalLimit
		cfg.Shards = shards
		dir, err := workload.BuildDirectory(cfg)
		if err != nil {
			return err
		}
		store = dir.Master
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	var inj *chaos.Injector
	if plan.Active() {
		inj = chaos.New(plan)
		ln = inj.Listener(ln)
		fmt.Println("ldapmaster: chaos plan armed; injected faults count against every connection")
	}
	var engineOpts []resync.EngineOption
	if reloadChunk > 0 {
		engineOpts = append(engineOpts, resync.WithChunkSize(reloadChunk))
	}
	if keepSyncPoints > 0 {
		engineOpts = append(engineOpts, resync.WithSyncPointRetention(keepSyncPoints))
	}
	backend := ldapnet.NewStoreBackend(store, engineOpts...)
	srv := ldapnet.ServeListener(ln, backend)
	fmt.Printf("ldapmaster: serving %d entries on %s (suffix %s)\n", store.Len(), srv.Addr(), suffix)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// Periodic sync-counter status reports.
	var statusC <-chan time.Time
	if statusEvery > 0 {
		statusTicker := time.NewTicker(statusEvery)
		defer statusTicker.Stop()
		statusC = statusTicker.C
	}

	// shutdown stops accepting and drops live connections first, so no
	// update can land mid-checkpoint, then flushes durable state and prints
	// the final counter snapshot.
	shutdown := func() error {
		closeErr := srv.Close()
		if home != nil {
			if err := home.Checkpoint(store); err != nil {
				fmt.Fprintf(os.Stderr, "ldapmaster: checkpoint: %v\n", err)
			}
		}
		printStatus(srv, backend, store, inj)
		return closeErr
	}

	if home == nil {
		for {
			select {
			case <-statusC:
				printStatus(srv, backend, store, inj)
			case <-sig:
				fmt.Println("ldapmaster: shutting down")
				return shutdown()
			}
		}
	}

	// Durable mode: journal committed changes periodically (folding the
	// journal into a fresh snapshot whenever the retention policy says it
	// has grown too large or too old), checkpoint on shutdown.
	watermark := store.LastCSN()
	ticker := time.NewTicker(journalEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			w, err := home.Maintain(store, watermark, retention)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ldapmaster: journal: %v\n", err)
				continue
			}
			watermark = w
		case <-statusC:
			printStatus(srv, backend, store, inj)
		case <-sig:
			fmt.Println("ldapmaster: checkpointing and shutting down")
			return shutdown()
		}
	}
}
