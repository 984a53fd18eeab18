// Command ldapmaster serves a directory over the LDAP wire protocol. The
// directory is loaded from a durable data directory (snapshot + journal),
// from LDIF, or generated synthetically. With -data every write is committed
// to the journal, one fsync per batch of concurrent writes, before it is
// answered. After a failed commit (a full or failing disk) every write is
// answered with its error while reads go on; a restart recovers exactly the
// writes acknowledged before it. The in-memory change journal keeps the last
// -journal-limit changes (4096; 0 keeps all): a session further behind is
// answered with a full reload.
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
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"filterdir"
	"filterdir/internal/ldapnet"
	"filterdir/internal/ldif"
	"filterdir/internal/persist"
	"filterdir/internal/resync"
	"filterdir/internal/workload"
)

// options carries the parsed command line.
type options struct {
	addr, ldifPath, dataDir, suffix              string
	employees, journalLimit, shards, reloadChunk int
	seed                                         int64
	statusEvery                                  time.Duration
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldapmaster:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ldapmaster:", err)
		os.Exit(1)
	}
}

// parseFlags defines the command line on fs and parses args into options.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.addr, "addr", "127.0.0.1:3890", "listen address")
	fs.StringVar(&o.ldifPath, "ldif", "", "LDIF file to load, with -data on a first run only (otherwise synthetic)")
	fs.StringVar(&o.dataDir, "data", "", "durable data directory (snapshot + journal)")
	fs.StringVar(&o.suffix, "suffix", "o=xyz", "naming-context suffix")
	fs.IntVar(&o.employees, "employees", 5000, "synthetic directory population")
	fs.Int64Var(&o.seed, "seed", 1, "deterministic seed for the synthetic directory")
	fs.DurationVar(&o.statusEvery, "status-every", time.Minute, "sync-counter status report interval (0 disables)")
	fs.IntVar(&o.journalLimit, "journal-limit", resync.DefaultJournalLimit, "bound the in-memory update journal to the most recent n changes: how far a session may lag before a full reload (0 = unbounded)")
	fs.IntVar(&o.shards, "shards", 0, "DIT store shard count (0 = GOMAXPROCS, or the FILTERDIR_SHARDS environment override)")
	fs.IntVar(&o.reloadChunk, "reload-chunk", 0, "serve full reloads in resumable chunks of n entries (0 = monolithic reloads)")
	return o, fs.Parse(args)
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
// mid-tiers, not leaves) and, once edge writes arrive, the write counters on
// stdout.
func printStatus(srv *filterdir.Server, backend *ldapnet.StoreBackend, store *filterdir.Directory) {
	fmt.Printf("ldapmaster: entries=%d journal-trimmed=%d sessions=%d conns=%d | %s\n",
		store.Len(), store.JournalTrimmed(), backend.Engine.Sessions(), srv.ActiveConns(), srv.SyncCounters())
	fmt.Printf("ldapmaster: shards=%d | %s\n", store.Shards(), store.Counters())
	if w := backend.Writes; w.Applied.Load() > 0 || w.Duplicates.Load() > 0 {
		fmt.Printf("ldapmaster: %s\n", w)
	}
}

// initialDirectory builds the directory a run without durable state serves,
// and the first snapshot of a data directory: the LDIF file if one is given,
// else the synthetic directory.
func initialDirectory(ldifPath, suffix string, employees int, seed int64, journalLimit, shards int) (*filterdir.Directory, error) {
	if ldifPath == "" {
		cfg := workload.DefaultDirectoryConfig(employees)
		cfg.Seed = seed
		cfg.JournalLimit = journalLimit
		cfg.Shards = shards
		dir, err := workload.BuildDirectory(cfg)
		if err != nil {
			return nil, err
		}
		return dir.Master, nil
	}
	st, err := filterdir.NewDirectory([]string{suffix}, storeOptions(journalLimit, shards)...)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(ldifPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries, err := ldif.Read(f)
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].DN().Depth() < entries[j].DN().Depth()
	})
	return st, st.Load(entries)
}

func run(o options) error {
	var store *filterdir.Directory
	var err error
	if o.dataDir == "" {
		store, err = initialDirectory(o.ldifPath, o.suffix, o.employees, o.seed, o.journalLimit, o.shards)
	} else {
		home, opts := persist.Dir{Path: o.dataDir}, storeOptions(o.journalLimit, o.shards)
		var journal io.Closer
		if store, journal, err = home.Open([]string{o.suffix}, opts...); err == nil && store.Len() == 0 {
			// First run: the initial directory is the snapshot the store continues.
			_ = journal.Close() // nothing was committed through it
			if store, err = initialDirectory(o.ldifPath, o.suffix, o.employees, o.seed, o.journalLimit, o.shards); err == nil {
				err = home.Checkpoint(store)
			}
			if err == nil {
				store, journal, err = home.Open([]string{o.suffix}, opts...)
			}
		}
		if err == nil {
			defer journal.Close() // every acknowledged write is committed already
		}
	}
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	var engineOpts []resync.EngineOption
	if o.reloadChunk > 0 {
		engineOpts = append(engineOpts, resync.WithChunkSize(o.reloadChunk))
	}
	backend := ldapnet.NewStoreBackend(store, engineOpts...)
	srv := ldapnet.ServeListener(ln, backend)
	fmt.Printf("ldapmaster: serving %d entries on %s (suffix %s)\n", store.Len(), srv.Addr(), o.suffix)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// Periodic sync-counter status reports.
	var statusC <-chan time.Time
	if o.statusEvery > 0 {
		statusTicker := time.NewTicker(o.statusEvery)
		defer statusTicker.Stop()
		statusC = statusTicker.C
	}

	for {
		select {
		case <-statusC:
			printStatus(srv, backend, store)
		case <-sig:
			// Stop accepting and drop live connections first, so no write
			// lands after the final counter snapshot or the journal's close.
			fmt.Println("ldapmaster: shutting down")
			closeErr := srv.Close()
			printStatus(srv, backend, store)
			return closeErr
		}
	}
}
