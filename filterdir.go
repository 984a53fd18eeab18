// Package filterdir is a filter-based LDAP directory replication system: an
// implementation of "Filter Based Directory Replication: Algorithms and
// Performance" (Apurva Kumar, ICDCS 2005).
//
// Instead of replicating whole subtrees of a Directory Information Tree,
// a filter-based replica stores exactly the entries matching one or more
// LDAP queries. This package is the facade over the system's internal
// packages, and exports what the commands and examples use:
//
//   - an in-memory LDAP directory (DIT) with indexes, the four update
//     operations, naming contexts, referral objects, an update journal and
//     durable state (OpenDataDir);
//   - the filter-based replica (FilterReplica), which answers a query when
//     the paper's containment algorithms (Propositions 1–3, compiled
//     template pairs) show a stored or cached query holds its answer; the
//     subtree replica it is measured against is internal to the
//     experiments;
//   - the ReSync synchronization protocol (poll, persist and retain modes);
//   - filter generalization and benefit/size selection ("revolutions");
//   - an LDAP v3 wire protocol (BER over TCP) with referral chasing and the
//     ReSync request controls;
//   - a synthetic enterprise directory and workload generator plus the
//     experiment harness regenerating every table and figure of the paper.
//
// # Quick start
//
// Example_quickStart (filterdir_test.go) builds a directory, replicates one
// query to a filter replica and answers it there. See the examples directory
// for runnable scenarios and DESIGN.md for the system inventory.
package filterdir

import (
	"io"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/metrics"
	"filterdir/internal/persist"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/selection"
	"filterdir/internal/sim"
	"filterdir/internal/workload"
)

// Core data model.
type (
	// DN is a distinguished name.
	DN = dn.DN
	// RDN is a relative distinguished name component.
	RDN = dn.RDN
	// Entry is a directory entry.
	Entry = entry.Entry
	// Query is an LDAP search request (base, scope, filter, attrs) — the
	// paper's unit of replication.
	Query = query.Query
	// Scope is the LDAP search scope.
	Scope = query.Scope
)

// ScopeSubtree searches the base entry and everything under it.
const ScopeSubtree = query.ScopeSubtree

// Directory storage and search.
type (
	// Directory is an in-memory DIT partition with search, updates,
	// indexes and the update journal.
	Directory = dit.Store
	// DirectoryOption configures a Directory.
	DirectoryOption = dit.Option
)

// Replication.
type (
	// FilterReplica is the paper's proposed replica: entries matching
	// stored LDAP queries plus a cached window of recent user queries.
	FilterReplica = replica.FilterReplica
	// SyncEngine is the master-side ReSync protocol engine.
	SyncEngine = resync.Engine
	// SyncUpdate is one synchronization action (add/delete/modify/retain).
	SyncUpdate = resync.Update
	// Selector picks replicated filters by benefit/size ratio.
	Selector = selection.Selector
	// Generalizer derives candidate filters from user queries.
	Generalizer = selection.Generalizer
	// AdaptiveReplica combines a FilterReplica with the selection loop and
	// a synchronization supplier (local engine or wire client).
	AdaptiveReplica = replica.AdaptiveReplica
	// Supplier is the master-side synchronization interface an adaptive
	// replica consumes; *SyncEngine and *Client both satisfy it.
	Supplier = replica.Supplier
)

// Wire protocol.
type (
	// Server serves a directory over the LDAP wire protocol.
	Server = ldapnet.Server
	// Client is an LDAP client with ReSync support.
	Client = ldapnet.Client
	// Resolver chases referrals across a set of named servers.
	Resolver = ldapnet.Resolver
	// ModifyChange is one attribute change of a wire modify request.
	ModifyChange = proto.ModifyChange
	// WireAttribute is an attribute carried on the wire.
	WireAttribute = proto.Attribute
	// WireControl is a raw LDAP request control.
	WireControl = proto.Control
	// SortKey is one key of an RFC 2891 server-side sort request.
	SortKey = proto.SortKey
)

// Wire modify sub-operation codes.
const (
	ModifyOpAdd     = proto.ModifyOpAdd
	ModifyOpDelete  = proto.ModifyOpDelete
	ModifyOpReplace = proto.ModifyOpReplace
)

// NewSortControl builds an RFC 2891 server-side sort request control for
// Client.Search and Client.SearchPaged.
func NewSortControl(keys ...SortKey) WireControl { return proto.NewSortControl(keys...) }

// Workload and experiments.
type (
	// WorkloadDirectory is the synthetic enterprise directory.
	WorkloadDirectory = workload.Directory
	// ExperimentConfig sizes the paper-reproduction experiments.
	ExperimentConfig = sim.Config
	// Figure is one reproduced table or figure.
	Figure = metrics.Figure
)

// ParseDN parses an RFC 2253 distinguished name.
func ParseDN(s string) (DN, error) { return dn.Parse(s) }

// MustParseDN is ParseDN that panics on error.
func MustParseDN(s string) DN { return dn.MustParse(s) }

// MustParseQuery builds a search request from string forms and panics on
// error.
func MustParseQuery(base string, scope Scope, filterStr string, attrs ...string) Query {
	return query.MustNew(base, scope, filterStr, attrs...)
}

// NewEntry creates an empty entry at the given DN.
func NewEntry(d DN) *Entry { return entry.New(d) }

// NewDirectory creates a directory serving the given naming-context
// suffixes ("" for the whole DIT).
func NewDirectory(suffixes []string, opts ...DirectoryOption) (*Directory, error) {
	return dit.NewStore(suffixes, opts...)
}

// WithIndexes declares equality/prefix indexes on the named attributes. Each
// is built at the first search whose filter it would answer, and maintained
// by every write after that (dit.WithIndexes).
func WithIndexes(attrs ...string) DirectoryOption { return dit.WithIndexes(attrs...) }

// WithDefaultReferral sets the superior referral URL for foreign targets.
func WithDefaultReferral(url string) DirectoryOption { return dit.WithDefaultReferral(url) }

// WithJournalLimit bounds the in-memory update journal to the most recent n
// changes; sync sessions that fall further behind require a full reload.
func WithJournalLimit(n int) DirectoryOption { return dit.WithJournalLimit(n) }

// WithShards sets the directory's DN-hash shard count (values < 1 select
// the default: $FILTERDIR_SHARDS, else GOMAXPROCS). Shard count never
// changes replication traffic or read results — only contention.
func WithShards(n int) DirectoryOption { return dit.WithShards(n) }

// NewFilterReplica creates an empty filter-based replica.
func NewFilterReplica(opts ...replica.FROption) (*FilterReplica, error) {
	return replica.NewFilterReplica(opts...)
}

// WithContentIndexes declares indexes on the replica's content store: each
// is built at the first read of the store it would answer, so a replica that
// only applies updates never builds one (replica.WithContentIndexes).
func WithContentIndexes(attrs ...string) replica.FROption {
	return replica.WithContentIndexes(attrs...)
}

// NewSyncEngine creates the master-side ReSync engine over a directory.
func NewSyncEngine(master *Directory) *SyncEngine { return resync.NewEngine(master) }

// NewAdaptiveReplica wires a filter replica, a selector and a supplier into
// the full Section 6.2 adaptation loop.
func NewAdaptiveReplica(rep *FilterReplica, sel *Selector, sup Supplier) *AdaptiveReplica {
	return replica.NewAdaptiveReplica(rep, sel, sup)
}

// NewGeneralizer builds a filter generalizer from rules.
func NewGeneralizer(rules ...selection.Rule) *Generalizer {
	return selection.NewGeneralizer(rules...)
}

// PrefixRule generalizes equality values to prefixes of the given length.
func PrefixRule(attr string, prefixLen int) selection.Rule {
	return selection.PrefixRule{Attr: attr, PrefixLen: prefixLen}
}

// NewSelector builds a benefit/size filter selector: sizeOf estimates a
// candidate's result size, budget bounds the replica in entries, interval
// is the revolution interval in queries (0 = manual revolutions only).
func NewSelector(g *Generalizer, sizeOf func(Query) int, budget, interval int) *Selector {
	return selection.NewSelector(g, sizeOf, budget, interval)
}

// ServeDirectory serves a directory over the wire protocol on addr
// ("127.0.0.1:0" picks a free port).
func ServeDirectory(addr string, master *Directory) (*Server, error) {
	return ldapnet.Serve(addr, ldapnet.NewStoreBackend(master))
}

// DialDirectory connects an LDAP client.
func DialDirectory(addr string) (*Client, error) { return ldapnet.Dial(addr) }

// NewResolver creates a referral-chasing resolver.
func NewResolver() *Resolver { return ldapnet.NewResolver() }

// BuildEnterpriseDirectory builds the synthetic enterprise directory used
// by the paper-reproduction experiments, sized to the given employee count.
func BuildEnterpriseDirectory(totalEmployees int) (*WorkloadDirectory, error) {
	return workload.BuildDirectory(workload.DefaultDirectoryConfig(totalEmployees))
}

// DefaultExperimentConfig returns the test-scale experiment configuration.
func DefaultExperimentConfig() ExperimentConfig { return sim.DefaultConfig() }

// RunExperiment regenerates one of the paper's tables or figures by id
// (table1, figure4 … figure9, mail-location).
func RunExperiment(id string, cfg ExperimentConfig) (*Figure, error) {
	return sim.ByID(id, cfg)
}

// RunAllExperiments regenerates every table and figure.
func RunAllExperiments(cfg ExperimentConfig) ([]*Figure, error) { return sim.All(cfg) }

// DataDir is a durable home for a directory: an LDIF snapshot plus a journal
// of LDIF change records, one committed batch per group of concurrent writes.
// Its Checkpoint writes a directory no OpenDataDir holds as the snapshot,
// the way a first run seeds it.
type DataDir = persist.Dir

// OpenDataDir loads (or initializes) durable directory state at path and
// returns the directory durable: every write is committed to the journal —
// one write, one fsync per batch — before it returns, and the journal is
// folded into a fresh snapshot once it has outgrown the one it extends. A
// write that cannot be committed fails, and so does every write after it.
// Closing journal releases it; the directory takes no writes after that.
func OpenDataDir(path string, suffixes []string, opts ...DirectoryOption) (dir *Directory, journal io.Closer, err error) {
	return persist.Dir{Path: path}.Open(suffixes, opts...)
}
