// Package filterdir is a filter-based LDAP directory replication system: an
// implementation of "Filter Based Directory Replication: Algorithms and
// Performance" (Apurva Kumar, ICDCS 2005).
//
// Instead of replicating whole subtrees of a Directory Information Tree,
// a filter-based replica stores exactly the entries matching one or more
// LDAP queries. The package provides:
//
//   - an in-memory LDAP directory (DIT) with indexes, the four update
//     operations, naming contexts, referral objects and an update journal;
//   - RFC 2254 filters with evaluation, templates and the query-containment
//     algorithms of the paper (Propositions 1–3, compiled template pairs);
//   - the two replica models: SubtreeReplica and FilterReplica;
//   - the ReSync synchronization protocol (poll, persist and retain modes);
//   - filter generalization and benefit/size selection ("revolutions");
//   - an LDAP v3 wire protocol (BER over TCP) with referral chasing and the
//     ReSync request controls;
//   - a synthetic enterprise directory and workload generator plus the
//     experiment harness regenerating every table and figure of the paper.
//
// # Quick start
//
//	store, _ := filterdir.NewDirectory([]string{"o=xyz"})
//	e := filterdir.NewEntry(filterdir.MustParseDN("cn=a,o=xyz"))
//	e.Put("objectclass", "person").Put("cn", "a").Put("sn", "a")
//	_ = store.Add(e)
//
//	rep, _ := filterdir.NewFilterReplica()
//	eng := filterdir.NewSyncEngine(store)
//	q := filterdir.MustParseQuery("", filterdir.ScopeSubtree, "(sn=a)")
//	res, _ := eng.Begin(q)
//	rep.AddStored(q, res.Cookie)
//	_ = rep.ApplySync(q, res.Updates)
//	entries, hit, _ := rep.Answer(q)
//
// See the examples directory for runnable scenarios and DESIGN.md for the
// system inventory.
package filterdir

import (
	"io"

	"filterdir/internal/containment"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/edgewrite"
	"filterdir/internal/entry"
	"filterdir/internal/filter"
	"filterdir/internal/ldapnet"
	"filterdir/internal/ldif"
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
	// Filter is an LDAP search filter AST.
	Filter = filter.Node
	// Query is an LDAP search request (base, scope, filter, attrs) — the
	// paper's unit of replication.
	Query = query.Query
	// Scope is the LDAP search scope.
	Scope = query.Scope
)

// Search scopes.
const (
	ScopeBase        = query.ScopeBase
	ScopeSingleLevel = query.ScopeSingleLevel
	ScopeSubtree     = query.ScopeSubtree
)

// Directory storage and search.
type (
	// Directory is an in-memory DIT partition with search, updates,
	// indexes and the update journal.
	Directory = dit.Store
	// DirectoryOption configures a Directory.
	DirectoryOption = dit.Option
	// SearchResult is a directory search outcome: entries plus referrals.
	SearchResult = dit.Result
	// Context is a naming context (suffix + subordinate referrals).
	Context = dit.Context
)

// Replication.
type (
	// FilterReplica is the paper's proposed replica: entries matching
	// stored LDAP queries plus a cached window of recent user queries.
	FilterReplica = replica.FilterReplica
	// SubtreeReplica is the conventional whole-subtree replica baseline.
	SubtreeReplica = replica.SubtreeReplica
	// ReplicaMetrics counts replica hits, misses and partial answers.
	ReplicaMetrics = replica.Metrics
	// SyncEngine is the master-side ReSync protocol engine.
	SyncEngine = resync.Engine
	// SyncUpdate is one synchronization action (add/delete/modify/retain).
	SyncUpdate = resync.Update
	// SyncApplier applies updates to a replica-side store.
	SyncApplier = resync.Applier
	// Traffic accounts synchronization cost in PDUs and bytes.
	Traffic = resync.Traffic
	// Checker decides query containment with the paper's template
	// optimizations.
	Checker = containment.Checker
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
	// ReSyncMode selects the synchronization mode of a wire Sync call.
	ReSyncMode = proto.ReSyncMode
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

// ReSync modes for Client.Sync.
const (
	ReSyncModePoll    = proto.ReSyncModePoll
	ReSyncModePersist = proto.ReSyncModePersist
	ReSyncModeSyncEnd = proto.ReSyncModeSyncEnd
	ReSyncModeRetain  = proto.ReSyncModeRetain
)

// NewSortControl builds an RFC 2891 server-side sort request control for
// Client.SearchWith.
func NewSortControl(keys ...SortKey) WireControl { return proto.NewSortControl(keys...) }

// Workload and experiments.
type (
	// WorkloadDirectory is the synthetic enterprise directory.
	WorkloadDirectory = workload.Directory
	// ExperimentConfig sizes the paper-reproduction experiments.
	ExperimentConfig = sim.Config
	// Figure is one reproduced table or figure.
	Figure = metrics.Figure
	// SyncCounters aggregates master-side synchronization activity
	// (polls, PDUs by action, full reloads, classify latency).
	SyncCounters = metrics.SyncCounters
	// SyncSnapshot is a point-in-time copy of SyncCounters.
	SyncSnapshot = metrics.SyncSnapshot

	// EdgeWriter accepts writes at a replica: WAL journal, upstream
	// forwarding to the master sequencer, and a pending overlay giving the
	// writer read-your-writes until the CSN echoes back.
	EdgeWriter = edgewrite.Writer
	// EdgeWriteConfig parameterizes an EdgeWriter.
	EdgeWriteConfig = edgewrite.Config
	// EdgeForwarder carries accepted edge writes upstream over the wire.
	EdgeForwarder = ldapnet.EdgeForwarder
	// WriteCounters tracks the edge-write lifecycle (accepted, forwarded,
	// committed, retired, pending depth, WAL replays).
	WriteCounters = metrics.WriteCounters
	// WireResultError is a server's non-success answer, carrying the result
	// code and any referral URLs.
	WireResultError = ldapnet.ResultError
)

// ParseDN parses an RFC 2253 distinguished name.
func ParseDN(s string) (DN, error) { return dn.Parse(s) }

// MustParseDN is ParseDN that panics on error.
func MustParseDN(s string) DN { return dn.MustParse(s) }

// ParseFilter parses an RFC 2254 filter string.
func ParseFilter(s string) (*Filter, error) { return filter.Parse(s) }

// MustParseFilter is ParseFilter that panics on error.
func MustParseFilter(s string) *Filter { return filter.MustParse(s) }

// NewQuery builds a search request from string forms.
func NewQuery(base string, scope Scope, filterStr string, attrs ...string) (Query, error) {
	return query.New(base, scope, filterStr, attrs...)
}

// MustParseQuery is NewQuery that panics on error.
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

// WithIndexes maintains equality/prefix indexes on the named attributes.
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

// WithCacheCapacity bounds the replica's recent-user-query window.
func WithCacheCapacity(n int) replica.FROption { return replica.WithCacheCapacity(n) }

// WithChecker shares a containment checker across replicas.
func WithChecker(c *Checker) replica.FROption { return replica.WithChecker(c) }

// WithContentIndexes indexes the replica's content store.
func WithContentIndexes(attrs ...string) replica.FROption {
	return replica.WithContentIndexes(attrs...)
}

// NewSubtreeReplica creates a subtree replica for the given contexts.
func NewSubtreeReplica(contexts []Context) (*SubtreeReplica, error) {
	return replica.NewSubtreeReplica(contexts)
}

// NewSyncEngine creates the master-side ReSync engine over a directory.
func NewSyncEngine(master *Directory) *SyncEngine { return resync.NewEngine(master) }

// NewAdaptiveReplica wires a filter replica, a selector and a supplier into
// the full Section 6.2 adaptation loop.
func NewAdaptiveReplica(rep *FilterReplica, sel *Selector, sup Supplier) *AdaptiveReplica {
	return replica.NewAdaptiveReplica(rep, sel, sup)
}

// NewSyncApplier wraps a replica-side store for applying sync updates.
func NewSyncApplier(store *Directory) *SyncApplier { return resync.NewApplier(store) }

// NewChecker creates a containment checker with an empty plan cache.
func NewChecker() *Checker { return containment.NewChecker() }

// QueryContained reports whether q is semantically contained in qs using a
// fresh checker; reuse a Checker for repeated decisions.
func QueryContained(q, qs Query) bool { return containment.NewChecker().QueryContains(q, qs) }

// NewGeneralizer builds a filter generalizer from rules.
func NewGeneralizer(rules ...selection.Rule) *Generalizer {
	return selection.NewGeneralizer(rules...)
}

// PrefixRule generalizes equality values to prefixes of the given length.
func PrefixRule(attr string, prefixLen int) selection.Rule {
	return selection.PrefixRule{Attr: attr, PrefixLen: prefixLen}
}

// WidenRule drops predicates on an attribute from conjunctions.
func WidenRule(dropAttr string) selection.Rule {
	return selection.WidenRule{DropAttr: dropAttr}
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

// WriteLDIF and ReadLDIF move entries through the LDIF interchange format.
var (
	WriteLDIF = ldif.Write
	ReadLDIF  = ldif.Read
)

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
	return persist.Dir{Path: path}.Open(suffixes, persist.JournalRetention{}, opts...)
}
