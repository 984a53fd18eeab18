// Package dit implements an in-memory Directory Information Tree: entry
// storage under one or more naming contexts, index-assisted LDAP search,
// the four update operations (add, delete, modify, modifyDN), and an update
// journal with before/after snapshots that the ReSync protocol and its
// baselines consume.
//
// The store is sharded by DN hash with copy-on-write shard states: readers
// freeze an immutable multi-shard view and scan it without holding any
// lock, while writers flow through a group-commit pipeline that batches
// concurrent updates behind one global CSN sequencer (see DESIGN.md §13).
package dit

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/filter"
	"filterdir/internal/metrics"
	"filterdir/internal/query"
)

// Errors reported by store operations.
var (
	ErrNoSuchObject  = errors.New("no such object")
	ErrAlreadyExists = errors.New("entry already exists")
	ErrNotLeaf       = errors.New("entry has children")
	ErrNoSuchContext = errors.New("base not under any naming context")
	ErrSchema        = errors.New("schema violation")
	ErrBadAttr       = errors.New("invalid attribute description")
)

// CheckAttr returns ErrBadAttr unless a is a descr (a letter, then letters,
// digits and hyphens) or a numeric OID, then ";option"s of the same letters:
// RFC 4512's grammar, which a journal's LDIF lines can carry back. Add,
// Modify and ApplyCSN check every name they are given; Load and ApplyOwned do
// not: their inputs were checked where they entered the system, and Load runs
// at set-up.
func CheckAttr(a string) error {
	const keychars = "-0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	holed := func(s, pair string) bool { // an empty part between separators
		return s == "" || s[0] == pair[0] || s[len(s)-1] == pair[0] || strings.Contains(s, pair)
	}
	typ, opts, hasOpts := strings.Cut(a, ";")
	descr := typ != "" && typ[0] > '9' && strings.Trim(typ, keychars) == ""
	oid := strings.Trim(typ, ".0123456789") == "" && !holed(typ, "..")
	if !descr && !oid || hasOpts && (strings.Trim(opts, keychars+";") != "" || holed(opts, ";;")) {
		return fmt.Errorf("%w: %q", ErrBadAttr, a)
	}
	return nil
}

// requireClass is the one schema rule a master enforces: every entry outside
// input leaves at a master carries an objectclass value. Containment reads
// (objectclass=*) as match-all on the strength of it. Add, Load, Modify and
// ApplyCSN check it; replica-side applies (Upsert, ApplyOwned) do not: an
// attribute-selected image need not carry the object class.
func requireClass(e *entry.Entry) error {
	if vals, _ := e.Lookup(entry.AttrObjectClass); vals.Len() == 0 {
		return fmt.Errorf("%w: %q has no objectclass", ErrSchema, e.DN().String())
	}
	return nil
}

// CSN is a change sequence number: a monotonically increasing commit stamp
// assigned to every update.
type CSN uint64

// Referral is the object class marking subordinate-context glue entries; a
// referral entry's "ref" attribute carries the subordinate server URL.
const (
	ReferralClass = "referral"
	RefAttr       = "ref"
)

// ShardsEnv names the environment variable consulted for the shard count
// when WithShards is not given (the CI shards axis sets it); unset or
// invalid falls back to GOMAXPROCS.
const ShardsEnv = "FILTERDIR_SHARDS"

// Store is an in-memory DIT partition sharded by DN hash. All methods are
// safe for concurrent use. Multi-entry reads (Search, MatchAll, Snapshot,
// All) freeze an immutable copy-on-write view and scan it
// lock-free; updates flow through a batched commit pipeline serialized by
// the global CSN sequencer, so replication consumers observe exactly one
// journal record per update in one global order regardless of shard count.
type Store struct {
	suffixes []dn.DN
	// defaultReferral is returned when a request targets a DN outside every
	// naming context (the "superior referral" of Figure 2).
	defaultReferral string
	indexAttrs      []string

	nshards int
	shards  []*shard

	// seqMu is the global CSN sequencer: a batch leader holds it while
	// applying its whole batch, and multi-shard readers hold it only long
	// enough to freeze a view (never across a scan), so views always land
	// on batch boundaries.
	seqMu          sync.Mutex
	journal        []Change // consecutive CSNs ending at nextCSN-1; may be trimmed
	nextCSN        CSN
	journalLimit   int
	journalTrimmed uint64 // records dropped by the journal limit
	// holds maps hold IDs to their pinned CSNs (see hold.go): the journal
	// suffix after min(holds) survives trimming while any hold is live.
	holds   map[uint64]CSN
	holdSeq uint64
	// signal is closed and replaced once per committed batch; waiters use
	// it for persist-mode notification.
	signal  chan struct{}
	durable func(changes []Change, content func() []*entry.Entry) error // commits each batch (Durable)
	failed  error                                                       // durable's first error: no write applies after it

	// Commit-pipeline queue (guarded by pendMu, drained under seqMu). A
	// leader drains at most batchLimit ops per flush; writers sleep
	// batchWindow before contending (none: commit as soon as the sequencer
	// is free). Only tests change either.
	pendMu      sync.Mutex
	pending     []*writeOp
	batchLimit  int
	batchWindow time.Duration

	// buildMu serializes index builds; unjournaled counts Loads and Durables,
	// which no journal record shows; buildHook (tests) runs at a build's view.
	buildMu     sync.Mutex
	unjournaled uint64
	buildHook   func(attrs []string)

	counters metrics.StoreCounters
}

// Option configures a Store.
type Option func(*Store)

// WithIndexes declares equality/prefix indexes on the named attributes. Each
// is built at the first Search, MatchAll or Snapshot it would answer, and
// maintained by every write after that: a store nothing reads never pays.
func WithIndexes(attrs ...string) Option {
	return func(st *Store) {
		for _, a := range attrs {
			st.indexAttrs = append(st.indexAttrs, entry.NormName(a))
		}
	}
}

// WithDefaultReferral sets the superior referral URL returned for targets
// outside every naming context.
func WithDefaultReferral(url string) Option {
	return func(st *Store) { st.defaultReferral = url }
}

// WithJournalLimit bounds the in-memory journal to the most recent n
// changes; older history is trimmed (consumers then require a full reload).
// Zero means unbounded.
func WithJournalLimit(n int) Option {
	return func(st *Store) { st.journalLimit = n }
}

// WithShards sets the number of DN-hash shards (values < 1 select the
// default: $FILTERDIR_SHARDS, else GOMAXPROCS). Shard count is a pure
// layout choice: the journal, CSN order, and all read results are
// identical across shard counts — the oracle shard sweep enforces it.
func WithShards(n int) Option {
	return func(st *Store) { st.nshards = n }
}

// NewStore creates a store serving the given naming-context suffixes
// ("" for the whole DIT rooted at the null DN).
func NewStore(suffixes []string, opts ...Option) (*Store, error) {
	st := &Store{
		nextCSN:    1,
		holds:      make(map[uint64]CSN),
		signal:     make(chan struct{}),
		batchLimit: defaultBatchLimit,
	}
	for _, s := range suffixes {
		d, err := dn.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("suffix %q: %w", s, err)
		}
		st.suffixes = append(st.suffixes, d)
	}
	if len(st.suffixes) == 0 {
		st.suffixes = []dn.DN{dn.Root}
	}
	for _, o := range opts {
		o(st)
	}
	n := st.nshards
	if n < 1 {
		n = defaultShards()
	}
	st.nshards = n
	st.shards = make([]*shard, n)
	for i := range st.shards {
		st.shards[i] = &shard{state: newShardState()}
	}
	return st, nil
}

// Durable makes the store's commits durable; its one caller is persist.Dir.Open,
// after replay. The replay's records leave the journal (no session exists to ask
// for them) and CSNs continue after last. Each later batch goes to commit, with
// seqMu held, before trimming, the change signal or any writer's return; content
// reads the store at that boundary. Once commit fails, the batch's writes and
// every later write fail with its error: the store holds what its journal does not.
func (s *Store) Durable(last CSN, commit func(changes []Change, content func() []*entry.Entry) error) {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	s.journal, s.nextCSN, s.durable = nil, last+1, commit
	s.unjournaled++
}

// defaultShards resolves the shard count when WithShards is absent.
func defaultShards() int {
	if v := os.Getenv(ShardsEnv); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Shards returns the store's shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Counters exposes the store's commit-pipeline and snapshot counters.
func (s *Store) Counters() *metrics.StoreCounters { return &s.counters }

// Len returns the number of entries held.
func (s *Store) Len() int {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	n := 0
	for _, sh := range s.shards {
		n += len(sh.load().entries)
	}
	return n
}

// LastCSN returns the CSN of the most recent committed change (0 if none).
func (s *Store) LastCSN() CSN {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return s.nextCSN - 1
}

// Get returns a copy of the entry at d.
func (s *Store) Get(d dn.DN) (*entry.Entry, bool) {
	e, ok := s.Held(d.Norm())
	if !ok {
		return nil, false
	}
	// Stored entries are immutable, so the clone can happen outside the
	// shard lock.
	return e.Clone(), true
}

// Held returns the stored entry whose DN has the given normal form: the
// frozen entry itself, not a copy. It is what a caller holding only a key
// reads the entry, or the DN the store knows it by, from.
func (s *Store) Held(norm string) (*entry.Entry, bool) {
	sh := s.shardFor(norm)
	sh.mu.Lock()
	e, ok := sh.state.entries[norm]
	sh.mu.Unlock()
	return e, ok
}

// holdsTarget reports whether the target DN falls under one of the store's
// naming contexts.
func (s *Store) holdsTarget(d dn.DN) bool {
	return slices.ContainsFunc(s.suffixes, func(suf dn.DN) bool { return suf.IsSuffix(d) })
}

// Result is the outcome of a search: matching entries (attribute-selected
// copies) plus referral URLs for subordinate or superior naming contexts.
type Result struct {
	Entries   []*entry.Entry
	Referrals []string
}

// Search evaluates an LDAP search against a frozen view of the store.
// Referral objects in the searched region are not descended into; their ref
// URLs are returned as search references. A base outside every naming
// context yields ErrNoSuchContext together with the default (superior)
// referral, mirroring the distributed-operation behaviour of Figure 2.
// Entries and referrals are returned in normalized-DN order, so equal
// content yields byte-equal results regardless of shard count.
func (s *Store) Search(q query.Query) (*Result, error) {
	if !s.holdsTarget(q.Base) {
		res := &Result{}
		if s.defaultReferral != "" {
			res.Referrals = append(res.Referrals, s.defaultReferral)
		}
		return res, fmt.Errorf("%w: %q", ErrNoSuchContext, q.Base.String())
	}
	f := queryFilter(q)
	v, cands, indexed := s.indexedView(f)
	baseEntry, ok := v.get(q.Base.Norm())
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchObject, q.Base.String())
	}

	res := &Result{}
	// Distributed name resolution: a referral base is itself a referral.
	if baseEntry.HasObjectClass(ReferralClass) {
		res.Referrals = append(res.Referrals, baseEntry.Values(RefAttr)...)
		return res, nil
	}
	// The region: in scope and, on a view holding referral objects, neither
	// a referral nor below one, reached from the base through held parents.
	// On a view without any (the common case) the scope alone decides, as
	// in MatchAll.
	var keep func(e *entry.Entry) bool
	if !v.referralFree() {
		keep = func(e *entry.Entry) bool {
			return !e.HasObjectClass(ReferralClass) && v.pathClear(q.Base, e.DN())
		}
		v.collectReferrals(q, res)
		sort.Strings(res.Referrals)
	}
	res.Entries = v.candidates(q, f, cands, indexed, keep)
	return res, nil
}

// referralFree reports whether the view holds no referral objects at all,
// via the per-shard registries — O(shards), not O(entries).
func (v *view) referralFree() bool {
	for _, st := range v.states {
		if len(st.referrals) > 0 {
			return false
		}
	}
	return true
}

func sortEntries(es []*entry.Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].DN().Norm() < es[j].DN().Norm() })
}

// collectReferrals surfaces the referral objects of the region from the
// per-shard referral registries — O(referrals·depth), not O(entries): a
// referral counts when it is in scope below the base and reached from it
// through held, non-referral parents.
func (v *view) collectReferrals(q query.Query, res *Result) {
	if q.Scope == query.ScopeBase {
		return
	}
	baseNorm := q.Base.Norm()
	for _, st := range v.states {
		for norm := range st.referrals {
			e, ok := st.entries[norm]
			if !ok || norm == baseNorm || !q.InScope(e.DN()) || !v.pathClear(q.Base, e.DN()) {
				continue
			}
			res.Referrals = append(res.Referrals, e.Values(RefAttr)...)
		}
	}
}

// pathClear reports whether every strict intermediate between base and
// target exists and is not itself a referral.
func (v *view) pathClear(base, target dn.DN) bool {
	cur := target
	for {
		parent, ok := cur.Parent()
		if !ok || parent.Equal(base) {
			return true
		}
		if parent.Depth() < base.Depth() {
			return true
		}
		e, ok := v.get(parent.Norm())
		if !ok || e.HasObjectClass(ReferralClass) {
			return false
		}
		cur = parent
	}
}

// MatchAll evaluates a query against the store without anchoring at the
// base entry: every held entry in the base/scope region matching the filter
// is returned, in normalized-DN order. Filter-based replicas use this
// because they hold sparse content — matching entries without their
// ancestor chain — so the base of an answerable query need not itself be
// present.
func (s *Store) MatchAll(q query.Query) []*entry.Entry {
	_, out := s.Snapshot(q)
	return out
}

// Snapshot returns the last committed CSN together with the entries
// matching q, both taken from one frozen view so the pair is mutually
// consistent. ReSync session setup and reload depend on this: the engine's
// content-group cache treats a session's content as a pure function of
// (spec, CSN), so a commit landing between a CSN read and a content read
// would fabricate a (CSN, content) pair that never existed in the store's
// history. Freezing happens under the sequencer lock, so the view also
// always lands on a commit-batch boundary.
func (s *Store) Snapshot(q query.Query) (CSN, []*entry.Entry) {
	f := queryFilter(q)
	v, cands, indexed := s.indexedView(f)
	return v.csn, v.candidates(q, f, cands, indexed, nil)
}

// queryFilter is q's filter, (objectclass=*) when it has none.
func queryFilter(q query.Query) *filter.Node {
	if q.Filter == nil {
		return filter.NewPresent(entry.AttrObjectClass)
	}
	return q.Filter
}

// parallelScanThreshold is the store size above which a scan fans out
// across shards.
const parallelScanThreshold = 2048

// candidates is the one candidate pass of Search, MatchAll and Snapshot: the
// entries in q's scope that match f and that keep (nil: every one) admits,
// attribute-selected and in DN order. The candidates are the index's when
// indexed, else every entry of the view, scanned shard by shard.
func (v *view) candidates(q query.Query, f *filter.Node, cands []string, indexed bool,
	keep func(e *entry.Entry) bool) []*entry.Entry {
	scan := func(st *shardState) []*entry.Entry {
		var part []*entry.Entry
		for _, e := range st.entries {
			if q.InScope(e.DN()) && (keep == nil || keep(e)) && f.Matches(e) {
				part = append(part, e.Select(q.Attrs))
			}
		}
		return part
	}
	var out []*entry.Entry
	switch {
	case indexed:
		for _, norm := range cands {
			if e, ok := v.get(norm); ok && q.InScope(e.DN()) && (keep == nil || keep(e)) && f.Matches(e) {
				out = append(out, e.Select(q.Attrs))
			}
		}
	case len(v.states) > 1 && v.len() >= parallelScanThreshold:
		// Frozen states are immutable, so shards scan concurrently with no
		// coordination beyond the final merge.
		parts := make([][]*entry.Entry, len(v.states))
		forEach(len(parts), func(i int) { parts[i] = scan(v.states[i]) })
		for _, p := range parts {
			out = append(out, p...)
		}
	default:
		for _, st := range v.states {
			out = append(out, scan(st)...)
		}
	}
	sortEntries(out)
	return out
}

// All returns a copy of every entry in normalized-DN order; intended for
// tests, dumps and full reloads.
func (s *Store) All() []*entry.Entry {
	v := s.freeze()
	out := make([]*entry.Entry, 0, v.len())
	for _, st := range v.states {
		for _, e := range st.entries {
			out = append(out, e.Clone())
		}
	}
	sortEntries(out)
	return out
}

// contentLocked is All for a caller holding seqMu, under which no shard
// state changes: the stored entries themselves, uncopied.
func (s *Store) contentLocked() []*entry.Entry {
	var out []*entry.Entry
	for _, sh := range s.shards {
		for _, e := range sh.load().entries {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}
