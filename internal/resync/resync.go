// Package resync implements the paper's ReSync filter-synchronization
// protocol (Section 5) on the master side, the replica-side applier, and
// the baseline mechanisms it is compared against (tombstones, changelogs,
// full reload, and the incomplete-history "retain" mode of equation 3).
//
// A replica registers a content specification — an LDAP query — and then
// polls (or subscribes, in persist mode). Using the DIT update journal's
// before/after snapshots, the master classifies every change against the
// content:
//
//	E01 (moved in)      → add action, full entry
//	E10 (moved out)     → delete action, DN only
//	E11 (changed within) → modify action: a patch — the attributes the
//	                       interval touched, each with its current values —
//	                       or the full entry where the journal cannot name
//	                       what was touched (see Update.Patch)
//
// Changes within one poll interval are coalesced to the net difference, so
// the update set is minimal. The paper ships a modifyDN that keeps an entry
// inside the content as a delete of the old DN plus an add of the new one
// (E10 + E01). Content-wise that is still the classification here, but on the
// wire the pair travels as one move: a patch under the new DN that names the
// old one (see Update.OldDN).
package resync

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
)

// Action is the client-side action carried by an update PDU.
type Action int

// Update actions per Section 5.2.
const (
	ActionAdd Action = iota + 1
	ActionDelete
	ActionModify
	ActionRetain
)

func (a Action) String() string {
	switch a {
	case ActionAdd:
		return "add"
	case ActionDelete:
		return "delete"
	case ActionModify:
		return "modify"
	case ActionRetain:
		return "retain"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Update is one synchronization PDU: for add and modify the complete entry
// is sent; for delete and retain only the DN.
type Update struct {
	Action Action
	DN     dn.DN
	Entry  *entry.Entry
	// Patch marks a modify whose Entry is not the complete image but a patch:
	// it carries exactly the attributes to replace in the held entry, each
	// with its complete current value set (no values: the attribute is now
	// absent), and every other attribute stays as the consumer holds it. The
	// engine sends one for an entry that only in-place modifies touched since
	// the session's sync point, and the attributes are the union of what
	// those modifies named, not their net difference: a consumer redelivered
	// the interval from an older cookie holds some image from inside it, and
	// replacing every attribute touched anywhere in the interval brings any
	// such image to the final one. Without Patch a modify carries, as ever,
	// the complete image to store in place of the held one.
	Patch bool
	// OldDN, set on a patch, makes it a move: the entry stood in the content
	// under OldDN (as the consumer holds it) at the session's sync point and
	// stands under DN now, and in between only renames and in-place modifies
	// touched it. The consumer re-keys what it holds at OldDN to DN and then
	// applies the patch; the patch names, beside the modifies' attributes, the
	// attribute types of the old and new RDNs. In content terms a move is the
	// delete of OldDN plus the add of DN (E10 + E01).
	OldDN dn.DN
}

// IsMove reports whether the update is a move (see OldDN).
func (u Update) IsMove() bool { return u.Patch && !u.OldDN.IsRoot() }

// Image returns the complete entry a consumer holds after applying the
// update on top of held (what it held at the DN before — for a move, at the
// old DN; nil if nothing): the update's own entry, or for a patch held with
// the patch's attributes replaced, re-keyed to DN for a move. A patch with
// nothing held yields nil — there is no image to build, see dit.ErrPatchMiss.
func (u Update) Image(held *entry.Entry) *entry.Entry {
	if !u.Patch {
		return u.Entry
	}
	if held == nil {
		return nil
	}
	img := held.Clone()
	if u.IsMove() {
		img.SetDN(u.DN)
	}
	_ = dit.ApplyMods(img, dit.PatchMods(u.Entry)) // replaces only: cannot fail
	return img
}

// ByteSize estimates the PDU's wire size for traffic accounting.
func (u Update) ByteSize() int {
	if u.Entry != nil {
		n := u.Entry.ByteSize() + 8
		if u.IsMove() {
			n += len(u.OldDN.String())
		}
		return n
	}
	return len(u.DN.String()) + 8
}

// Traffic accumulates synchronization cost in PDUs and bytes.
type Traffic struct {
	Adds, Deletes, Modifies, Retains int
	Bytes                            int
}

// Add accounts one update; a move is one PDU, a modify.
func (t *Traffic) Add(u Update) {
	switch u.Action {
	case ActionAdd:
		t.Adds++
	case ActionDelete:
		t.Deletes++
	case ActionModify:
		t.Modifies++
	case ActionRetain:
		t.Retains++
	}
	t.Bytes += u.ByteSize()
}

// Updates returns the total number of update PDUs.
func (t *Traffic) Updates() int { return t.Adds + t.Deletes + t.Modifies + t.Retains }

// Errors returned by the engine.
var (
	ErrNoSuchSession = errors.New("no such resync session")
)

// Engine is the master-side ReSync protocol engine, layered on a DIT store
// and its update journal. Safe for concurrent use.
//
// Concurrency model: mu is a short-lived registry lock guarding only the
// sessions map and ID counter. Each session carries its own mutex
// serializing polls of that session, so a slow synchronization (e.g. a
// trimmed-journal full reload) on one replica never blocks another
// replica's poll — the underlying dit.Store is RWMutex-protected, so
// concurrent MatchAll/ChangesSince reads proceed in parallel.
type Engine struct {
	store *dit.Store
	stats *metrics.SyncCounters
	// tag, five random base-36 digits, begins every session id (tag +
	// nextID): a cookie or resume token from another incarnation of the
	// supplier — a restart over a store whose CSNs continue — names no
	// session here, not whichever session took its number since.
	tag string

	mu       sync.Mutex // guards sessions and nextID only; never held across store reads
	sessions map[string]*session
	nextID   uint64

	obs atomic.Pointer[Observer] // never touches mu

	// Content-group fan-out (group.go). groupMu guards the registry;
	// each group carries its own lock for member and cache state.
	groupMu sync.Mutex
	groups  map[string]*group // content key -> group

	// keepPoints bounds each session's sync points (only the retention tests
	// shrink it); chunkSize > 0 serializes full reloads into resumable chunks
	// of that many entries (resume.go).
	keepPoints int
	chunkSize  int

	// watermark maps a local store CSN to the master-position watermark
	// stamped on poll results (identity when nil — the master serving its
	// own store). A cascade mid-tier installs a mapping to its upstream
	// CSNs so edge-writing consumers can match pending ops, which are
	// sequenced by the master, against a stream served by the tier.
	watermark atomic.Pointer[func(dit.CSN) uint64]
}

// SetWatermarkFunc installs (or clears, with nil) the local-CSN → master
// watermark mapping stamped on every poll result. The function must be
// conservative: return only master positions provably covered by the local
// content at the given CSN, and be monotone in it.
func (e *Engine) SetWatermarkFunc(fn func(dit.CSN) uint64) { e.watermark.Store(&fn) }

// stampCSN resolves the watermark for a local CSN.
func (e *Engine) stampCSN(csn dit.CSN) uint64 {
	if fn := e.watermark.Load(); fn != nil && *fn != nil {
		return (*fn)(csn)
	}
	return uint64(csn)
}

// Observer receives every update batch the engine emits, right before it is
// returned (or pushed) to the consumer: the session ID, the batch, and
// whether it is a full content transfer. The convergence oracle uses it to
// account server-side update traffic. The callback runs while the session's
// lock is held and must not call back into the engine.
type Observer func(sessionID string, updates []Update, fullReload bool)

// SetObserver installs (or clears, with nil) the emission observer.
func (e *Engine) SetObserver(fn Observer) { e.obs.Store(&fn) }

// observe notifies the installed observer, if any, of an emitted batch.
func (e *Engine) observe(id string, updates []Update, fullReload bool) {
	if fn := e.obs.Load(); fn != nil && *fn != nil {
		(*fn)(id, updates, fullReload)
	}
}

// session records the per-replica synchronization state: the content
// specification, the CSN up to which the replica is synchronized, and the
// DN set of the content at that CSN (the basis for classifying moves in and
// out — the "session history" of the paper).
//
// Delivery is at-least-once: every response carries a cookie naming the
// sync point ("<tag>N@<CSN>") it brings the replica to, and the session
// keeps a bounded history of recent points with undo records. A replica that
// lost a response re-presents its previous cookie; the engine rolls the
// content map back to that point and recomputes, so a dropped connection
// never loses updates. Presenting a cookie acknowledges its point —
// anything older is discarded.
type session struct {
	id string

	// mu serializes synchronization exchanges of this session; ended is
	// closed (under mu) by End so that a poll racing a concurrent End cannot
	// advance a deregistered session and hand its cookie back as live, and
	// so that a stream waiting on the session ends at once.
	mu    sync.Mutex
	ended chan struct{}

	spec    query.Query
	group   *group           // content group (group.go)
	viewKey string           // attribute-selection key within the group
	csn     dit.CSN          // CSN of the newest sync point
	content map[string]dn.DN // norm DN -> DN of entries in content at csn
	// points is the resumable history, oldest (last acknowledged) first;
	// the final element matches csn/content.
	points []syncPoint
	// rolledBack is the newest point the last rollback discarded (zero when
	// none): a poll that rebuilds it reissues its name (nameAt).
	rolledBack syncPoint
	// transfer is the session's in-flight (or just-completed) chunked
	// reload, nil outside one (resume.go).
	transfer *transfer
}

// syncPoint is one replica-visible synchronization state, named by the CSN
// whose content it holds; an idle poll may advance its csn past that.
type syncPoint struct {
	name uint64
	csn  dit.CSN
	undo []undoOp // restores the previous (older) point's content map
}

// undoOp reverts one content-map key to its value at the previous point.
type undoOp struct {
	norm    string
	dn      dn.DN
	present bool
}

// defaultSyncPointRetention bounds the per-session resume history. A replica
// further behind than the retained window (e.g. a persist stream that outlived
// many unacknowledged batches) falls back to a full reload.
const defaultSyncPointRetention = 64

// DefaultJournalLimit is the store journal bound of a node that serves an
// engine: how far a session may lag before it gets a full reload.
const DefaultJournalLimit = 4096

// CookieString renders the wire cookie naming sync point point of session id.
func CookieString(id string, point uint64) string {
	return id + "@" + strconv.FormatUint(point, 10)
}

// SplitCookie separates a wire cookie into session ID and sync point name;
// ok is false for a cookie without a parseable name, which names no point.
func SplitCookie(cookie string) (id string, point uint64, ok bool) {
	i := strings.LastIndexByte(cookie, '@')
	if i < 0 {
		return cookie, 0, false
	}
	p, err := strconv.ParseUint(cookie[i+1:], 10, 64)
	if err != nil {
		return cookie, 0, false
	}
	return cookie[:i], p, true
}

// rollbackTo rolls the content map back to the sync point named name,
// discarding newer points — responses the replica evidently never applied,
// which will be recomputed. Older points are kept: rollback alone does not
// prove the replica holds the point durably. Reports whether the point was
// found.
func (sess *session) rollbackTo(name uint64) bool {
	idx := -1
	for i, p := range sess.points {
		if p.name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	if newest := sess.points[len(sess.points)-1]; newest.name != name {
		sess.rolledBack = syncPoint{name: newest.name, csn: newest.csn}
	}
	for j := len(sess.points) - 1; j > idx; j-- {
		for _, u := range sess.points[j].undo {
			if u.present {
				sess.content[u.norm] = u.dn
			} else {
				delete(sess.content, u.norm)
			}
		}
	}
	sess.points = sess.points[:idx+1]
	sess.csn = sess.points[idx].csn
	return true
}

// nameAt names a new sync point built at csn: by csn, since the content a
// spec selects at a CSN is fixed. A point rebuilt at the CSN of the point the
// last rollback discarded holds that point's content, and takes its name
// back — which differs from csn when an idle poll had advanced that point.
// That keeps a late duplicate of a request harmless: handled after its
// consumer's retry was answered, it rolls back the point the consumer now
// holds and rebuilds the same one, which the consumer's next poll still finds
// (DESIGN.md §8).
func (sess *session) nameAt(csn dit.CSN) uint64 {
	back := sess.rolledBack
	sess.rolledBack = syncPoint{}
	if back.csn == csn {
		return back.name
	}
	return uint64(csn)
}

// point returns the name of the session's newest sync point.
func (sess *session) point() uint64 { return sess.points[len(sess.points)-1].name }

// rewindTo repositions the session at the sync point the replica proved it
// holds by presenting its name: newer points are rolled back, and — since
// presenting a cookie acknowledges it — older points are dropped.
func (sess *session) rewindTo(name uint64) bool {
	if !sess.rollbackTo(name) {
		return false
	}
	base := sess.points[len(sess.points)-1]
	base.undo = nil
	sess.points = append(sess.points[:0], base)
	return true
}

// setContent records an insertion or replacement in the content map with
// its undo. A no-op write (same DN) records nothing.
func (sess *session) setContent(norm string, d dn.DN, undo *[]undoOp) {
	if old, ok := sess.content[norm]; ok {
		if old.SameSpelling(d) {
			return
		}
		*undo = append(*undo, undoOp{norm: norm, dn: old, present: true})
	} else {
		*undo = append(*undo, undoOp{norm: norm})
	}
	sess.content[norm] = d
}

// delContent records a deletion from the content map with its undo.
func (sess *session) delContent(norm string, undo *[]undoOp) {
	if old, ok := sess.content[norm]; ok {
		*undo = append(*undo, undoOp{norm: norm, dn: old, present: true})
		delete(sess.content, norm)
	}
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithChunkSize makes full reloads resumable: a reload larger than n
// entries is served as deterministic DN-ordered chunks of n, each exchange
// handing the consumer a resume token for the remainder (resume.go). Zero
// (the default) keeps reloads monolithic.
func WithChunkSize(n int) EngineOption {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.chunkSize = n
	}
}

// NewEngine creates an engine over the master store.
func NewEngine(store *dit.Store, opts ...EngineOption) *Engine {
	e := &Engine{
		store:      store,
		stats:      &metrics.SyncCounters{},
		sessions:   make(map[string]*session),
		groups:     make(map[string]*group),
		keepPoints: defaultSyncPointRetention,
		tag:        strconv.FormatUint(36*36*36*36+rand.Uint64N(35*36*36*36*36), 36), // in [36⁴, 36⁵)
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Counters exposes the engine's synchronization counters; callers may read
// them concurrently (and the wire server adds its streaming accounting).
func (e *Engine) Counters() *metrics.SyncCounters { return e.stats }

// exchange names what a consumer is asking of an established session; it
// decides how enter positions the session before the exchange runs.
type exchange int

const (
	// exPoll presents a cookie and acknowledges its sync point.
	exPoll exchange = iota
	// exRetain does the same, then replaces the session state wholesale.
	exRetain
	// exStream presents a cookie to stream from; nothing is acknowledged
	// until a streamed cookie comes back.
	exStream
	// exResume presents a resume token's session id, which names a chunked
	// transfer rather than a sync point.
	exResume
)

// enter is the one way into an established session, shared by every
// exchange that presents a cookie or a resume token. It resolves the
// session, locks it — the caller unlocks — and refuses one that End has
// terminated. Then it positions the session at the sync point the consumer
// presented: responses the consumer evidently never applied are rolled back
// and, when the exchange acknowledges, everything older than the presented
// point is dropped. held reports whether the point was found, i.e. whether
// the session's content map now describes what the consumer provably holds.
//
// The chunked transfer follows from the same decision: a held point proves
// the consumer received a completed transfer, so its pinned snapshot is
// released; retain replaces the session state, so it drops the transfer
// whatever its progress; in every other case the transfer is left for
// ResumeReload to continue or reload to supersede.
func (e *Engine) enter(cookie string, ex exchange) (sess *session, held bool, err error) {
	id, name, named := cookie, uint64(0), false
	if ex != exResume {
		id, name, named = SplitCookie(cookie)
	}
	e.mu.Lock()
	sess, ok := e.sessions[id]
	e.mu.Unlock()
	if ok {
		sess.mu.Lock()
		if closed(sess.ended) {
			sess.mu.Unlock()
			ok = false
		}
	}
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrNoSuchSession, cookie)
	}
	switch {
	case !named:
	case ex == exPoll, ex == exRetain:
		held = sess.rewindTo(name)
	case ex == exStream:
		held = sess.rollbackTo(name)
	}
	if tr := sess.transfer; tr != nil && (ex == exRetain || held && tr.done) {
		e.dropTransfer(sess)
	}
	return sess, held, nil
}

// countPDUs accounts a produced update batch by action.
func (e *Engine) countPDUs(updates []Update) {
	for _, u := range updates {
		switch u.Action {
		case ActionAdd:
			e.stats.PDUAdds.Add(1)
		case ActionDelete:
			e.stats.PDUDeletes.Add(1)
		case ActionModify:
			e.stats.PDUModifies.Add(1)
			if u.Patch {
				e.stats.PDUPatches.Add(1)
			}
			if u.IsMove() {
				e.stats.PDUMoves.Add(1)
			}
		case ActionRetain:
			e.stats.PDURetains.Add(1)
		}
	}
}

// PollResult is the outcome of one poll: the update sequence, the cookie
// resuming the session, and whether the content was reloaded from scratch
// (journal history no longer covered the replica's sync point).
type PollResult struct {
	Updates    []Update
	Cookie     string
	FullReload bool
	// CSN is the master-position watermark the exchange syncs the consumer
	// to (the engine's store CSN on a master, the mapped upstream CSN on a
	// cascade tier; 0 when unknown). An edge-writing replica retires a
	// pending op once every source's CSN reaches the op's assigned CSN.
	CSN uint64
	// Enc, when non-nil, memoizes the wire encoding of Updates, shared
	// with every other session of the same content view crossing the same
	// change interval (group.go).
	Enc *SharedEnc
	// Resume, when non-nil, marks the result as one chunk of a resumable
	// reload: the exchange is incomplete, Cookie is empty, and the consumer
	// continues by presenting the token (ResumeReload). FullReload is set
	// only on chunk zero — the consumer clears held content there and
	// appends on later chunks.
	Resume *proto.ResumeToken
}

// Begin starts a synchronization session for the content of spec: the
// entire current content is returned as add actions together with the
// session cookie (the null-cookie case of Section 5.2). The content, its
// CSN and the wire-encoding memo come from the content group's reload
// snapshot (reload.go), so members beginning side by side share one
// materialisation of it.
func (e *Engine) Begin(spec query.Query) (*PollResult, error) {
	sess := &session{spec: spec, viewKey: viewKey(spec.Attrs), ended: make(chan struct{})}
	sess.group = e.joinGroup(spec)
	view := e.startFull(sess)
	e.mu.Lock()
	e.nextID++
	sess.id = e.tag + strconv.FormatUint(e.nextID, 10)
	e.sessions[sess.id] = sess
	e.mu.Unlock()
	e.stats.Begins.Add(1)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return e.serveFull(sess, view, false), nil
}

// serveFull answers with the whole content of the view the session was just
// positioned at (startFull): chunk zero of a resumable transfer when the
// view is chunked, else everything at once under the snapshot's sync point.
// fullReload tells a consumer that held content to discard it (chunk zero
// always says so). The caller holds sess.mu.
func (e *Engine) serveFull(sess *session, view *reloadView, fullReload bool) *PollResult {
	if view.chunkSize > 0 {
		return e.beginTransfer(sess, view)
	}
	// A monolithic transfer supersedes any in-flight chunked one.
	e.dropTransfer(sess)
	res := &PollResult{Cookie: CookieString(sess.id, sess.point()), FullReload: fullReload, CSN: e.stampCSN(sess.csn), Updates: view.updates, Enc: view.encs[0]}
	e.countPDUs(res.Updates)
	e.observe(sess.id, res.Updates, true)
	return res
}

// Poll returns the net content updates accumulated since the previous
// poll of the session identified by cookie. When the master's journal no
// longer covers the session's sync point, the full content is re-sent with
// FullReload set.
func (e *Engine) Poll(cookie string) (*PollResult, error) {
	sess, held, err := e.enter(cookie, exPoll)
	if err != nil {
		return nil, err
	}
	defer sess.mu.Unlock()
	e.stats.Polls.Add(1)
	if !held {
		// The presented sync point is no longer in the resume history (or
		// never existed): the only safe answer is the full content.
		return e.reload(sess), nil
	}
	return e.poll(sess)
}

// poll runs one synchronization exchange from the session's newest sync
// point; the caller holds sess.mu.
func (e *Engine) poll(sess *session) (*PollResult, error) {
	changes, ok := e.store.ChangesSince(sess.csn)
	if !ok {
		return e.reload(sess), nil
	}

	res := &PollResult{}
	start := time.Now()
	updates, undo, enc := e.classifyFor(sess, changes)
	res.Updates = updates
	res.Enc = enc
	e.stats.Classify.Observe(int64(time.Since(start)))
	csn := sess.csn
	if len(changes) > 0 {
		csn = changes[len(changes)-1].CSN
	}
	if len(updates) == 0 && len(undo) == 0 {
		// Nothing the replica must apply: advance the current point in
		// place so idle polls do not grow the resume history, and the
		// replica keeps presenting the same cookie. The point keeps its
		// name: what it holds is the content at that CSN still.
		sess.points[len(sess.points)-1].csn = csn
	} else {
		sess.points = append(sess.points, syncPoint{name: sess.nameAt(csn), csn: csn, undo: undo})
		if len(sess.points) > e.keepPoints {
			sess.points = sess.points[1:]
			sess.points[0].undo = nil
		}
	}
	sess.csn = csn
	res.Cookie = CookieString(sess.id, sess.point())
	res.CSN = e.stampCSN(csn)
	e.countPDUs(res.Updates)
	e.observe(sess.id, res.Updates, false)
	return res, nil
}

// reload re-sends the full content and resets the session's resume history
// to the new sync point — used when journal history no longer covers the
// session's sync point, or the replica presented an unknown one. Like
// Begin it is served from the group's reload snapshot. The caller holds
// sess.mu.
func (e *Engine) reload(sess *session) *PollResult {
	e.stats.FullReloads.Add(1)
	return e.serveFull(sess, e.startFull(sess), true)
}

// End terminates a session (mode "sync_end"). The session is deregistered
// and marked ended under its own lock, so an exchange racing the End either
// completes first or observes the termination and fails, and a persist
// stream of the session ends at once. The session also leaves its content
// group; the last member out frees the group's shared state.
func (e *Engine) End(cookie string) error {
	id, _, _ := SplitCookie(cookie)
	e.mu.Lock()
	sess, ok := e.sessions[id]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchSession, cookie)
	}
	delete(e.sessions, id)
	e.mu.Unlock()
	sess.mu.Lock()
	close(sess.ended)
	e.dropTransfer(sess)
	sess.mu.Unlock()
	e.leaveGroup(sess.group)
	e.stats.Ends.Add(1)
	return nil
}

// Sessions returns the number of active sessions.
func (e *Engine) Sessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

// SessionSpec identifies one active session for control-plane inspection.
type SessionSpec struct {
	ID   string
	Spec query.Query
}

// SessionSpecs snapshots the active sessions' ids and specs. The tier
// control plane reads them as a live demand signal and to decide which
// downstream sessions a narrowing revolution must re-refer.
func (e *Engine) SessionSpecs() []SessionSpec {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SessionSpec, 0, len(e.sessions))
	for id, sess := range e.sessions {
		out = append(out, SessionSpec{ID: id, Spec: sess.spec})
	}
	return out
}

// Kick ends every active session whose spec fails the keep predicate,
// returning the ended session ids. A kicked consumer's next exchange gets
// ErrNoSuchSession — the graceful re-referral of a narrowing tier: a
// cascaded leaf supervisor reacts by re-beginning at its fallback master,
// so no update is lost. Persist streams of kicked sessions end at once, as
// End ends them.
func (e *Engine) Kick(keep func(query.Query) bool) []string {
	e.mu.Lock()
	var ids []string
	for id, sess := range e.sessions {
		if !keep(sess.spec) {
			ids = append(ids, id)
		}
	}
	e.mu.Unlock()
	for _, id := range ids {
		// The bare id is a valid cookie for End (sync point part ignored);
		// a session concurrently ended by its consumer is already gone.
		_ = e.End(id)
	}
	return ids
}

// stripAttrs widens the spec to all attributes for content computation; the
// requested attribute selection is applied when building update PDUs.
func stripAttrs(q query.Query) query.Query {
	out := q
	out.Attrs = nil
	return out
}
