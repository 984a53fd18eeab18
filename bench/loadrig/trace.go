package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/ldapnet"
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// span is one timed interval at a layer boundary. Spans of one commit or
// one search share a trace id; parent is the id of the span that caused
// this one (0 = none). Times are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer is an untraced run: every method is a no-op, so the load code
// calls it unconditionally. Recording can also be switched off mid-run,
// which is how a traced run measures its own overhead.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	// inflight maps what a backend can see of a request (its DN or query
	// string) to the client span that sent it, so backend spans join the
	// client's trace without touching the wire format.
	inflight map[string]inflightRef
}

type inflightRef struct {
	trace  int64
	parent int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), inflight: map[string]inflightRef{}}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) start(trace int64, name, node string, parent int) int {
	if !t.enabled() {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Trace: trace, Name: name, Node: node, Start: now, Parent: parent})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// event records a zero-length span (mid.applied, leaf.applied).
func (t *tracer) event(trace int64, name, node string) {
	t.end(t.start(trace, name, node, 0))
}

// announce tells the backends which client span is about to send key.
func (t *tracer) announce(key string, trace int64, parent int) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.inflight[key] = inflightRef{trace, parent}
	t.mu.Unlock()
}

func (t *tracer) lookup(key string) inflightRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inflight[key]
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the median self time in nanoseconds
// (duration minus the part covered by child spans).
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	if t == nil {
		return self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	per := map[string][]float64{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		d := s.End - s.Start - child[s.ID]
		if d < 0 {
			d = 0
		}
		per[s.Name] = append(per[s.Name], float64(d))
	}
	for name, ds := range per {
		self[name] = median(ds)
	}
	return self
}

// wrapBackend decorates a backend with span recording; an untraced run
// gets the backend back unchanged.
func (t *tracer) wrapBackend(node string, b ldapnet.Backend) ldapnet.Backend {
	if t == nil {
		return b
	}
	tb := &tracedBackend{Backend: b, t: t, node: node}
	if src, ok := b.(ldapnet.SyncCounterSource); ok {
		// The server adds its streaming accounting to the engine's
		// counters only if the backend it was handed exposes them.
		return &tracedSyncBackend{tracedBackend: tb, src: src}
	}
	return tb
}

// tracedBackend records a backend.<op> span around every call into the
// wrapped ldapnet.Backend. It lives in the benchmark, not in the program.
type tracedBackend struct {
	ldapnet.Backend
	t    *tracer
	node string
}

type tracedSyncBackend struct {
	*tracedBackend
	src ldapnet.SyncCounterSource
}

func (b *tracedSyncBackend) SyncCounters() *metrics.SyncCounters { return b.src.SyncCounters() }

func (b *tracedBackend) span(key, name string) int {
	if !b.t.enabled() {
		return 0
	}
	ref := b.t.lookup(key)
	return b.t.start(ref.trace, name, b.node, ref.parent)
}

func (b *tracedBackend) Search(q query.Query) (*dit.Result, error) {
	id := b.span(q.String(), "backend.search")
	defer b.t.end(id)
	return b.Backend.Search(q)
}

func (b *tracedBackend) Add(r *proto.AddRequest) error {
	id := b.span(r.DN, "backend.add")
	defer b.t.end(id)
	return b.Backend.Add(r)
}

func (b *tracedBackend) Delete(r *proto.DelRequest) error {
	id := b.span(r.DN, "backend.delete")
	defer b.t.end(id)
	return b.Backend.Delete(r)
}

func (b *tracedBackend) Modify(r *proto.ModifyRequest) error {
	id := b.span(r.DN, "backend.modify")
	defer b.t.end(id)
	return b.Backend.Modify(r)
}

func (b *tracedBackend) ModifyDN(r *proto.ModifyDNRequest) error {
	id := b.span(r.DN, "backend.modifydn")
	defer b.t.end(id)
	return b.Backend.ModifyDN(r)
}

func (b *tracedBackend) ReSyncBegin(q query.Query) (*resync.PollResult, error) {
	id := b.span("", "backend.sync_begin")
	defer b.t.end(id)
	return b.Backend.ReSyncBegin(q)
}

func (b *tracedBackend) ReSyncPoll(cookie string) (*resync.PollResult, error) {
	id := b.span("", "backend.sync_poll")
	defer b.t.end(id)
	return b.Backend.ReSyncPoll(cookie)
}

func (b *tracedBackend) ReSyncResume(tok proto.ResumeToken) (*resync.PollResult, error) {
	id := b.span("", "backend.sync_resume")
	defer b.t.end(id)
	return b.Backend.ReSyncResume(tok)
}
