package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/workload"
)

// opGen produces the write stream: the workload.Updater mix (70 % modify,
// 12 % add, 12 % delete, 5 % rename, 1 % department modify), but issued over
// the wire and carrying markers. Targets are drawn without replacement from
// a shuffled pool that is reshuffled on wrap, so an entry is rarely touched
// twice within thousands of commits; when it is, the later commit is chained
// to the earlier one (commit.next), because a leaf that applies both in one
// batch never shows the first one's marker.
type opGen struct {
	r    *rand.Rand
	cfg  workload.UpdateConfig
	dir  *workload.Directory
	topo *topology

	emps  targetPool // employees, by index into dir.Employees
	depts targetPool // departments, by index into dir.Departments
	dns   []dn.DN    // current DN per employee index (renames move it)
	seq   int
}

// targetPool hands out indices 0..n-1 in shuffled order, reshuffling on
// wrap and skipping deleted ones.
type targetPool struct {
	order []int
	next  int
	last  []*commit // latest commit drawn on the index
	gone  []bool
}

func newTargetPool(n int) targetPool {
	return targetPool{last: make([]*commit, n), gone: make([]bool, n)}
}

// pick draws the target of commit c, or reports false when a whole pass
// over the pool finds none. It chains c behind the previous commit on the
// same target and records on c what undo needs to hand the target back.
func (p *targetPool) pick(r *rand.Rand, c *commit) bool {
	for tries := 0; tries < len(p.last); tries++ {
		if p.next >= len(p.order) {
			p.order = r.Perm(len(p.last))
			p.next = 0
		}
		idx := p.order[p.next]
		p.next++
		if p.gone[idx] {
			continue
		}
		c.pool, c.poolAt, c.target, c.prev = p, p.next-1, idx, p.last[idx]
		if c.prev != nil {
			c.prev.next = c
		}
		p.last[idx] = c
		return true
	}
	return false
}

func newOpGen(topo *topology, seed int64) *opGen {
	g := &opGen{
		r:     rand.New(rand.NewSource(seed)),
		cfg:   workload.DefaultUpdateConfig(),
		dir:   topo.dir,
		topo:  topo,
		emps:  newTargetPool(len(topo.dir.Employees)),
		depts: newTargetPool(len(topo.dir.Departments)),
	}
	g.dns = make([]dn.DN, len(g.dir.Employees))
	for i, e := range g.dir.Employees {
		g.dns[i] = e.DN
	}
	return g
}

// undo forgets commits that were generated but never sent (the tail of a
// closed-loop phase's pre-generated stream), newest first, so later commits
// are drawn against the directory as it really is and the pool slots the
// unsent commits took are handed out again. (Across a reshuffle the rewound
// position lands somewhere in the new order, which only changes the order.)
func (g *opGen) undo(unsent []*commit) {
	for i := len(unsent) - 1; i >= 0; i-- {
		c := unsent[i]
		if c.pool == nil {
			continue
		}
		c.pool.next = c.poolAt
		c.pool.last[c.target] = c.prev
		if c.prev != nil {
			c.prev.next = nil
		}
		switch c.kind {
		case kindDelete:
			c.pool.gone[c.target] = false
		case kindRename:
			g.dns[c.target] = c.dn
		}
	}
}

func (g *opGen) generate(n int, timed bool) []*commit {
	out := make([]*commit, 0, n)
	for len(out) < n {
		if c := g.one(); c != nil {
			c.timed = timed
			out = append(out, c)
		}
	}
	return out
}

func (g *opGen) one() *commit {
	g.seq++
	c := &commit{seq: g.seq}
	p := g.r.Float64()
	f := g.cfg
	switch {
	case p < f.DeptModifyFraction:
		if !g.depts.pick(g.r, c) {
			return nil
		}
		c.kind = kindModify
		c.dn = g.dir.Departments[c.target].DN
		c.attr = "description"
		c.marker = "department rev " + strconv.Itoa(g.seq)
		c.specs = g.topo.member[c.dn.Norm()]
	case p < f.DeptModifyFraction+f.AddFraction:
		c.kind = kindAdd
		c.entry = g.newEmployee()
		c.dn = c.entry.DN()
		c.specs = g.topo.maskOf(c.entry)
	default:
		if !g.emps.pick(g.r, c) {
			return nil
		}
		c.dn = g.dns[c.target]
		c.specs = g.topo.member[c.dn.Norm()]
		switch {
		case p < f.DeptModifyFraction+f.AddFraction+f.DeleteFraction:
			c.kind = kindDelete
			g.emps.gone[c.target] = true
		case p < f.DeptModifyFraction+f.AddFraction+f.DeleteFraction+f.RenameFraction:
			c.kind = kindRename
			c.parent, _ = c.dn.Parent()
			c.newRDN = dn.RDN{Attr: "cn", Value: "renamed " + strconv.Itoa(g.seq)}
			c.newDN = c.parent.Child(c.newRDN)
			g.dns[c.target] = c.newDN
			g.topo.member[c.newDN.Norm()] = c.specs
		default:
			c.kind = kindModify
			c.attr = markerAttr
			c.marker = strconv.Itoa(g.seq)
		}
	}
	return c
}

// newEmployee mirrors workload.Updater's hire, plus the marker.
func (g *opGen) newEmployee() *entry.Entry {
	ci := g.r.Intn(len(g.dir.Config.Countries))
	block := g.r.Intn(len(g.dir.ByCountryBlock[ci]))
	cc := g.dir.Config.Countries[ci].Code
	serial := fmt.Sprintf("%02d%03d9%03d", ci+10, block, g.seq%1000)
	uid := fmt.Sprintf("n%08x", g.r.Uint32())
	cn := fmt.Sprintf("new %s %d", cc, g.seq)
	country := dn.MustParse(fmt.Sprintf("c=%s,%s", cc, workload.Suffix))
	e := entry.New(country.Child(dn.RDN{Attr: "cn", Value: cn}))
	e.Put("objectclass", "top", "person", "organizationalPerson", "inetOrgPerson")
	e.Put("cn", cn).Put("sn", "sn"+strconv.Itoa(g.seq))
	e.Put("serialNumber", serial).Put("uid", uid)
	e.Put("mail", fmt.Sprintf("%s@%s.xyz.com", uid, cc))
	e.Put("departmentNumber", strconv.Itoa(g.r.Intn(401)))
	e.Put(markerAttr, strconv.Itoa(g.seq))
	return e
}

// send issues the commit on a client connection, inside a client.write
// span when the run is traced.
func (c *commit) send(cl *ldapnet.Client, tr *tracer) error {
	if tr.enabled() {
		sp := tr.start(int64(c.seq), "client.write", "", 0)
		tr.announce(c.dn.String(), int64(c.seq), sp)
		defer tr.end(sp)
	}
	switch c.kind {
	case kindModify:
		return cl.Modify(c.dn, []proto.ModifyChange{{
			Op: proto.ModifyOpReplace, Attr: proto.Attribute{Type: c.attr, Values: []string{c.marker}},
		}})
	case kindAdd:
		return cl.Add(c.entry)
	case kindDelete:
		return cl.Delete(c.dn)
	default:
		return cl.ModifyDN(c.dn, c.newRDN, c.parent)
	}
}

// writeStats is what one writer phase measured.
type writeStats struct {
	attempted, failed int
	// ackMs holds, per commit, the due→ack (open loop) or send→ack (closed
	// loop) latency; lagMs how late the open loop sent it.
	ackMs    []float64
	lagMs    []float64
	firstErr error
	wall     time.Duration // start → last ack
}

// clientTimeout bounds every dial and I/O of the load clients.
const clientTimeout = 10 * time.Second

// runOpenLoop issues ops on one connection at a fixed rate. Every op is
// timed from the instant it was due, not from when it was sent, so a stall
// shows in the latency of everything queued behind it; lagMs reports how
// late the generator itself ran.
func runOpenLoop(cl *ldapnet.Client, ops []*commit, rate float64, expect func(*commit), tr *tracer) writeStats {
	var st writeStats
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	last := start
	for i, c := range ops {
		c.due = start.Add(time.Duration(i) * interval)
		if d := time.Until(c.due); d > 0 {
			time.Sleep(d)
		}
		expect(c)
		sent := time.Now()
		err := c.send(cl, tr)
		last = time.Now()
		st.attempted++
		st.lagMs = append(st.lagMs, float64(sent.Sub(c.due))/1e6)
		st.ackMs = append(st.ackMs, float64(last.Sub(c.due))/1e6)
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("commit %d: %w", c.seq, err)
			}
		}
	}
	st.wall = last.Sub(start)
	return st
}

// runClosedLoop drives len(cls) writer connections, each sending its next
// op as soon as the previous one is acknowledged, until the deadline or the
// pre-generated ops run out.
func runClosedLoop(cls []*ldapnet.Client, ops []*commit, d time.Duration, expect func(*commit), tr *tracer) writeStats {
	var (
		st   writeStats
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	var lastAck atomic.Int64 // latest final ack, as time since start
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *ldapnet.Client) {
			defer wg.Done()
			n, failed := 0, 0
			var first error
			var acks []float64
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				c := ops[i]
				expect(c)
				t0 := time.Now()
				err := c.send(cl, tr)
				acks = append(acks, float64(time.Since(t0))/1e6)
				n++
				if err != nil {
					failed++
					if first == nil {
						first = fmt.Errorf("commit %d: %w", c.seq, err)
					}
				}
			}
			el := int64(time.Since(start))
			for {
				cur := lastAck.Load()
				if el <= cur || lastAck.CompareAndSwap(cur, el) {
					break
				}
			}
			mu.Lock()
			st.attempted += n
			st.failed += failed
			st.ackMs = append(st.ackMs, acks...)
			if st.firstErr == nil {
				st.firstErr = first
			}
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	st.wall = time.Duration(lastAck.Load())
	return st
}

// searchStats is what the searchers of one phase measured.
type searchStats struct {
	attempted, failed, hits int
	ms                      []float64 // send→final result, chase included
	firstErr                error
	wall                    time.Duration
}

// searcher is one search connection pair: the replica users query, and the
// master a referral is chased to.
type searcher struct {
	front, master *ldapnet.Client
	gen           *workload.Generator
	tr            *tracer
	id            int
}

// rankingSeed pins which blocks and departments are hot: the popularity
// ranking belongs to the user population, not to the run, so the stored
// filters cover the same share of the traffic whatever --seed draws.
const rankingSeed = 20050610

func newSearcher(topo *topology, seed int64, id int) (*searcher, error) {
	front, err := ldapnet.DialTimeout(topo.front.Addr(), clientTimeout)
	if err != nil {
		return nil, err
	}
	master, err := ldapnet.DialTimeout(topo.clientSrv.Addr(), clientTimeout)
	if err != nil {
		_ = front.Close()
		return nil, err
	}
	gen := topo.traceGenerator(seed)
	return &searcher{front: front, master: master, gen: gen, tr: topo.tr, id: id}, nil
}

// traceGenerator is the Table-1 query generator every search stream of the
// run draws from, with the popularity ranking pinned.
func (t *topology) traceGenerator(seed int64) *workload.Generator {
	cfg := workload.DefaultTraceConfig()
	cfg.Seed = seed
	gen := workload.NewGenerator(t.dir, cfg)
	gen.Reshuffle(rankingSeed)
	return gen
}

func (s *searcher) close() {
	_ = s.front.Close()
	_ = s.master.Close()
}

// resolve runs one query the way a directory client would: ask the
// replica, and on a referral ask the master. A null-base query cannot be
// answered by the master (no naming context covers ""), so the chased copy
// is re-based to the directory suffix.
func (s *searcher) resolve(q query.Query, id int64) (res *ldapnet.SearchResult, hit bool, err error) {
	sp := s.tr.start(id, "client.search", "", 0)
	s.tr.announce(q.String(), id, sp)
	res, err = s.front.Search(q)
	if err == nil {
		s.tr.end(sp)
		return res, true, nil
	}
	var re *ldapnet.ResultError
	if !errors.As(err, &re) || re.Code != proto.ResultReferral {
		s.tr.end(sp)
		return nil, false, err
	}
	cq := q
	if cq.Base.IsRoot() {
		cq.Base = suffixDN
	}
	csp := s.tr.start(id, "client.chase", "", sp)
	s.tr.announce(cq.String(), id, csp)
	res, err = s.master.Search(cq)
	s.tr.end(csp)
	s.tr.end(sp)
	return res, false, err
}

var suffixDN = dn.MustParse(workload.Suffix)

// record books one resolved search, sent at t0. An error or a missed
// deadline counts as failed and is recorded at the deadline value.
func (st *searchStats) record(tq workload.TraceQuery, t0 time.Time, hit bool, err error) {
	ms := float64(time.Since(t0)) / 1e6
	st.attempted++
	if err != nil || ms > searchDeadlineMs {
		st.failed++
		ms = searchDeadlineMs
		if err != nil && st.firstErr == nil {
			st.firstErr = fmt.Errorf("search %s: %w", tq.Query.String(), err)
		}
	}
	if hit {
		st.hits++
	}
	st.ms = append(st.ms, ms)
}

// runSearchers drives the searchers closed-loop until the deadline.
func runSearchers(ss []*searcher, d time.Duration) searchStats {
	var (
		st searchStats
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for _, s := range ss {
		wg.Add(1)
		go func(s *searcher) {
			defer wg.Done()
			var loc searchStats
			for seq := int64(0); time.Now().Before(deadline); seq++ {
				tq := s.gen.Next()
				t0 := time.Now()
				_, hit, err := s.resolve(tq.Query, int64(s.id)<<32|seq)
				loc.record(tq, t0, hit, err)
			}
			mu.Lock()
			st.attempted += loc.attempted
			st.failed += loc.failed
			st.hits += loc.hits
			st.ms = append(st.ms, loc.ms...)
			if st.firstErr == nil {
				st.firstErr = loc.firstErr
			}
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	st.wall = time.Since(start)
	return st
}
