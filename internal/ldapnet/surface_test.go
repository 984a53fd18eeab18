package ldapnet_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"filterdir/internal/cascade"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
)

// The ReSync half of a backend is written twice in ldapnet — served from an
// engine, or refused — and every backend embeds one of the two. These tests
// pin what each backend answers for each exchange, as the error a caller of
// the Backend method sees and as the result code it becomes on the wire.

var (
	inSpec  = query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
	outSpec = query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
)

// surfaceChunk makes every full transfer of inSpec (8 entries) chunked, so
// Begin hands out a resume token.
const surfaceChunk = 3

func surfaceStore(t *testing.T) *dit.Store {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"}, dit.WithIndexes("serialnumber"))
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"04", "05"} {
		for i := 0; i < 8; i++ {
			if err := st.Add(person(prefix, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

func person(prefix string, i int) *entry.Entry {
	e := entry.New(dn.MustParse(fmt.Sprintf("cn=%s-p%d,o=xyz", prefix, i)))
	e.Put("objectclass", "person").Put("cn", fmt.Sprintf("%s-p%d", prefix, i)).
		Put("sn", "x").Put("serialNumber", fmt.Sprintf("%s%02d", prefix, i))
	return e
}

func serve(t *testing.T, b ldapnet.Backend) *ldapnet.Server {
	t.Helper()
	srv, err := ldapnet.Serve("127.0.0.1:0", b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func dial(t *testing.T, addr string) *ldapnet.Client {
	t.Helper()
	c, err := ldapnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// startTier runs a mid-tier replicating inSpec from a master over store,
// synced and ready to serve.
func startTier(t *testing.T, store *dit.Store) *cascade.Tier {
	t.Helper()
	master := serve(t, ldapnet.NewStoreBackend(store))
	tier, err := cascade.New(cascade.Config{
		Upstream:     master.Addr(),
		Specs:        []query.Query{inSpec},
		ReloadChunk:  surfaceChunk,
		PollInterval: 3 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	tier.Start()
	t.Cleanup(func() { _ = tier.Stop() })
	select {
	case <-tier.Supervisors()[0].Synced():
	case <-time.After(10 * time.Second):
		t.Fatal("tier never synced with its master")
	}
	return tier
}

// outcome is what a backend answers for one exchange.
type outcome struct {
	err  error            // sentinel the Backend method's error is (nil = served)
	code proto.ResultCode // result code of the same exchange on the wire
}

var (
	served       = outcome{nil, proto.ResultSuccess}
	notContained = outcome{ldapnet.ErrNotContained, proto.ResultReferral}
	readOnly     = outcome{ldapnet.ErrReadOnly, proto.ResultUnwillingToPerform}
)

var surfaceOps = []string{"begin contained", "begin not contained", "resume", "poll", "retain", "persist", "end"}

func TestSyncSurface(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend func(t *testing.T, store *dit.Store) ldapnet.Backend
		want    map[string]outcome // by op; absent = served
	}{
		{"store", func(t *testing.T, store *dit.Store) ldapnet.Backend {
			return ldapnet.NewStoreBackend(store, resync.WithChunkSize(surfaceChunk))
		}, nil},
		{"cascade", func(t *testing.T, store *dit.Store) ldapnet.Backend {
			tier := startTier(t, store)
			return ldapnet.NewCascadeBackend(tier.Replica(), tier, "ldap://master")
		}, map[string]outcome{"begin not contained": notContained}},
		{"replica", func(t *testing.T, store *dit.Store) ldapnet.Backend {
			rep, err := replica.NewFilterReplica()
			if err != nil {
				t.Fatal(err)
			}
			return ldapnet.NewReplicaBackend(rep, "ldap://master")
		}, map[string]outcome{"begin contained": readOnly, "begin not contained": readOnly, "resume": readOnly,
			"poll": readOnly, "retain": readOnly, "persist": readOnly, "end": readOnly}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := surfaceStore(t)
			b := tc.backend(t, store)
			srv := serve(t, b)
			direct := directExchanges(t, b)
			wire := wireExchanges(t, srv.Addr(), store)
			for _, op := range surfaceOps {
				want, ok := tc.want[op]
				if !ok {
					want = served
				}
				if err := direct[op]; !errors.Is(err, want.err) {
					t.Errorf("%s: backend error = %v, want %v", op, err, want.err)
				}
				code := proto.ResultSuccess
				if err := wire[op]; err != nil {
					var re *ldapnet.ResultError
					if !errors.As(err, &re) {
						t.Errorf("%s: wire error %v is not a server result", op, err)
						continue
					}
					code = re.Code
				}
				if code != want.code {
					t.Errorf("%s: wire result = %s, want %s", op, code, want.code)
				}
			}
		})
	}
}

// exchanger is one way of reaching a backend's ReSync half: the Backend
// methods themselves, or a client and the server's result codes.
type exchanger struct {
	begin   func(q query.Query) (*resync.PollResult, error)
	resume  func(tok proto.ResumeToken) (*resync.PollResult, error)
	poll    func(cookie string) (*resync.PollResult, error)
	retain  func(cookie string) (*resync.PollResult, error)
	persist func(cookie string) error
	end     func(cookie string) error
}

// run drives one session's worth of exchanges, returning each exchange's
// error by op name. A refused Begin leaves a cookie and token no session
// owns, which is all a refusing backend needs to refuse the rest.
func (x exchanger) run(t *testing.T) map[string]error {
	t.Helper()
	errs := make(map[string]error)
	cookie, tok := "sess-0@1", proto.ResumeToken{Session: "sess-0", Chunk: 1, Chunks: 2}
	// drain follows a chunked transfer to its completion cookie.
	drain := func(res *resync.PollResult, err error) (*resync.PollResult, error) {
		for err == nil && res.Resume != nil {
			res, err = x.resume(*res.Resume)
		}
		return res, err
	}

	res, err := x.begin(inSpec)
	errs["begin contained"] = err
	if err == nil {
		if res.Resume == nil {
			t.Fatal("chunked Begin handed out no resume token")
		}
		tok = *res.Resume
	}
	if res, err = drain(x.begin(outSpec)); err == nil {
		err = x.end(res.Cookie) // served: leave no session behind
	}
	errs["begin not contained"] = err

	res, err = x.resume(tok)
	errs["resume"] = err
	if res, err = drain(res, err); err == nil {
		cookie = res.Cookie
	}
	if res, err = x.poll(cookie); err == nil {
		cookie = res.Cookie
	}
	errs["poll"] = err
	if res, err = x.retain(cookie); err == nil {
		cookie = res.Cookie
	}
	errs["retain"] = err
	errs["persist"] = x.persist(cookie)
	errs["end"] = x.end(cookie)
	return errs
}

func directExchanges(t *testing.T, b ldapnet.Backend) map[string]error {
	return exchanger{
		begin: b.ReSyncBegin, resume: b.ReSyncResume, poll: b.ReSyncPoll, retain: b.ReSyncRetain, end: b.ReSyncEnd,
		persist: func(cookie string) error {
			sub, err := b.ReSyncPersist(cookie)
			if err == nil {
				sub.Close()
			}
			return err
		},
	}.run(t)
}

// wireExchanges proves a served persist stream live by a commit at the
// master coming down it.
func wireExchanges(t *testing.T, addr string, master *dit.Store) map[string]error {
	c := dial(t, addr)
	return exchanger{
		begin: c.Begin, resume: c.SyncResume, poll: c.Poll, end: c.End,
		retain: func(cookie string) (*resync.PollResult, error) {
			return c.Sync(inSpec, proto.ReSyncModeRetain, cookie)
		},
		persist: func(cookie string) error {
			ps, err := dial(t, addr).Persist(inSpec, cookie, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			if err := master.Add(person("04", 100)); err != nil {
				t.Fatal(err)
			}
			select {
			case b, ok := <-ps.Batches:
				if !ok {
					return ps.Err() // the refusal
				}
				if len(b.Updates) != 1 || b.Updates[0].Action != resync.ActionAdd {
					t.Errorf("persist stream delivered %+v, want the master's add", b)
				}
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("persist stream neither delivered the master's commit nor ended")
			}
		},
	}.run(t)
}

// TestFiltersWatchThroughCascadeBackend drives the filters-watch control
// through NewCascadeBackend: a watcher whose spec the tier admits and a loaded
// link holds is answered at once; one it does not admit stays parked on a
// tier whose filter set never changes, and is answered once an adaptive tier
// adopts a spec covering it and that link's first exchange lands. A parked
// watch counts as waiting on the tier (Tier.Waiting, the control plane's
// demand) until it is answered or its connection closes; one answered at once
// never does. A backend with no filter set to wait on refuses the control.
func TestFiltersWatchThroughCascadeBackend(t *testing.T) {
	store := surfaceStore(t)
	tier := startTier(t, store)
	srv := serve(t, ldapnet.NewCascadeBackend(tier.Replica(), tier, "ldap://master"))
	waiting := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for len(tier.Waiting()) != n {
			if time.Now().After(deadline) {
				t.Fatalf("%d watches waiting on the tier, want %d", len(tier.Waiting()), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if err := dial(t, srv.Addr()).WatchFilters(inSpec); err != nil {
		t.Fatalf("watch of a served spec = %v, want an answer at once", err)
	}
	waiting(0)

	watch := func(c *ldapnet.Client) <-chan error {
		done := make(chan error, 1)
		go func() { done <- c.WatchFilters(outSpec) }()
		return done
	}

	// Static: nothing adopts, so the watch stays parked until it is cancelled.
	static := dial(t, srv.Addr())
	parked := watch(static)
	select {
	case err := <-parked:
		t.Fatalf("watch of an unadmitted spec on a static tier returned %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	waiting(1)
	_ = static.Close()
	if err := <-parked; err == nil {
		t.Fatal("cancelled watch answered, want an error")
	}
	waiting(0)

	// Adaptive: the adopted link's first exchange answers the parked watch.
	// (A watch that reaches the server only after that is answered at once.)
	woken := watch(dial(t, srv.Addr()))
	select {
	case err := <-woken:
		t.Fatalf("watch returned %v before anything was adopted", err)
	case <-time.After(50 * time.Millisecond):
	}
	waiting(1)
	sup, err := tier.AdoptSpec(outSpec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-woken:
		if err != nil {
			t.Fatalf("watch across an adopt = %v, want an answer", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("adopt did not wake the parked watch")
	}
	select {
	case <-sup.Synced():
	default:
		t.Error("watch answered before the adopted link's first exchange")
	}
	waiting(0)

	// A master has no admission filter set.
	master := serve(t, ldapnet.NewStoreBackend(store))
	err = dial(t, master.Addr()).WatchFilters(inSpec)
	var re *ldapnet.ResultError
	if !errors.As(err, &re) || re.Code != proto.ResultUnwillingToPerform {
		t.Errorf("watch at a master = %v, want unwillingToPerform", err)
	}
}
