package cascade

import (
	"slices"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/resync/resynctest"
	"filterdir/internal/supervisor"
)

// exactlyConverged is resynctest.Converged plus the spelling of every value:
// the restart bug left an entry with the right attributes and an old value.
func exactlyConverged(t *testing.T, master, rep *dit.Store, d dn.DN, attr string) {
	t.Helper()
	want, _ := master.Get(d)
	got, ok := rep.Get(d)
	if !ok {
		t.Fatalf("%s: not held", d)
	}
	if g, w := got.Values(attr), want.Values(attr); !slices.Equal(g, w) {
		t.Errorf("%s: %s = %v, master has %v", d, attr, g, w)
	}
}

// TestTierRestartKeepsInPlaceModifies: an entry modified in place after the
// tier's reload — so that the change is durable only as a modify record of
// the link's journal — must come back from a restart as the master has it.
// The tier resumes from the cookie that already covers the change, so nothing
// would ever re-send it: a journal record that lost the attribute changes
// (a sparse store's replace used to journal none) left the tier, and every
// leaf below it, with the reload's image for good.
func TestTierRestartKeepsInPlaceModifies(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	cfg.StateDir = t.TempDir()

	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tier.Start()
	waitSynced(t, tier.Supervisors()[0])

	d := dn.MustParse("cn=04-p2,c=us,o=xyz")
	if err := h.store.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"renamed"}}}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, "tier upstream updates", 10*time.Second, tier.Counters().UpstreamUpdates.Load, 9)
	exactlyConverged(t, h.store, tier.Replica().Store(), d, "sn")
	if err := tier.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if c := tier.Supervisors()[0].Counters().Snapshot(); c.JournalAppends != 2 || c.Checkpoints != 0 {
		t.Fatalf("journal appends = %d, snapshots = %d, want 2 and 0 (the reload, then the modify as a journal record)",
			c.JournalAppends, c.Checkpoints)
	}

	tier2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Restored, not yet connected: what the disk gave back.
	exactlyConverged(t, h.store, tier2.Replica().Store(), d, "sn")
	tier2.Start()
	t.Cleanup(func() { _ = tier2.Stop() })
	waitCounter(t, "restarted tier exchanges", 10*time.Second, tier2.Supervisors()[0].Exchanges, 2)
	exactlyConverged(t, h.store, tier2.Replica().Store(), d, "sn")
	if eng := h.backend.Engine.Counters().Snapshot(); eng.Begins != 1 || eng.FullReloads != 0 {
		t.Errorf("master begins/full reloads = %d/%d, want 1/0: the restart must resume, so only the disk can have restored the entry",
			eng.Begins, eng.FullReloads)
	}

	sup, rep := startLeaf(t, h.tierSpec, serveTier(t, tier2, h), "", supervisor.ModePoll)
	waitSynced(t, sup)
	waitConverged(t, h.store, rep.Store(), h.tierSpec, 10*time.Second)
	exactlyConverged(t, h.store, rep.Store(), d, "sn")
}

// TestPatchCrossesTier: an in-place modify at the master reaches a leaf two
// hops down as a patch on both hops — the tier applies the master's patch
// as a modify of its own store, and its engine builds the leaf's patch from
// that journal record, not from the one the master wrote.
func TestPatchCrossesTier(t *testing.T) {
	h := newHarness(t)
	tier, tierSrv := startTier(t, h.tierConfig(t), "ldap://"+h.srv.Addr())
	waitSynced(t, tier.Supervisors()[0]) // or the tier's Begin may already carry the modify
	sup, rep := startLeaf(t, h.tierSpec, tierSrv.Addr(), "", supervisor.ModePersist)
	waitSynced(t, sup)

	d := dn.MustParse("cn=04-p3,c=us,o=xyz")
	mods := []dit.Mod{
		{Op: dit.ModReplace, Attr: "sn", Values: []string{"y"}},
		{Op: dit.ModAdd, Attr: "telephoneNumber", Values: []string{"555", "556"}},
	}
	if err := h.store.Modify(d, mods); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, "leaf updates applied", 10*time.Second, sup.Counters().UpdatesApplied.Load, 9)
	if err := h.store.Modify(d, []dit.Mod{{Op: dit.ModDelete, Attr: "telephoneNumber"}}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, "leaf updates applied", 10*time.Second, sup.Counters().UpdatesApplied.Load, 10)
	waitConverged(t, h.store, rep.Store(), h.tierSpec, 10*time.Second)
	if got, _ := rep.Store().Get(d); got.Has("telephoneNumber") || got.First("sn") != "y" {
		t.Errorf("leaf holds %s", got)
	}

	m, tr := h.backend.Engine.Counters().Snapshot(), tier.Engine().Counters().Snapshot()
	if m.PDUPatches != 2 || m.PDUModifies != 2 {
		t.Errorf("master sent %d modifies, %d as patches; want 2, 2", m.PDUModifies, m.PDUPatches)
	}
	if tr.PDUPatches != 2 || tr.PDUModifies != 2 {
		t.Errorf("tier sent %d modifies, %d as patches; want 2, 2", tr.PDUModifies, tr.PDUPatches)
	}
	if misses := sup.Counters().PatchMisses.Load() + tier.Supervisors()[0].Counters().PatchMisses.Load(); misses != 0 {
		t.Errorf("patch misses = %d, want 0", misses)
	}
	if ok, why := resynctest.Converged(h.store, tier.Replica().Store(), h.tierSpec); !ok {
		t.Errorf("tier: %s", why)
	}
}

// TestMoveCrossesTier: a rename within the content at the master reaches a
// leaf two hops down as a move on both hops — the tier re-keys the entry in
// its store (no parent held there) and journals a rename, from which its
// engine builds the leaf's move — and a restarted tier replays that rename
// from its link's journal.
func TestMoveCrossesTier(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	cfg.StateDir = t.TempDir()
	tier, tierSrv := startTier(t, cfg, "ldap://"+h.srv.Addr())
	waitSynced(t, tier.Supervisors()[0])
	sup, rep := startLeaf(t, h.tierSpec, tierSrv.Addr(), "", supervisor.ModePersist)
	waitSynced(t, sup)

	old, d := dn.MustParse("cn=04-p3,c=us,o=xyz"), dn.MustParse("cn=04-p3 renamed,c=us,o=xyz")
	if err := h.store.ModifyDN(old, dn.RDN{Attr: "cn", Value: "04-p3 renamed"}, dn.MustParse("c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, "leaf updates applied", 10*time.Second, sup.Counters().UpdatesApplied.Load, 9)
	waitConverged(t, h.store, rep.Store(), h.tierSpec, 10*time.Second)
	if _, held := rep.Store().Get(old); held {
		t.Error("leaf still holds the old DN")
	}
	exactlyConverged(t, h.store, rep.Store(), d, "cn")

	m, tr := h.backend.Engine.Counters().Snapshot(), tier.Engine().Counters().Snapshot()
	if m.PDUMoves != 1 || m.PDUDeletes != 0 || m.PDUAdds != 8 {
		t.Errorf("master sent %d moves, %d deletes, %d adds; want 1, 0 and the Begin's 8", m.PDUMoves, m.PDUDeletes, m.PDUAdds)
	}
	if tr.PDUMoves != 1 || tr.PDUDeletes != 0 || tr.PDUAdds != 8 {
		t.Errorf("tier sent %d moves, %d deletes, %d adds; want 1, 0 and the Begin's 8", tr.PDUMoves, tr.PDUDeletes, tr.PDUAdds)
	}
	if misses := sup.Counters().PatchMisses.Load() + tier.Supervisors()[0].Counters().PatchMisses.Load(); misses != 0 {
		t.Errorf("patch misses = %d, want 0", misses)
	}
	if err := tier.Stop(); err != nil {
		t.Fatal(err)
	}
	tier2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart over a journaled move: %v", err)
	}
	if ok, why := resynctest.Converged(h.store, tier2.Replica().Store(), h.tierSpec); !ok {
		t.Errorf("restored tier: %s", why)
	}
	if err := tier2.Stop(); err != nil {
		t.Fatal(err)
	}
}
