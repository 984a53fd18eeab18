package resync

import (
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/query"
)

// TestModifyThenRevertSuppressed is the regression test for update-set
// minimality (equation 3): an entry modified and then reverted within one
// synchronization interval is net-unchanged, so the poll must carry no
// update for it.
func TestModifyThenRevertSuppressed(t *testing.T) {
	master := newMaster(t)
	a := addPerson(t, master, "a", "0401", "1")
	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}

	if err := master.Modify(a, []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"9"}}}); err != nil {
		t.Fatal(err)
	}
	if err := master.Modify(a, []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"1"}}}); err != nil {
		t.Fatal(err)
	}

	poll, err := eng.Poll(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(poll.Updates) != 0 {
		t.Fatalf("modify-then-revert produced %d updates, want 0: %+v", len(poll.Updates), poll.Updates)
	}
	if got := eng.Counters().Snapshot().SuppressedModifies; got < 1 {
		t.Errorf("SuppressedModifies = %d, want >= 1", got)
	}

	// The interval must still be consumed: a later real change arrives.
	if err := master.Modify(a, []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"7"}}}); err != nil {
		t.Fatal(err)
	}
	poll2, err := eng.Poll(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(poll2.Updates) != 1 || poll2.Updates[0].Action != ActionModify {
		t.Fatalf("real modify after revert: got %+v, want one modify", poll2.Updates)
	}
}

// TestFoldOnlyModifyNotSuppressed: the net-unchanged check compares values
// under the same caseIgnoreMatch as filters and indexes. U+017F (long s)
// folds to "s" under Unicode simple folding but lower-cases to itself, so a
// modify from "ſ" to "s" changes what (dept=s) selects; suppressing it as
// net-unchanged left the replica holding "ſ" for good.
func TestFoldOnlyModifyNotSuppressed(t *testing.T) {
	master := newMaster(t)
	a := addPerson(t, master, "a", "0401", "\u017f")
	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Modify(a, []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"s"}}}); err != nil {
		t.Fatal(err)
	}
	poll, err := eng.Poll(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(poll.Updates) != 1 || poll.Updates[0].Action != ActionModify {
		t.Fatalf("modify \u017f -> s: got %+v, want one modify", poll.Updates)
	}
	if got := poll.Updates[0].Entry.First("dept"); got != "s" {
		t.Errorf("modify carries dept %q, want \"s\"", got)
	}
	if got := eng.Counters().Snapshot().SuppressedModifies; got != 0 {
		t.Errorf("SuppressedModifies = %d, want 0", got)
	}
}

// TestRevertOutsideSelectedAttrs checks suppression under attribute
// selection: a change confined to attributes outside the session's
// requested set is invisible to the replica and must produce no update.
func TestRevertOutsideSelectedAttrs(t *testing.T) {
	master := newMaster(t)
	a := addPerson(t, master, "a", "0401", "1")
	eng := NewEngine(master)
	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)", "cn", "serialNumber")
	res, err := eng.Begin(spec)
	if err != nil {
		t.Fatal(err)
	}

	// dept is not in the selected attribute set; this churn is invisible.
	if err := master.Modify(a, []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"5"}}}); err != nil {
		t.Fatal(err)
	}
	poll, err := eng.Poll(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(poll.Updates) != 0 {
		t.Fatalf("unselected-attr modify produced %d updates, want 0", len(poll.Updates))
	}

	// A change to a selected attribute still flows.
	if err := master.Modify(a, []dit.Mod{{Op: dit.ModReplace, Attr: "cn", Values: []string{"a2"}}}); err != nil {
		t.Fatal(err)
	}
	poll2, err := eng.Poll(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(poll2.Updates) != 1 || poll2.Updates[0].Action != ActionModify {
		t.Fatalf("selected-attr modify: got %+v, want one modify", poll2.Updates)
	}
}
