package dit

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// TestSnapshotImmutableUnderCommits is the copy-on-write stress test:
// readers hold old frozen snapshots and keep re-reading them while the
// batch pipeline commits continuously. Every snapshot must stay frozen at
// its CSN — same entry count, same per-entry attribute bytes, no entry ever
// observed mid-mutation — no matter how many commits land after it. Run
// with -race: before copy-on-write states, the writer's in-place map and
// index mutations raced exactly this access pattern.
func TestSnapshotImmutableUnderCommits(t *testing.T) {
	for _, shards := range []int{1, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			st, err := NewStore([]string{"o=xyz"}, WithShards(shards), WithIndexes("serialnumber"))
			if err != nil {
				t.Fatal(err)
			}
			st.batchWindow = 50 * time.Microsecond
			org := entry.New(dn.MustParse("o=xyz"))
			org.Put("objectclass", "organization").Put("o", "xyz")
			if err := st.Add(org); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				e := entry.New(dn.MustParse(fmt.Sprintf("cn=seed%d,o=xyz", i)))
				e.Put("objectclass", "person").Put("cn", fmt.Sprintf("seed%d", i)).
					Put("sn", "seed").Put("serialnumber", fmt.Sprintf("%04d", i))
				if err := st.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			q := query.MustNew("", query.ScopeSubtree, "(objectclass=person)")

			stop := make(chan struct{})
			var writers sync.WaitGroup
			for w := 0; w < 3; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						d := dn.MustParse("cn=churn" + strconv.Itoa(w) + "-" + strconv.Itoa(i) + ",o=xyz")
						e := entry.New(d)
						e.Put("objectclass", "person").Put("cn", "churn").
							Put("sn", strconv.Itoa(i)).Put("serialnumber", fmt.Sprintf("9%d%03d", w, i%1000))
						if err := st.Add(e); err != nil {
							t.Errorf("add: %v", err)
							return
						}
						if i%2 == 0 {
							_ = st.Modify(d, []Mod{{Op: ModReplace, Attr: "sn", Values: []string{"mut" + strconv.Itoa(i)}}})
						}
						if i%3 == 0 {
							_ = st.Delete(d)
						}
					}
				}(w)
			}

			// Readers: freeze a view, fingerprint a full scan of it, then
			// re-scan the same frozen view repeatedly while commits pile up
			// behind it. A frozen view must replay the identical result
			// every time — each re-scan walks the shared shard maps
			// lock-free, so any writer mutating them in place (instead of
			// cloning) is a race and a fingerprint divergence.
			var readers sync.WaitGroup
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for round := 0; round < 20; round++ {
						v := st.freeze()
						entries := v.matchAll(q)
						fp := make([]string, len(entries))
						for i, e := range entries {
							fp[i] = e.String()
						}
						for check := 0; check < 10; check++ {
							again := v.matchAll(q)
							if len(again) != len(fp) {
								t.Errorf("frozen view at CSN %d changed size: %d -> %d entries",
									v.csn, len(fp), len(again))
								return
							}
							for i, e := range again {
								if got := e.String(); got != fp[i] {
									t.Errorf("frozen view at CSN %d mutated: entry %d was %q, now %q",
										v.csn, i, fp[i], got)
									return
								}
							}
							// Point reads through the frozen view must stay
							// stable too (index and child maps are shared).
							if _, ok := v.get(dn.MustParse("o=xyz").Norm()); !ok {
								t.Error("frozen view lost its base entry")
								return
							}
							time.Sleep(100 * time.Microsecond)
						}
					}
				}()
			}
			readers.Wait()
			close(stop)
			writers.Wait()

			snap := st.Counters().Snapshot()
			if snap.ShardClones == 0 {
				t.Error("no shard states were cloned: copy-on-write never engaged")
			}
			if snap.Freezes == 0 {
				t.Error("no freezes recorded")
			}
			t.Logf("shards=%d: %d freezes, %d shard clones, %d batches (max %d)",
				shards, snap.Freezes, snap.ShardClones, snap.Batches, snap.MaxBatch)
		})
	}
}
