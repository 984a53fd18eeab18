package dit

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
)

// batchTestStore builds a store with the standard test suffix and a couple
// of container entries.
func batchTestStore(t *testing.T, opts ...Option) *Store {
	t.Helper()
	st, err := NewStore([]string{"o=xyz"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		t.Fatal(err)
	}
	us := entry.New(dn.MustParse("c=us,o=xyz"))
	us.Put("objectclass", "country").Put("c", "us")
	if err := st.Add(us); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBatchPipelineEquivalence is the commit-pipeline property test: random
// interleaved concurrent updates must yield a journal whose serial replay
// produces identical (CSN, content) state — i.e. batching may reorder
// contention, never semantics. Each worker's ops are independent (its own
// DN space), so any interleaving is valid; the test asserts the journal is
// gapless, CSN-ordered, and replays byte-identically into a single-shard,
// unbatched store.
func TestBatchPipelineEquivalence(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			st := batchTestStore(t, WithShards(shards))
			st.batchWindow = 100 * time.Microsecond

			const workers, opsPer = 8, 60
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000 + w)))
					live := map[int]bool{}
					for i := 0; i < opsPer; i++ {
						slot := rng.Intn(12)
						d := dn.MustParse("cn=w" + strconv.Itoa(w) + "-" + strconv.Itoa(slot) + ",c=us,o=xyz")
						switch {
						case !live[slot]:
							e := entry.New(d)
							e.Put("objectclass", "person").Put("cn", "w"+strconv.Itoa(w)).
								Put("sn", strconv.Itoa(i))
							if err := st.Add(e); err != nil {
								t.Errorf("add: %v", err)
								return
							}
							live[slot] = true
						case rng.Intn(3) == 0:
							if err := st.Delete(d); err != nil {
								t.Errorf("delete: %v", err)
								return
							}
							live[slot] = false
						default:
							mods := []Mod{{Op: ModReplace, Attr: "sn", Values: []string{"m" + strconv.Itoa(i)}}}
							if err := st.Modify(d, mods); err != nil {
								t.Errorf("modify: %v", err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()

			changes, ok := st.ChangesSince(0)
			if !ok {
				t.Fatal("journal trimmed unexpectedly")
			}
			if got, want := CSN(len(changes)), st.LastCSN(); got != want {
				t.Fatalf("journal has %d records, LastCSN=%d", got, want)
			}
			for i, c := range changes {
				if c.CSN != CSN(i+1) {
					t.Fatalf("journal[%d].CSN = %d, want %d (gapless, ordered)", i, c.CSN, i+1)
				}
			}

			// Serial replay into an unsharded, unbatched reference store.
			ref, err := NewStore([]string{"o=xyz"}, WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			ref.batchLimit = 1
			for _, c := range changes {
				csn, err := ref.ApplyCSN(c)
				if err != nil {
					t.Fatalf("replay CSN %d (%s %q): %v", c.CSN, c.Type, c.DN.String(), err)
				}
				if csn != c.CSN {
					t.Fatalf("replay assigned CSN %d, original %d", csn, c.CSN)
				}
			}

			got, want := st.All(), ref.All()
			if len(got) != len(want) {
				t.Fatalf("content mismatch: %d entries live, %d after replay", len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("entry %d diverged:\nlive:   %s\nreplay: %s", i, got[i], want[i])
				}
			}

			snap := st.Counters().Snapshot()
			if snap.Batches == 0 || snap.BatchedOps == 0 {
				t.Fatal("commit pipeline never engaged")
			}
			if snap.MaxBatch < 2 {
				t.Logf("note: no multi-op batch formed (max=%d); contention too low", snap.MaxBatch)
			}
			t.Logf("shards=%d: %d ops in %d batches (avg %.1f, max %d), %d shard clones",
				shards, snap.BatchedOps, snap.Batches, snap.AvgBatch(), snap.MaxBatch, snap.ShardClones)
		})
	}
}

// TestBatchLimitBoundsFlush pins the flush rule: a leader drains at most
// batchLimit ops per flush but every submitter still completes (FIFO drain
// guarantees progress past the limit).
func TestBatchLimitBoundsFlush(t *testing.T) {
	st := batchTestStore(t, WithShards(2))
	st.batchLimit, st.batchWindow = 4, 200*time.Microsecond
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := entry.New(dn.MustParse("cn=b" + strconv.Itoa(i) + ",c=us,o=xyz"))
			e.Put("objectclass", "person").Put("cn", "b").Put("sn", "b")
			if err := st.Add(e); err != nil {
				t.Errorf("add: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := st.Len(); got != n+2 {
		t.Fatalf("Len = %d, want %d", got, n+2)
	}
	snap := st.Counters().Snapshot()
	if snap.MaxBatch > 4 {
		t.Fatalf("MaxBatch = %d exceeds batch limit 4", snap.MaxBatch)
	}
}

// TestBatchErrorIsolation verifies a failing op inside a batch affects only
// its own submitter: the other ops in the batch commit normally and the
// journal stays gapless.
func TestBatchErrorIsolation(t *testing.T) {
	st := batchTestStore(t, WithShards(4))
	st.batchWindow = 200 * time.Microsecond
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 0 {
				// Parent does not exist: must fail without poisoning the batch.
				e := entry.New(dn.MustParse("cn=x,ou=nope,o=xyz"))
				e.Put("objectclass", "person").Put("cn", "x").Put("sn", "x")
				errs[i] = st.Add(e)
				return
			}
			e := entry.New(dn.MustParse("cn=e" + strconv.Itoa(i) + ",c=us,o=xyz"))
			e.Put("objectclass", "person").Put("cn", "e").Put("sn", "e")
			errs[i] = st.Add(e)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if i%4 == 0 {
			if !errors.Is(err, ErrNoSuchObject) {
				t.Errorf("op %d: err = %v, want ErrNoSuchObject", i, err)
			}
		} else if err != nil {
			t.Errorf("op %d: %v", i, err)
		}
	}
	changes, _ := st.ChangesSince(0)
	for i, c := range changes {
		if c.CSN != CSN(i+1) {
			t.Fatalf("journal[%d].CSN = %d: failed ops must not burn CSNs", i, c.CSN)
		}
	}
	if got, want := len(changes), 2+n-n/4; got != want {
		t.Fatalf("journal has %d records, want %d", got, want)
	}
}
