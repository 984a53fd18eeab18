package metrics

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCounterSets sets every counter of each of the eight sets to a value
// of its own and checks that the status line prints each one as its field
// name in kebab case, and that the four snapshot types carry each one and
// hold no field the reader leaves unset.
func TestCounterSets(t *testing.T) {
	syncs, store, rep := &SyncCounters{}, &StoreCounters{}, &ReplicaCounters{}
	contain := &ContainmentCounters{}
	cases := []struct {
		set    fmt.Stringer
		prefix string
		snap   func() any // nil: the set has no snapshot type
	}{
		{syncs, "sync", func() any { return syncs.Snapshot() }},
		{store, "store", func() any { return store.Snapshot() }},
		{rep, "replica", func() any { return rep.Snapshot() }},
		{&CascadeCounters{}, "cascade", nil},
		{&TierCounters{}, "tier", nil},
		{&WriteCounters{}, "write", nil},
		{&AnswerCounters{}, "answer", nil},
		{contain, "containment", func() any { return contain.Snapshot() }},
	}
	for _, tc := range cases {
		t.Run(tc.prefix, func(t *testing.T) {
			v := reflect.ValueOf(tc.set).Elem()
			var want []string
			for i := range v.NumField() {
				f, x := v.Type().Field(i), int64(i+1)*1000
				ns := f.Tag.Get("unit") == "ns"
				switch c := v.Field(i).Addr().Interface().(type) {
				case *atomic.Int64:
					c.Add(x)
					want = append(want, fmt.Sprintf("%s=%d", kebab(f.Name), x))
				case *Max:
					c.Observe(x)
					c.Observe(x - 1)
					val := fmt.Sprint(x)
					if ns {
						val = time.Duration(x).String()
					}
					want = append(want, kebab(f.Name)+"="+val)
				case *Mean:
					c.Observe(x)
					c.Observe(x + 2) // average x+1 over 2
					val := fmt.Sprintf("%.1f/2", float64(x+1))
					if ns {
						val = time.Duration(x+1).String() + "/2"
					}
					want = append(want, kebab(f.Name)+"="+val)
				default:
					t.Fatalf("%s is not a counter", f.Name)
				}
			}
			line := tc.set.String()
			fields := strings.Fields(line)
			if fields[0] != tc.prefix+":" {
				t.Errorf("status line starts %q, want %q", fields[0], tc.prefix+":")
			}
			if !slices.Equal(fields[1:], want) {
				t.Errorf("status line\n got %v\nwant %v", fields[1:], want)
			}
			if tc.snap == nil {
				return
			}
			snap := reflect.ValueOf(tc.snap())
			for i := range v.NumField() {
				f, x := v.Type().Field(i), int64(i+1)*1000
				got := map[string]int64{f.Name: x}
				if f.Type == reflect.TypeOf(Mean{}) {
					got = map[string]int64{f.Tag.Get("count"): 2, "Avg" + f.Name: x + 1}
					if sum := f.Tag.Get("sum"); sum != "" {
						got[sum] = 2*x + 2
					}
				}
				for name, x := range got {
					if sf := snap.FieldByName(name); sf.IsValid() && intOf(sf) != x {
						t.Errorf("snapshot %s = %d, want %d", name, intOf(sf), x)
					} else if !sf.IsValid() && !strings.HasPrefix(name, "Avg") {
						t.Errorf("snapshot has no %s", name)
					}
				}
			}
			for i := range snap.NumField() {
				if intOf(snap.Field(i)) == 0 {
					t.Errorf("snapshot field %s names no counter", snap.Type().Field(i).Name)
				}
			}
		})
	}
}

// intOf reads a signed or unsigned snapshot field.
func intOf(v reflect.Value) int64 {
	if v.CanUint() {
		return int64(v.Uint())
	}
	return v.Int()
}

// TestAnswerHitRatio: the hit ratio is hits over queries, and 0 before the
// first query.
func TestAnswerHitRatio(t *testing.T) {
	var c AnswerCounters
	if got := c.HitRatio(); got != 0 {
		t.Errorf("HitRatio() = %v before any query, want 0", got)
	}
	c.Queries.Add(4)
	c.Hits.Add(3)
	if got := c.HitRatio(); got != 0.75 {
		t.Errorf("HitRatio() = %v, want 0.75", got)
	}
}

func TestKebab(t *testing.T) {
	for name, want := range map[string]string{
		"FullReloads":          "full-reloads",
		"PDUAdds":              "pdu-adds",
		"StreamedPDUs":         "streamed-pdus",
		"StreamDedupPDUs":      "stream-dedup-pdus",
		"WALReplays":           "wal-replays",
		"StreamQueueHighWater": "stream-queue-high-water",
		"Begins":               "begins",
	} {
		if got := kebab(name); got != want {
			t.Errorf("kebab(%s) = %s, want %s", name, got, want)
		}
	}
}

// TestSyncSnapshotZero: before any observation a Mean's average reads 0.
func TestSyncSnapshotZero(t *testing.T) {
	var c SyncCounters
	if s := c.Snapshot(); s.AvgClassify != 0 || s.Classifies != 0 {
		t.Errorf("zero-sample classify = %v over %d", s.AvgClassify, s.Classifies)
	}
}

// TestMaxMeanConcurrentWriters: a Max keeps the largest of every concurrent
// observation and a Mean loses none of them.
func TestMaxMeanConcurrentWriters(t *testing.T) {
	const writers, each = 8, 2000
	var (
		m    Max
		mean Mean
		wg   sync.WaitGroup
	)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				x := int64(i*writers + w)
				m.Observe(x)
				mean.Observe(x)
			}
		}()
	}
	wg.Wait()
	const n = writers * each
	if got := m.Load(); got != n-1 {
		t.Errorf("Max = %d, want %d", got, n-1)
	}
	if mean.Count() != n || mean.Sum() != n*(n-1)/2 {
		t.Errorf("Mean = %d over %d, want %d over %d", mean.Sum(), mean.Count(), n*(n-1)/2, n)
	}
}
