package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"time"
)

// A counter set (SyncCounters, StoreCounters, ReplicaCounters,
// CascadeCounters, TierCounters, WriteCounters, AnswerCounters,
// ContainmentCounters) is a struct of exported atomic.Int64, Max and Mean
// fields. A hot path updates a field directly —
// one atomic operation, no lock, no registration — and the one reader below
// lists a set's counters by field name for its snapshot and status line.
//
// Tags: `unit:"ns"` marks a Max or Mean of nanoseconds, printed as a
// duration; a Mean's `count:"X"` and `sum:"Y"` name its count and sum in a
// snapshot, which also takes its average as "Avg" + the field name.

// Max is a high-water mark.
type Max struct{ v atomic.Int64 }

// Observe raises the mark to n if n is above it.
func (m *Max) Observe(n int64) {
	for cur := m.v.Load(); n > cur && !m.v.CompareAndSwap(cur, n); cur = m.v.Load() {
	}
}

// Load returns the mark.
func (m *Max) Load() int64 { return m.v.Load() }

// Mean accumulates observations as a sum and a count.
type Mean struct{ sum, n atomic.Int64 }

// Observe adds one observation.
func (m *Mean) Observe(x int64) {
	m.sum.Add(x)
	m.n.Add(1)
}

// Count returns the number of observations.
func (m *Mean) Count() int64 { return m.n.Load() }

// Sum returns the sum of the observations.
func (m *Mean) Sum() int64 { return m.sum.Load() }

// reading is one counter of a set, read at one moment.
type reading struct {
	field reflect.StructField
	v     int64 // the counter, the mark, or a Mean's count
	sum   int64 // a Mean's sum
	mean  bool
}

// avg is a Mean's average (0 before its first observation).
func (r reading) avg() float64 {
	if r.v == 0 {
		return 0
	}
	return float64(r.sum) / float64(r.v)
}

// read lists the counters of set, a pointer to a counter set, in field order.
func read(set any) []reading {
	v := reflect.ValueOf(set).Elem()
	out := make([]reading, v.NumField())
	for i := range out {
		r := reading{field: v.Type().Field(i)}
		switch c := v.Field(i).Addr().Interface().(type) {
		case *atomic.Int64:
			r.v = c.Load()
		case *Max:
			r.v = c.Load()
		case *Mean:
			r.v, r.sum, r.mean = c.Count(), c.Sum(), true
		default:
			panic(fmt.Sprintf("metrics: %s.%s is not a counter", v.Type(), r.field.Name))
		}
		out[i] = r
	}
	return out
}

// fill sets the fields of *snap from set's counters of the same names. A
// snapshot field of type time.Duration takes the nanoseconds as they are;
// an unsigned one takes the counter's value, which never goes below zero.
func fill(snap, set any) {
	s := reflect.ValueOf(snap).Elem()
	put := func(name string, x int64) {
		switch f := s.FieldByName(name); {
		case !f.IsValid():
		case f.CanUint():
			f.SetUint(uint64(x))
		default:
			f.SetInt(x)
		}
	}
	for _, r := range read(set) {
		if !r.mean {
			put(r.field.Name, r.v)
			continue
		}
		put(r.field.Tag.Get("count"), r.v)
		put(r.field.Tag.Get("sum"), r.sum)
		put("Avg"+r.field.Name, int64(r.avg()))
	}
}

// status renders set as one status line: the set's name, then each counter
// as its field name in kebab case, name=value; a Mean prints as
// name=average/count.
func status(set any) string {
	var b strings.Builder
	b.WriteString(strings.ToLower(strings.TrimSuffix(reflect.TypeOf(set).Elem().Name(), "Counters")) + ":")
	for _, r := range read(set) {
		ns := r.field.Tag.Get("unit") == "ns"
		fmt.Fprintf(&b, " %s=", kebab(r.field.Name))
		switch {
		case r.mean && ns:
			fmt.Fprintf(&b, "%s/%d", time.Duration(r.avg()), r.v)
		case r.mean:
			fmt.Fprintf(&b, "%.1f/%d", r.avg(), r.v)
		case ns:
			b.WriteString(time.Duration(r.v).String())
		default:
			fmt.Fprintf(&b, "%d", r.v)
		}
	}
	return b.String()
}

// kebab spells a Go field name in kebab case: FullReloads → full-reloads,
// PDUAdds → pdu-adds, StreamedPDUs → streamed-pdus.
func kebab(name string) string {
	upper := func(i int) bool { return i < len(name) && name[i] >= 'A' && name[i] <= 'Z' }
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		if upper(i) && i > 0 {
			// A word starts after a lower-case letter, and at an acronym's
			// last capital when a word follows (not a plural s).
			plural := name[i+1:] == "s" || (i+2 < len(name) && name[i+1] == 's' && upper(i+2))
			if !upper(i-1) || (i+1 < len(name) && !upper(i+1) && !plural) {
				b.WriteByte('-')
			}
		}
		b.WriteString(strings.ToLower(name[i : i+1]))
	}
	return b.String()
}
