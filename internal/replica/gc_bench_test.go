package replica

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// BenchmarkHeldEntriesGC measures what the collector pays for the entries a
// replica holds: n Table-1 employees, each encoded as a reload PDU, decoded
// and landed by ApplySync as a consumer lands a reload, are held while one
// full collection runs per iteration. It reports the time of a collection
// (ns/op) and the live heap bytes and heap objects each held entry keeps,
// the store's maps included.
func BenchmarkHeldEntriesGC(b *testing.B) {
	spec := query.MustNew("", query.ScopeSubtree, "(objectclass=*)")
	description := strings.Repeat("x", 512)
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			r, err := NewFilterReplica()
			if err != nil {
				b.Fatal(err)
			}
			r.AddStored(spec, "all")
			ups := make([]resync.Update, 0, 1000)
			for i := 0; i < n; i++ {
				e := entry.New(dn.MustParse(fmt.Sprintf("cn=emp us %d,c=us,o=xyz", i)))
				e.Put("objectclass", "top", "person", "organizationalPerson", "inetOrgPerson")
				e.Put("cn", fmt.Sprintf("emp us %d", i)).Put("sn", fmt.Sprintf("sn%d", i))
				e.Put("serialNumber", fmt.Sprintf("10%07d", i)).Put("uid", fmt.Sprintf("u%08x", i))
				e.Put("mail", fmt.Sprintf("u%08x@us.xyz.com", i)).Put("departmentNumber", fmt.Sprint(i%401))
				e.Put("telephoneNumber", fmt.Sprintf("%03d-%04d", i%1000, i%10000)).Put("description", description)
				pdu, err := (&proto.Message{ID: 1, Op: &proto.SearchEntry{Entry: e}}).Encode()
				if err != nil {
					b.Fatal(err)
				}
				m, err := proto.Decode(pdu)
				if err != nil {
					b.Fatal(err)
				}
				got := m.Op.(*proto.SearchEntry).Entry
				ups = append(ups, resync.Update{Action: resync.ActionAdd, DN: got.DN(), Entry: got})
				if len(ups) == cap(ups) || i == n-1 {
					if err := r.ApplySync(spec, ups); err != nil {
						b.Fatal(err)
					}
					ups = ups[:0]
				}
			}
			ups = nil
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runtime.GC()
			}
			b.StopTimer()
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(n), "live-B/entry")
			b.ReportMetric(float64(after.HeapObjects-before.HeapObjects)/float64(n), "objects/entry")
			runtime.KeepAlive(r)
		})
	}
}
