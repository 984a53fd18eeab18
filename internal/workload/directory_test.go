package workload

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strconv"
	"testing"
)

// directoryHash is an FNV-1a hash of everything BuildDirectory produces: every
// entry in DN order (its DN, then each attribute's name and values in the
// order the entry holds them), then the bookkeeping — Employees,
// ByCountryBlock, Departments, ByDivision and Locations. A string is written
// with its length, so no two sequences hash alike by a shifted boundary.
func directoryHash(d *Directory) uint64 {
	h := fnv.New64a()
	str := func(s string) {
		h.Write(strconv.AppendInt(nil, int64(len(s)), 10))
		h.Write([]byte{':'})
		h.Write([]byte(s))
	}
	num := func(n int) { str(strconv.Itoa(n)) }
	for _, e := range d.Master.All() {
		str(e.DN().String())
		num(e.NumAttrs())
		for i := 0; i < e.NumAttrs(); i++ {
			a := e.AttrAt(i)
			str(a.Name())
			num(a.Len())
			for k := 0; k < a.Len(); k++ {
				str(a.At(k))
			}
		}
	}
	section(h, "employees")
	for _, emp := range d.Employees {
		str(emp.DN.String())
		str(emp.Serial)
		str(emp.Mail)
		num(emp.Country)
		num(emp.Block)
	}
	section(h, "blocks")
	for _, blocks := range d.ByCountryBlock {
		num(len(blocks))
		for _, ids := range blocks {
			num(len(ids))
			for _, id := range ids {
				num(id)
			}
		}
	}
	section(h, "departments")
	for _, dep := range d.Departments {
		str(dep.DN.String())
		str(dep.Dept)
		str(dep.Division)
	}
	section(h, "divisions")
	for _, ids := range d.ByDivision {
		num(len(ids))
		for _, id := range ids {
			num(id)
		}
	}
	section(h, "locations")
	for _, l := range d.Locations {
		str(l)
	}
	return h.Sum64()
}

// section marks where one part of directoryHash's input ends.
func section(h hash.Hash64, name string) { h.Write([]byte("\x00" + name + "\x00")) }

// TestBuildDirectoryPinned pins the built directory to the bit: the values
// are those of the sequential builder that preceded the parallel one, so a
// draw reordered, a value formatted differently or an entry assembled in
// another order fails it. It passes alike at any GOMAXPROCS (go test -cpu
// 1,2,4), since the worker count decides only who builds an entry.
func TestBuildDirectoryPinned(t *testing.T) {
	for _, tc := range []struct {
		employees int
		seed      int64
		want      uint64
	}{
		{2500, 1, 0xb6c9290be04d281d},
		{2500, 7, 0xea90df53c53bc075},
		{10000, 1, 0xfd906a03b0461b91},
		{10000, 7, 0xa7095d5432a869a9},
	} {
		t.Run(fmt.Sprintf("employees=%d/seed=%d", tc.employees, tc.seed), func(t *testing.T) {
			cfg := DefaultDirectoryConfig(tc.employees)
			cfg.Seed = tc.seed
			d, err := BuildDirectory(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := directoryHash(d); got != tc.want {
				t.Errorf("directory hash %#016x, want %#016x", got, tc.want)
			}
		})
	}
}

// BenchmarkBuildDirectory times the master's cold start at 10 k employees:
// drawing the directory, assembling its entries and loading them.
func BenchmarkBuildDirectory(b *testing.B) {
	cfg := DefaultDirectoryConfig(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDirectory(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
