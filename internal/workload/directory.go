// Package workload builds the synthetic enterprise directory and the query
// and update traces that stand in for the paper's IBM directory and its
// two-day real workload (Section 7.1). The generator reproduces the
// structural properties the evaluation depends on:
//
//   - employees are organized per country, appearing as children of the
//     country entry — a relatively flat namespace that subtree replicas
//     cannot partially replicate;
//   - serialNumber values are structured: a country code followed by a
//     block (organizational) code and a sequence number, so prefix filters
//     describe semantically local regions;
//   - mail local parts are unorganized (random), so filter generalization
//     cannot capture their access pattern;
//   - department entries sit under division entries, with numeric dept
//     codes sharing a per-division prefix;
//   - a small location subtree receives a disproportionate access rate.
//
// All randomness is seeded; the same configuration always produces the same
// directory and trace. BuildDirectory draws every random value first, one
// after another in a fixed order — that stream is the directory's identity —
// and then assembles the employee entries on GOMAXPROCS workers, each entry
// in its own place of the load batch, which is loaded in order as it fills.
// The directory is the same at any GOMAXPROCS.
package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
)

// CountrySpec sizes one country subtree.
type CountrySpec struct {
	Code      string
	Employees int
}

// DirectoryConfig parameterizes the synthetic directory.
type DirectoryConfig struct {
	Seed int64
	// Countries lists the country subtrees; the first is the "target
	// geography" of the case study (≈30 % of employees by default).
	Countries []CountrySpec
	// BlocksPerCountry is the number of serial-number blocks per country;
	// prefix filters at block granularity are the generalized filters of
	// Figure 4.
	BlocksPerCountry int
	// Divisions and DeptsPerDivision size the department forest.
	Divisions        int
	DeptsPerDivision int
	// Locations is the size of the location subtree.
	Locations int
	// PayloadBytes pads each employee entry to approximate the paper's
	// ~6 KB entries (scaled down by default to keep tests fast; byte
	// ratios, not absolute values, carry the update-traffic figures).
	PayloadBytes int
	// IndexAttrs are maintained as indexes on the master store.
	IndexAttrs []string
	// JournalLimit bounds the master's in-memory update journal to the most
	// recent n changes (0 = unbounded); sync sessions that fall further
	// behind require a full reload.
	JournalLimit int
	// Shards overrides the master store's shard count (0 = store default:
	// GOMAXPROCS, or the FILTERDIR_SHARDS environment override).
	Shards int
}

// DefaultDirectoryConfig returns a laptop-scale configuration with the
// paper's proportions: the first country holds ≈30 % of employees.
func DefaultDirectoryConfig(totalEmployees int) DirectoryConfig {
	target := totalEmployees * 30 / 100
	rest := totalEmployees - target
	return DirectoryConfig{
		Seed: 1,
		Countries: []CountrySpec{
			{Code: "us", Employees: target},
			{Code: "in", Employees: rest * 4 / 10},
			{Code: "de", Employees: rest * 3 / 10},
			{Code: "jp", Employees: rest * 2 / 10},
			{Code: "br", Employees: rest - rest*4/10 - rest*3/10 - rest*2/10},
		},
		BlocksPerCountry: 400,
		Divisions:        8,
		DeptsPerDivision: 50,
		Locations:        30,
		PayloadBytes:     512,
		IndexAttrs:       []string{"serialnumber", "mail", "dept", "location", "uid"},
	}
}

// Employee is the generator's bookkeeping for one person entry.
type Employee struct {
	DN     dn.DN
	Serial string
	Mail   string
	// Country and Block index into the directory's country/block structure.
	Country int
	Block   int
}

// Department is the bookkeeping for one department entry.
type Department struct {
	DN       dn.DN
	Dept     string
	Division string
}

// Directory is the built synthetic directory: the master store plus the
// bookkeeping the trace generators draw from.
type Directory struct {
	Config    DirectoryConfig
	Master    *dit.Store
	Employees []Employee
	// ByCountryBlock[c][b] lists employee indexes of country c, block b.
	ByCountryBlock [][][]int
	Departments    []Department
	// ByDivision[d] lists department indexes of division d.
	ByDivision [][]int
	Divisions  []string
	Locations  []string
	// EmployeeCount is the total number of person entries.
	EmployeeCount int
}

// Suffix is the DIT root of the synthetic enterprise directory.
const Suffix = "o=xyz"

// BuildDirectory constructs the master DIT per the configuration.
func BuildDirectory(cfg DirectoryConfig) (*Directory, error) {
	var opts []dit.Option
	if len(cfg.IndexAttrs) > 0 {
		opts = append(opts, dit.WithIndexes(cfg.IndexAttrs...))
	}
	if cfg.JournalLimit > 0 {
		opts = append(opts, dit.WithJournalLimit(cfg.JournalLimit))
	}
	if cfg.Shards > 0 {
		opts = append(opts, dit.WithShards(cfg.Shards))
	}
	master, err := dit.NewStore([]string{Suffix}, opts...)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	d := &Directory{Config: cfg, Master: master}

	employees := 0
	for _, c := range cfg.Countries {
		employees += c.Employees
	}
	org := entry.New(dn.MustParse(Suffix))
	org.Put("objectclass", "organization").Put("o", "xyz")
	batch := make([]*entry.Entry, 1, 1+len(cfg.Countries)+employees)
	batch[0] = org

	payload := ""
	if cfg.PayloadBytes > 0 {
		b := make([]byte, cfg.PayloadBytes)
		for i := range b {
			b[i] = byte('a' + i%26)
		}
		payload = string(b)
	}

	// Countries with flat employee children. Every random value is drawn
	// here, in the order the directory has always drawn them, and each
	// employee's entry is left a place in the batch after its country's.
	d.ByCountryBlock = make([][][]int, len(cfg.Countries))
	countries := make([]dn.DN, len(cfg.Countries))
	hires := make([]hire, 0, employees)
	for ci, c := range cfg.Countries {
		countries[ci] = dn.MustParse(fmt.Sprintf("c=%s,%s", c.Code, Suffix))
		ce := entry.New(countries[ci])
		ce.Put("objectclass", "country").Put("c", c.Code)
		batch = append(batch, ce)

		blocks := cfg.BlocksPerCountry
		if blocks <= 0 {
			blocks = 1
		}
		// Every block must be populated: small countries get fewer blocks.
		if blocks > c.Employees && c.Employees > 0 {
			blocks = c.Employees
		}
		d.ByCountryBlock[ci] = make([][]int, blocks)
		for i := 0; i < c.Employees; i++ {
			h := hire{country: ci, i: i, block: i % blocks, seq: i / blocks, at: len(batch), uid: r.Uint32()}
			h.dept = r.Intn(cfg.Divisions*cfg.DeptsPerDivision + 1)
			h.phone = r.Intn(1000)
			h.ext = r.Intn(10000)
			d.ByCountryBlock[ci][h.block] = append(d.ByCountryBlock[ci][h.block], len(hires))
			hires = append(hires, h)
			batch = append(batch, nil)
		}
	}
	// The employees are assembled in parallel, a chunk at a time in batch
	// order; each worker writes only its own entries' places, so the result
	// is the same at any GOMAXPROCS. The batch is loaded in order as its
	// chunks are done, beside the assembly of the later ones.
	const chunk = 256
	chunks := make([]chan struct{}, (len(hires)+chunk-1)/chunk)
	for c := range chunks {
		chunks[c] = make(chan struct{})
	}
	d.Employees = make([]Employee, len(hires))
	var next atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(chunks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec record
			for c := int(next.Add(1) - 1); c < len(chunks); c = int(next.Add(1) - 1) {
				for k := c * chunk; k < min((c+1)*chunk, len(hires)); k++ {
					h := hires[k]
					batch[h.at], d.Employees[k] = rec.employee(h, cfg.Countries[h.country].Code, countries[h.country], payload)
				}
				close(chunks[c])
			}
		}()
	}
	loaded := 0
	for c, done := range chunks {
		<-done
		end := hires[min((c+1)*chunk, len(hires))-1].at + 1
		if err := master.Load(batch[loaded:end]); err != nil {
			return nil, fmt.Errorf("load directory: %w", err)
		}
		loaded = end
	}
	d.EmployeeCount = len(d.Employees)

	// Divisions with department children.
	ouDivs := dn.MustParse("ou=divisions," + Suffix)
	divRoot := entry.New(ouDivs)
	divRoot.Put("objectclass", "organizationalUnit").Put("ou", "divisions")
	batch = append(batch, divRoot)
	d.ByDivision = make([][]int, cfg.Divisions)
	for di := 0; di < cfg.Divisions; di++ {
		divName := fmt.Sprintf("div%02d", di)
		d.Divisions = append(d.Divisions, divName)
		divDN := ouDivs.Child(dn.RDN{Attr: "ou", Value: divName})
		de := entry.New(divDN)
		de.Put("objectclass", "organizationalUnit").Put("ou", divName)
		batch = append(batch, de)
		for k := 0; k < cfg.DeptsPerDivision; k++ {
			code := fmt.Sprintf("%d%03d", di+1, k)
			deptDN := divDN.Child(dn.RDN{Attr: "dept", Value: code})
			ent := entry.New(deptDN)
			ent.Put("objectclass", "department")
			ent.Put("dept", code)
			ent.Put("div", divName)
			ent.Put("description", fmt.Sprintf("department %s of %s", code, divName))
			idx := len(d.Departments)
			d.Departments = append(d.Departments, Department{DN: deptDN, Dept: code, Division: divName})
			d.ByDivision[di] = append(d.ByDivision[di], idx)
			batch = append(batch, ent)
		}
	}

	// Location subtree.
	ouLoc := dn.MustParse("ou=locations," + Suffix)
	locRoot := entry.New(ouLoc)
	locRoot.Put("objectclass", "organizationalUnit").Put("ou", "locations")
	batch = append(batch, locRoot)
	for li := 0; li < cfg.Locations; li++ {
		name := fmt.Sprintf("site%03d", li)
		d.Locations = append(d.Locations, name)
		le := entry.New(ouLoc.Child(dn.RDN{Attr: "location", Value: name}))
		le.Put("objectclass", "location")
		le.Put("location", name)
		le.Put("l", fmt.Sprintf("city%03d", li))
		batch = append(batch, le)
	}

	if err := master.Load(batch[loaded:]); err != nil {
		return nil, fmt.Errorf("load directory: %w", err)
	}
	return d, nil
}

// hire is one employee as the directory's random stream decides it: its
// country, its position there, its block and its place in the block, the
// place of its entry in the load batch, and the values drawn for it.
type hire struct {
	country, i, block, seq, at int
	uid                        uint32
	dept, phone, ext           int
}

// record is one entry's normalised names and values written into one
// buffer, and their layout; the buffer is reused from entry to entry.
type record struct {
	buf []byte
	l   entry.Layout
}

// attr begins the next attribute.
func (r *record) attr(name string) {
	lo := len(r.buf)
	r.buf = append(r.buf, name...)
	r.l.Attr(lo, len(r.buf))
}

// value adds the bytes written since lo as a value of the attribute begun
// last, and returns where they end.
func (r *record) value(lo int) int {
	r.l.Value(lo, len(r.buf))
	return len(r.buf)
}

// str adds s as a value of the attribute begun last.
func (r *record) str(s string) {
	lo := len(r.buf)
	r.buf = append(r.buf, s...)
	r.value(lo)
}

// num writes n in base at least width digits wide, zero-padded, as
// fmt's %0<width>d or %0<width>x does.
func (r *record) num(n uint64, base, width int) {
	var digits [64]byte
	s := strconv.AppendUint(digits[:0], n, base)
	for i := len(s); i < width; i++ {
		r.buf = append(r.buf, '0')
	}
	r.buf = append(r.buf, s...)
}

// employee assembles h's entry, under the country entry at country whose
// code is c, the way a wire decoder builds one: its names and values are
// written into one buffer, and the entry is made over a copy of it at its
// final size. The bookkeeping's serial and mail alias the entry's values.
func (r *record) employee(h hire, c string, country dn.DN, payload string) (*entry.Entry, Employee) {
	attrs, values := 9, 12
	if payload == "" {
		attrs, values = 8, 11
	}
	r.buf, r.l = r.buf[:0], entry.NewLayout(attrs, values)
	r.attr("objectclass")
	for _, oc := range []string{"top", "person", "organizationalPerson", "inetOrgPerson"} {
		r.str(oc)
	}
	r.attr("cn")
	cn := len(r.buf)
	r.buf = append(append(append(r.buf, "emp "...), c...), ' ')
	r.num(uint64(h.i), 10, 0)
	cnEnd := r.value(cn)
	r.attr("sn")
	lo := len(r.buf)
	r.buf = append(r.buf, "sn"...)
	r.num(uint64(h.i), 10, 0)
	r.value(lo)
	r.attr("serialnumber")
	serial := len(r.buf)
	r.num(uint64(h.country+10), 10, 2)
	r.num(uint64(h.block), 10, 3)
	r.num(uint64(h.seq), 10, 4)
	serialEnd := r.value(serial)
	r.attr("uid")
	uid := len(r.buf)
	r.buf = append(r.buf, 'u')
	r.num(uint64(h.uid), 16, 8)
	uidEnd := r.value(uid)
	r.attr("mail")
	mail := len(r.buf)
	r.buf = append(r.buf, r.buf[uid:uidEnd]...)
	r.buf = append(append(append(r.buf, '@'), c...), ".xyz.com"...)
	mailEnd := r.value(mail)
	r.attr("departmentnumber")
	lo = len(r.buf)
	r.num(uint64(h.dept), 10, 0)
	r.value(lo)
	r.attr("telephonenumber")
	lo = len(r.buf)
	r.num(uint64(h.phone), 10, 3)
	r.buf = append(r.buf, '-')
	r.num(uint64(h.ext), 10, 4)
	r.value(lo)
	if payload != "" {
		r.attr("description")
		r.str(payload)
	}
	raw := string(r.buf)
	e := entry.Assemble(country.Child(dn.RDN{Attr: "cn", Value: raw[cn:cnEnd]}), raw, r.l)
	return e, Employee{DN: e.DN(), Serial: raw[serial:serialEnd], Mail: raw[mail:mailEnd], Country: h.country, Block: h.block}
}

// SerialPrefixLen is the length of the block-granularity serial prefix.
const SerialPrefixLen = 5
