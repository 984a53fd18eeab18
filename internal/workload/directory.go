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
// directory and trace.
package workload

import (
	"fmt"
	"math/rand"

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

	var batch []*entry.Entry
	org := entry.New(dn.MustParse(Suffix))
	org.Put("objectclass", "organization").Put("o", "xyz")
	batch = append(batch, org)

	payload := ""
	if cfg.PayloadBytes > 0 {
		b := make([]byte, cfg.PayloadBytes)
		for i := range b {
			b[i] = byte('a' + i%26)
		}
		payload = string(b)
	}

	// Countries with flat employee children.
	d.ByCountryBlock = make([][][]int, len(cfg.Countries))
	for ci, c := range cfg.Countries {
		countryDN := dn.MustParse(fmt.Sprintf("c=%s,%s", c.Code, Suffix))
		ce := entry.New(countryDN)
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
			block := i % blocks
			serial := fmt.Sprintf("%02d%03d%04d", ci+10, block, i/blocks)
			uid := fmt.Sprintf("u%08x", r.Uint32())
			mail := fmt.Sprintf("%s@%s.xyz.com", uid, c.Code)
			cn := fmt.Sprintf("emp %s %d", c.Code, i)
			e := entry.New(countryDN.Child(dn.RDN{Attr: "cn", Value: cn}))
			e.Put("objectclass", "top", "person", "organizationalPerson", "inetOrgPerson")
			e.Put("cn", cn)
			e.Put("sn", fmt.Sprintf("sn%d", i))
			e.Put("serialNumber", serial)
			e.Put("uid", uid)
			e.Put("mail", mail)
			e.Put("departmentNumber", fmt.Sprintf("%d", r.Intn(cfg.Divisions*cfg.DeptsPerDivision+1)))
			e.Put("telephoneNumber", fmt.Sprintf("%03d-%04d", r.Intn(1000), r.Intn(10000)))
			if payload != "" {
				e.Put("description", payload)
			}
			idx := len(d.Employees)
			d.Employees = append(d.Employees, Employee{
				DN: e.DN(), Serial: serial, Mail: mail, Country: ci, Block: block,
			})
			d.ByCountryBlock[ci][block] = append(d.ByCountryBlock[ci][block], idx)
			batch = append(batch, e)
		}
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

	if err := master.Load(batch); err != nil {
		return nil, fmt.Errorf("load directory: %w", err)
	}
	return d, nil
}

// SerialPrefixLen is the length of the block-granularity serial prefix.
const SerialPrefixLen = 5
