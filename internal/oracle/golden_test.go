package oracle

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

var updateFingerprints = flag.Bool("oracle.update", false, "rewrite "+fingerprintsPath+" from this run")

const fingerprintsPath = "testdata/fingerprints.golden"

const fingerprintsHeader = `# What the deterministic oracle tests observe, a line a fact: test, then its
# counts or FNV fingerprints. Checked to the digit by pin; -oracle.update rewrites it.
`

// pinnedTests are the tests whose fingerprints the golden file holds, in file
// order. Each is deterministic: the same at every shard count, GOMAXPROCS
// and under -race.
var pinnedTests = []string{
	"TestOracleQuick",
	"TestOracleCascadeQuick",
	"TestOracleEdgeWriteQuick",
	"TestOracleSharedFilterHistories",
	"TestOracleShardSweep",
}

// fingerprints is the golden file by test, read once, or under
// -oracle.update what each pinned test reported.
var fingerprints struct {
	sync.Mutex
	byTest map[string][]string
	err    error
	once   sync.Once
}

// pin compares the lines a pinned test reports with the golden file's lines
// for it, or records them under -oracle.update. A mismatch names the test
// and both lines. Under -oracle.seed or -oracle.n the test ran other
// histories, and nothing is compared.
func pin(t *testing.T, lines ...string) {
	t.Helper()
	if *oracleN > 0 || *oracleSeed != 42 {
		return // the test ran other histories than the pinned ones
	}
	fingerprints.Lock()
	defer fingerprints.Unlock()
	if *updateFingerprints {
		if fingerprints.byTest == nil {
			fingerprints.byTest = map[string][]string{}
		}
		fingerprints.byTest[t.Name()] = lines
		return
	}
	fingerprints.once.Do(func() {
		data, err := os.ReadFile(fingerprintsPath)
		if err != nil {
			fingerprints.err = fmt.Errorf("%v (make fingerprints writes it)", err)
			return
		}
		fingerprints.byTest = map[string][]string{}
		for _, row := range strings.Split(string(data), "\n") {
			if row != "" && !strings.HasPrefix(row, "#") {
				name, line, _ := strings.Cut(row, "\t")
				fingerprints.byTest[name] = append(fingerprints.byTest[name], line)
			}
		}
	})
	if fingerprints.err != nil {
		t.Fatal(fingerprints.err)
	}
	want := fingerprints.byTest[t.Name()]
	for i := 0; i < max(len(lines), len(want)); i++ {
		switch {
		case i >= len(want):
			t.Errorf("%s: %q not in %s", t.Name(), lines[i], fingerprintsPath)
		case i >= len(lines):
			t.Errorf("%s: %q in %s but not reported", t.Name(), want[i], fingerprintsPath)
		case lines[i] != want[i]:
			t.Errorf("%s: got %q, golden %q", t.Name(), lines[i], want[i])
		}
	}
}

// TestMain writes the golden file after a passing -oracle.update run. It
// refuses when a pinned test did not run (a -run filter skipped it), so the
// file is never rewritten from part of the tests.
func TestMain(m *testing.M) {
	code := m.Run()
	if *updateFingerprints && code == 0 {
		var rows []string
		for _, name := range pinnedTests {
			lines, ok := fingerprints.byTest[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "-oracle.update needs every pinned test; %s did not run (drop the -run filter)\n", name)
				os.Exit(1)
			}
			for _, line := range lines {
				rows = append(rows, name+"\t"+line)
			}
		}
		if err := os.WriteFile(fingerprintsPath, []byte(fingerprintsHeader+strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}
