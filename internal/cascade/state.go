package cascade

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"filterdir/internal/persist"
	"filterdir/internal/query"
)

// A tier's durable state is its links': each upstream link's supervisor
// journals the exchanges it lands into a directory of its own, content and
// position in one commit, exactly as the supervisors of a multi-filter leaf do
// (supervisor/state.go). What no link knows is in tier.json:
//
//	<StateDir>/tier.json            adopted specs
//	<StateDir>/links/<spec hash>/   one link's snapshot.ldif and journal.ldif
//
// tier.json is rewritten atomically when a spec is adopted or retired. An adopt creates the link's directory first and a
// retire removes it last, so a crash between the two leaves a directory
// tier.json does not name, which the next start sweeps away.
const (
	stateName = "tier.json"
	linksName = "links"
)

// diskSpec is the durable form of a control-plane-adopted spec: enough to
// rebuild the query.Query on restart. Base specs come from configuration
// and are never persisted.
type diskSpec struct {
	Base   string   `json:"base"`
	Scope  string   `json:"scope"`
	Filter string   `json:"filter"`
	Attrs  []string `json:"attrs,omitempty"`
}

// diskSpecOf captures a normalized spec for persistence.
func diskSpecOf(q query.Query) diskSpec {
	return diskSpec{
		Base:   q.Base.String(),
		Scope:  q.Scope.String(),
		Filter: q.FilterString(),
		Attrs:  q.Attrs,
	}
}

// spec rebuilds the query.
func (d diskSpec) spec() (query.Query, error) {
	scope, err := query.ParseScope(d.Scope)
	if err != nil {
		return query.Query{}, err
	}
	q, err := query.New(d.Base, scope, d.Filter, d.Attrs...)
	if err != nil {
		return query.Query{}, err
	}
	return q.Normalize(), nil
}

// diskState is the JSON of tier.json, the adaptive control plane's durable
// footprint: adopted specs are re-linked alongside the configured ones.
type diskState struct {
	Adopted []diskSpec `json:"adopted,omitempty"`
}

// linkDir is the state directory of spec's link: "" without a StateDir, which
// a supervisor takes for not durable and os.RemoveAll for nothing to remove.
func (t *Tier) linkDir(spec query.Query) string {
	if t.cfg.StateDir == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(spec.Key()))
	return filepath.Join(t.cfg.StateDir, linksName, fmt.Sprintf("%x", sum[:8]))
}

// openState reads tier.json, returning the adopted specs, and removes everything else under StateDir that is not the
// directory of a base or adopted spec's link: what a crash in the middle of an
// adopt or a retire left, and any older layout. The links themselves are
// restored by their supervisors.
func (t *Tier) openState() (adopted []query.Query, err error) {
	var disk diskState
	if raw, err := os.ReadFile(filepath.Join(t.cfg.StateDir, stateName)); err == nil {
		if err := json.Unmarshal(raw, &disk); err != nil {
			return nil, fmt.Errorf("%s: %w", stateName, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	keep := map[string]bool{
		filepath.Join(t.cfg.StateDir, stateName): true,
		filepath.Join(t.cfg.StateDir, linksName): true,
	}
	for _, spec := range t.cfg.Specs {
		keep[t.linkDir(spec.Normalize())] = true
	}
	for _, ds := range disk.Adopted {
		spec, err := ds.spec()
		if err != nil {
			return nil, fmt.Errorf("%s: adopted spec %q: %w", stateName, ds.Filter, err)
		}
		adopted = append(adopted, spec)
		keep[t.linkDir(spec)] = true
	}
	for _, dir := range []string{t.cfg.StateDir, filepath.Join(t.cfg.StateDir, linksName)} {
		found, err := os.ReadDir(dir)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		for _, f := range found {
			if path := filepath.Join(dir, f.Name()); !keep[path] {
				t.cfg.Logf("cascade: removing %s: no link owns it", path)
				if err := os.RemoveAll(path); err != nil {
					return nil, err
				}
			}
		}
	}
	return adopted, nil
}

// writeState makes the adopted specs durable (no-op without a state
// directory). The caller holds linkMu, which orders the writes.
func (t *Tier) writeState() error {
	if t.cfg.StateDir == "" {
		return nil
	}
	var disk diskState
	for _, link := range t.links {
		if !link.base {
			disk.Adopted = append(disk.Adopted, diskSpecOf(link.spec))
		}
	}
	return persist.WriteAtomic(filepath.Join(t.cfg.StateDir, stateName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(disk)
	})
}
