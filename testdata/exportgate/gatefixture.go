// Package gatefixture is the fixture module's root facade: each export
// needs a non-test reference under cmd/, examples/ or bench/.
package gatefixture

import "gatefixture/internal/lib"

// Thing is named only in NewThing's signature: kept.
type Thing = lib.Thing

// Source is an alias nothing names: flagged.
type Source = lib.Reader

// NewThing is called from cmd/app: kept.
func NewThing() *Thing { return lib.New() }

// OnlyRootTested is called only from gatefixture_test.go: flagged.
func OnlyRootTested() *Thing { return lib.New() }

// Limit is read from bench/run: kept.
var Limit = 3

// Mode is referenced by nothing: flagged.
const Mode = "fixture"
