// Package lib plants one case of each rule of the export gate.
package lib

import "io"

// Option configures New.
type Option func(*Thing)

// Thing is what New builds.
type Thing struct{ opts int }

// New is called from cmd/app: used.
func New(opts ...Option) *Thing {
	t := &Thing{}
	for _, o := range append(opts, WithOwnOnly()) {
		o(t)
	}
	return t
}

// WithOwnOnly is an option only its own package sets: flagged.
func WithOwnOnly() Option { return func(t *Thing) { t.opts++ } }

// OnlyTested is called only from lib_test.go: flagged.
func OnlyTested() int { return 1 }

// OnlyBench is called only from bench/: used.
func OnlyBench() int { return 2 }

// Allowed has no caller but is on the allow-list: passes.
func Allowed() int { return 3 }

// Reader is used only as an io.Reader.
type Reader struct{}

// Read satisfies io.Reader, which nothing here calls directly: used.
func (Reader) Read(p []byte) (int, error) { return 0, io.EOF }

// Source returns a Reader as an io.Reader.
func Source() io.Reader { return Reader{} }
