package main

import (
	"io"

	"gatefixture"
	"gatefixture/internal/lib"
)

func main() {
	_ = gatefixture.NewThing()
	_, _ = io.ReadAll(lib.Source())
}
