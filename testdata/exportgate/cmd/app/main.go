package main

import (
	"io"

	"gatefixture/internal/lib"
)

func main() {
	_ = lib.New()
	_, _ = io.ReadAll(lib.Source())
}
