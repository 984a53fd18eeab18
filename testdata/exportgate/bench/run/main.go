package main

import (
	"gatefixture"
	"gatefixture/internal/lib"
)

func main() { _ = lib.OnlyBench() + gatefixture.Limit }
