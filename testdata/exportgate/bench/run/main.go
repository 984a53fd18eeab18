package main

import "gatefixture/internal/lib"

func main() { _ = lib.OnlyBench() }
