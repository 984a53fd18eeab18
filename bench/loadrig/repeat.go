package main

import (
	"fmt"
	"os"
)

// repeatCheck runs every named workload n times on one seed and prints,
// per gated metric, the median, the quartiles and the spread (inter-
// quartile distance as a share of the median). It fails when a spread
// exceeds the metric's own bound in the contract — the figure a later
// change's regression would have to be told apart from.
func repeatCheck(bf *benchmarkFile, defs map[string]workloadDef, names []string, seed int64, seconds float64, outDir string, n int) error {
	failed := 0
	for _, name := range names {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			out, _, err := measure(runConfig{def: defs[name], seed: seed, seconds: seconds,
				outDir: outDir, ladderBudget: rungBudget})
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i+1, err)
			}
			for k, v := range out.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
		}
		fmt.Fprintf(os.Stdout, "\n== %s · seed %d · %d runs ==\n", name, seed, n)
		fmt.Fprintf(os.Stdout, "  %-30s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range bf.EndToEnd {
			q1, q2, q3 := quartiles(vals[d.Name])
			sp := spread(vals[d.Name])
			mark := ""
			if sp > d.Bound {
				mark = "  EXCEEDS"
				failed++
			}
			fmt.Fprintf(os.Stdout, "  %-30s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", d.Name, q1, q2, q3, sp, d.Bound, mark)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric spreads exceed their bound", failed)
	}
	return nil
}
