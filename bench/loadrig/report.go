package main

import (
	"fmt"
	"io"
	"sort"
)

// report prints one run's metrics by name and unit, with the sample counts
// behind the timings.
func report(w io.Writer, name string, traced bool, out *output, res *runResult) {
	kind := "end-to-end (untraced)"
	if traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s · seed %d · %.0f s · %s ==\n", name, res.cfg.seed, res.cfg.seconds, kind)
	for _, n := range out.Metrics.names() {
		v := out.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, v.Value, v.Unit)
	}
	counts := sampleCounts(res)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "  samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, counts[k])
	}
	for i := range res.phases {
		p := &res.phases[i]
		if n := p.write.failed + p.search.failed + p.late + p.unobserved; n > 0 {
			fmt.Fprintf(w, "\n  FAILED in phase %s: writes=%d searches=%d late=%d unobserved=%d",
				p.def.name, p.write.failed, p.search.failed, p.late, p.unobserved)
		}
	}
	fmt.Fprintf(w, "\n  attempted=%d failed=%d goroutines start=%d peak=%d end=%d\n",
		res.attempted, res.failed, res.goroutines0, res.goroutinesPeak, res.goroutinesEnd)
	if res.goroutinesEnd > res.goroutines0 {
		fmt.Fprintf(w, "  WARNING: %d goroutines outlived the run\n", res.goroutinesEnd-res.goroutines0)
	}
	if traced {
		fmt.Fprintf(w, "  trace: %s\n", res.traceFile)
		for _, line := range res.top {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
}
