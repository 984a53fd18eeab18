package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef mirrors one entry of BENCHMARK.json's end_to_end / per_layer
// lists. BENCHMARK.json is the contract; the smoke tests hold the program's
// output against it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

type metricSet map[string]metricValue

func (m metricSet) put(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }

func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func isOpen(p *phaseResult) bool        { return p.def.kind == phaseOpen }
func isClosedWrite(p *phaseResult) bool { return p.def.kind == phaseClosedWrite }
func isSearch(p *phaseResult) bool      { return p.def.kind == phaseSearch }

// endToEnd derives the gated metrics from an untraced run: the benchmark's
// set-up time and three counts — the two the paper judges filter-based
// replication by (hit ratio, update traffic) and the bulk-transfer twin of
// the latter. Every metric is defined by the stage it is measured in, so
// every workload reports all of them.
//
//	set-up stage      → setup_s, reload_wire_bytes_per_entry
//	open-loop writer  → wire_bytes_per_commit
//	search phase      → hit_ratio
//
// The timings and throughputs of the same stages are reported by a traced
// run under ungated.* (layers.go).
func endToEnd(r *runResult) metricSet {
	m := metricSet{}
	var setupS, reloadBytes []float64
	for _, s := range r.setups {
		setupS = append(setupS, s.seconds)
		reloadBytes = append(reloadBytes, ratio(float64(s.reloadBytes), float64(s.reloadEntries)))
	}
	m.put("setup_s", "s", median(setupS))
	m.put("reload_wire_bytes_per_entry", "B", median(reloadBytes))
	o := sumWrites(r.where(isOpen))
	m.put("wire_bytes_per_commit", "B", ratio(o.txBytes, o.commits))
	s := sumSearches(r.where(isSearch))
	m.put("hit_ratio", "ratio", ratio(s.hits, s.tried))
	return m
}

// writeTotals sums what the writer phases it is given measured.
type writeTotals struct {
	commits, wall  float64 // acknowledged commits, seconds start → last ack
	cpuMs          float64 // process CPU, phase start → commits drained
	txBytes        float64 // written by the master's replication listener
	ackMs, reachMs []float64
	genLagMs       []float64
}

func sumWrites(ps []*phaseResult) writeTotals {
	var t writeTotals
	for _, p := range ps {
		t.commits += float64(p.write.attempted - p.write.failed)
		t.wall += p.write.wall.Seconds()
		t.cpuMs += p.after.cpuMs - p.before.cpuMs
		t.txBytes += float64(p.after.replBytes - p.before.replBytes)
		t.ackMs = append(t.ackMs, p.write.ackMs...)
		t.reachMs = append(t.reachMs, p.reachMs...)
		t.genLagMs = append(t.genLagMs, p.write.lagMs...)
	}
	return t
}

// searchTotals sums what the search phases it is given measured.
type searchTotals struct {
	tried, resolved, hits float64
	wall, cpuMs           float64
	ms                    []float64
}

func sumSearches(ps []*phaseResult) searchTotals {
	var t searchTotals
	for _, p := range ps {
		t.tried += float64(p.search.attempted)
		t.resolved += float64(p.search.attempted - p.search.failed)
		t.hits += float64(p.search.hits)
		t.wall += p.search.wall.Seconds()
		t.cpuMs += p.after.cpuMs - p.before.cpuMs
		t.ms = append(t.ms, p.search.ms...)
	}
	return t
}

// sampleCounts reports how many samples stand behind each timing.
func sampleCounts(r *runResult) map[string]int {
	out := map[string]int{"setup_s": len(r.setups)}
	for _, p := range r.where(isOpen) {
		out["commit_ack"] += len(p.write.ackMs)
		out["propagation"] += len(p.reachMs)
	}
	for _, p := range r.where(isClosedWrite) {
		out["commits"] += p.write.attempted
	}
	for _, p := range r.where(isSearch) {
		out["search"] += len(p.search.ms)
	}
	return out
}

// output is the last line a run prints.
type output struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}
