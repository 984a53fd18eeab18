package main

import (
	"fmt"
	"sort"

	"filterdir/internal/metrics"
)

// layerUnits names every per-layer metric and its unit. "live" figures are
// counter deltas over a phase of the traced run; "ladder" figures come from
// the replay in ladder.go. The list is the per_layer list of BENCHMARK.json.
var layerUnits = map[string]string{
	"ber.parse_ns_per_pdu": "ns", "ber.allocs_per_pdu": "count",
	"proto.decode_ns_per_pdu": "ns", "proto.encode_ns_per_pdu": "ns", "proto.encode_tail_ns_per_pdu": "ns",
	"proto.allocs_per_pdu": "count", "proto.bytes_per_pdu": "B",
	"dn.parse_ns": "ns", "dn.issuffix_ns": "ns", "dn.issuffix_allocs": "count",
	"entry.clone_ns": "ns", "entry.equalvalues_ns": "ns",
	"filter.parse_ns": "ns", "filter.match_ns": "ns", "filter.match_allocs": "count",
	"containment.check_ns": "ns", "containment.plan_hit_ratio": "ratio",
	"dit.commit_us": "us", "dit.search_us": "us", "dit.snapshot_us_per_kentry": "us",
	"dit.batch_avg": "count", "dit.batch_max": "count", "dit.shard_clones_per_commit": "count",
	"resync.groups": "count", "resync.poll_us_per_session": "us", "resync.begin_us_per_kentry": "us",
	"resync.classify_us_avg": "us", "resync.classify_dedup_ratio": "ratio", "resync.enc_dedup_ratio": "ratio",
	"resync.pdus_per_commit": "count", "resync.suppressed_per_commit": "count",
	"resync.coalesced_cycles": "count", "resync.slow_demotions": "count",
	"resync.full_reloads": "count", "resync.chunks": "count", "resync.resumes": "count",
	"ldapnet.stub_rtt_us": "us", "ldapnet.write_overhead_us": "us", "ldapnet.search_overhead_us": "us",
	"ldapnet.master_tx_bytes_per_commit": "B", "ldapnet.master_tx_writes_per_commit": "count",
	"ldapnet.bytes_per_write": "B", "ldapnet.queue_max": "count", "ldapnet.conns": "count",
	"replica.apply_us_per_update": "us", "replica.answer_hit_us": "us", "replica.answer_miss_us": "us",
	"replica.cache_hit_ratio": "ratio",
	"supervisor.batch_avg":    "count", "supervisor.exchanges_per_commit": "count",
	"supervisor.fallbacks": "count", "supervisor.demotions": "count", "supervisor.full_reloads": "count",
	"cascade.hop1_p50_ms": "ms", "cascade.hop2_p50_ms": "ms", "cascade.admit_us": "us",
	"cascade.master_pdus_per_commit": "count", "cascade.leaf_pdus_per_commit": "count",
	"persist.append_us_per_change": "us", "persist.checkpoint_ms": "ms",
	"proc.cpu_us_per_search": "us", "proc.alloc_bytes_per_op": "B", "proc.allocs_per_op": "count",
	"proc.gc_cycles": "count", "proc.gc_pause_ms": "ms", "proc.rss_peak_mb": "MB", "proc.goroutines_peak": "count",
	"rig.gen_lag_p95_ms": "ms", "rig.drain_ms": "ms", "rig.trace_overhead_pct": "%", "rig.ladder_coverage": "ratio",
	"rig.failed_ops_ratio":   "ratio",
	"tail.commit_ack_p99_ms": "ms", "tail.propagation_p99_ms": "ms", "tail.propagation_max_ms": "ms",
	"tail.search_p99_ms": "ms",
	// End-to-end figures of ISSUE 12 that are reported, not gated: on the
	// 2-core calibration host neither their spread across seeds nor the
	// drift of their median between two back-to-back sets stays safely inside
	// the largest bound the contract allows (README.md, "Metrics moved out
	// of the gate"). The unprefixed names stay reserved.
	"ungated.commit_ack_p50_ms": "ms", "ungated.commit_ack_p95_ms": "ms",
	"ungated.propagation_p50_ms": "ms", "ungated.propagation_p95_ms": "ms",
	"ungated.commits_per_s": "1/s", "ungated.cpu_ms_per_commit": "ms",
	"ungated.searches_per_s": "1/s", "ungated.search_p50_ms": "ms", "ungated.search_p95_ms": "ms",
	"ungated.reload_entries_per_s": "1/s",
}

// classifyPerCommit is an intermediate of the cost model (ns of master-side
// classification per commit), not a reported metric.
const classifyPerCommit = "_classify_ns_per_commit"

// checkpointsPerCommit is the other intermediate: durable leaf checkpoints
// written per commit (0 without a StateDir).
const checkpointsPerCommit = "_checkpoints_per_commit"

func classifyNanos(s metrics.SyncSnapshot) float64 {
	return float64(s.AvgClassify) * float64(s.Classifies)
}

// tracedOpen sums what the traced open-loop phases of a run measured: the
// writer's totals plus the deltas of the program's own counters.
type tracedOpen struct {
	writeTotals
	classifyNs, classifies               float64
	hits, misses, enc, dedup             float64
	pdus, suppressed, coalesced, demote  float64
	txWrites                             float64
	applied, batches, polls, checkpoints float64
	hop1, hop2                           []float64
}

func sumOpen(ps []*phaseResult) tracedOpen {
	o := tracedOpen{writeTotals: sumWrites(ps)}
	for _, p := range ps {
		b, a := p.before, p.after
		m0, m1 := b.masterSync, a.masterSync
		o.classifyNs += classifyNanos(m1) - classifyNanos(m0)
		o.classifies += float64(m1.Classifies - m0.Classifies)
		o.hits += float64(m1.SharedClassifyHits - m0.SharedClassifyHits)
		o.misses += float64(m1.SharedClassifyMisses - m0.SharedClassifyMisses)
		o.enc += float64(m1.StreamEncodes - m0.StreamEncodes)
		o.dedup += float64(m1.StreamDedupPDUs - m0.StreamDedupPDUs)
		o.pdus += float64(m1.StreamedPDUs - m0.StreamedPDUs)
		o.suppressed += float64(m1.SuppressedModifies - m0.SuppressedModifies)
		o.coalesced += float64(m1.CoalescedCycles - m0.CoalescedCycles)
		o.demote += float64(m1.SlowDemotions - m0.SlowDemotions)
		o.txWrites += float64(a.replWrites - b.replWrites)
		o.applied += float64(a.leaf.UpdatesApplied - b.leaf.UpdatesApplied)
		o.batches += float64(a.leaf.StreamBatches - b.leaf.StreamBatches)
		o.polls += float64(a.leaf.Polls - b.leaf.Polls)
		o.checkpoints += float64(a.leaf.Checkpoints - b.leaf.Checkpoints)
		o.hop2 = append(o.hop2, p.hop2Ms...)
		for _, c := range p.ops {
			if at := c.midAt.Load(); at != 0 {
				o.hop1 = append(o.hop1, float64(at-c.due.UnixNano())/1e6)
			}
		}
	}
	return o
}

// perLayer derives the ungated per-layer metrics from a traced run. Every
// name in layerUnits is reported on every workload; a figure that does not
// apply (hop times without mid-tiers, commits_per_s without a closed-loop
// phase) reads 0. Live counter figures come from the traced half of the
// open-loop phase; timings and throughputs from the untraced halves.
func perLayer(r *runResult) metricSet {
	v := map[string]float64{}
	for k, x := range r.ladder {
		v[k] = x
	}
	traced := func(p *phaseResult) bool { return p.traced }

	o := sumOpen(r.where(func(p *phaseResult) bool { return isOpen(p) && traced(p) }))
	v["resync.classify_us_avg"] = ratio(o.classifyNs/1e3, o.classifies)
	v[classifyPerCommit] = ratio(o.classifyNs, o.commits)
	v["resync.classify_dedup_ratio"] = ratio(o.hits, o.hits+o.misses)
	v["resync.enc_dedup_ratio"] = ratio(o.dedup, o.enc+o.dedup)
	v["resync.pdus_per_commit"] = ratio(o.pdus, o.commits)
	v["resync.suppressed_per_commit"] = ratio(o.suppressed, o.commits)
	v["resync.coalesced_cycles"] = o.coalesced
	v["resync.slow_demotions"] = o.demote
	v["ldapnet.master_tx_bytes_per_commit"] = ratio(o.txBytes, o.commits)
	v["ldapnet.master_tx_writes_per_commit"] = ratio(o.txWrites, o.commits)
	v["ldapnet.bytes_per_write"] = ratio(o.txBytes, o.txWrites)
	v["supervisor.batch_avg"] = ratio(o.applied, o.batches+o.polls)
	v["supervisor.exchanges_per_commit"] = ratio(o.batches+o.polls, o.commits)
	v[checkpointsPerCommit] = ratio(o.checkpoints, o.commits)
	v["cascade.master_pdus_per_commit"] = ratio(o.pdus, o.commits)
	v["cascade.leaf_pdus_per_commit"] = ratio(o.applied, o.commits)
	v["cascade.hop1_p50_ms"] = percentile(o.hop1, 50)
	v["cascade.hop2_p50_ms"] = percentile(o.hop2, 50)

	// Timings and throughputs come from the halves that record no spans.
	untraced := func(p *phaseResult) bool { return !p.traced }
	base := sumWrites(r.where(func(p *phaseResult) bool { return isOpen(p) && untraced(p) }))
	v["rig.gen_lag_p95_ms"] = percentile(base.genLagMs, 95)
	v["ungated.commit_ack_p50_ms"] = median(base.ackMs)
	v["ungated.commit_ack_p95_ms"] = percentile(base.ackMs, 95)
	v["tail.commit_ack_p99_ms"] = percentile(base.ackMs, 99)
	v["ungated.propagation_p50_ms"] = median(base.reachMs)
	v["ungated.propagation_p95_ms"] = percentile(base.reachMs, 95)
	v["tail.propagation_p99_ms"] = percentile(base.reachMs, 99)
	v["tail.propagation_max_ms"] = maxOf(base.reachMs)

	tracedCPU, baseCPU := ratio(o.cpuMs, o.commits), ratio(base.cpuMs, base.commits)
	v["ungated.cpu_ms_per_commit"] = baseCPU
	v["rig.trace_overhead_pct"] = 100 * ratio(tracedCPU-baseCPU, baseCPU)
	v["rig.ladder_coverage"] = ratio(coverage(v).total, tracedCPU*1e6)

	closed := r.where(isClosedWrite)
	c := sumWrites(closed)
	v["ungated.commits_per_s"] = ratio(c.commits, c.wall)
	for _, p := range closed {
		if p.drainMs > v["rig.drain_ms"] {
			v["rig.drain_ms"] = p.drainMs
		}
	}
	s := sumSearches(r.where(func(p *phaseResult) bool { return isSearch(p) && untraced(p) }))
	v["proc.cpu_us_per_search"] = ratio(s.cpuMs*1e3, s.tried)
	v["ungated.searches_per_s"] = ratio(s.resolved, s.wall)
	v["ungated.search_p50_ms"] = median(s.ms)
	v["ungated.search_p95_ms"] = percentile(s.ms, 95)
	v["tail.search_p99_ms"] = percentile(s.ms, 99)
	var reloadRate []float64
	for _, s := range r.setups {
		reloadRate = append(reloadRate, ratio(float64(s.reloadEntries), s.reloadSeconds))
	}
	v["ungated.reload_entries_per_s"] = median(reloadRate)

	w0, w1 := r.window[0], r.window[1]
	d0, d1 := w0.masterDit, w1.masterDit
	v["dit.batch_avg"] = ratio(float64(d1.BatchedOps-d0.BatchedOps), float64(d1.Batches-d0.Batches))
	v["dit.batch_max"] = float64(d1.MaxBatch)
	v["dit.shard_clones_per_commit"] = ratio(float64(d1.ShardClones-d0.ShardClones), float64(d1.BatchedOps-d0.BatchedOps))
	v["resync.groups"] = float64(r.groups)
	v["resync.full_reloads"] = float64(w1.masterSync.FullReloads + w1.midSync.FullReloads)
	v["resync.chunks"] = float64(w1.masterSync.ReloadChunks + w1.midSync.ReloadChunks)
	v["resync.resumes"] = float64(w1.masterSync.Resumes + w1.midSync.Resumes)
	v["ldapnet.queue_max"] = float64(r.queueMax)
	v["ldapnet.conns"] = float64(r.conns)
	v["supervisor.fallbacks"] = float64(w1.leaf.Fallbacks - w0.leaf.Fallbacks)
	v["supervisor.demotions"] = float64(w1.leaf.Demotions - w0.leaf.Demotions)
	v["supervisor.full_reloads"] = float64(w1.leaf.FullReloads)
	v["replica.cache_hit_ratio"] = 0 // nothing on the wire path fills the user-query cache; see README
	v["cascade.admit_us"] = r.admitUs

	ops := float64(r.attempted)
	v["proc.alloc_bytes_per_op"] = ratio(float64(w1.mem.TotalAlloc-w0.mem.TotalAlloc), ops)
	v["proc.allocs_per_op"] = ratio(float64(w1.mem.Mallocs-w0.mem.Mallocs), ops)
	v["proc.gc_cycles"] = float64(w1.mem.NumGC - w0.mem.NumGC)
	v["proc.gc_pause_ms"] = float64(w1.mem.PauseTotalNs-w0.mem.PauseTotalNs) / 1e6
	v["proc.rss_peak_mb"] = peakRSSMB()
	v["proc.goroutines_peak"] = float64(r.goroutinesPeak)
	v["rig.failed_ops_ratio"] = ratio(float64(r.failed), ops)

	// Median span self times: what the client saw minus what the backend
	// spent is wire, codec and write queue.
	v["ldapnet.write_overhead_us"] = r.spanSelf["client.write"] / 1e3
	v["ldapnet.search_overhead_us"] = r.spanSelf["client.search"] / 1e3

	r.top = topCosts(v)
	out := metricSet{}
	for name, unit := range layerUnits {
		out.put(name, unit, v[name])
	}
	return out
}

// cost is one term of the per-commit cost model.
type cost struct {
	name string
	ns   float64
}

type costModel struct {
	terms []cost
	total float64
}

// coverage multiplies each ladder rung by how often the traced open-loop
// phase called it per commit, as far as the live counters can tell. The sum
// over cpu_ms_per_commit is ROADMAP item 1's "rungs add up" figure; it is
// reported, not gated — the model counts the calls the counters expose,
// not every call the program makes.
func coverage(v map[string]float64) costModel {
	pdus := v["cascade.leaf_pdus_per_commit"] // PDUs decoded and applied downstream
	writes := v["ldapnet.master_tx_writes_per_commit"]
	encDedup := v["resync.enc_dedup_ratio"]
	sent := v["resync.pdus_per_commit"]
	m := costModel{terms: []cost{
		{"dit commit (dit.commit_us × 1)", v["dit.commit_us"] * 1e3},
		{"resync classify (live classify time per commit)", v[classifyPerCommit]},
		{"proto decode (request, response, every PDU at its consumer)", v["proto.decode_ns_per_pdu"] * (2 + pdus)},
		{"proto encode (request, response, first copy of each PDU)", v["proto.encode_ns_per_pdu"] * (2 + sent*(1-encDedup))},
		{"proto shared-tail encode (deduplicated PDUs)", v["proto.encode_tail_ns_per_pdu"] * sent * encDedup},
		{"replica apply (replica.apply_us_per_update × PDUs)", v["replica.apply_us_per_update"] * 1e3 * pdus},
		{"ldapnet wire (half a stub round trip per socket write)", v["ldapnet.stub_rtt_us"] * 1e3 / 2 * (2 + writes)},
		{"persist checkpoint (persist.checkpoint_ms × leaf checkpoints)", v["persist.checkpoint_ms"] * 1e6 * v[checkpointsPerCommit]},
	}}
	for _, t := range m.terms {
		m.total += t.ns
	}
	sort.Slice(m.terms, func(i, j int) bool { return m.terms[i].ns > m.terms[j].ns })
	return m
}

// topCosts renders the three largest per-commit terms — the written
// profile ROADMAP item 1 asks for.
func topCosts(v map[string]float64) []string {
	m := coverage(v)
	out := []string{fmt.Sprintf("per-commit cost model: %.0f µs explained, coverage %.2f of measured CPU",
		m.total/1e3, v["rig.ladder_coverage"])}
	for i, t := range m.terms {
		if i >= 3 {
			break
		}
		out = append(out, fmt.Sprintf("top %d: %-62s %8.1f µs", i+1, t.name, t.ns/1e3))
	}
	return out
}
