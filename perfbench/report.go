package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bench/harness"
)

// phaseStats gathers the client-side observations of a timed phase.
type phaseStats struct {
	steps    int
	timed    []*stepRecord
	result   samples // per step: first EMIT → end of the POLLs delivering its boundary
	query    samples
	writeAck samples // EMIT and ADVANCE
	byKind   map[string]samples
	pollRows int
	calls    int
}

func statsOf(p *phase) *phaseStats {
	st := &phaseStats{byKind: map[string]samples{}}
	for _, r := range p.s.steps {
		if !r.timed {
			continue
		}
		st.steps++
		st.timed = append(st.timed, r)
		// Every sample ends at the return of the last POLL of the step that
		// delivered the boundary's rows (its own step if the firing was
		// empty), whichever query's POLL carried them.
		end := r.polled
		if r.deliveredIn != nil {
			end = r.deliveredIn.polled
		}
		if !end.IsZero() {
			st.result = append(st.result, end.Sub(r.start))
		}
	}
	for _, c := range p.s.calls {
		st.calls++
		if c.err != nil {
			continue
		}
		st.byKind[c.kind] = append(st.byKind[c.kind], c.dur)
		switch c.kind {
		case "query":
			st.query = append(st.query, c.dur)
		case "emit", "advance":
			st.writeAck = append(st.writeAck, c.dur)
		}
	}
	st.pollRows = p.s.polledRows
	return st
}

// rate returns items per second over the whole timed phase. The graph
// grows through a run, so late steps are slower than early ones and any part
// of a run is a noisier sample of it than the whole.
func rate(p *phase, steps []*stepRecord, items func(*stepRecord) int) float64 {
	n := 0
	for _, r := range steps {
		n += items(r)
	}
	return ratio(float64(n), p.elapsed.Seconds())
}

func tuplesOf(r *stepRecord) int {
	n := 0
	for _, b := range r.in.batches {
		n += len(b.tuples)
	}
	return n
}

func answeredOf(r *stepRecord) int { return r.answered }

// wallShares describes how the timed loop's wall time splits over call
// kinds; the rest is the benchmark's own work between calls.
func wallShares(p *phase) string {
	st := statsOf(p)
	var kinds []string
	for k := range st.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, "%s %.1f%%, ", k, 100*ratio(st.byKind[k].sum().Seconds(), p.elapsed.Seconds()))
	}
	return strings.TrimSuffix(b.String(), ", ")
}

// endToEnd fills the metrics a user of the system sees. Latency percentiles
// pool every sample of the timed phase.
func endToEnd(p *phase, out map[string]metric) {
	st := statsOf(p)
	var mallocs int64
	for i := range p.after {
		mallocs += p.after[i].mem.Mallocs - p.before[i].mem.Mallocs
	}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", harness.Median(p.setups).Seconds())
	put("tuples_per_s", "1/s", rate(p, st.timed, tuplesOf))
	put("result_p50_ms", "ms", ms(harness.Percentile(st.result, 50)))
	put("result_p95_ms", "ms", ms(harness.Percentile(st.result, 95)))
	put("queries_per_s", "1/s", rate(p, st.timed, answeredOf))
	put("query_p50_us", "us", us(harness.Percentile(st.query, 50)))
	put("query_p95_us", "us", us(harness.Percentile(st.query, 95)))
	put("write_ack_p50_us", "us", us(harness.Percentile(st.writeAck, 50)))
	put("write_ack_p95_us", "us", us(harness.Percentile(st.writeAck, 95)))
	put("daemon_allocs_per_op", "count", ratio(float64(mallocs), float64(st.calls)))
	put("daemon_heap_mb", "MB", float64(p.heapBytes)/(1<<20))
}

// perLayer fills the per-layer metrics: counters from the untraced phase
// (plain), span self times from the traced one.
func perLayer(plain, traced *phase, bd *breakdown, out map[string]metric) {
	st := statsOf(plain)
	d := plain.delta
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	steps := float64(st.steps)
	calls := float64(st.calls)
	queries := float64(len(st.query))
	writes := float64(len(st.writeAck))
	firings := d("cq_executions_total")
	batches := d("stream_batches_total")
	stageSum := func(stage string) float64 { return d("stage_" + stage + "_latency_ns_sum") }
	stageMean := func(stage string) float64 {
		return ratio(stageSum(stage), d("stage_"+stage+"_latency_ns_count"))
	}

	// client
	put("client.emit_us", "us", us(st.byKind["emit"].mean()))
	put("client.advance_ms", "ms", ms(st.byKind["advance"].mean()))
	put("client.poll_ms_per_step", "ms", ratio(ms(st.byKind["poll"].sum()), steps))
	put("client.bytes_per_op", "B", ratio(float64(plain.s.sentBytes+plain.s.recvBytes), calls))
	put("client.query_share", "ratio", ratio(st.query.sum().Seconds(), plain.elapsed.Seconds()))
	// server
	put("server.unattributed_us_per_query", "us", ratio(us(st.query.sum())-stageSum("oneshot")/1e3, queries))
	put("server.buffer_us_per_firing", "us", stageMean("emit")/1e3)
	put("server.poll_rows_per_step", "count", ratio(float64(st.pollRows), steps))
	// core
	put("core.advance_ms_per_step", "ms", ratio(stageSum("advance")/1e6, steps))
	put("core.gc_ms_per_step", "ms", ratio(stageSum("gc")/1e6, steps))
	put("core.trigger_ms_per_step", "ms", ratio(stageSum("trigger")/1e6, steps))
	put("core.cq_firing_us", "us", stageMean("cq_trigger_to_emit")/1e3)
	put("core.cq_exec_us", "us", stageMean("execute")/1e3)
	put("core.delta_share", "ratio", ratio(d("cq_delta_firings_total"), firings))
	put("core.oneshot_us", "us", stageMean("oneshot")/1e3)
	forkjoin := d(`plan_mode_total{mode="fork-join"}`)
	put("core.forkjoin_share", "ratio", ratio(forkjoin, forkjoin+d(`plan_mode_total{mode="in-place"}`)))
	// stream, stream index, transient store, VTS
	put("stream.dispatch_us_per_batch", "us", ratio(stageSum("dispatch")/1e3, batches))
	put("stream.inject_us_per_batch", "us", ratio(d("stream_inject_ns_total")/1e3, batches))
	put("sindex.index_us_per_batch", "us", ratio(d("stream_index_ns_total")/1e3, batches))
	put("sindex.lookups_per_firing", "count", ratio(d("sindex_lookups_total"), firings))
	put("tstore.reads_per_firing", "count", ratio(d("tstore_gets_total"), firings))
	put("vts.prefix_wait_us_per_firing", "us", ratio(d("vts_prefix_wait_ns_sum")/1e3, firings))
	// store and fabric
	put("store.reads_per_query", "count", ratio(d("store_reads_total"), queries))
	put("store.span_reads_per_firing", "count", ratio(d("store_span_reads_total"), firings))
	var entries float64
	if len(plain.after) > 0 {
		entries = family(plain.after[0].m, "store_entries")
	}
	put("store.entries", "count", entries)
	put("fabric.rdma_reads_per_op", "count", ratio(d("fabric_rdma_reads_total"), calls))
	put("fabric.rpcs_per_op", "count", ratio(d("fabric_rpcs_total"), calls))
	put("fabric.bytes_per_op", "B", ratio(d("fabric_bytes_read_total")+d("fabric_bytes_rpc_total"), calls))
	// cluster and wire: only a clustered workload has these layers
	if plain.s.members > 1 {
		fwd := d("cluster_queries_forwarded_total")
		put("cluster.forwarded_share", "ratio", ratio(fwd, fwd+d("cluster_queries_local_total")+d("cluster_queries_scattered_total")))
		put("wire.frames_per_op", "count", ratio(d("wire_frames_sent_total"), calls))
		put("cluster.duplicate_ops_per_write", "count", ratio(d("cluster_ops_duplicate_total"), writes))
		tq := float64(len(statsOf(traced).query))
		tw := float64(len(statsOf(traced).writeAck))
		put("cluster.forward_self_us", "us", ratio(us(bd.byKind["query"]["cluster.forward"]), tq))
		writeSelf := func(span string) time.Duration { return bd.byKind["emit"][span] + bd.byKind["advance"][span] }
		put("cluster.replicate_self_us", "us", ratio(us(writeSelf("seed.replicate")), tw))
		put("cluster.apply_self_us", "us", ratio(us(writeSelf("seed.apply")+writeSelf("replica.apply")), tw))
	}
	// process
	var cpu time.Duration
	var gcs int64
	for i := range plain.after {
		cpu += plain.after[i].cpu - plain.before[i].cpu
		gcs += plain.after[i].mem.NumGC - plain.before[i].mem.NumGC
	}
	put("daemon.cpu_ms_per_op", "ms", ratio(ms(cpu), calls))
	put("daemon.gc_cycles_per_op", "count", ratio(float64(gcs), calls))
	// faults the daemons counted (retries hidden by the client show here)
	faults, spans := faultCounters, tracedSpans
	if plain.s.members > 1 {
		faults = append(faults, clusterFaults...)
		spans = append(spans, clusterSpans...)
	}
	for _, name := range faults {
		put("fault."+name, "count", d(name)+traced.delta(name))
	}
	// traced run: self time per span and the unattributed residual, per
	// traced call, and the tracing overhead on mean step time
	tcalls := float64(bd.calls)
	for _, name := range spans {
		put("span."+name+".self_us", "us", ratio(us(bd.self[name]), tcalls))
	}
	put("span.unattributed_us", "us", ratio(us(bd.unattributed), tcalls))
	tst := statsOf(traced)
	plainStep := ratio(plain.elapsed.Seconds(), steps)
	tracedStep := ratio(traced.elapsed.Seconds(), float64(tst.steps))
	put("trace.overhead_pct", "%", 100*(ratio(tracedStep, plainStep)-1))
	// host: how much of the machine the hypervisor took away meanwhile
	put("host.steal_pct", "%", plain.stealPct)
}
