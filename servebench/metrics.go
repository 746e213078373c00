package main

// metricDef names one reported metric and its unit. The lists match
// BENCHMARK.json; the package test checks that they do.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the served system sees, measured with
// tracing off, and gated with a bound: setup cost, median latency,
// answer quality and size. fail_frac is printed beside them and carried
// in the result line's attempted and failed counts.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"knn_p50_ms", "ms"},
	{"recall_at_10", "ratio"},
	{"bytes_per_live_row", "B"},
	{"live_heap_mb", "MB"},
}

// ungated are end-to-end metrics that host CPU steal moves by more than
// any bound a gate may hold (README.md): throughput, write latency and
// the tails. Every run prints them; they are reported, without a bound,
// with the per-layer metrics.
var ungated = []metricDef{
	{"knn_qps", "1/s"},
	{"knn_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
}

// perLayer is what the traced run reports: the ungated end-to-end
// metrics, timings of single public calls from the replay, and deltas
// of the layers' own counters over the timed window.
var perLayer = append(append([]metricDef(nil), ungated...), []metricDef{
	{"client.ping_us", "us"},
	{"server.dispatch_us", "us"},
	{"server.rejected", "count"},
	{"server.timeouts", "count"},
	{"server.errors", "count"},
	{"sql.parse_us", "us"},
	{"sql.plan_us", "us"},
	{"sql.run_ms", "ms"},
	{"sql.exec_us", "us"},
	{"sql.insert_ms", "ms"},
	{"sql.delete_ms", "ms"},
	{"sql.update_ms", "ms"},
	{"batch.queries_per_probe", "queries/probe"},
	{"batch.multirun_ms", "ms"},
	{"batch.wait_us", "us"},
	{"batch.cpu_util", "ratio"},
	{"am.search_ms", "ms"},
	{"am.multisearch_ms", "ms"},
	{"am.pins_per_query", "pins/query"},
	{"am.insert_us", "us"},
	{"am.delete_us", "us"},
	{"heap.fetch_us", "us"},
	{"heap.insert_us", "us"},
	{"heap.scan_ms", "ms"},
	{"heap.dead_frac", "ratio"},
	{"buffer.hit_rate", "ratio"},
	{"buffer.evictions_per_s", "1/s"},
	{"buffer.writebacks_per_s", "1/s"},
	{"buffer.lock_waits_per_s", "1/s"},
	{"vec.l2sqr_ns_per_cand", "ns"},
	{"vec.dotsq8_ns_per_cand", "ns"},
	{"wal.bytes_per_row", "B/row"},
	{"storage.write_amp", "ratio"},
	{"maint.vacuum_ms", "ms"},
	{"maint.reclaimed", "count"},
	{"setup.load_s", "s"},
	{"setup.train_s", "s"},
	{"setup.add_s", "s"},
	{"trace.overhead_frac", "ratio"},
}...)

// layerFromTrace derives the replay-measured per-layer metrics from the
// recorded spans. untraced holds the wire latencies (ns) of the
// untraced copy of each replayed request.
func layerFromTrace(tr *tracer, untraced []float64, into map[string]float64) {
	p50 := func(name string) float64 { return median(tr.durs(name)) }
	sum := func(name string) map[int]float64 { return tr.perReq(name, false) }
	mean := func(name string) map[int]float64 { return tr.perReq(name, true) }
	// self is the median over requests of a layer's time minus the time
	// of the calls it contains, each measured on its own, in ns.
	self := func(outer map[int]float64, inner ...map[int]float64) float64 {
		var out []float64
		for req, d := range outer {
			for _, m := range inner {
				d -= m[req]
			}
			out = append(out, d)
		}
		return median(out)
	}
	into["client.ping_us"] = p50("client.ping") / 1e3
	into["server.dispatch_us"] = self(sum("client.execute"), sum("batch.session_execute")) / 1e3
	into["sql.parse_us"] = p50("sql.parse") / 1e3
	into["sql.plan_us"] = self(sum("sql.execute_or_plan"), mean("sql.parse")) / 1e3
	into["sql.run_ms"] = p50("sql.run") / 1e6
	into["sql.exec_us"] = self(sum("sql.run"), sum("am.search"), sum("heap.fetch")) / 1e3

	into["sql.insert_ms"] = p50("sql.insert") / 1e6
	into["sql.delete_ms"] = p50("sql.delete") / 1e6
	into["sql.update_ms"] = p50("sql.update") / 1e6
	into["batch.multirun_ms"] = p50("batch.multirun") / 1e6
	into["batch.wait_us"] = self(mean("batch.submit"), mean("batch.multirun")) / 1e3
	into["am.search_ms"] = p50("am.search") / 1e6
	into["am.multisearch_ms"] = p50("am.multisearch") / 1e6
	into["am.pins_per_query"] = median(tr.counts("am.search"))
	into["am.insert_us"] = p50("am.insert") / 1e3
	into["am.delete_us"] = p50("am.delete") / 1e3
	into["heap.fetch_us"] = p50("heap.fetch") / 1e3
	into["heap.insert_us"] = p50("heap.insert") / 1e3
	into["heap.scan_ms"] = p50("heap.scan") / 1e6
	into["vec.l2sqr_ns_per_cand"] = tr.perCount("vec.l2sqr_batch")
	into["vec.dotsq8_ns_per_cand"] = tr.perCount("vec.dotsq8_batch")
	into["maint.vacuum_ms"] = p50("maint.vacuum") / 1e6
	into["maint.reclaimed"] = median(tr.counts("maint.vacuum"))
	if base := median(untraced); base > 0 {
		into["trace.overhead_frac"] = p50("client.execute")/base - 1
	}
}
