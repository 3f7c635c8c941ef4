package main

// metricDef names one reported number. BENCHMARK.json at the repository
// root carries the same lists; TestBenchmarkJSONMatches holds them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, measured on untraced runs.
// Every workload reports every one of them. Bound is the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression. The issue asked for 10% on the times; README.md has
// the measurements that made every bound as wide as the contract allows.
//
// protocol_work repeats exactly for a seed, but over ten seeds its
// quartiles lie 7 to 14% of the median apart, and the driver refuses a
// benchmark whose spread over seeds exceeds the bound: that, not noise,
// sets its bound here. Seed for seed it is held to protocolBound.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.20},
	{"protocol_work", "ratio", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// protocolBound is the issue's 5% on protocol_work, applied where the
// seed is the same on both sides: the full run compares each workload's
// value with the one bench/baseline.json records for its seed, and
// -agree requires the two sets to be identical seed for seed.
const protocolBound = 0.05

// perLayer is the ledger, measured on the traced run. A layer that does
// no work on a workload reports 0 there; a probe that could not run
// reports 0 and is listed under layer_errors.
var perLayer = func() []metricDef {
	var all []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			all = append(all, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	lower := func(unit string, names ...string) { add("lower", unit, names...) }
	higher := func(unit string, names ...string) { add("higher", unit, names...) }

	lower("count", "experiments.variants")
	lower("s", "experiments.phase_total_s", "experiments.startup_s")
	higher("ratio", "experiments.parallel_efficiency")
	lower("B", "experiments.tsv_bytes")
	lower("ratio", "experiments.supervised_wall_ratio")

	lower("s", "sim.walk_s", "sim.merge_s", "sim.transfer_drain_s", "sim.evaluation_s",
		"sim.maintenance_s", "sim.phase_total_s", "sim.new_s", "sim.unattributed_s")
	lower("ms", "sim.round_ms_p50", "sim.round_ms_p99", "sim.round_ms_max")
	lower("count", "sim.allocs_per_round")
	lower("MiB", "sim.heap_mib_end")
	for _, row := range gridRows {
		lower("s", row+".wall_s", row+".walk_s", row+".merge_s", row+".maintenance_s")
	}
	higher("ratio", "sim.shard_speedup")

	lower("count", "churn.events", "churn.deaths", "maintenance.repairs", "maintenance.stalls",
		"maintenance.cancels", "redundancy.changes", "overlay.final_placements",
		"transfer.ttb_n", "transfer.ttr_n", "transfer.restores_failed")
	lower("us", "maintenance.us_per_repair", "redundancy.target_us", "redundancy.durability_us")
	lower("ns", "monitor.uptime_ns", "selection.score_ns", "selection.agree_ns",
		"overlay.flip_ns", "rng.uint64_ns")

	lower("s", "backup.collect_s", "backup.pack_s", "backup.keygen_s", "backup.encode_s",
		"storage.put_s", "storage.get_s", "backup.decode_s", "backup.unpack_s", "backup.writedir_s")
	lower("ratio", "storage.bytes_stored_per_user_byte")
	higher("MiB/s", "live.backup_mib_per_s", "live.restore_mib_per_s",
		"erasure.encode_mib_per_s", "erasure.reconstruct_mib_per_s", "gf256.muladd_mib_per_s",
		"backup.seal_mib_per_s", "backup.open_mib_per_s")

	lower("ratio", "trace_overhead_share")
	higher("ratio", "trace_coverage")
	return all
}()

// gridRows are the engine generation x shard count cells of the
// sim-paper-churn grid; sN is S = P.
var gridRows = []string{"sim.v1_s1", "sim.v1_sN", "sim.v3_s1", "sim.v3_sN"}
