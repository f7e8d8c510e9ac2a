package main

import "fmt"

// catalogueEntry names one reported metric with its unit and the direction
// in which it improves. BENCHMARK.json carries the same lists (a test keeps
// them equal); README.md says which layer each belongs to and which
// end-to-end metric it should move.
type catalogueEntry struct{ name, unit, better string }

// endToEnd is reported by every untraced run of every workload.
var endToEnd = []catalogueEntry{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"disk_kb_per_op", "kB", "lower"},
}

// perLayer is reported by every traced run of every workload.
var perLayer = []catalogueEntry{
	{"client.requests_per_run", "count", "lower"},
	{"client.roundtrip_us", "us", "lower"},
	{"core.allocs_per_trial.bohb", "count", "lower"},
	{"core.allocs_per_trial.hb", "count", "lower"},
	{"core.allocs_per_trial.rs", "count", "lower"},
	{"core.allocs_per_trial.tpe", "count", "lower"},
	{"core.assemble_ms", "ms", "lower"},
	{"core.bank_file_bytes", "B", "lower"},
	{"core.evaluate_rows_allocs", "count", "lower"},
	{"core.evaluate_rows_ns_per_eval", "ns", "lower"},
	{"core.kernel_share.rs", "frac", "higher"},
	{"core.new_oracle_us", "us", "lower"},
	{"core.open_mapped_us", "us", "lower"},
	{"core.open_mapped_warm_us", "us", "lower"},
	{"core.plan_ms", "ms", "lower"},
	{"core.save_v4_ms", "ms", "lower"},
	{"core.store_amplification", "x", "lower"},
	{"core.store_get_us", "us", "lower"},
	{"core.store_put_ms", "ms", "lower"},
	{"core.train_range_ms_per_config", "ms", "lower"},
	{"core.train_range_speedup", "x", "higher"},
	{"core.trials_per_s.bohb", "1/s", "higher"},
	{"core.trials_per_s.hb", "1/s", "higher"},
	{"core.trials_per_s.rs", "1/s", "higher"},
	{"core.trials_per_s.tpe", "1/s", "higher"},
	{"data.generate_ms", "ms", "lower"},
	{"dist.sharded_build_ms", "ms", "lower"},
	{"dist.sharded_build_overhead_frac", "frac", "lower"},
	{"exper.bank_tasks_ms", "ms", "lower"},
	{"exper.drivers_ms", "ms", "lower"},
	{"exper.run_tune_overhead_us", "us", "lower"},
	{"fl.eval_clients_ms", "ms", "lower"},
	{"fl.round_allocs", "count", "lower"},
	{"fl.round_ms.cifar10", "ms", "lower"},
	{"fl.round_ms.femnist", "ms", "lower"},
	{"fl.round_ms.reddit", "ms", "lower"},
	{"fl.round_ms.stackoverflow", "ms", "lower"},
	{"harness.allprocs_cpu_ms_per_op", "ms", "lower"},
	{"harness.allprocs_op_p50_ms", "ms", "lower"},
	{"harness.allprocs_ops_per_s", "1/s", "higher"},
	{"harness.allprocs_speedup", "x", "higher"},
	{"harness.calib_drift_frac", "frac", "lower"},
	{"harness.calib_ms", "ms", "lower"},
	{"harness.op_p99_ms", "ms", "lower"},
	{"harness.trace_overhead_frac", "frac", "lower"},
	{"hpo.evals_per_trial.bohb", "count", "lower"},
	{"hpo.evals_per_trial.hb", "count", "lower"},
	{"hpo.evals_per_trial.rs", "count", "lower"},
	{"hpo.evals_per_trial.tpe", "count", "lower"},
	{"hpo.run_us_per_trial.bohb", "us", "lower"},
	{"hpo.run_us_per_trial.hb", "us", "lower"},
	{"hpo.run_us_per_trial.rs", "us", "lower"},
	{"hpo.run_us_per_trial.tpe", "us", "lower"},
	{"journal.append_disk_us", "us", "lower"},
	{"journal.append_us", "us", "lower"},
	{"journal.bytes_per_run", "B", "lower"},
	{"journal.compact_ms_per_10k", "ms", "lower"},
	{"journal.replay_ms_per_10k", "ms", "lower"},
	{"ledger.unaccounted_frac", "frac", "lower"},
	{"obs.metrics_render_us", "us", "lower"},
	{"serve.handler_dedup_us", "us", "lower"},
	{"serve.handler_get304_us", "us", "lower"},
	{"serve.handler_get_us", "us", "lower"},
	{"serve.handler_list_us", "us", "lower"},
	{"serve.handler_submit_us", "us", "lower"},
	{"serve.heap_bytes_per_run", "B", "lower"},
	{"serve.mix_dedup_p50_us", "us", "lower"},
	{"serve.mix_get304_p50_us", "us", "lower"},
	{"serve.mix_list_p50_us", "us", "lower"},
	{"serve.mix_write_p50_us", "us", "lower"},
	{"serve.result_body_bytes", "B", "lower"},
	{"serve.session_ask_tell_us", "us", "lower"},
	{"serve.session_open_us", "us", "lower"},
	{"serve.span_bank_lookup_us", "us", "lower"},
	{"serve.span_coverage", "frac", "higher"},
	{"serve.span_journal_append_us", "us", "lower"},
	{"serve.span_oracle_trials_us", "us", "lower"},
	{"serve.span_queue_wait_us", "us", "lower"},
	{"serve.span_response_encode_us", "us", "lower"},
	{"tensor.matmul_nt_ns_per_mac", "ns", "lower"},
}

// checkCatalogue requires got to hold exactly the catalogue's metrics, with
// their units: the driver refuses a run that omits or adds one.
func checkCatalogue(got map[string]metric, want []catalogueEntry) error {
	for _, e := range want {
		m, ok := got[e.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", e.name)
		}
		if m.Unit != e.unit {
			return fmt.Errorf("metric %s has unit %q, catalogue says %q", e.name, m.Unit, e.unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("run reports %d metrics, catalogue lists %d", len(got), len(want))
	}
	return nil
}
