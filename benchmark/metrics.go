package main

// metricSpec names one metric and its unit. BENCHMARK.json repeats these
// with direction and bound; the tests hold the two lists together.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists what a user of the federation would see, in print order.
// Each is the median over a run's reps of the per-rep value.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"rounds_per_s", "1/s"},
	{"round_ms_p50", "ms"},
	{"cpu_ms_per_round", "ms"},
	{"time_to_target_s", "s"},
	{"rounds_to_target", "count"},
	{"bytes_to_target", "B"},
	{"final_acc", "fraction"},
	{"up_bytes_per_round", "B"},
	{"down_bytes_per_round", "B"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_round", "MB"},
}

// perLayer lists the traced run's attribution, one group per package under
// internal/. A metric that does not apply to a workload reports 0 there.
var perLayer = []metricSpec{
	{"tensor.calib_gemm_ms", "ms"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"nn.flatten_ms", "ms"},
	{"models.build_ms", "ms"},
	{"loss.ce_ms", "ms"},
	{"loss.supcon_ms", "ms"},
	{"loss.proximal_ms", "ms"},
	{"opt.step_ms", "ms"},
	{"opt.steps", "count"},
	{"data.generate_ms", "ms"},
	{"data.partition_ms", "ms"},
	{"data.batch_ms", "ms"},
	{"data.lazy_client_ms", "ms"},
	{"algo.round_ms", "ms"},
	{"algo.dispatch_ms", "ms"},
	{"algo.local_ms", "ms"},
	{"algo.apply_ms", "ms"},
	{"algo.commit_ms", "ms"},
	{"algo.prereduce_ms", "ms"},
	{"algo.local_calls", "count"},
	{"fl.engine_self_ms", "ms"},
	{"fl.eval_ms", "ms"},
	{"fl.round_ms_p95", "ms"},
	{"fl.round_samples", "count"},
	{"fl.fold_ms", "ms"},
	{"fl.commit_ms", "ms"},
	{"fl.exact_fold_ms", "ms"},
	{"fl.exact_merge_ms", "ms"},
	{"fl.exact_round_ms", "ms"},
	{"fl.store_get_ms", "ms"},
	{"fl.store_evict_ms", "ms"},
	{"fl.store_miss_share", "fraction"},
	{"fl.applied_share", "fraction"},
	{"fl.stale_drops", "count"},
	{"fl.leaves", "count"},
	{"comm.encode_ms", "ms"},
	{"comm.decode_ms", "ms"},
	{"comm.encode_down_ms", "ms"},
	{"comm.frame_bytes_up", "B"},
	{"comm.density", "fraction"},
	{"comm.encode_allocs", "count"},
	{"transport.send_ms", "ms"},
	{"transport.recv_wait_ms", "ms"},
	{"transport.frames_per_round", "count"},
	{"transport.bytes_per_round", "B"},
	{"transport.dial_ms", "ms"},
	{"ckpt.marshal_ms", "ms"},
	{"ckpt.unmarshal_ms", "ms"},
	{"ckpt.bytes", "B"},
	{"experiments.build_client_ms", "ms"},
	{"experiments.builds", "count"},
	{"proc.mallocs_per_round", "count"},
	{"proc.gc_count", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.heap_live_mb", "MB"},
	{"trace.overhead_share", "fraction"},
	{"trace.coverage", "fraction"},
	{"failed_share", "fraction"},
}
