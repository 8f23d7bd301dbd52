package main

// The metric and workload names of the benchmark. BENCHMARK.json at the
// repository root lists the same names; a test keeps the two in step.

type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the system would see. Every workload reports
// all of them (lower is better for all):
//
//   - wire_mb on serve-openloop is the mean per job;
//   - job_p50_s on the batch workloads, where the operation is a rep, is the
//     median rep latency and so equals wall_s.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"wire_mb", "MB"},
	{"job_p50_s", "s"},
}

// perLayer is what the traced run reports, named <module>.<metric>. A
// metric of a layer the workload does not run stays 0.
var perLayer = []metricDef{
	{"pipeline.discover_s", "s"},
	{"pipeline.align_s", "s"},
	{"pipeline.plan_s", "s"},
	{"pipeline.stage_cover_frac", "ratio"},
	{"kmer.scan_mbps", "MB/s"},
	{"overlap.candidates_s", "s"},
	{"overlap.tasks", "count"},
	{"align.kernel_s", "s"},
	{"align.mcells_per_s", "Mcell/s"},
	{"align.swar_task_frac", "ratio"},
	{"align.lane_occupancy", "ratio"},
	{"core.rank_s", "s"},
	{"core.bsp_s", "s"},
	{"core.async_s", "s"},
	{"core.overhead_s", "s"},
	{"core.comm_s", "s"},
	{"core.sync_s", "s"},
	{"core.imbalance", "ratio"},
	{"core.remote_reads", "count"},
	{"core.supersteps", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.cache_wire_fetches", "count"},
	{"seq.fasta_load_mbps", "MB/s"},
	{"seq.wire_encode_mbps", "MB/s"},
	{"seq.wire_decode_mbps", "MB/s"},
	{"transport.tcp_rtt_us", "us"},
	{"transport.tcp_stream_mbps", "MB/s"},
	{"transport.loopback_rtt_us", "us"},
	{"dist.alltoallv_ms", "ms"},
	{"dist.allreduce_us", "us"},
	{"dist.barrier_us", "us"},
	{"dist.rpc_rtt_us", "us"},
	{"dist.msgs", "count"},
	{"par.alltoallv_ms", "ms"},
	{"par.rpc_rtt_us", "us"},
	{"graph.build_s", "s"},
	{"graph.reduce_s", "s"},
	{"graph.contigs_s", "s"},
	{"graph.contig_rounds", "count"},
	{"graph.fetches", "count"},
	{"graph.coalesced_frac", "ratio"},
	{"graph.edges", "count"},
	{"graph.contigs", "count"},
	{"partition.place_ms", "ms"},
	{"partition.placement_saved_frac", "ratio"},
	{"dist.inter_mb_8r", "MB"},
	{"dist.intra_mb_8r", "MB"},
	{"dist.hier_saved_frac", "ratio"},
	{"serve.queue_wait_p50_s", "s"},
	{"serve.service_p50_s", "s"},
	{"serve.job_p95_s", "s"},
	{"serve.sat_jobs_per_s", "1/s"},
	{"serve.decode_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.retried", "count"},
	{"sim.pred_over_measured", "ratio"},
	{"machine.slowdown", "ratio"},
	{"loadgen.late_p95_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// workloadDef names a workload and the function that runs it.
type workloadDef struct {
	Name string
	Run  func(*env) error
}

var workloads = []workloadDef{
	{"overlap-noisy", runOverlapNoisy},
	{"exchange-tcp", runExchangeTCP},
	{"assemble-backhalf", runAssembleBackhalf},
	{"serve-openloop", runServeOpenLoop},
}
