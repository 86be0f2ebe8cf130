// Command e2ebench is the repository's end-to-end benchmark. It times
// what a user of the factorization library or an operator of factord
// waits for — one whole factorization call, one factord job from submit
// to DONE — on four named workloads, checks every output it times, and
// prints one JSON line of metrics. A traced pass splits the same work
// into the layers (rect, kcm, kernels, extract, partition, core, vtime,
// service, durable, pool, cluster) with spans recorded around the calls
// into each layer's public functions, from this package only.
//
// # Running
//
// From the root of a checkout:
//
//	bash e2ebench/run.sh --workload factor-seq --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload svc-hot-3node --seed 7 --seconds 20 --trace 1
//
// run.sh builds this command and cmd/factord from the checkout's
// sources into .bench_build/e2ebench/ (with the Go build cache there
// too) and runs it. It is a module of its own (go.mod here replaces
// repro with the checkout root), so the repository's go test ./...
// does not build it; its tests run with
//
//	cd e2ebench && go test ./...
//
// --trace 0 is the untraced pass and reports the end-to-end metrics.
// --trace 1 spends the first half of --seconds untraced and the second
// half traced, reports the per-layer metrics, and writes the spans as
// JSON lines to .bench_build/e2ebench/work/spans-<workload>-<seed>.jsonl.
// Standard error carries the notes: input digest, final-LC digest,
// sample counts and output-check results. The last line of standard
// output is
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// A failed job, a failed call or an output that differs from its
// reference counts in failed, makes correct false and the exit status 1.
//
// # Workloads
//
// Every input is derived from --seed: circuit i of a stream is
// gen.Generate(gen.SpecOf(family)) with Seed = splitmix64(seed, stream,
// i). All inputs are generated during set-up, before timing starts, and
// the service receives only their BLIF text.
//
//   - factor-seq: in-process core.Sequential over 90 circuits, 30 each of
//     the misex3, dalu and des specs, interleaved and factored round
//     robin, with the service's default options (MaxCols 5, MaxVisits
//     100000, BatchK 16). Rectangle search is about 90% of the time here,
//     so any rect, kcm or extract change shows. With three equal bands
//     (about 10, 30 and 300 ms per call) p50 lands inside the dalu band
//     and p90 inside the des band; with four families p50 sat on a band
//     edge and swung by 20%.
//   - factor-lshape-p2: the same circuits through core.LShaped with p=2,
//     the paper's proposed algorithm at the only p a 2-core host can show
//     in wall time. It exercises partitioning, per-slot patchers and the
//     state table's claims and barriers, which factor-seq never touches.
//   - svc-cold-1node: one factord with shipped defaults and -data-dir
//     set, so every admission is journaled and fsynced. Each job is a
//     distinct dalu-spec circuit, so every job misses the cache; this
//     isolates admission (parse, canonical key, journal append and
//     fsync), queue wait and pool execution.
//   - svc-hot-3node: three clustered factord processes (-cluster,
//     -data-dir, other flags at defaults). 80% of submissions repeat one
//     of 16 fixed misex3-spec circuits, 20% are fresh misex3-spec
//     circuits. The same admission path runs, but the engine is mostly
//     idle: cache hits, forwarding and replication dominate, so a gain
//     for the cold path that costs the hot path shows here.
//
// Replicated and partitioned drivers are left out: one replicated run
// on a des-spec circuit takes 2.5 s, and the repository's bench_test.go
// covers both.
//
// # Load shape
//
// The reference host has two cores, so the load comes from this one
// process. The library workloads make one call at a time. The service
// workloads are a closed loop of two callers, each with one connection:
// POST the circuit, poll its status every millisecond until it is
// terminal, GET the BLIF result, send the next. In svc-hot-3node caller
// 0 is pinned to n1 and caller 1 to n2; n3 is reached only by
// forwarding and replication. 100 untimed jobs per caller warm the
// caches (and replicate the hot set) first. Once a second both callers
// finish their job and wait for the calibration kernel (below);
// throughput counts each caller's busy time only.
//
// The fresh circuits are generated during set-up for three times the
// job rate each service workload reached when the benchmark was defined
// (svc-cold-1node 57 jobs/s, svc-hot-3node 110 jobs/s, on a 2-vCPU VM).
// A caller that uses up its share fails the run with an error that says
// so, rather than send only hot-set circuits and change the mix.
//
// # Host-speed scaling
//
// The reference host is a VM whose speed moves by ±13% between
// 5-second windows as neighbouring machines load its memory system.
// Raw 20-second runs on ten seeds spread by 26-50% (interquartile range
// over median), beyond any bound the benchmark may set, and kernel
// samples taken only before and after the timed phase still left
// svc-cold-1node at 17-24%. So every workload times a fixed kernel of
// this package's own (allocation, sorting, map inserts) about once a
// second while the system under test is idle: between two library
// calls, or while both service callers wait between jobs. Each
// operation's times are multiplied by refKernel over the mean of the
// seven kernel samples nearest it, and every time metric reads as it
// would on the reference host at its nominal speed; standard error
// notes the average scale of the run. A sample point starts with
// runtime.GC(), so the kernel does not pay for the garbage the code
// under test left; at one a second, that is a small share of the 16 to
// 173 collections a second Go runs on its own while factoring these
// circuits, and collection cost stays inside the timed calls.
//
// Time spent waiting on a timer does not stretch with host speed and is
// not scaled: a forwarded job (its node polls the owner every
// cluster.Config.RemotePoll, 100 ms), which is svc-hot-3node's p90, and
// a cluster node's start, which waits for heartbeats to carry the ring.
// Nor can the kernel follow the disk: every job fsyncs the journal on
// admission and on each transition.
//
// # End-to-end metrics
//
// Reported with --trace 0. Each bound is the share of the parent's
// median by which a later change may make the metric worse.
//
//	metric            unit   library workloads            service workloads                   bound
//	setup_s           s      generation + one warm-up     generation + start until /readyz    0.25
//	                         call per family (median of   (and a 3-member ring on every node;
//	                         3)                           median of 3 starts); go build not
//	                                                      counted
//	throughput_per_s  ops/s  calls per second busy        DONE jobs per second busy           0.24
//	latency_p50_ms    ms     per call                     send to the server's finished_at    0.24
//	latency_p90_ms    ms     per call                     as p50                              0.24
//	lc_ratio          ratio  Σ final LC / Σ initial LC    the same over the distinct          0.01
//	                         over the distinct circuits   circuits the jobs carried
//	                         factored
//	peak_rss_mb       MiB    this process's VmHWM at the  Σ VmHWM of the factord processes    0.2
//	                         end                          after the warm-up jobs
//
// The daemons' memory is read after the fixed warm-up, not at the end:
// the job table keeps every job, so memory read after a timed phase
// follows how many jobs the host managed. setup_s has the largest
// bound.
//
// Each bound is about twice the largest spread (interquartile range
// over median, ten or eight seeds) seen in three sweeps on the
// reference host, capped below setup_s's. The scaled time metrics
// spread by 1-14%, and the service p50s by up to 17%: svc-hot-3node's
// 2.5 ms cache hit is HTTP round trips and journal fsyncs, and
// svc-cold-1node's job fsyncs too, which the kernel's speed does not
// predict. lc_ratio is a pure function of the seed for factor-seq, but
// runs compared across seeds factor different circuits: it spread by
// 0.1-0.26% across seeds on every workload. peak_rss_mb
// spread by 2% in process and by up to 10% for the daemons.
//
// A 20-second run makes 100 to 200 library calls, depending on the
// host's speed, 900 to 1100 cold jobs or about 2000 hot jobs, so p90
// has at least 10 samples beyond it; p99 did not repeat within any
// useful bound and is not reported. Failures are the result line's
// failed count against attempted.
//
// # Output checks
//
//   - factor-seq: a repeat call on a circuit must reach the same LC, and
//     the traced pass's rebuilt loop must produce BLIF byte-identical to
//     core.Sequential for every circuit.
//   - Both library workloads: equiv.CheckSelf (128 random vectors) on a
//     seeded one-in-ten sample, after the timed loop.
//   - Service workloads: every hot-set result, and a seeded one-in-16
//     sample of fresh results, must equal in-process core.Sequential on
//     the same BLIF text with Spec.WithDefaults().CoreOptions(). A result
//     that took the cluster's forwarding or replication path was
//     re-parsed from a peer's BLIF, which renumbers variables and so
//     reorders each .names support; such results are compared in a
//     canonical form (names spelled out, covers sorted) and counted
//     separately from byte-identical ones.
//
// # Per-layer metrics and what each should move
//
// Reported with --trace 1; a layer the workload does not call reads 0.
// Times are per circuit or per job and scaled like the end-to-end ones,
// except the durable probe's, which wait on the disk; counts are per
// circuit, except pool.computed and the cluster counters, which count
// over the traced half.
//
//	layer metrics                                         should move
//	rect.bestk_self_ms, rect.bestk_share,                 throughput_per_s and latency_p90_ms on both
//	rect.bestk_calls, rect.visits, rect.rects_per_call,   factor-*; latency_p50_ms on svc-cold-1node
//	rect.accept_ratio                                     (the run is ~85% of a cold job); not
//	                                                      svc-hot-3node
//	kcm.rebuild_self_ms, kcm.rebuild_share,               as rect, bounded by their ~6% share on
//	kcm.nodes_kerneled, kcm.nodes_reused,                 factor-seq; more on factor-lshape-p2
//	kcm.reuse_ratio, kernels.pairs_kerneled               (per-slot rebuilds)
//	extract.apply_self_ms, extract.apply_share,           factor-seq throughput, bounded by a ~2%
//	extract.division_cubes, extract.calls_per_circuit     share
//	partition.kway_ms, core.barriers, core.recovered      throughput_per_s on factor-lshape-p2 only
//	(expect 0), core.cpu_per_wall,
//	core.wall_speedup_p2
//	vtime.speedup, vtime.work_inflation,                  no timing metric; they show when a speed
//	vtime.ns_per_unit.{build,search,divide}               change silently changed the modeled
//	                                                      tables (ns per DefaultModel unit is the
//	                                                      calibration input for the model)
//	service.submit_p50_ms/_p99_ms,                        latency_p50_ms on svc-hot-3node (submit
//	durable.append_p50_ms/_p99_ms                         is most of a hit); less on svc-cold-1node;
//	                                                      not factor-*
//	service.queue_wait_*, service.run_*,                  throughput_per_s and latency_p90_ms on
//	service.result_fetch_p50_ms,                          svc-cold-1node
//	service.polls_per_job, service.cache_hit_ratio,
//	pool.computed, pool.build_ms, pool.faults_total
//	(expect 0)
//	cluster.forwarded_ratio, cluster.forward_e2e_*,       latency_p90_ms and throughput_per_s on
//	cluster.local_e2e_p50_ms, cluster.hit_e2e_p50_ms,     svc-hot-3node: forwarded cold jobs are
//	cluster.replicated_in,                                ~13% of jobs but hold a caller ~110 ms
//	cluster.replication_pending_end,                      each; not the other workloads
//	cluster.heartbeat_failures, cluster.remote_requeues
//	trace.overhead_frac                                   nothing; traced vs untraced time of paired
//	                                                      calls (library) or interleaved jobs'
//	                                                      median latency (service)
//
// factor-seq's traced pass rebuilds extract.Repeat's loop from
// kcm.Patcher.Rebuild, rect.BestK, extract.KernelOf and ApplyRect, and
// Patcher.MarkDirty, with a span around each call, and runs it right
// after core.Sequential on the same circuit: the pair gives the BLIF
// check and the overhead. factor-lshape-p2's wraps core.LShaped (run
// twice, without and with the span, for the overhead), a separately
// timed partition.KWay and the core.Sequential baseline the speedups
// divide; its other numbers come from core.RunResult. The service
// passes record client spans around the submit, each poll and the
// result fetch of every other job, and compare those jobs' median
// latency with the others'; queue wait and run time come from the
// job's server timestamps, and counters are the difference of /v1/stats
// before and after the traced half, summed over the nodes. Both service
// passes also time 500 durable.Store.Append calls under PolicyAlways in
// a fresh directory, with records the size of the workload's median
// admission.
//
// # Limits
//
// The reference host has two cores, so wall-clock speedup claims stop
// at p=2; vtime.speedup is the paper's modeled S. setup_s is mostly
// circuit generation, which no system change touches: when it moves
// between two sets of runs on one commit, the host drifted, and the
// other metrics of those runs deserve the same doubt.
package main
