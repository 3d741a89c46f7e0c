//! The three workloads and what they share: per-suite instances driven
//! through `GrCuda`, the timed phase, and the outcome they report.

pub mod cluster;
pub mod paper;
pub mod serve;

use std::time::{Duration, Instant};

use benchmarks::{BenchSpec, PlanArg};
use gpu_sim::TypedData;
use grcuda::{Arg, DeviceArray, GrCuda, Kernel};

use crate::check::{Checker, References};
use crate::probe::{Layer, Probe};
use crate::stats::Rng;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Sets the request order and mix.
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a workload hands back to the report.
pub struct Outcome {
    /// Host seconds of the first set-up (context, arrays, kernels,
    /// warm-up), which the run then uses.
    pub cold_setup_s: f64,
    /// Host seconds per set-up of each sample the timed phase took.
    pub setup_s: Vec<f64>,
    /// The timed phase.
    pub timed: Timed,
    /// Simulated serial time over simulated parallel time.
    pub sim_speedup: f64,
    /// Output, race and audit checks.
    pub check: Checker,
    /// Per-suite specs and their requests in traced units, for the
    /// payload replay.
    pub payload: Vec<(BenchSpec, u64)>,
    /// Counters read from the runtime (traced runs).
    pub gauges: Vec<(String, f64, &'static str)>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

/// The deterministic part of the timed phase: its first
/// [`Workload::PREFIX_ROUNDS`] rounds, which every run executes in full.
#[derive(Debug, Clone, Default)]
pub struct Prefix {
    /// Launches in the prefix.
    pub launches: u64,
    /// Simulated seconds the prefix spanned.
    pub sim_s: f64,
    /// Allocations inside runtime calls during the prefix.
    pub allocs: u64,
    /// Simulated latency of each request the prefix completed.
    pub sim_request_s: Vec<f64>,
    /// Peak resident set at the end of the prefix, MiB: set-up plus a
    /// fixed amount of work, whatever the machine's speed.
    pub peak_rss_mib: f64,
}

/// Accumulators of the timed phase.
#[derive(Debug, Default)]
pub struct Timed {
    /// Host seconds from the first round's start to the last round's end,
    /// set-up samples left out.
    pub host_s: f64,
    /// Rounds run.
    pub rounds: u64,
    /// Requests run.
    pub requests: u64,
    /// Kernel launches run.
    pub launches: u64,
    /// Host time of each request.
    pub host_request_s: Vec<f64>,
    /// Consecutive windows of [`Workload::WINDOW_ROUNDS`] rounds.
    pub windows: Vec<Window>,
    /// Simulated latency of each completed request, in completion order.
    pub sim_request_s: Vec<f64>,
    /// Deterministic prefix.
    pub prefix: Prefix,
    /// Host seconds and launches of traced units.
    pub traced: (f64, u64),
    /// Host seconds and launches of untraced units of a traced run.
    pub untraced: (f64, u64),
    /// Operations attempted (launches plus requests).
    pub attempted: u64,
}

impl Timed {
    fn with_capacity(n: usize) -> Self {
        Timed {
            host_request_s: Vec::with_capacity(n),
            sim_request_s: Vec::with_capacity(n),
            ..Default::default()
        }
    }

    /// Book a finished unit's host time and launches.
    pub fn unit(&mut self, traced: bool, secs: f64, launches: u64) {
        let slot = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        slot.0 += secs;
        slot.1 += launches;
    }
}

/// A stretch of whole rounds of the timed phase, so that every window has
/// the same request mix.
///
/// The machine is shared. For seconds to minutes at a time, other tenants'
/// load slows every host operation, by up to about 1.5×. A run's average
/// then depends on how much of it fell into such a stretch, and it swings
/// between runs. The contended speed itself is steady, and nearly every
/// run spends at least a window in it. So the host metrics report the
/// run's slowest window: its launch rate and its request-time
/// percentiles, the rate the program sustained in every window.
#[derive(Debug, Clone)]
pub struct Window {
    /// Host seconds the window spanned.
    pub secs: f64,
    /// Launches run in the window.
    pub launches: u64,
    /// Its requests: a range of [`Timed::host_request_s`].
    pub requests: std::ops::Range<usize>,
}

/// A workload's timed loop, one round at a time.
pub trait Workload {
    /// Rounds in the deterministic prefix.
    const PREFIX_ROUNDS: u64;
    /// Rounds per host-time window (see [`Window`]): short enough to
    /// catch the contended stretches, long enough for stable percentiles.
    const WINDOW_ROUNDS: u64;
    /// A traced run alternates blocks of this many traced and untraced
    /// rounds; a block holds every kind of round the workload has.
    const TRACE_BLOCK: u64 = 1;
    /// Run one round.
    fn round(&mut self, probe: &mut Probe, rng: &mut Rng, t: &mut Timed, check: &mut Checker);
    /// The runtime's simulated clock.
    fn sim_now(&self) -> f64;
    /// Simulated latencies of the requests completed so far in the timed
    /// phase.
    fn completed_sim_latencies(&self, t: &Timed) -> Vec<f64> {
        t.sim_request_s.clone()
    }
}

/// Run rounds until `seconds` have passed and the prefix is complete.
/// In a traced run every other block of rounds is traced, so the tracing
/// overhead is measured on interleaved rounds. `setups` are sampled
/// between windows after the prefix, outside every window's time.
pub fn timed_phase<W: Workload>(
    w: &mut W,
    cfg: &Config,
    seconds: f64,
    probe: &mut Probe,
    check: &mut Checker,
    mut setups: Option<&mut Setups>,
) -> Timed {
    let mut rng = Rng::new(cfg.seed);
    let mut t = Timed::with_capacity(1 << 16);
    let sim0 = w.sim_now();
    let allocs0 = probe.runtime_allocs();
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut window = (Instant::now(), 0u64, 0usize);
    // Host seconds spent in set-up samples, left out of `host_s`.
    let mut paused = 0.0;
    loop {
        probe.set_tracing(cfg.trace && (t.rounds / W::TRACE_BLOCK) % 2 == 1);
        w.round(probe, &mut rng, &mut t, check);
        t.rounds += 1;
        if t.rounds == W::PREFIX_ROUNDS {
            t.prefix = Prefix {
                launches: t.launches,
                sim_s: w.sim_now() - sim0,
                allocs: probe.runtime_allocs() - allocs0,
                sim_request_s: w.completed_sim_latencies(&t),
                peak_rss_mib: peak_rss_mib(),
            };
        }
        if t.rounds.is_multiple_of(W::WINDOW_ROUNDS) {
            t.windows.push(Window {
                secs: window.0.elapsed().as_secs_f64(),
                launches: t.launches - window.1,
                requests: window.2..t.host_request_s.len(),
            });
            if let Some(s) = setups.as_deref_mut() {
                let elapsed = start.elapsed().as_secs_f64();
                if t.rounds >= W::PREFIX_ROUNDS && s.due(elapsed, seconds) {
                    paused += s.sample(probe);
                }
            }
            window = (Instant::now(), t.launches, t.host_request_s.len());
        }
        let done = t.rounds >= W::PREFIX_ROUNDS && !t.windows.is_empty();
        if done && start.elapsed() >= deadline {
            break;
        }
    }
    t.host_s = start.elapsed().as_secs_f64() - paused;
    probe.set_tracing(false);
    if let Some(s) = setups {
        while s.secs.len() < s.reps.samples {
            s.sample(probe);
        }
    }
    t.attempted = t.launches + t.requests;
    t
}

/// One benchmark suite's plan and its kernels, built in one context.
pub struct Suite {
    /// The plan.
    pub spec: BenchSpec,
    /// One kernel per op, in plan order.
    pub kernels: Vec<Kernel>,
}

impl Suite {
    /// Build the plan's kernels (each `build_kernel` call is probed).
    pub fn new(g: &GrCuda, spec: BenchSpec, probe: &mut Probe) -> Self {
        let kernels = spec
            .ops
            .iter()
            .map(|op| {
                probe
                    .setup_call(Layer::BuildKernel, || g.build_kernel(op.def))
                    .expect("suite signatures parse")
            })
            .collect();
        Suite { spec, kernels }
    }
}

/// One independent copy of a suite's arrays: a request slot.
pub struct Instance {
    /// Index into the workload's suites.
    pub suite: usize,
    /// The arrays, in spec order.
    pub arrays: Vec<DeviceArray>,
    /// Launch arguments per op, built once.
    pub args: Vec<Vec<Arg>>,
    /// Iterations run on this slot (warm-up included).
    pub iters: u64,
}

impl Instance {
    /// Allocate the arrays and write their initial contents.
    pub fn new(g: &GrCuda, suite: usize, spec: &BenchSpec) -> Self {
        let arrays = benchmarks::grcuda_arrays(g, spec);
        let args = spec
            .ops
            .iter()
            .map(|op| {
                op.args
                    .iter()
                    .map(|a| match a {
                        PlanArg::Arr(k) => Arg::array(&arrays[*k]),
                        PlanArg::Scalar(v) => Arg::scalar(*v),
                    })
                    .collect()
            })
            .collect();
        Instance {
            suite,
            arrays,
            args,
            iters: 0,
        }
    }

    /// Re-write the streaming inputs, one probed write per array.
    pub fn refresh(&self, spec: &BenchSpec, probe: &mut Probe) {
        for (a, arr) in spec.arrays.iter().zip(&self.arrays) {
            if a.refresh_each_iter {
                probe.call(Layer::Write, || match &a.init {
                    TypedData::F32(v) => arr.copy_from_f32(v),
                    TypedData::F64(v) => arr.copy_from_f64(v),
                    TypedData::I32(v) => arr.copy_from_i32(v),
                    TypedData::U8(v) => arr.copy_from_u8(v),
                });
            }
        }
    }

    /// Launch every op of the plan, one probed `Kernel::launch` each;
    /// returns the launches made.
    pub fn launch(&self, suite: &Suite, probe: &mut Probe, check: &mut Checker) -> u64 {
        for ((op, k), args) in suite.spec.ops.iter().zip(&suite.kernels).zip(&self.args) {
            if let Err(e) = probe.call(Layer::Launch, || k.launch(op.grid, args)) {
                check.error(suite.spec.name, e);
            }
        }
        suite.spec.ops.len() as u64
    }

    /// The spec's end-of-iteration host reads, one probed read per
    /// element.
    pub fn read_outputs(&self, spec: &BenchSpec, probe: &mut Probe) {
        for &(k, cnt) in &spec.outputs {
            let arr = &self.arrays[k];
            for i in 0..cnt {
                match &spec.arrays[k].init {
                    TypedData::F32(_) => {
                        std::hint::black_box(probe.call(Layer::Read, || arr.get_f32(i)));
                    }
                    TypedData::F64(_) => {
                        std::hint::black_box(probe.call(Layer::Read, || arr.get_f64(i)));
                    }
                    TypedData::I32(_) => {
                        std::hint::black_box(probe.call(Layer::Read, || arr.get_i32(i)));
                    }
                    TypedData::U8(_) => {
                        std::hint::black_box(probe.call(Layer::Read, || arr.get_u8(i)));
                    }
                }
            }
        }
    }

    /// The arrays' contents (call after a full sync).
    pub fn contents(&self) -> Vec<TypedData> {
        self.arrays
            .iter()
            .map(|a| a.raw_buffer().data().clone())
            .collect()
    }
}

/// End a `GrCuda` workload: one more iteration per slot, launched but not
/// synchronized, so the schedule audit sees a live DAG; then the final
/// sync, the race check, and every slot against the reference.
pub fn finish(
    what: &str,
    g: &GrCuda,
    suites: &[Suite],
    insts: &mut [Instance],
    probe: &mut Probe,
    check: &mut Checker,
) {
    for inst in insts.iter_mut() {
        let suite = &suites[inst.suite];
        inst.refresh(&suite.spec, probe);
        inst.launch(suite, probe, check);
        inst.iters += 1;
    }
    check.audit(what, &g.audit());
    g.sync();
    check.races(what, g.races().len());
    let mut refs = References::default();
    for (i, inst) in insts.iter().enumerate() {
        let spec = &suites[inst.suite].spec;
        let want = refs.after(spec, inst.iters as usize);
        check.arrays(
            &format!("{} slot {i} after {} iterations", spec.name, inst.iters),
            &inst.contents(),
            want,
            inst.iters,
        );
    }
}

/// Runtime counters every `GrCuda` workload reports in a traced run.
pub fn runtime_gauges(g: &GrCuda, peaks: &Peaks) -> Vec<(String, f64, &'static str)> {
    let st = g.scheduler_stats();
    let eng = g.stats();
    let mem = g.memory_stats();
    let (p2p, p2p_b) = g.p2p_migration_stats();
    let (host, host_b) = g.host_migration_stats();
    let (xn, xn_b) = g.cross_node_migration_stats();
    let reuse = eng.rate_tasks_reused as f64;
    let solved = eng.rate_tasks_solved as f64;
    let ov = metrics::OverlapMetrics::from_timeline(&g.timeline());
    vec![
        (
            "dag.lifetime_vertices".into(),
            st.lifetime_vertices as f64,
            "count",
        ),
        (
            "dag.peak_live_vertices".into(),
            peaks.live_vertices as f64,
            "count",
        ),
        (
            "dag.peak_stored_edges".into(),
            peaks.stored_edges as f64,
            "count",
        ),
        (
            "grcuda.stream_manager.streams_created".into(),
            g.streams_created() as f64,
            "count",
        ),
        (
            "grcuda.stream_manager.peak_stream_claims".into(),
            peaks.stream_claims as f64,
            "count",
        ),
        (
            "gpu_sim.engine.tasks_submitted".into(),
            eng.submitted as f64,
            "count",
        ),
        (
            "gpu_sim.engine.rate_refreshes".into(),
            eng.rate_refreshes as f64,
            "count",
        ),
        ("gpu_sim.engine.rate_tasks_solved".into(), solved, "count"),
        ("gpu_sim.engine.rate_tasks_reused".into(), reuse, "count"),
        (
            "gpu_sim.engine.rate_reuse_ratio".into(),
            if reuse + solved > 0.0 {
                reuse / (reuse + solved)
            } else {
                0.0
            },
            "fraction",
        ),
        (
            "gpu_sim.memgr.evictions".into(),
            mem.evictions as f64,
            "count",
        ),
        (
            "gpu_sim.memgr.spilled_bytes".into(),
            mem.spilled_bytes as f64,
            "B",
        ),
        (
            "gpu_sim.memgr.prefetch_issued".into(),
            mem.prefetch_issued as f64,
            "count",
        ),
        (
            "gpu_sim.memgr.prefetch_hit_ratio".into(),
            mem.prefetch_hit_rate(),
            "fraction",
        ),
        ("cuda_sim.migrate.p2p_count".into(), p2p as f64, "count"),
        ("cuda_sim.migrate.p2p_bytes".into(), p2p_b as f64, "B"),
        ("cuda_sim.migrate.host_count".into(), host as f64, "count"),
        ("cuda_sim.migrate.host_bytes".into(), host_b as f64, "B"),
        (
            "cuda_sim.migrate.cross_node_count".into(),
            xn as f64,
            "count",
        ),
        ("cuda_sim.migrate.cross_node_bytes".into(), xn_b as f64, "B"),
        ("metrics.overlap.ct".into(), ov.ct, "fraction"),
        ("metrics.overlap.tc".into(), ov.tc, "fraction"),
        ("metrics.overlap.cc".into(), ov.cc, "fraction"),
        ("metrics.overlap.tot".into(), ov.tot, "fraction"),
    ]
}

/// Peak scheduler gauges sampled between units of traced rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Peaks {
    /// Live DAG vertices.
    pub live_vertices: usize,
    /// Stored DAG edges.
    pub stored_edges: usize,
    /// Outstanding first-child stream claims.
    pub stream_claims: usize,
}

impl Peaks {
    /// Fold in the runtime's current gauges.
    pub fn sample(&mut self, g: &GrCuda) {
        let st = g.scheduler_stats();
        self.live_vertices = self.live_vertices.max(st.live_vertices);
        self.stored_edges = self.stored_edges.max(st.stored_edges);
        self.stream_claims = self.stream_claims.max(st.stream_claims);
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How `setup_s` is sampled in an untraced run: `samples` times, spread
/// over the timed phase, each timing `per_sample` back-to-back set-ups.
///
/// The shared machine runs every host operation up to about 1.5× slower
/// for seconds to minutes at a time (see [`Window`]). Set-ups made one
/// after another before the timed phase all fall into whichever speed the
/// machine had then, so their median swings between runs. Samples spread
/// over the whole timed phase see the same stretches its windows do.
/// `setup_s` is their second slowest, the contended speed with one
/// outlying sample discarded, as the host metrics are the slowest window.
#[derive(Debug, Clone, Copy)]
pub struct SetupReps {
    /// Samples taken in a run.
    pub samples: usize,
    /// Set-ups timed together in one sample: enough that one sample spans
    /// about 0.1 s.
    pub per_sample: usize,
}

/// Set-up samples taken during the timed phase.
pub struct Setups<'a> {
    reps: SetupReps,
    /// Builds a fresh copy of the workload and drops it.
    build: &'a mut dyn FnMut(&mut Probe),
    /// Host seconds per set-up, one entry per sample.
    pub secs: Vec<f64>,
}

impl<'a> Setups<'a> {
    /// Sample `build` as `reps` says; a traced run takes no samples.
    pub fn new(cfg: &Config, reps: SetupReps, build: &'a mut dyn FnMut(&mut Probe)) -> Self {
        let samples = if cfg.trace { 0 } else { reps.samples };
        Setups {
            reps: SetupReps { samples, ..reps },
            build,
            secs: Vec::with_capacity(samples),
        }
    }

    /// Whether the next sample is due, `elapsed` seconds into a timed
    /// phase of `seconds`: samples are evenly spaced over it.
    fn due(&self, elapsed: f64, seconds: f64) -> bool {
        let k = self.secs.len();
        k < self.reps.samples && elapsed >= k as f64 * seconds / self.reps.samples as f64
    }

    /// Take one sample; returns the host seconds it took.
    fn sample(&mut self, probe: &mut Probe) -> f64 {
        let start = Instant::now();
        for _ in 0..self.reps.per_sample {
            (self.build)(probe);
        }
        let secs = start.elapsed().as_secs_f64();
        self.secs.push(secs / self.reps.per_sample as f64);
        secs
    }
}

/// Build the workload once; returns it and the host seconds it took.
pub fn set_up<W>(build: impl FnOnce() -> W) -> (W, f64) {
    let start = Instant::now();
    let w = build();
    (w, start.elapsed().as_secs_f64())
}
