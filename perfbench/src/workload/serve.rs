//! `serve-tenants`: eight tenants on a `ServiceCore` over two P100s with
//! finite memory. Each round every tenant writes its streaming inputs and
//! submits its op chain, in a seeded order; then the driver pumps once.
//! Every eighth round each tenant reads its outputs; the next round starts
//! with the idle service's housekeeping (`maintain`, recorded as
//! `grcuda.sync`).

use std::collections::VecDeque;
use std::time::Instant;

use benchmarks::BenchSpec;
use gpu_sim::TypedData;
use grcuda::serve::{
    ArgSpec, ArrayRef, CallSpec, ElemKind, Fairness, RequestSpec, ServeConfig, ServiceCore,
    TenantId,
};
use grcuda::{DeviceProfile, EvictionPolicy, MemoryConfig, Options, PlacementPolicy, TopologyKind};

use super::{
    cluster, runtime_gauges, set_up, timed_phase, Config, Outcome, Peaks, SetupReps, Setups, Timed,
    Workload,
};
use crate::check::{Checker, References};
use crate::probe::{Layer, Probe};
use crate::stats::Rng;

/// Tenants; tenant `i` owns suite `i % 6`.
const TENANTS: usize = 8;
/// Every this many rounds each tenant reads its outputs.
const READ_EVERY: u64 = 8;

struct Tenant {
    id: TenantId,
    suite: usize,
    arrays: Vec<ArrayRef>,
    request: RequestSpec,
    iters: u64,
}

struct Serve {
    core: ServiceCore,
    specs: Vec<BenchSpec>,
    tenants: Vec<Tenant>,
    /// Submitted, not yet admitted: (tenant, host start).
    queued: VecDeque<(usize, Instant)>,
    /// Completed latencies per tenant when the timed phase began.
    latency_base: Vec<usize>,
    peaks: Peaks,
    queue_depth_max: usize,
    inflight_max: usize,
    pumps: u64,
    traced_requests: Vec<u64>,
}

fn kind(d: &TypedData) -> ElemKind {
    match d {
        TypedData::F32(_) => ElemKind::F32,
        TypedData::F64(_) => ElemKind::F64,
        TypedData::I32(_) => ElemKind::I32,
        TypedData::U8(_) => ElemKind::U8,
    }
}

/// Set-up samples per untraced run (see [`SetupReps`]): one set-up takes
/// 1–2 ms.
const SETUP_REPS: SetupReps = SetupReps {
    samples: 30,
    per_sample: 75,
};

impl Serve {
    fn setup(specs: &[BenchSpec], options: Options, probe: &mut Probe) -> Self {
        let memory = MemoryConfig::with_capacity(cluster::capacity(specs))
            .with_eviction(EvictionPolicy::CostAware);
        let config = ServeConfig::new(DeviceProfile::tesla_p100(), options)
            .with_devices(2, PlacementPolicy::MemoryAware, TopologyKind::NvlinkPair)
            .with_memory(memory)
            .with_fairness(Fairness::WeightedRoundRobin)
            .with_pipeline(2 * TENANTS, TENANTS);
        let mut core = ServiceCore::new(config);
        let mut tenants = Vec::new();
        for i in 0..TENANTS {
            let suite = i % specs.len();
            let spec = &specs[suite];
            let id = core.add_tenant(&format!("t{i}-{}", spec.name), 1);
            let arrays: Vec<ArrayRef> = spec
                .arrays
                .iter()
                .map(|a| {
                    let r = core
                        .alloc(id, kind(&a.init), a.init.len())
                        .expect("suite arrays are non-empty");
                    core.write(id, r, &a.init).expect("shapes match");
                    r
                })
                .collect();
            let calls = spec
                .ops
                .iter()
                .map(|op| {
                    let kernel = probe
                        .setup_call(Layer::BuildKernel, || core.register_kernel(id, op.def))
                        .expect("suite signatures parse");
                    let args = op
                        .args
                        .iter()
                        .map(|a| match a {
                            benchmarks::PlanArg::Arr(k) => ArgSpec::Array(arrays[*k]),
                            benchmarks::PlanArg::Scalar(v) => ArgSpec::Scalar(*v),
                        })
                        .collect();
                    CallSpec {
                        kernel,
                        grid: op.grid,
                        args,
                    }
                })
                .collect();
            tenants.push(Tenant {
                id,
                suite,
                arrays,
                request: RequestSpec {
                    calls,
                    deadline_us: None,
                },
                iters: 0,
            });
        }
        let mut w = Serve {
            core,
            specs: specs.to_vec(),
            tenants,
            queued: VecDeque::new(),
            latency_base: Vec::new(),
            peaks: Peaks::default(),
            queue_depth_max: 0,
            inflight_max: 0,
            pumps: 0,
            traced_requests: vec![0; specs.len()],
        };
        // Warm-up: one request per tenant, then drain.
        let mut warm = Checker::default();
        for i in 0..TENANTS {
            w.submit(i, probe, &mut warm);
        }
        w.core.drain_all();
        w.queued.clear();
        w.latency_base = w
            .core
            .all_stats()
            .iter()
            .map(|s| s.latencies.len())
            .collect();
        w
    }

    /// Write tenant `i`'s streaming inputs and submit its chain.
    fn submit(&mut self, i: usize, probe: &mut Probe, check: &mut Checker) {
        let start = Instant::now();
        let t = &mut self.tenants[i];
        let spec = &self.specs[t.suite];
        for (a, &r) in spec.arrays.iter().zip(&t.arrays) {
            if a.refresh_each_iter {
                if let Err(e) = probe.call(Layer::Write, || self.core.write(t.id, r, &a.init)) {
                    check.error(spec.name, e);
                }
            }
        }
        let request = t.request.clone();
        match probe.call(Layer::ServeSubmit, || self.core.submit(t.id, request)) {
            Ok(_) => {
                t.iters += 1;
                self.queued.push_back((i, start));
            }
            Err(e) => check.error(spec.name, e),
        }
    }

    /// Read tenant `i`'s outputs through the service.
    fn read_outputs(&mut self, i: usize, probe: &mut Probe, check: &mut Checker) {
        let t = &self.tenants[i];
        let spec = &self.specs[t.suite];
        for &(k, cnt) in &spec.outputs {
            for e in 0..cnt {
                match probe.call(Layer::ServeRead, || self.core.read(t.id, t.arrays[k], e)) {
                    Ok(v) => {
                        std::hint::black_box(v);
                    }
                    Err(err) => check.error(spec.name, err),
                }
            }
        }
    }

    /// Read every array of tenant `i` back through the service.
    fn contents(&mut self, i: usize) -> Result<Vec<TypedData>, grcuda::serve::ServeError> {
        let t = &self.tenants[i];
        let spec = &self.specs[t.suite];
        let mut out = Vec::new();
        for (a, &r) in spec.arrays.iter().zip(&t.arrays) {
            let n = a.init.len();
            let mut vals = Vec::with_capacity(n);
            for e in 0..n {
                vals.push(self.core.read(t.id, r, e)?);
            }
            // Every element type widens to f64 exactly, so narrowing back
            // restores the stored bits.
            out.push(match &a.init {
                TypedData::F32(_) => TypedData::F32(vals.iter().map(|&v| v as f32).collect()),
                TypedData::F64(_) => TypedData::F64(vals),
                TypedData::I32(_) => TypedData::I32(vals.iter().map(|&v| v as i32).collect()),
                TypedData::U8(_) => TypedData::U8(vals.iter().map(|&v| v as u8).collect()),
            });
        }
        Ok(out)
    }

    /// Sample the in-flight and scheduler peaks (between units: the
    /// stats snapshot copies every tenant's latency history).
    fn sample(&mut self) {
        let stats = self.core.all_stats();
        self.inflight_max = self
            .inflight_max
            .max(stats.iter().map(|s| s.inflight).sum());
        self.peaks.sample(self.core.runtime());
    }
}

impl Workload for Serve {
    const PREFIX_ROUNDS: u64 = 80;
    const WINDOW_ROUNDS: u64 = 100;
    const TRACE_BLOCK: u64 = READ_EVERY;

    fn round(&mut self, probe: &mut Probe, rng: &mut Rng, t: &mut Timed, check: &mut Checker) {
        let traced = probe.tracing();
        let mut order: Vec<usize> = (0..TENANTS).collect();
        rng.shuffle(&mut order);
        probe.set_request(t.requests as u32);
        let mark = probe.begin_unit();
        if t.rounds.is_multiple_of(READ_EVERY) && t.rounds > 0 {
            // The last round's reads drained every tenant, so the service
            // is idle: housekeeping syncs and drops the timeline, which
            // keeps a long run's memory bounded. Done here rather than
            // after the reads, the timeline always holds the latest round.
            probe.call(Layer::Sync, || self.core.maintain());
        }
        for &i in &order {
            probe.set_request(t.requests as u32);
            self.submit(i, probe, check);
            t.requests += 1;
            if traced {
                self.traced_requests[self.tenants[i].suite] += 1;
            }
        }
        // Submitted, not yet admitted: the service's queues.
        self.queue_depth_max = self.queue_depth_max.max(self.queued.len());
        let admitted = probe.call(Layer::ServePump, || self.core.pump());
        self.pumps += 1;
        let done = Instant::now();
        let mut launches = 0;
        for _ in 0..admitted {
            let (i, start) = self
                .queued
                .pop_front()
                .expect("admitted requests were queued");
            launches += self.tenants[i].request.calls.len() as u64;
            t.host_request_s
                .push(done.duration_since(start).as_secs_f64());
        }
        if t.rounds % READ_EVERY == READ_EVERY - 1 {
            for &i in &order {
                self.read_outputs(i, probe, check);
            }
        }
        let host = probe.end_unit(mark);
        t.unit(traced, host, launches);
        t.launches += launches;
        if traced {
            self.sample();
        }
    }

    fn sim_now(&self) -> f64 {
        self.core.now()
    }

    fn completed_sim_latencies(&self, _t: &Timed) -> Vec<f64> {
        self.core
            .all_stats()
            .iter()
            .zip(&self.latency_base)
            .flat_map(|(s, &base)| s.latencies[base..].to_vec())
            .collect()
    }
}

/// Run the workload.
pub fn run(cfg: &Config, probe: &mut Probe) -> Outcome {
    let specs = cluster::specs();
    let build = |probe: &mut Probe| Serve::setup(&specs, Options::parallel(), probe);
    let (mut w, cold_setup_s) = set_up(|| build(probe));
    let mut rebuild = |p: &mut Probe| drop(build(p));
    let mut setups = Setups::new(cfg, SETUP_REPS, &mut rebuild);
    let mut check = Checker::default();
    let t = timed_phase(
        &mut w,
        cfg,
        cfg.seconds,
        probe,
        &mut check,
        Some(&mut setups),
    );
    let setup_s = setups.secs;

    let mut gauges = Vec::new();
    if cfg.trace {
        let stats = w.core.all_stats();
        gauges = runtime_gauges(w.core.runtime(), &w.peaks);
        gauges.extend([
            (
                "grcuda.serve.pump.launches_per_call".to_string(),
                t.launches as f64 / w.pumps.max(1) as f64,
                "count",
            ),
            (
                "grcuda.serve.queue_depth_max".to_string(),
                w.queue_depth_max as f64,
                "count",
            ),
            (
                "grcuda.serve.inflight_max".to_string(),
                w.inflight_max as f64,
                "count",
            ),
            (
                "grcuda.serve.rejected".to_string(),
                stats.iter().map(|s| s.rejected).sum::<u64>() as f64,
                "count",
            ),
        ]);
    }
    // One more request per tenant, admitted but not retired, so the
    // schedule audit sees a live DAG; then drain and check.
    for i in 0..TENANTS {
        w.submit(i, probe, &mut check);
    }
    w.core.pump();
    check.audit("serve-tenants", &w.core.runtime().audit());
    w.core.drain_all();
    check.races("serve-tenants", w.core.runtime().races().len());
    let mut refs = References::default();
    for i in 0..TENANTS {
        let suite = w.tenants[i].suite;
        let iters = w.tenants[i].iters;
        let what = format!("tenant {i} ({}) after {iters} requests", specs[suite].name);
        match w.contents(i) {
            Ok(got) => check.arrays(
                &what,
                &got,
                refs.after(&specs[suite], iters as usize),
                iters,
            ),
            Err(e) => check.error(&what, e),
        }
    }

    // The same prefix of rounds under the serial scheduler.
    let mut sim_speedup = 0.0;
    let mut notes = Vec::new();
    if !cfg.trace {
        let mut quiet = Probe::new(false);
        let mut serial = Serve::setup(&specs, Options::serial(), &mut quiet);
        let ts = timed_phase(&mut serial, cfg, 0.0, &mut quiet, &mut check, None);
        check.races(
            "serve-tenants serial pass",
            serial.core.runtime().races().len(),
        );
        sim_speedup = ts.prefix.sim_s / t.prefix.sim_s;
        notes.push(format!(
            "  prefix of {} rounds: serial {:.1} us, parallel {:.1} us simulated",
            Serve::PREFIX_ROUNDS,
            ts.prefix.sim_s * 1e6,
            t.prefix.sim_s * 1e6
        ));
    }

    let payload = specs.into_iter().zip(w.traced_requests).collect();
    Outcome {
        cold_setup_s,
        setup_s,
        timed: t,
        sim_speedup,
        check,
        payload,
        gauges,
        notes,
    }
}
