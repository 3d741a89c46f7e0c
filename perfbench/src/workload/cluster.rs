//! `sched-cluster`: scheduler-bound traffic on a 2-node × 2-P100 cluster
//! with finite device memory. Six small suites × four independent request
//! slots; a request is one slot's iteration of per-call launches.

use std::collections::VecDeque;

use benchmarks::{scales, Bench, BenchSpec};
use grcuda::{
    Cluster, DeviceProfile, EvictionPolicy, GrCuda, MemoryConfig, NicKind, Options,
    PlacementPolicy, TopologyKind,
};

use super::{
    finish, runtime_gauges, set_up, timed_phase, Config, Instance, Outcome, Peaks, SetupReps,
    Setups, Suite, Timed, Workload,
};
use crate::check::Checker;
use crate::probe::{Layer, Probe};
use crate::stats::Rng;

/// Independent request slots per suite.
const SLOTS: usize = 4;
/// Requests launched but not yet read back; beyond this the oldest one's
/// outputs are read.
const DEPTH: usize = 4;

/// Suite scale: small enough that the scheduler, not the kernel bodies,
/// dominates host time.
fn scale(b: Bench) -> usize {
    (scales::tiny(b) / 16).max(2)
}

/// The six suites at this workload's scale.
pub fn specs() -> Vec<BenchSpec> {
    Bench::ALL.iter().map(|&b| b.build(scale(b))).collect()
}

/// Per-device memory: the largest suite's footprint, about one slot.
pub fn capacity(specs: &[BenchSpec]) -> usize {
    specs
        .iter()
        .map(BenchSpec::footprint_bytes)
        .max()
        .unwrap_or(0)
}

struct Sched {
    g: GrCuda,
    suites: Vec<Suite>,
    /// `suite * SLOTS + slot`.
    insts: Vec<Instance>,
    /// Launched, not yet read: (instance, simulated start).
    pending: VecDeque<(usize, f64)>,
    peaks: Peaks,
    traced_requests: Vec<u64>,
}

/// Set-up samples per untraced run (see [`SetupReps`]): one set-up takes
/// 4–6 ms.
const SETUP_REPS: SetupReps = SetupReps {
    samples: 30,
    per_sample: 25,
};

impl Sched {
    fn setup(specs: &[BenchSpec], options: Options, probe: &mut Probe) -> Self {
        let memory =
            MemoryConfig::with_capacity(capacity(specs)).with_eviction(EvictionPolicy::CostAware);
        let cluster = Cluster::new(2, 2, TopologyKind::NvlinkPair, NicKind::InfinibandHdr)
            .with_memory(memory);
        let g = GrCuda::with_cluster(
            DeviceProfile::tesla_p100(),
            &cluster,
            options,
            PlacementPolicy::NodeAware,
        );
        let suites: Vec<Suite> = specs
            .iter()
            .map(|s| Suite::new(&g, s.clone(), probe))
            .collect();
        let insts = (0..suites.len() * SLOTS)
            .map(|i| Instance::new(&g, i / SLOTS, &suites[i / SLOTS].spec))
            .collect();
        let mut w = Sched {
            g,
            traced_requests: vec![0; suites.len()],
            suites,
            insts,
            pending: VecDeque::new(),
            peaks: Peaks::default(),
        };
        // Warm-up: one request per slot, then drain.
        let mut warm = Checker::default();
        let mut t = Timed::default();
        for i in 0..w.insts.len() {
            w.request(i, probe, &mut t, &mut warm);
        }
        w.finish_round(probe, &mut t);
        w.g.clear_timeline();
        w
    }

    fn read_back(&mut self, i: usize, sim0: f64, probe: &mut Probe, t: &mut Timed) {
        let inst = &self.insts[i];
        inst.read_outputs(&self.suites[inst.suite].spec, probe);
        t.sim_request_s.push(self.g.now() - sim0);
    }

    /// Launch one iteration on instance `i`, then read back the oldest
    /// request once more than [`DEPTH`] are outstanding.
    fn request(&mut self, i: usize, probe: &mut Probe, t: &mut Timed, check: &mut Checker) -> u64 {
        let inst = &mut self.insts[i];
        let suite = &self.suites[inst.suite];
        let sim0 = self.g.now();
        inst.refresh(&suite.spec, probe);
        let launches = inst.launch(suite, probe, check);
        inst.iters += 1;
        self.pending.push_back((i, sim0));
        if self.pending.len() > DEPTH {
            let (j, s0) = self.pending.pop_front().expect("non-empty");
            self.read_back(j, s0, probe, t);
        }
        launches
    }

    /// Full sync, then read back everything outstanding.
    fn finish_round(&mut self, probe: &mut Probe, t: &mut Timed) {
        probe.call(Layer::Sync, || self.g.sync());
        while let Some((j, s0)) = self.pending.pop_front() {
            self.read_back(j, s0, probe, t);
        }
    }
}

impl Workload for Sched {
    const PREFIX_ROUNDS: u64 = 20;
    const WINDOW_ROUNDS: u64 = 25;

    fn round(&mut self, probe: &mut Probe, rng: &mut Rng, t: &mut Timed, check: &mut Checker) {
        // The timeline holds one round: bounded memory, and the last
        // round's overlap is what the traced run reports.
        self.g.clear_timeline();
        let mut order: Vec<usize> = (0..self.insts.len()).collect();
        rng.shuffle(&mut order);
        let last = order.len() - 1;
        for (k, &i) in order.iter().enumerate() {
            probe.set_request(t.requests as u32);
            let traced = probe.tracing();
            let mark = probe.begin_unit();
            let launches = self.request(i, probe, t, check);
            if k == last {
                self.finish_round(probe, t);
            }
            let host = probe.end_unit(mark);
            t.unit(traced, host, launches);
            t.host_request_s.push(host);
            t.requests += 1;
            t.launches += launches;
            if traced {
                self.traced_requests[self.insts[i].suite] += 1;
                self.peaks.sample(&self.g);
            }
        }
    }

    fn sim_now(&self) -> f64 {
        self.g.now()
    }
}

/// Run the workload.
pub fn run(cfg: &Config, probe: &mut Probe) -> Outcome {
    let specs = specs();
    let build = |probe: &mut Probe| Sched::setup(&specs, Options::parallel(), probe);
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

    let gauges = if cfg.trace {
        runtime_gauges(&w.g, &w.peaks)
    } else {
        Vec::new()
    };
    finish(
        "sched-cluster",
        &w.g,
        &w.suites,
        &mut w.insts,
        probe,
        &mut check,
    );

    // The same prefix of requests under the serial scheduler, on the
    // same machine: simulated serial time over simulated parallel time.
    let mut sim_speedup = 0.0;
    let mut notes = Vec::new();
    if !cfg.trace {
        let mut quiet = Probe::new(false);
        let mut serial = Sched::setup(&specs, Options::serial(), &mut quiet);
        let ts = timed_phase(&mut serial, cfg, 0.0, &mut quiet, &mut check, None);
        check.races("sched-cluster serial pass", serial.g.races().len());
        sim_speedup = ts.prefix.sim_s / t.prefix.sim_s;
        notes.push(format!(
            "  prefix of {} requests: serial {:.1} us, parallel {:.1} us simulated",
            t.prefix.sim_request_s.len(),
            ts.prefix.sim_s * 1e6,
            t.prefix.sim_s * 1e6
        ));
    }

    let payload = specs
        .into_iter()
        .zip(&w.traced_requests)
        .map(|(s, &n)| (s, n))
        .collect();
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
