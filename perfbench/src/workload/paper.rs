//! `paper-p100`: the paper's own setting. One Tesla P100, the parallel
//! scheduler, the six suites at the second sweep scale; one request is
//! one paper iteration of one suite, ended by `sync()`.

use benchmarks::{runners, scales, Bench, BenchSpec};
use grcuda::{DeviceProfile, GrCuda, Options};

use super::{
    finish, runtime_gauges, set_up, timed_phase, Config, Instance, Outcome, Peaks, SetupReps,
    Setups, Suite, Timed, Workload,
};
use crate::check::Checker;
use crate::probe::{Layer, Probe};
use crate::stats::{geomean, Rng};

/// One round: a seeded shuffle of this multiset of suites. VEC appears
/// twice so that the median and the 90th percentile of the mixed request
/// time each fall inside one suite's mode, not on the gap between two
/// modes, where they would swing from run to run.
const MIX: [usize; 7] = [0, 0, 1, 2, 3, 4, 5];

/// The paper's reported average speed-up of the parallel scheduler over
/// the serial one (Fig. 7: "44% speedup").
const PAPER_SPEEDUP: f64 = 1.44;

struct Paper {
    g: GrCuda,
    suites: Vec<Suite>,
    insts: Vec<Instance>,
    peaks: Peaks,
    traced_requests: Vec<u64>,
}

/// Set-up samples per untraced run (see [`SetupReps`]): one set-up takes
/// about 0.15 s, and a 30-second run has about 14 windows after the prefix.
const SETUP_REPS: SetupReps = SetupReps {
    samples: 12,
    per_sample: 1,
};

impl Paper {
    fn setup(specs: &[BenchSpec], options: Options, probe: &mut Probe) -> Self {
        let g = GrCuda::new(DeviceProfile::tesla_p100(), options);
        let suites: Vec<Suite> = specs
            .iter()
            .map(|s| Suite::new(&g, s.clone(), probe))
            .collect();
        let insts: Vec<Instance> = suites
            .iter()
            .enumerate()
            .map(|(i, s)| Instance::new(&g, i, &s.spec))
            .collect();
        let mut w = Paper {
            g,
            traced_requests: vec![0; suites.len()],
            suites,
            insts,
            peaks: Peaks::default(),
        };
        let mut warm = Checker::default();
        for s in 0..w.suites.len() {
            w.request(s, probe, &mut warm);
        }
        w
    }

    /// One paper iteration of suite `s`; returns (host s, sim s).
    fn request(&mut self, s: usize, probe: &mut Probe, check: &mut Checker) -> (f64, f64, u64) {
        let inst = &mut self.insts[s];
        let suite = &self.suites[s];
        let mark = probe.begin_unit();
        let sim0 = self.g.now();
        inst.refresh(&suite.spec, probe);
        // The overlap metrics read the last iteration's timeline alone.
        self.g.clear_timeline();
        let launches = inst.launch(suite, probe, check);
        if probe.tracing() {
            // Before the reads retire it: the request's whole live DAG.
            self.peaks.sample(&self.g);
        }
        inst.read_outputs(&suite.spec, probe);
        let sim = self.g.now() - sim0;
        probe.call(Layer::Sync, || self.g.sync());
        let host = probe.end_unit(mark);
        inst.iters += 1;
        (host, sim, launches)
    }
}

impl Workload for Paper {
    const PREFIX_ROUNDS: u64 = 15;
    /// 105 requests, so that each window's p90 has at least 100 samples.
    const WINDOW_ROUNDS: u64 = 15;

    fn round(&mut self, probe: &mut Probe, rng: &mut Rng, t: &mut Timed, check: &mut Checker) {
        let mut order = MIX;
        rng.shuffle(&mut order);
        for s in order {
            probe.set_request(t.requests as u32);
            let traced = probe.tracing();
            let (host, sim, launches) = self.request(s, probe, check);
            t.unit(traced, host, launches);
            t.host_request_s.push(host);
            t.sim_request_s.push(sim);
            t.requests += 1;
            t.launches += launches;
            if traced {
                self.traced_requests[s] += 1;
            }
        }
    }

    fn sim_now(&self) -> f64 {
        self.g.now()
    }
}

/// The six suites at the paper workload's scale.
fn specs() -> Vec<BenchSpec> {
    Bench::ALL
        .iter()
        .map(|&b| b.build(scales::sweep(b)[1]))
        .collect()
}

/// Run the workload.
pub fn run(cfg: &Config, probe: &mut Probe) -> Outcome {
    let specs = specs();
    let build = |probe: &mut Probe| Paper::setup(&specs, Options::parallel(), probe);
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
        "paper-p100",
        &w.g,
        &w.suites,
        &mut w.insts,
        probe,
        &mut check,
    );

    // Fig. 7 summary, computed as `bench --bin fig7` does: per suite, the
    // median simulated iteration time of a fresh serial run over that of a
    // fresh parallel run, geometric mean over the suites.
    let mut sim_speedup = 0.0;
    let mut notes = Vec::new();
    if !cfg.trace {
        let p100 = DeviceProfile::tesla_p100();
        let mut ratios = Vec::new();
        for spec in &specs {
            let serial = runners::run_grcuda(spec, &p100, Options::serial(), 3);
            let parallel = runners::run_grcuda(spec, &p100, Options::parallel(), 3);
            for (what, r) in [("serial pass", &serial), ("parallel pass", &parallel)] {
                if let Err(e) = &r.valid {
                    check.error(what, e);
                }
                check.races(what, r.races);
            }
            let ratio = serial.median_time() / parallel.median_time();
            ratios.push(ratio);
            notes.push(format!(
                "  {:<5} serial {:>10.1} us  parallel {:>10.1} us  speed-up {ratio:.2}x",
                spec.name,
                serial.median_time() * 1e6,
                parallel.median_time() * 1e6,
            ));
        }
        sim_speedup = geomean(&ratios);
        notes.push(format!(
            "  sim_speedup_vs_serial {sim_speedup:.3}x (paper reports {PAPER_SPEEDUP:.2}x on real P100s; the simulator is not validated against hardware)"
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
