//! The repository's performance benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-p100|sched-cluster|serve-tenants> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds a workload, times it for `--seconds`, checks every
//! output bit for bit against the sequential CPU reference, and prints
//! its metrics; the last line of standard output is one JSON object.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (see README.md next to this crate). The exit code is 0 only when
//! every check passed.

mod alloc;
mod check;
mod probe;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use metrics::latency::percentile;
use probe::{Layer, Probe};
use workload::{Config, Outcome};

/// Workload names, as given to `--workload`.
const WORKLOADS: [&str; 3] = ["paper-p100", "sched-cluster", "serve-tenants"];

/// Where a traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_out";

/// Counters only the serving workload has; 0 elsewhere.
const SERVE_GAUGES: [&str; 4] = [
    "grcuda.serve.pump.launches_per_call",
    "grcuda.serve.queue_depth_max",
    "grcuda.serve.inflight_max",
    "grcuda.serve.rejected",
];

/// Replays of each suite's payload; the median per op is kept.
const PAYLOAD_REPS: usize = 5;

struct Args {
    workload: String,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        cfg: Config {
            seed,
            seconds,
            trace,
        },
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// The second-largest of `xs` (the largest if there is only one): the
/// slowest set-up sample, with one outlying sample discarded.
fn second_slowest(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(2)).copied().unwrap_or(0.0)
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

fn end_to_end(o: &Outcome, failed: u64) -> Vec<Metric> {
    let t = &o.timed;
    let p = &t.prefix;
    // The slowest window (see `workload::Window`), with whole-run figures
    // beside it in the notes.
    let slowest_rate = t
        .windows
        .iter()
        .map(|w| w.launches as f64 / w.secs)
        .fold(f64::INFINITY, f64::min);
    let slowest = |p: f64| {
        t.windows
            .iter()
            .map(|w| percentile(&t.host_request_s[w.requests.clone()], p).unwrap_or(0.0))
            .fold(0.0, f64::max)
            * 1e3
    };
    let per_window = t.windows[0].requests.len();
    let host_n = |p: f64| {
        format!(
            "slowest of {} windows of n={per_window} requests; whole run {:.4}",
            t.windows.len(),
            percentile(&t.host_request_s, p).unwrap_or(0.0) * 1e3
        )
    };
    let sim_n = format!("n={} requests, deterministic prefix", p.sim_request_s.len());
    vec![
        metric(
            "host_launches_per_s",
            slowest_rate,
            "1/s",
            format!(
                "slowest of {} windows; whole run {:.1} ({} launches in {:.2} s)",
                t.windows.len(),
                t.launches as f64 / t.host_s,
                t.launches,
                t.host_s
            ),
        ),
        metric("host_request_ms_p50", slowest(50.0), "ms", host_n(50.0)),
        metric("host_request_ms_p90", slowest(90.0), "ms", host_n(90.0)),
        metric(
            "sim_launches_per_s",
            p.launches as f64 / p.sim_s,
            "1/sim_s",
            format!("{} launches, deterministic prefix", p.launches),
        ),
        metric(
            "sim_request_us_p50",
            percentile(&p.sim_request_s, 50.0).unwrap_or(0.0) * 1e6,
            "sim_us",
            sim_n.clone(),
        ),
        metric(
            "sim_request_us_p90",
            percentile(&p.sim_request_s, 90.0).unwrap_or(0.0) * 1e6,
            "sim_us",
            sim_n,
        ),
        metric(
            "sim_speedup_vs_serial",
            o.sim_speedup,
            "x",
            "simulated serial time / parallel time",
        ),
        metric(
            "setup_s",
            second_slowest(&o.setup_s),
            "s",
            format!(
                "second slowest of {} samples over the timed phase; median {:.6}, first set-up {:.6}",
                o.setup_s.len(),
                percentile(&o.setup_s, 50.0).unwrap_or(0.0),
                o.cold_setup_s
            ),
        ),
        metric(
            "host_allocs_per_launch",
            p.allocs as f64 / p.launches as f64,
            "count",
            format!(
                "{} allocations in runtime calls, deterministic prefix",
                p.allocs
            ),
        ),
        metric(
            "host_peak_rss_mib",
            p.peak_rss_mib,
            "MiB",
            "VmHWM at the end of the deterministic prefix",
        ),
        metric(
            "ops_ok_frac",
            1.0 - failed as f64 / t.attempted as f64,
            "fraction",
            format!("{failed} of {} operations failed", t.attempted),
        ),
    ]
}

/// Replay each suite's kernel bodies on its initial inputs and time every
/// call; returns the median payload ns of one iteration per suite.
fn replay_payload(o: &Outcome, probe: &mut Probe) -> Vec<f64> {
    o.payload
        .iter()
        .map(|(spec, _)| {
            let mut per_op = vec![Vec::with_capacity(PAYLOAD_REPS); spec.ops.len()];
            for _ in 0..PAYLOAD_REPS {
                let buffers: Vec<gpu_sim::DataBuffer> = spec
                    .arrays
                    .iter()
                    .map(|a| gpu_sim::DataBuffer::new(a.init.clone()))
                    .collect();
                for (k, op) in spec.ops.iter().enumerate() {
                    let (bufs, scalars) = spec.op_inputs(op, &buffers);
                    let start = probe.clock_ns();
                    (op.def.func)(std::hint::black_box(&bufs), &scalars);
                    let end = probe.clock_ns();
                    probe.payload_span(start, end, k as u32);
                    per_op[k].push((end - start) as f64);
                }
            }
            per_op
                .iter()
                .map(|v| percentile(v, 50.0).unwrap_or(0.0))
                .sum()
        })
        .collect()
}

fn per_layer(o: &Outcome, probe: &mut Probe) -> Vec<Metric> {
    let iter_ns = replay_payload(o, probe);
    let spans = probe.spans();
    let selfs = probe.self_times();
    let unit_ns: u64 = spans
        .iter()
        .filter(|s| s.layer == Layer::Unit)
        .map(|s| s.dur_ns())
        .sum();
    let traced_launches = o.timed.traced.1.max(1) as f64;
    let mut out = Vec::new();
    let mut runtime_ns = 0u64;
    let mut sync_ns = 0u64;
    for layer in Layer::CALLS {
        let (mut calls, mut allocs, mut in_units) = (0u64, 0u64, 0u64);
        let mut self_ns = Vec::new();
        for (s, &own) in spans.iter().zip(&selfs) {
            if s.layer == layer {
                calls += 1;
                allocs += s.allocs as u64;
                self_ns.push(own as f64);
                if s.parent != u32::MAX {
                    in_units += own;
                }
            }
        }
        runtime_ns += in_units;
        if layer == Layer::Sync {
            sync_ns = in_units;
        }
        let name = layer.name();
        out.push(metric(&format!("{name}.calls"), calls as f64, "count", ""));
        out.push(metric(
            &format!("{name}.self_ns_p50"),
            percentile(&self_ns, 50.0).unwrap_or(0.0),
            "ns",
            "",
        ));
        if layer != Layer::BuildKernel {
            out.push(metric(
                &format!("{name}.share"),
                in_units as f64 / unit_ns.max(1) as f64,
                "fraction",
                "of traced host time",
            ));
        }
        out.push(metric(
            &format!("{name}.allocs_per_call"),
            allocs as f64 / calls.max(1) as f64,
            "count",
            "",
        ));
    }
    let payload_calls: u64 = o.payload.iter().map(|(s, n)| n * s.ops.len() as u64).sum();
    let payload_ns: f64 = o
        .payload
        .iter()
        .zip(&iter_ns)
        .map(|((_, n), ns)| *n as f64 * ns)
        .sum();
    out.push(metric(
        "kernels.payload.calls",
        payload_calls as f64,
        "count",
        "in traced units",
    ));
    out.push(metric(
        "kernels.payload.self_s",
        payload_ns * 1e-9,
        "s",
        "replayed, median of 5 per op",
    ));
    out.push(metric(
        "kernels.payload.share",
        payload_ns / unit_ns.max(1) as f64,
        "fraction",
        "of traced host time",
    ));
    out.push(metric(
        "grcuda.sync.net_payload_ns_per_launch",
        (sync_ns as f64 - payload_ns) / traced_launches,
        "ns",
        "sync self time minus payload; negative when payload runs inside launches and reads",
    ));
    out.push(metric(
        "sched.overhead_ns_per_launch",
        (runtime_ns as f64 - payload_ns) / traced_launches,
        "ns",
        "runtime self time minus payload",
    ));
    for (name, value, unit) in &o.gauges {
        out.push(metric(name, *value, unit, ""));
    }
    for name in SERVE_GAUGES {
        if !o.gauges.iter().any(|(n, _, _)| n == name) {
            out.push(metric(name, 0.0, "count", "serve-tenants only"));
        }
    }
    let (tr, un) = (o.timed.traced, o.timed.untraced);
    let traced_rate = tr.1 as f64 / tr.0.max(1e-12);
    let untraced_rate = un.1 as f64 / un.0.max(1e-12);
    out.push(metric(
        "trace.host_launches_per_s_traced",
        traced_rate,
        "1/s",
        "traced rounds",
    ));
    out.push(metric(
        "trace.host_launches_per_s_untraced",
        untraced_rate,
        "1/s",
        "interleaved untraced rounds",
    ));
    out.push(metric(
        "trace.overhead_launches_per_s",
        traced_rate - untraced_rate,
        "1/s",
        "traced minus untraced",
    ));
    out.push(metric(
        "trace.overhead_frac",
        1.0 - traced_rate / untraced_rate.max(1e-12),
        "fraction",
        "",
    ));
    out
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.cfg;
    let mut probe = Probe::new(cfg.trace);
    let o = match args.workload.as_str() {
        "paper-p100" => workload::paper::run(&cfg, &mut probe),
        "sched-cluster" => workload::cluster::run(&cfg, &mut probe),
        _ => workload::serve::run(&cfg, &mut probe),
    };
    let mut metrics = if cfg.trace {
        per_layer(&o, &mut probe)
    } else {
        end_to_end(&o, o.check.ops_failed())
    };
    let mut check = o.check;
    for m in &mut metrics {
        if !m.value.is_finite() {
            check.error(&m.name, "metric is not a finite number");
            m.value = 0.0;
        }
    }
    let attempted = o.timed.attempted.max(1);
    let failed = check.ops_failed().min(attempted);
    let correct = failed == 0;
    if cfg.trace {
        let path = Path::new(TRACE_DIR).join(format!("trace-{}.tsv", args.workload));
        match std::fs::create_dir_all(TRACE_DIR).and_then(|()| probe.write_tsv(&path)) {
            Ok(()) => println!(
                "spans: {} written to {}",
                probe.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    println!(
        "workload {} seed {} trace {}: {} rounds, {} requests, {} launches in {:.2} s",
        args.workload,
        cfg.seed,
        cfg.trace as u8,
        o.timed.rounds,
        o.timed.requests,
        o.timed.launches,
        o.timed.host_s
    );
    for line in &o.notes {
        println!("{line}");
    }
    for m in &metrics {
        println!(
            "  {:<44} {:>16.4} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for line in &check.audits {
        println!("{line}");
    }
    for msg in &check.messages {
        println!("FAILED: {msg}");
    }
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
