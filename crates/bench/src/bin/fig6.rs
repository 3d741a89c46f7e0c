//! Fig. 6 — the computation structure of each benchmark: kernels, the
//! DAG the scheduler infers at run time, and the stream assignment it
//! chooses.
//!
//! Prints a summary per benchmark and (with `--dot`) the Graphviz DOT of
//! each DAG as reconstructed *by the scheduler* from argument overlap —
//! not from the plan's explicit edges.

use bench::render_table;
use benchmarks::{run_grcuda, scales, Bench};
use gpu_sim::DeviceProfile;
use grcuda::{GrCuda, Options};

fn main() {
    let dot = std::env::args().any(|a| a == "--dot");
    let dev = DeviceProfile::tesla_p100();
    let mut rows = Vec::new();
    for b in Bench::ALL {
        // Observe stream fan-out at a realistic scale (at tiny scales
        // kernels drain before the next launch and FIFO reuse correctly
        // collapses the streams).
        let res = run_grcuda(
            &b.build(scales::default_scale(b)),
            &dev,
            Options::parallel(),
            1,
        );
        let spec = b.build(scales::tiny(b));
        res.assert_ok();
        // Rebuild the DAG alone (no timing) for the DOT dump.
        let g = GrCuda::new(dev.clone(), Options::parallel());
        let arrays: Vec<grcuda::DeviceArray> = spec
            .arrays
            .iter()
            .map(|a| match &a.init {
                gpu_sim::TypedData::F32(v) => g.array_f32(v.len()),
                gpu_sim::TypedData::F64(v) => g.array_f64(v.len()),
                gpu_sim::TypedData::I32(v) => g.array_i32(v.len()),
                gpu_sim::TypedData::U8(v) => g.array_u8(v.len()),
            })
            .collect();
        for op in &spec.ops {
            let k = g.build_kernel(op.def).unwrap();
            k.launch(op.grid, &benchmarks::grcuda_args(op, &arrays))
                .unwrap();
        }
        // Dump the DAG before syncing — `sync()` compacts retired
        // vertices, which is exactly the structure Fig. 6 draws.
        let dot_dump = dot.then(|| g.dag_dot(b.name()));
        g.sync();
        rows.push(vec![
            b.name().into(),
            format!("{}", spec.ops.len()),
            format!("{}", spec.planned_streams()),
            format!("{}", res.streams_used),
            format!("{}", g.dag_len()),
        ]);
        if let Some(dump) = dot_dump {
            println!("// ---- {} ----", b.name());
            println!("{dump}");
        }
    }
    println!("Fig. 6 — benchmark structures (streams inferred by the scheduler)");
    println!(
        "{}",
        render_table(
            &[
                "bench",
                "kernels/iter",
                "paper streams",
                "scheduler streams",
                "DAG vertices"
            ],
            &rows
        )
    );
    println!("(run with --dot to dump each inferred DAG in Graphviz format)");
}
