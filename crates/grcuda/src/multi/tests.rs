use gpu_sim::{DeviceProfile, Grid, Topology, TopologyKind};
use kernels::black_scholes::BLACK_SCHOLES;
use kernels::util::{AXPY, SCALE};

use crate::{Arg, BatchLaunch, DeviceArray, GrCuda, Options, PlacementPolicy};

/// `n` P100s behind PCIe host links only.
fn mgpu(n: usize, policy: PlacementPolicy) -> GrCuda {
    let dev = DeviceProfile::tesla_p100();
    let topology = Topology::preset(TopologyKind::PcieOnly, n, &dev);
    GrCuda::with_topology(dev, topology, Options::parallel(), policy)
}

const G: Grid = Grid {
    blocks: (64, 1, 1),
    threads: (256, 1, 1),
};

fn bs_args(x: &DeviceArray, y: &DeviceArray, n: usize) -> Vec<Arg> {
    vec![
        Arg::array(x),
        Arg::array(y),
        Arg::scalar(n as f64),
        Arg::scalar(100.0),
        Arg::scalar(0.02),
        Arg::scalar(0.3),
        Arg::scalar(1.0),
    ]
}

/// Four fresh `(x, y)` option-pricing pairs with `x` filled on the host.
fn bs_pairs(g: &GrCuda, n: usize) -> Vec<(DeviceArray, DeviceArray)> {
    (0..4)
        .map(|_| {
            let (x, y) = (g.array_f64(n), g.array_f64(n));
            x.fill_f64(100.0);
            (x, y)
        })
        .collect()
}

/// `[x, y, a, n]` — the argument list of the scale/axpy family.
fn xy_args(x: &DeviceArray, y: &DeviceArray, a: f64) -> [Arg; 4] {
    [
        Arg::array(x),
        Arg::array(y),
        Arg::scalar(a),
        Arg::scalar(x.len() as f64),
    ]
}

#[test]
fn batched_launches_spread_and_compute_like_serial_ones() {
    let g = mgpu(2, PlacementPolicy::RoundRobin);
    let n = 1 << 14;
    let arrays = bs_pairs(&g, n);
    let bs = g.build_kernel(&BLACK_SCHOLES).unwrap();
    let args: Vec<Vec<Arg>> = arrays.iter().map(|(x, y)| bs_args(x, y, n)).collect();
    let calls: Vec<BatchLaunch<'_>> = args
        .iter()
        .map(|a| BatchLaunch {
            kernel: &bs,
            grid: G,
            args: a,
        })
        .collect();
    let placements = g.launch_batch(&calls).unwrap();
    g.sync();
    assert_eq!(placements, vec![0, 1, 0, 1], "batch goes through placement");
    assert_eq!(g.races().len(), 0);
    for (_, y) in &arrays {
        assert!(y.to_vec_f64().iter().all(|&p| p > 0.0));
    }
}

#[test]
fn independent_work_spreads_round_robin() {
    let g = mgpu(2, PlacementPolicy::RoundRobin);
    let n = 1 << 18;
    let arrays = bs_pairs(&g, n);
    let bs = g.build_kernel(&BLACK_SCHOLES).unwrap();
    let placements: Vec<u32> = arrays
        .iter()
        .map(|(x, y)| bs.launch_placed(G, &bs_args(x, y, n)).unwrap())
        .collect();
    g.sync();
    assert_eq!(placements, vec![0, 1, 0, 1]);
    assert_eq!(g.races().len(), 0);
    for (_, y) in &arrays {
        assert!(y.to_vec_f64().iter().all(|&p| p > 0.0));
    }
}

#[test]
fn locality_aware_keeps_chains_on_one_device() {
    let g = mgpu(2, PlacementPolicy::LocalityAware);
    let n = 1 << 16;
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    x.fill_f32(1.0);
    let scale = g.build_kernel(&SCALE).unwrap();
    let axpy = g.build_kernel(&AXPY).unwrap();
    let d1 = scale.launch_placed(G, &xy_args(&x, &y, 2.0)).unwrap();
    let d2 = axpy.launch_placed(G, &xy_args(&x, &y, 1.0)).unwrap();
    assert_eq!(
        d1, d2,
        "locality-aware placement must not migrate the chain"
    );
    assert_eq!(g.migration_stats().0, 0);
    g.sync();
    assert_eq!(y.get_f32(7), 3.0);
}

#[test]
fn round_robin_pays_migrations_on_dependent_chains() {
    let g = mgpu(2, PlacementPolicy::RoundRobin);
    let n = 1 << 16;
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    x.fill_f32(1.0);
    let scale = g.build_kernel(&SCALE).unwrap();
    let axpy = g.build_kernel(&AXPY).unwrap();
    scale.launch(G, &xy_args(&x, &y, 2.0)).unwrap();
    axpy.launch(G, &xy_args(&x, &y, 1.0)).unwrap();
    let (migs, bytes) = g.migration_stats();
    assert!(migs >= 1, "round-robin must migrate the dependent data");
    assert!(bytes >= n * 4);
    g.sync();
    assert_eq!(y.get_f32(7), 3.0, "migration must preserve values");
    assert_eq!(g.races().len(), 0);
}

#[test]
fn two_gpus_scale_independent_throughput() {
    let run = |n_dev: usize| -> f64 {
        let policy = if n_dev == 1 {
            PlacementPolicy::SingleGpu
        } else {
            PlacementPolicy::RoundRobin
        };
        let g = mgpu(n_dev, policy);
        // The virtual clock starts at zero, so `now()` after the final
        // sync is the makespan.
        assert_eq!(g.now(), 0.0);
        let n = 1 << 20;
        let bs = g.build_kernel(&BLACK_SCHOLES).unwrap();
        for _ in 0..4 {
            let x = g.array_f64(n);
            let y = g.array_f64(n);
            x.fill_f64(100.0);
            bs.launch(G, &bs_args(&x, &y, n)).unwrap();
        }
        g.sync();
        g.now()
    };
    let one = run(1);
    let two = run(2);
    assert!(
        two < 0.75 * one,
        "2 GPUs must be markedly faster: {two} vs {one}"
    );
}

#[test]
fn stream_aware_balances_a_fanout_across_all_devices() {
    let g = mgpu(4, PlacementPolicy::StreamAware);
    let n = 1 << 18;
    let bs = g.build_kernel(&BLACK_SCHOLES).unwrap();
    let mut placements = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..8 {
        let x = g.array_f64(n);
        let y = g.array_f64(n);
        x.fill_f64(100.0);
        placements.push(bs.launch_placed(G, &bs_args(&x, &y, n)).unwrap());
        ys.push(y);
    }
    g.sync();
    let mut used = placements.clone();
    used.sort_unstable();
    used.dedup();
    assert_eq!(
        used,
        vec![0, 1, 2, 3],
        "min-load placement must reach every device: {placements:?}"
    );
    assert_eq!(g.races().len(), 0);
    for y in &ys {
        assert!(y.get_f64(0) > 0.0);
    }
}

#[test]
fn u8_arrays_stage_and_migrate_across_devices() {
    use kernels::util::THRESHOLD_U8;
    let g = mgpu(2, PlacementPolicy::RoundRobin);
    let n = 4096;
    let x = g.array_u8(n);
    let y = g.array_u8(n);
    let z = g.array_u8(n);
    let input: Vec<u8> = (0..n).map(|i| (i % 256) as u8).collect();
    x.copy_from_u8(&input);
    let threshold = g.build_kernel(&THRESHOLD_U8).unwrap();
    // Op 1 lands on device 0 (taking the host u8 data with a plain
    // H2D); op 2 lands on device 1 and must *migrate* y — the chain
    // exercises both u8 data paths.
    let d1 = threshold.launch_placed(G, &xy_args(&x, &y, 128.0)).unwrap();
    let d2 = threshold.launch_placed(G, &xy_args(&y, &z, 1.0)).unwrap();
    assert_ne!(d1, d2, "round robin spreads the chain");
    let (migs, bytes) = g.migration_stats();
    assert!(migs >= 1, "dependent u8 data must migrate");
    assert!(bytes >= n);
    g.sync();
    let want: Vec<u8> = input
        .iter()
        .map(|&v| if v >= 128 { 255u8 } else { 0 })
        .collect();
    assert_eq!(y.to_vec_u8(), want, "migration preserved the u8 values");
    assert!(z.to_vec_u8().iter().all(|&v| v == 0 || v == 255));
    assert_eq!(z.get_u8(200), 255);
    assert_eq!(g.races().len(), 0);
}

#[test]
fn i32_accessors_round_trip_through_kernels_and_migrations() {
    use kernels::util::SCALE_I32;
    let g = mgpu(2, PlacementPolicy::RoundRobin);
    let n = 4096;
    let x = g.array_i32(n);
    let y = g.array_i32(n);
    let input: Vec<i32> = (0..n as i32).collect();
    x.copy_from_i32(&input);
    assert_eq!(x.to_vec_i32(), input, "host round-trip before any launch");
    let scale = g.build_kernel(&SCALE_I32).unwrap();
    let d1 = scale.launch_placed(G, &xy_args(&x, &y, 3.0)).unwrap();
    // Second step reads y (produced on d1) — lands on the other
    // device under round-robin and must migrate the i32 data.
    let d2 = scale.launch_placed(G, &xy_args(&y, &x, 2.0)).unwrap();
    assert_ne!(d1, d2);
    assert!(g.migration_stats().0 >= 1, "i32 chain must migrate");
    g.sync();
    let want: Vec<i32> = input.iter().map(|v| 3 * v).collect();
    assert_eq!(y.to_vec_i32(), want);
    assert_eq!(y.get_i32(5), 15);
    assert_eq!(
        x.to_vec_i32(),
        input.iter().map(|v| 6 * v).collect::<Vec<_>>()
    );
    assert_eq!(g.races().len(), 0);
}

#[test]
fn single_gpu_policy_matches_plain_grcuda_semantics() {
    let g = mgpu(3, PlacementPolicy::SingleGpu);
    let n = 4096;
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    x.fill_f32(3.0);
    let scale = g.build_kernel(&SCALE).unwrap();
    scale.launch(G, &xy_args(&x, &y, 2.0)).unwrap();
    assert_eq!(y.get_f32(0), 6.0);
    assert_eq!(g.device_count(), 3);
    let tl = g.timeline();
    assert!(tl.device_span(0) > 0.0);
    assert_eq!((tl.device_span(1), tl.device_span(2)), (0.0, 0.0));
    assert_eq!(g.migration_stats().0, 0);
}

#[test]
fn unified_core_exposes_scheduler_stats_and_drains_on_sync() {
    let g = mgpu(2, PlacementPolicy::RoundRobin);
    let n = 1 << 14;
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    x.fill_f32(1.0);
    let scale = g.build_kernel(&SCALE).unwrap();
    for _ in 0..6 {
        scale.launch(G, &xy_args(&x, &y, 1.5)).unwrap();
    }
    assert!(g.scheduler_stats().live_vertices > 0, "DAG is shared");
    g.sync();
    let st = g.scheduler_stats();
    assert_eq!(st.live_vertices, 0);
    assert_eq!(st.stored_vertices, 0);
    assert_eq!(st.stream_claims, 0);
    assert_eq!(st.vertex_tasks, 0);
    assert_eq!(st.vertex_streams, 0);
    assert_eq!(st.vertex_devices, 0);
    assert_eq!(g.stats().retained_tasks, 0);
}
