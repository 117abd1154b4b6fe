//! Hammer-pulse throughput per backend, from the paper-scale 64×64 array
//! up to the production-sized 256×256 and megabit 1024×1024 arrays.
//!
//! Times how many (pulse + idle-gap) hammer cycles per second each
//! [`BackendKind`] sustains, prints a comparison and records it in
//! `BENCH_backends.json` at the workspace root. Every row records the
//! *effective* worker-thread count and lane-kernel ISA the engine reports —
//! [`HammerBackend::worker_threads`] / [`HammerBackend::simd_isa`] — not
//! whatever was requested. Two acceptance gates are asserted at the end so
//! a regression fails `cargo bench`:
//!
//! - the struct-of-arrays batched engine must beat the scalar pulse engine
//!   by ≥3× on 64×64 (the batched-backend refactor's gate), and
//! - on 256×256 the threaded batched engine must beat the single-threaded
//!   one by ≥3× — *skipped with a printed notice on machines with fewer
//!   than four cores*, where the speedup is physically unobtainable.
//!
//! `batched_fast_256` times the opt-in fast-math tier next to the exact
//! `batched_256` row. The JSON records whatever the machine honestly
//! measured either way.
//!
//! The MNA-backed detailed engine is timed on a 16×16 array instead (its
//! per-sub-step circuit solve makes 64×64 transients take hours — that
//! fidelity tier exists for small-array validation, not campaigns); its
//! entry in the JSON names its own array size. The surrogate entries time
//! the table-driven reduced-order backend on the large arrays it exists
//! for; its one-off table-fit cost is recorded separately from the
//! sustained throughput.

use std::time::Instant;

use criterion::{black_box, BatchSize, Criterion};
use neurohammer::campaign::json::Json;
use rram_crossbar::{BackendKind, CellAddress, CrosstalkHub, EngineConfig, HammerBackend};
use rram_jart::{DeviceParams, DigitalState};
use rram_units::{Seconds, Volts};

const ROWS: usize = 64;
const COLS: usize = 64;
/// Production-sized array edge for the threaded/fast-math/surrogate comparison.
const LARGE_EDGE: usize = 256;
/// Megabit-scale array edge (the arrays the neurohammer setting targets).
const HUGE_EDGE: usize = 1024;
/// Array edge for the detailed (MNA) engine's separate measurement.
const DETAILED_EDGE: usize = 16;
/// 50 ns pulse + 50 ns gap, the campaign default duty cycle.
const PULSE: Seconds = Seconds(50e-9);

fn build(kind: BackendKind, rows: usize, cols: usize) -> Box<dyn HammerBackend> {
    let hub = CrosstalkHub::two_ring(rows, cols, 0.15, Seconds(30e-9));
    kind.build(
        rows,
        cols,
        DeviceParams::default(),
        hub,
        EngineConfig::default(),
    )
}

/// Applies `pulses` hammer cycles to the array-centre aggressor.
fn hammer(engine: &mut dyn HammerBackend, pulses: usize) {
    let aggressor = CellAddress::new(engine.rows() / 2, engine.cols() / 2);
    engine.force_state(aggressor, DigitalState::Lrs);
    for _ in 0..pulses {
        engine.apply_pulse(aggressor, Volts(1.05), PULSE);
        engine.idle(PULSE);
    }
    black_box(engine.thermal_readout(aggressor));
}

/// One recorded throughput measurement: the sustained rate plus what the
/// engine honestly reports about how it ran.
struct Measurement {
    /// Sustained hammer throughput, pulses per second (construction and
    /// table fitting excluded).
    pps: f64,
    /// Engine construction time, s — the surrogate's one-off table fit.
    build_seconds: f64,
    /// Effective lane-integration worker threads, from the engine.
    threads: usize,
    /// Lane-kernel instruction set, from the engine.
    simd_isa: &'static str,
}

/// Measures one backend configuration's sustained hammer throughput.
fn measure(
    kind: BackendKind,
    rows: usize,
    cols: usize,
    threads: usize,
    fast_math: bool,
    pulses: usize,
) -> Measurement {
    let hub = CrosstalkHub::two_ring(rows, cols, 0.15, Seconds(30e-9));
    let config = EngineConfig {
        threads,
        fast_math,
        ..EngineConfig::default()
    };
    let build_start = Instant::now();
    let mut engine = kind.build(rows, cols, DeviceParams::default(), hub, config);
    let build_seconds = build_start.elapsed().as_secs_f64();
    let threads = engine.worker_threads();
    let simd_isa = engine.simd_isa();
    // Warm up past the cold-array thermal transient, then keep the best of
    // three samples — the standard noise-robust throughput estimate on a
    // shared machine.
    hammer(engine.as_mut(), pulses.div_ceil(2));
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        hammer(engine.as_mut(), pulses);
        best = best.min(start.elapsed().as_secs_f64());
    }
    Measurement {
        pps: pulses as f64 / best,
        build_seconds,
        threads,
        simd_isa,
    }
}

fn main() {
    // Criterion-style per-burst timings (one warm-up + two samples each).
    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("backend_throughput_64x64");
    group.sample_size(2);
    for (name, kind, pulses) in [
        ("pulse", BackendKind::Pulse, 1),
        ("batched", BackendKind::Batched, 8),
    ] {
        group.bench_function(format!("{name}_{pulses}_hammer_pulses"), |b| {
            b.iter_batched(
                || build(kind, ROWS, COLS),
                |mut engine| hammer(engine.as_mut(), pulses),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();

    // The recorded comparison: sustained pulses/sec per backend. The
    // threaded rows use as many workers as the machine offers (capped at
    // 8 — the lane blocks stop amortising dispatch beyond that).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(8);
    let pulse = measure(BackendKind::Pulse, ROWS, COLS, 1, false, 3);
    let batched = measure(BackendKind::Batched, ROWS, COLS, 1, false, 60);
    let detailed = measure(
        BackendKind::detailed(),
        DETAILED_EDGE,
        DETAILED_EDGE,
        1,
        false,
        2,
    );
    let speedup = batched.pps / pulse.pps;

    // 256×256: the exact lane kernel, the opt-in fast-math tier, the
    // threaded path and the surrogate.
    let large_batched = measure(BackendKind::Batched, LARGE_EDGE, LARGE_EDGE, 1, false, 8);
    let large_fast = measure(BackendKind::Batched, LARGE_EDGE, LARGE_EDGE, 1, true, 8);
    let large_threaded = measure(
        BackendKind::Batched,
        LARGE_EDGE,
        LARGE_EDGE,
        threads,
        false,
        8,
    );
    let large_surrogate = measure(BackendKind::Surrogate, LARGE_EDGE, LARGE_EDGE, 1, false, 8);
    let threaded_speedup = large_threaded.pps / large_batched.pps;

    let huge_threaded = measure(
        BackendKind::Batched,
        HUGE_EDGE,
        HUGE_EDGE,
        threads,
        false,
        2,
    );
    let huge_surrogate = measure(BackendKind::Surrogate, HUGE_EDGE, HUGE_EDGE, 1, false, 2);

    let describe = |m: &Measurement| format!("{} thread(s), {} lane kernel", m.threads, m.simd_isa);
    println!("\nbackend throughput (50 ns pulse + 50 ns gap):");
    println!(
        "  {:>16}: {:10.2} pulses/s on {ROWS}x{COLS}",
        "pulse", pulse.pps
    );
    println!(
        "  {:>16}: {:10.2} pulses/s on {ROWS}x{COLS} ({})",
        "batched",
        batched.pps,
        describe(&batched)
    );
    println!(
        "  {:>16}: {:10.2} pulses/s on {DETAILED_EDGE}x{DETAILED_EDGE}",
        "detailed", detailed.pps
    );
    println!(
        "  {:>16}: {:10.2} pulses/s on {LARGE_EDGE}x{LARGE_EDGE} ({})",
        "batched",
        large_batched.pps,
        describe(&large_batched)
    );
    println!(
        "  {:>16}: {:10.2} pulses/s on {LARGE_EDGE}x{LARGE_EDGE} ({})",
        "batched fast",
        large_fast.pps,
        describe(&large_fast)
    );
    println!(
        "  {:>16}: {:10.2} pulses/s on {LARGE_EDGE}x{LARGE_EDGE} ({})",
        format!("batched x{}", large_threaded.threads),
        large_threaded.pps,
        describe(&large_threaded)
    );
    println!(
        "  {:>16}: {:10.2} pulses/s on {LARGE_EDGE}x{LARGE_EDGE} \
         (one-off table fit {:.2}s)",
        "surrogate", large_surrogate.pps, large_surrogate.build_seconds
    );
    println!(
        "  {:>16}: {:10.2} pulses/s on {HUGE_EDGE}x{HUGE_EDGE} ({})",
        format!("batched x{}", huge_threaded.threads),
        huge_threaded.pps,
        describe(&huge_threaded)
    );
    println!(
        "  {:>16}: {:10.2} pulses/s on {HUGE_EDGE}x{HUGE_EDGE}",
        "surrogate", huge_surrogate.pps
    );
    println!("  batched/pulse speedup on {ROWS}x{COLS}: {speedup:.1}x");
    println!(
        "  threaded/batched speedup on {LARGE_EDGE}x{LARGE_EDGE}: {threaded_speedup:.2}x \
         ({threads} threads on {cores} core(s))"
    );

    let backend_entry = |array: String, m: &Measurement| {
        Json::Object(vec![
            ("array".into(), Json::String(array)),
            ("threads".into(), Json::Number(m.threads as f64)),
            ("simd_isa".into(), Json::String(m.simd_isa.into())),
            ("pulses_per_second".into(), Json::Number(m.pps)),
        ])
    };
    let large = format!("{LARGE_EDGE}x{LARGE_EDGE}");
    let huge = format!("{HUGE_EDGE}x{HUGE_EDGE}");
    let report = Json::Object(vec![
        ("pulse_ns".into(), Json::Number(PULSE.0 * 1e9)),
        ("gap_ns".into(), Json::Number(PULSE.0 * 1e9)),
        ("machine_cores".into(), Json::Number(cores as f64)),
        (
            "backends".into(),
            Json::Object(vec![
                (
                    "pulse".into(),
                    backend_entry(format!("{ROWS}x{COLS}"), &pulse),
                ),
                (
                    "batched".into(),
                    backend_entry(format!("{ROWS}x{COLS}"), &batched),
                ),
                (
                    "detailed".into(),
                    backend_entry(format!("{DETAILED_EDGE}x{DETAILED_EDGE}"), &detailed),
                ),
                (
                    "batched_256".into(),
                    backend_entry(large.clone(), &large_batched),
                ),
                (
                    "batched_fast_256".into(),
                    backend_entry(large.clone(), &large_fast),
                ),
                (
                    "batched_threaded_256".into(),
                    backend_entry(large.clone(), &large_threaded),
                ),
                ("surrogate_256".into(), {
                    let Json::Object(mut fields) = backend_entry(large, &large_surrogate) else {
                        unreachable!()
                    };
                    fields.push((
                        "table_fit_seconds".into(),
                        Json::Number(large_surrogate.build_seconds),
                    ));
                    Json::Object(fields)
                }),
                (
                    "batched_threaded_1024".into(),
                    backend_entry(huge.clone(), &huge_threaded),
                ),
                (
                    "surrogate_1024".into(),
                    backend_entry(huge, &huge_surrogate),
                ),
            ]),
        ),
        ("batched_over_pulse_speedup".into(), Json::Number(speedup)),
        (
            "threaded_over_batched_speedup_256".into(),
            Json::Number(threaded_speedup),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_backends.json");
    std::fs::write(path, format!("{report}\n")).expect("cannot write BENCH_backends.json");
    println!("  recorded in {path}");

    assert!(
        speedup >= 3.0,
        "batched backend must sustain >=3x the pulse backend's throughput \
         on a {ROWS}x{COLS} array, measured {speedup:.2}x"
    );
    if cores >= 4 {
        assert!(
            threaded_speedup >= 3.0,
            "threaded batched backend ({threads} threads on {cores} cores) must sustain \
             >=3x the single-threaded throughput on a {LARGE_EDGE}x{LARGE_EDGE} array, \
             measured {threaded_speedup:.2}x"
        );
    } else {
        println!(
            "  threaded >=3x assertion skipped: {cores} core(s) available, \
             need at least 4 for the speedup to be obtainable"
        );
    }
}
