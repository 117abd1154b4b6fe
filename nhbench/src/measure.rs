//! One repetition of one workload, measured through the public API.
//!
//! Every repetition reports raw numbers only (lists of samples, digests,
//! counts); `run.py` turns them into the metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use neurohammer::campaign::json::Json;
use neurohammer::campaign::{
    CampaignEvent, CampaignExecutor, CampaignOutcome, CampaignPoint, CampaignReport, CampaignSpec,
    PointKey,
};
use neurohammer::countermeasures::run_guarded_attack;
use neurohammer::{run_attack, CouplingSpec};
use rram_crossbar::{
    BackendKind, BatchedEngine, CellAddress, CrossbarArray, CrosstalkHub, EngineConfig,
    HammerBackend, WriteScheme,
};
use rram_fem::alpha::{cached_extraction_count, extract_alpha_cached, AlphaConfig};
use rram_fem::{CrossbarGeometry, HeatProblem, HeatSource, MaterialSet};
use rram_jart::{DeviceParams, DigitalState, MathMode};
use rram_server::{http, run_worker, Server, WorkerConfig};
use rram_units::{Kelvin, Seconds, Volts, Watts};

use crate::timing::{SpanLog, TimingBackend};
use crate::workloads::SERVICE_SHARDS;

/// How a repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: end-to-end numbers plus correctness data.
    Plain,
    /// A discarded repetition: the grid at a tenth of the pulse budget
    /// (`service`: the executor run whose report the served ones must match).
    Warmup,
    /// A traced drive of the same points, then an untraced run.
    Traced,
}

type Fields = Vec<(String, Json)>;

/// In-process set-up repetitions of the workloads whose set-up is cheap.
const SETUP_PROBES: usize = 15;
/// Fresh server binds and submissions before the measured `service` one.
const SERVICE_PROBES: usize = 6;
/// Calibration samples taken before and after the workload.
const CALIB_SAMPLES: usize = 3;
/// Reports with at most this many points carry one digest per point.
const POINT_DIGEST_LIMIT: usize = 1000;

fn num(value: f64) -> Json {
    Json::Number(value)
}

fn nums(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Array(values.into_iter().map(Json::Number).collect())
}

fn field(name: &str, value: Json) -> (String, Json) {
    (name.to_string(), value)
}

fn err(error: impl std::fmt::Display) -> String {
    error.to_string()
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex(value: u64) -> Json {
    Json::String(format!("{value:016x}"))
}

/// A program-independent libm loop; its duration tracks the host's speed.
pub fn calib_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0.5f64;
    for i in 0..400_000u32 {
        x = (x + (f64::from(i) * 1e-6).exp()).ln().sin() + 1.0;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process so far, kB (`VmHWM`).
fn vm_hwm_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0.0)
}

/// The lane-kernel ISA a batched backend reports.
fn simd_isa() -> String {
    let spec = CampaignSpec {
        backends: vec![BackendKind::Batched],
        ..CampaignSpec::default()
    };
    let point = spec.points()[0];
    spec.backend_for(&point)
        .map(|backend| backend.simd_isa().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Payload of the panic that stops a set-up probe at `Started`.
struct SetupDone;

fn install_quiet_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.payload().is::<SetupDone>() {
            default(info);
        }
    }));
}

/// Times `execute` up to its `Started` event, then unwinds out of it:
/// the event is emitted on the calling thread before any point starts.
fn setup_probe(executor: &CampaignExecutor) -> Result<f64, String> {
    let started = Instant::now();
    let mut setup = None;
    let result = catch_unwind(AssertUnwindSafe(|| {
        executor.execute(|event| {
            if matches!(event, CampaignEvent::Started { .. }) {
                setup = Some(started.elapsed().as_secs_f64());
                std::panic::panic_any(SetupDone);
            }
        })
    }));
    match (result, setup) {
        (Err(_), Some(setup)) => Ok(setup),
        (Ok(Err(error)), _) => Err(err(error)),
        _ => Err("set-up probe did not stop at Started".into()),
    }
}

/// Runs one repetition and returns its raw fields.
pub fn repetition(
    workload: &str,
    spec: CampaignSpec,
    mode: Mode,
    out: &Path,
) -> Result<Fields, String> {
    install_quiet_hook();
    let steal_before = steal_ticks();
    let before: Vec<f64> = (0..CALIB_SAMPLES).map(|_| calib_ms()).collect();
    let mut fields = vec![
        field("workload", Json::String(workload.into())),
        field("seed", num(spec.seed as f64)),
        field("simd_isa", Json::String(simd_isa())),
        field(
            "nproc",
            num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
    ];
    if workload == "service" {
        fields.extend(service(spec, mode, out)?);
    } else {
        fields.extend(executor(workload, spec, mode, out)?);
    }
    let after = (0..CALIB_SAMPLES).map(|_| calib_ms());
    fields.push(field("calib_ms", nums(before.into_iter().chain(after))));
    fields.push(field("steal_ticks", num(steal_ticks() - steal_before)));
    Ok(fields)
}

/// Clock ticks the hypervisor took from this machine's CPUs so far (the
/// `steal` column of `/proc/stat`; 0 where it is not reported).
fn steal_ticks() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|steal| steal.parse().ok())
        })
        .unwrap_or(0.0)
}

/// What one untraced executor run observed.
struct ExecutorRun {
    setup_s: f64,
    campaign_s: f64,
    /// Seconds from the end of set-up to each `PointFinished`.
    finished_s: Vec<f64>,
    report: CampaignReport,
}

fn execute_timed(executor: &CampaignExecutor) -> Result<ExecutorRun, String> {
    let started = Instant::now();
    let mut setup = None;
    let mut finished = Vec::new();
    let report = executor
        .execute(|event| match event {
            CampaignEvent::Started { .. } => setup = Some(started.elapsed()),
            CampaignEvent::PointFinished(_) => finished.push(started.elapsed()),
            CampaignEvent::Finished => {}
        })
        .map_err(err)?;
    let total = started.elapsed();
    let setup = setup.ok_or("no Started event")?;
    Ok(ExecutorRun {
        setup_s: setup.as_secs_f64(),
        campaign_s: (total - setup).as_secs_f64(),
        finished_s: finished
            .into_iter()
            .map(|t| (t - setup).as_secs_f64())
            .collect(),
        report,
    })
}

/// Digest fields of a report: the whole canonical JSON, and one digest per
/// point for small grids.
fn digests(report: &CampaignReport) -> Fields {
    let mut fields = vec![
        field("points", num(report.outcomes.len() as f64)),
        field("report_fnv", hex(fnv1a(report.to_json().as_bytes()))),
    ];
    if report.outcomes.len() <= POINT_DIGEST_LIMIT {
        let per_point = report.outcomes.iter().map(|outcome| {
            let single = CampaignReport {
                name: String::new(),
                outcomes: vec![CampaignOutcome {
                    wall_ns: None,
                    ..outcome.clone()
                }],
            };
            hex(fnv1a(single.to_json().as_bytes()))
        });
        fields.push(field("point_fnv", Json::Array(per_point.collect())));
    }
    fields
}

/// Grid indices of `paper_flow` points that break the paper's shapes:
/// pulses-to-flip falls with pulse length and rises with spacing (every
/// point must flip). A broken series flags all of its points.
fn shape_violations(report: &CampaignReport) -> Vec<usize> {
    let mut bad = std::collections::BTreeSet::new();
    type Series = BTreeMap<(u64, u64), Vec<(f64, u64, usize, bool)>>;
    let mut over_length: Series = BTreeMap::new();
    let mut over_spacing: Series = BTreeMap::new();
    for o in &report.outcomes {
        let p = &o.point;
        let row = |x: f64| (x, o.pulses, o.key.index, o.flipped);
        over_length
            .entry((p.spacing_nm.to_bits(), p.ambient.0.to_bits()))
            .or_default()
            .push(row(p.pulse_length.0));
        over_spacing
            .entry((p.pulse_length.0.to_bits(), p.ambient.0.to_bits()))
            .or_default()
            .push(row(p.spacing_nm));
    }
    let mut check = |series: Series, falls: bool| {
        for (_, mut rows) in series {
            rows.sort_by(|a, b| a.0.total_cmp(&b.0));
            let pulses: Vec<u64> = rows.iter().map(|r| r.1).collect();
            let monotone = pulses
                .windows(2)
                .all(|w| if falls { w[1] <= w[0] } else { w[1] >= w[0] });
            let moved = if falls {
                pulses.last() < pulses.first()
            } else {
                pulses.last() > pulses.first()
            };
            if !(monotone && moved && rows.iter().all(|r| r.3)) {
                bad.extend(rows.iter().map(|r| r.2));
            }
        }
    };
    check(over_length, true);
    check(over_spacing, false);
    bad.into_iter().collect()
}

fn executor(workload: &str, spec: CampaignSpec, mode: Mode, out: &Path) -> Result<Fields, String> {
    // The warm-up touches every code path of the grid at a tenth of the
    // pulse budget.
    let executor = CampaignExecutor::new(match mode {
        Mode::Warmup => CampaignSpec {
            max_pulses: (spec.max_pulses / 10).max(1),
            ..spec.clone()
        },
        _ => spec.clone(),
    })
    .map_err(err)?;
    let fem = matches!(spec.coupling, CouplingSpec::Fem { .. });
    let mut fields = Fields::new();

    // Traced mode drives the points itself first, so the FEM extraction
    // it times runs on a cold process-global α cache.
    let alpha_dir = out.join(format!("{workload}.alpha"));
    let traced = if mode == Mode::Traced {
        Some(traced_run(workload, &spec, out, &alpha_dir)?)
    } else {
        None
    };

    let mut setup = Vec::new();
    if mode == Mode::Plain && !fem {
        for _ in 0..SETUP_PROBES {
            setup.push(setup_probe(&executor)?);
        }
    }
    let run = execute_timed(&executor)?;
    setup.push(run.setup_s);
    fields.push(field("vm_hwm_kb", num(vm_hwm_kb())));
    fields.push(field("setup_s", nums(setup)));
    fields.push(field("campaign_s", num(run.campaign_s)));
    fields.push(field("expected_points", num(executor.total() as f64)));
    fields.extend(digests(&run.report));
    if workload == "paper_flow" && mode != Mode::Warmup {
        let bad = shape_violations(&run.report);
        fields.push(field(
            "shape_violations",
            nums(bad.into_iter().map(|i| i as f64)),
        ));
    }

    if let Some((traced_fields, traced_report)) = traced {
        fields.extend(traced_fields);
        fields.push(field(
            "traced_identical",
            Json::Bool(traced_report.to_json() == run.report.to_json()),
        ));
        fields.push(field(
            "executor",
            Json::Object(vec![
                field("threads", num(spec.threads.max(1) as f64)),
                field("campaign_s", num(run.campaign_s)),
                field("finished_s", nums(run.finished_s.iter().copied())),
                field(
                    "point_s",
                    nums(
                        run.report
                            .outcomes
                            .iter()
                            .map(|o| o.wall_ns.unwrap_or(0) as f64 * 1e-9),
                    ),
                ),
            ]),
        ));
        if fem {
            let solves = fem_solves(&alpha_dir);
            let _ = std::fs::remove_dir_all(&alpha_dir);
            fields.push(field("fem", solves?));
        }
        fields.push(field("kernels", kernel_probes()));
    }
    Ok(fields)
}

/// Drives every point of `spec` through `backend_for` and the attack
/// drivers exactly as the executor dispatches them, with spans at every
/// boundary. Returns the traced fields and the assembled report.
fn traced_run(
    workload: &str,
    spec: &CampaignSpec,
    out: &Path,
    alpha_dir: &Path,
) -> Result<(Fields, CampaignReport), String> {
    let log = SpanLog::new();
    let started = Instant::now();
    let keyed = spec.keyed_points();

    let setup = log.open("setup", None, None);
    if matches!(spec.coupling, CouplingSpec::Fem { .. }) {
        // The program's own set-up resolves every coupling on a cold α
        // cache; its on-disk cache records each extraction's inputs.
        let _ = std::fs::remove_dir_all(alpha_dir);
        let executor = CampaignExecutor::new(spec.clone())
            .map_err(err)?
            .with_alpha_cache(alpha_dir);
        log.time("fem.extract", Some(&setup), None, || setup_probe(&executor))?;
    }
    log.close(setup, Vec::new());
    let setup_s = started.elapsed();

    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::with_capacity(keyed.len()));
    let failure = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..spec.threads.max(1).min(keyed.len()) {
            scope.spawn(|| loop {
                let slot = next.fetch_add(1, Ordering::SeqCst);
                let Some((key, point)) = keyed.get(slot) else {
                    break;
                };
                match traced_point(spec, *key, point, &log) {
                    Ok(outcome) => outcomes.lock().expect("outcomes").push(outcome),
                    Err(error) => {
                        *failure.lock().expect("failure") = Some(error);
                        break;
                    }
                }
            });
        }
    });
    let campaign_s = (started.elapsed() - setup_s).as_secs_f64();
    if let Some(error) = failure.into_inner().expect("failure") {
        return Err(error);
    }
    // `backend_for` samples each point's table once inside the build;
    // timing it again here, outside the drive, lets `run.py` take it out
    // of `crossbar.build` without charging the extra call to the drive.
    if !spec.spreads.is_empty() {
        for (key, point) in &keyed {
            log.time("variability.sample", None, Some(key.index), || {
                spec.sampled_table(point)
            })
            .map_err(err)?;
        }
    }
    let mut outcomes = outcomes.into_inner().expect("outcomes");
    outcomes.sort_by_key(|o| o.key);
    let report = CampaignReport {
        name: spec.name.clone(),
        outcomes,
    };
    let spans_path = out.join(format!("{workload}.spans.jsonl"));
    log.write_jsonl(&spans_path).map_err(err)?;
    let fields = vec![
        field("traced_setup_s", num(setup_s.as_secs_f64())),
        field("traced_campaign_s", num(campaign_s)),
        field("spans", Json::String(spans_path.display().to_string())),
    ];
    Ok((fields, report))
}

fn traced_point(
    spec: &CampaignSpec,
    key: PointKey,
    point: &CampaignPoint,
    log: &SpanLog,
) -> Result<CampaignOutcome, String> {
    let index = Some(key.index);
    let span = log.open("point", None, index);
    let backend = log
        .time("crossbar.build", Some(&span), index, || {
            spec.backend_for(point)
        })
        .map_err(err)?;
    let mut backend = TimingBackend::new(backend);
    let config = spec.attack_config(point);
    let outcome = if point.guard.is_none() {
        let attack = log.open("attack", Some(&span), index);
        let result = run_attack(&mut backend, &config);
        let mut counts = backend.totals.counts();
        counts.push(("pulses", result.pulses));
        log.close(attack, counts);
        let victim = config.victim;
        CampaignOutcome {
            key,
            point: *point,
            flipped: result.flipped,
            pulses: result.pulses,
            victim_drift: result.victim_drift,
            final_crosstalk: backend.hub().delta(victim.row, victim.col),
            sim_time: result.elapsed,
            collateral_flips: result.collateral_flips,
            defense: None,
            wall_ns: None,
        }
    } else {
        let guard = log.open("guard", Some(&span), index);
        let guarded = run_guarded_attack(
            &mut backend,
            &config,
            &point.guard,
            &spec.benign_workload(point),
        );
        let mut counts = backend.totals.counts();
        counts.push(("pulses", guarded.attack.pulses));
        log.close(guard, counts);
        CampaignOutcome {
            key,
            point: *point,
            flipped: guarded.attack.flipped,
            pulses: guarded.attack.pulses,
            victim_drift: guarded.attack.victim_drift,
            final_crosstalk: guarded.final_crosstalk,
            sim_time: guarded.attack.elapsed,
            collateral_flips: guarded.attack.collateral_flips,
            defense: Some(guarded.defense),
            wall_ns: None,
        }
    };
    log.close(span, Vec::new());
    Ok(outcome)
}

/// Counts the conjugate-gradient iterations of the FEM extractions the
/// traced set-up ran. Each file of its on-disk α cache carries the exact
/// inputs of one extraction (`rram_fem::alpha`'s key: rows, cols, ten
/// geometry lengths, six conductivities, ambient, selected cell, powers).
/// The inputs are rebuilt, confirmed bit-identical by a hit in the
/// program's in-process memo, and re-solved one heat problem per power,
/// as `extract_alpha` solves them.
fn fem_solves(alpha_dir: &Path) -> Result<Json, String> {
    let started = Instant::now();
    let mut files: Vec<_> = std::fs::read_dir(alpha_dir)
        .map_err(err)?
        .map(|entry| entry.map(|e| e.path()).map_err(err))
        .collect::<Result<_, _>>()?;
    files.retain(|path| path.extension().is_some_and(|ext| ext == "cache"));
    files.sort();
    let mut iterations = 0usize;
    let mut solves = 0usize;
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(err)?;
        let key: Vec<u64> = text
            .lines()
            .nth(1)
            .and_then(|line| line.strip_prefix("key "))
            .ok_or_else(|| format!("{}: no key line", path.display()))?
            .split_whitespace()
            .map(|word| u64::from_str_radix(word, 16).map_err(err))
            .collect::<Result<_, _>>()?;
        if key.len() < 23 {
            return Err(format!("{}: short α cache key", path.display()));
        }
        let f = |i: usize| f64::from_bits(key[i]);
        let geometry = CrossbarGeometry {
            rows: key[0] as usize,
            cols: key[1] as usize,
            electrode_width_nm: f(2),
            electrode_spacing_nm: f(3),
            electrode_thickness_nm: f(4),
            oxide_thickness_nm: f(5),
            substrate_thickness_nm: f(6),
            buffer_thickness_nm: f(7),
            passivation_thickness_nm: f(8),
            margin_nm: f(9),
            filament_diameter_nm: f(10),
            voxel_nm: f(11),
            materials: MaterialSet {
                substrate: f(12),
                isolation: f(13),
                electrode: f(14),
                switching_oxide: f(15),
                filament: f(16),
                passivation: f(17),
            },
        };
        let config = AlphaConfig {
            ambient: Kelvin(f(18)),
            selected: (key[19] as usize, key[20] as usize),
            powers: key[21..]
                .iter()
                .map(|&p| Watts(f64::from_bits(p)))
                .collect(),
        };
        let cached = cached_extraction_count();
        extract_alpha_cached(&geometry, &config).map_err(err)?;
        if cached_extraction_count() != cached {
            return Err(format!(
                "{}: rebuilt extraction inputs differ from the program's",
                path.display()
            ));
        }
        let model = geometry.build().map_err(err)?;
        for &power in &config.powers {
            let field = HeatProblem::new(&model, config.ambient)
                .with_source(HeatSource {
                    row: config.selected.0,
                    col: config.selected.1,
                    power,
                })
                .solve()
                .map_err(err)?;
            iterations += field.stats().iterations;
            solves += 1;
        }
    }
    if files.is_empty() {
        return Err("the traced set-up wrote no α cache file".into());
    }
    Ok(Json::Object(vec![
        field("cg_iterations", num(iterations as f64)),
        field("extractions", num(files.len() as f64)),
        field("solves", num(solves as f64)),
        field("solve_s", num(started.elapsed().as_secs_f64())),
    ]))
}

/// Median nanoseconds per cell of `f` over `calls` calls on `cells` cells.
fn per_cell_ns(cells: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..calls)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64 / cells as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times the four sub-step layers of the batched engine on a hammered
/// n×n array: lane kernel, hub update, crosstalk import, gap relax.
fn kernel_probe(n: usize) -> Json {
    let cells = n * n;
    let ambient = Kelvin(300.0);
    let dt = Seconds(10e-9);
    let amplitude = Volts(rram_units::V_SET);
    let config = EngineConfig {
        scheme: WriteScheme::HalfVoltage,
        v_write: amplitude,
        max_substep: dt,
        ambient,
        threads: 1,
        fast_math: false,
    };
    let mut engine = BatchedEngine::new(
        CrossbarArray::new(n, n, DeviceParams::default()),
        CrosstalkHub::two_ring(n, n, 0.15, Seconds(30e-9)),
        config,
    );
    let aggressor = CellAddress::new(n / 2, n / 2);
    engine.force_state(aggressor, DigitalState::Lrs);
    for _ in 0..8 {
        engine.apply_pulse(aggressor, amplitude, Seconds(50e-9));
        engine.idle(Seconds(50e-9));
    }
    let (unselected_wl, unselected_bl) = WriteScheme::HalfVoltage.unselected_levels(amplitude);
    let mut voltages = Vec::with_capacity(cells);
    for row in 0..n {
        let word_line = if row == aggressor.row {
            amplitude
        } else {
            unselected_wl
        };
        for col in 0..n {
            let bit_line = if col == aggressor.col {
                Volts(0.0)
            } else {
                unselected_bl
            };
            voltages.push((word_line - bit_line).0);
        }
    }
    let calls = (2_000_000 / cells).clamp(5, 20_000);
    let step = per_cell_ns(cells, calls, || {
        engine
            .array_mut()
            .step_lanes_mode(&voltages, dt, MathMode::Exact)
    });
    let temperatures = engine.array().temperatures().to_vec();
    let hub = per_cell_ns(cells, calls, || {
        engine.hub_mut().update_batched(&temperatures, ambient, dt)
    });
    let deltas = engine.hub().deltas().to_vec();
    let import = per_cell_ns(cells, calls, || {
        engine.array_mut().import_crosstalk(&deltas)
    });
    let relax = per_cell_ns(cells, calls, || engine.array_mut().relax_lanes(dt));
    Json::Object(vec![
        field("step_lanes", num(step)),
        field("hub_update", num(hub)),
        field("import", num(import)),
        field("relax", num(relax)),
    ])
}

fn kernel_probes() -> Json {
    Json::Object(
        [(5, "s5"), (256, "s256"), (1024, "s1024")]
            .into_iter()
            .map(|(n, name)| field(name, kernel_probe(n)))
            .collect(),
    )
}

fn get(addr: std::net::SocketAddr, path: &str) -> Result<String, String> {
    match http::call(addr, "GET", path, None).map_err(err)? {
        (200, body) => Ok(body),
        (status, body) => Err(format!("GET {path} answered {status}: {body}")),
    }
}

/// A bound, serving daemon with one submitted job.
struct Submitted {
    handle: rram_server::ServerHandle,
    job: u64,
    /// Seconds from the bind call to the moment `POST /jobs` was sent.
    sent_s: f64,
    /// Seconds from the bind call to the `POST /jobs` response (set-up).
    setup_s: f64,
}

fn submit(body: &str) -> Result<Submitted, String> {
    let started = Instant::now();
    let server = Server::bind("127.0.0.1:0", Duration::from_secs(600)).map_err(err)?;
    let handle = server.spawn();
    let sent_s = started.elapsed().as_secs_f64();
    let (status, response) = http::call(handle.addr(), "POST", "/jobs", Some(body)).map_err(err)?;
    let setup_s = started.elapsed().as_secs_f64();
    if status != 201 {
        handle.shutdown();
        return Err(format!("POST /jobs answered {status}: {response}"));
    }
    let job = Json::parse(&response)
        .ok()
        .and_then(|json| json.get("id").and_then(Json::as_u64))
        .ok_or("POST /jobs answered without an id")?;
    Ok(Submitted {
        handle,
        job,
        sent_s,
        setup_s,
    })
}

/// Milliseconds of each `GET /jobs/{id}` issued every 50 ms until `done`.
fn poll_status(addr: std::net::SocketAddr, job: u64, done: &AtomicBool) -> Vec<f64> {
    let mut latencies = Vec::new();
    while !done.load(Ordering::SeqCst) {
        let started = Instant::now();
        if http::call(addr, "GET", &format!("/jobs/{job}"), None).is_ok() {
            latencies.push(started.elapsed().as_secs_f64() * 1e3);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    latencies
}

/// `service` in one mode.
///
/// The warm-up runs the same spec through the in-process executor instead
/// of the service: its report digest is what every served report of the
/// run must match byte for byte. Traced mode runs the job twice: untraced
/// first (its `campaign_s`), then with a status poller and the server's
/// trace and `/metrics` saved for the per-layer numbers.
fn service(spec: CampaignSpec, mode: Mode, out: &Path) -> Result<Fields, String> {
    match mode {
        Mode::Warmup => {
            let started = Instant::now();
            let executor = CampaignExecutor::new(CampaignSpec {
                threads: 2,
                ..spec.clone()
            })
            .map_err(err)?;
            let report = executor.execute(|_| {}).map_err(err)?;
            Ok(vec![
                field("executor_s", num(started.elapsed().as_secs_f64())),
                field("expected_points", num(spec.num_points() as f64)),
                field("points", num(report.outcomes.len() as f64)),
                field("report_fnv", hex(fnv1a(report.to_json().as_bytes()))),
            ])
        }
        Mode::Plain => service_run(&spec, SERVICE_PROBES, None),
        Mode::Traced => {
            let plain = service_run(&spec, 0, None)?;
            let mut traced = service_run(&spec, 0, Some(out))?;
            let value = |fields: &Fields, name: &str| {
                fields
                    .iter()
                    .find(|(key, _)| key == name)
                    .map(|(_, value)| value.clone())
                    .unwrap_or(Json::Null)
            };
            let identical = value(&plain, "report_fnv") == value(&traced, "report_fnv");
            for (key, _) in traced.iter_mut() {
                if key == "campaign_s" || key == "setup_s" {
                    key.insert_str(0, "traced_");
                }
            }
            traced.push(field("campaign_s", value(&plain, "campaign_s")));
            traced.push(field("setup_s", value(&plain, "setup_s")));
            traced.push(field("traced_identical", Json::Bool(identical)));
            traced.push(field("kernels", kernel_probes()));
            Ok(traced)
        }
    }
}

/// One server, one job, two draining workers. `probes` fresh binds and
/// submissions run first for the set-up median; with `traced_out`, a
/// client polls the job status during the run and the server's trace and
/// `/metrics` are saved there afterwards.
fn service_run(
    spec: &CampaignSpec,
    probes: usize,
    traced_out: Option<&Path>,
) -> Result<Fields, String> {
    let body = Json::Object(vec![
        field("spec", spec.to_json_value()),
        field("shards", num(SERVICE_SHARDS as f64)),
    ])
    .to_compact_string();

    let mut setup = Vec::new();
    let mut submit_ms = Vec::new();
    for _ in 0..probes {
        let probe = submit(&body)?;
        setup.push(probe.setup_s);
        submit_ms.push((probe.setup_s - probe.sent_s) * 1e3);
        probe.handle.shutdown();
    }
    let run = submit(&body)?;
    setup.push(run.setup_s);
    submit_ms.push((run.setup_s - run.sent_s) * 1e3);
    let addr = run.handle.addr();
    let job = run.job;
    // The telemetry registry is process-global: counters read after the
    // run are taken relative to this snapshot.
    let metrics_before = match traced_out {
        Some(_) => get(addr, "/metrics")?,
        None => String::new(),
    };

    let done = AtomicBool::new(false);
    let (results, status_ms) = std::thread::scope(|scope| {
        let poller = traced_out.map(|_| scope.spawn(|| poll_status(addr, job, &done)));
        let workers: Vec<_> = (0..2)
            .map(|i| {
                scope.spawn(move || {
                    run_worker(&WorkerConfig {
                        poll: Duration::from_millis(20),
                        drain: true,
                        ..WorkerConfig::new(addr.to_string(), format!("w{i}"))
                    })
                })
            })
            .collect();
        let results: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect();
        done.store(true, Ordering::SeqCst);
        let status_ms = poller.map(|p| p.join().expect("poller panicked"));
        (results, status_ms)
    });
    let hwm = vm_hwm_kb();
    let outcome = (|| -> Result<Fields, String> {
        for result in results {
            result.map_err(err)?;
        }
        let trace = get(addr, &format!("/jobs/{job}/trace"))?;
        let finish_ns = trace
            .lines()
            .filter_map(|line| Json::parse(line).ok())
            .find(|span| span.get("name").and_then(Json::as_str) == Some("finish"))
            .and_then(|span| span.get("start_ns").and_then(Json::as_u64))
            .ok_or("the job trace has no finish span")?;
        // The job clock starts when the server handles `POST /jobs`; that
        // is after `sent_s`, by well under a millisecond.
        let campaign_s = run.sent_s + finish_ns as f64 * 1e-9 - run.setup_s;
        let status = Json::parse(&get(addr, &format!("/jobs/{job}"))?).map_err(err)?;
        let folded = status
            .get("points_done")
            .and_then(Json::as_f64)
            .ok_or("the job status has no points_done")?;
        // The served report is `CampaignReport::to_json` plus a newline.
        let served = get(addr, &format!("/jobs/{job}/report"))?;
        let mut fields = vec![
            field("vm_hwm_kb", num(hwm)),
            field("setup_s", nums(setup)),
            field("campaign_s", num(campaign_s)),
            field("expected_points", num(spec.num_points() as f64)),
            field("submit_ms", nums(submit_ms)),
            field("points", num(folded)),
            field("report_fnv", hex(fnv1a(served.trim_end().as_bytes()))),
        ];
        if let Some(out) = traced_out {
            let trace_path = out.join("service.trace.jsonl");
            let metrics_path = out.join("service.metrics.txt");
            let before_path = out.join("service.metrics.before.txt");
            std::fs::write(&trace_path, &trace).map_err(err)?;
            std::fs::write(&metrics_path, get(addr, "/metrics")?).map_err(err)?;
            std::fs::write(&before_path, &metrics_before).map_err(err)?;
            fields.push(field("status_ms", nums(status_ms.unwrap_or_default())));
            fields.push(field(
                "server_trace",
                Json::String(trace_path.display().to_string()),
            ));
            fields.push(field(
                "server_metrics",
                Json::String(metrics_path.display().to_string()),
            ));
            fields.push(field(
                "server_metrics_before",
                Json::String(before_path.display().to_string()),
            ));
        }
        Ok(fields)
    })();
    run.handle.shutdown();
    outcome
}
