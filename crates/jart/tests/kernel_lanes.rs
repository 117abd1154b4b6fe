//! Property test pinning the struct-of-arrays contract: stepping an N-lane
//! [`CellBank`] through the batched kernel is *bit-identical* to stepping N
//! independent [`JartDevice`]s, for any mix of states, crosstalk imports,
//! voltages and step lengths. This is what lets the batched crossbar engine
//! share one integration routine with the scalar engine — including the
//! kernel's replay caches, which must never change a result bit.

use proptest::prelude::*;
use rram_jart::kernel::{
    step_lane, step_lane_mode, step_lanes, step_lanes_mode, step_lanes_threaded, CellBank,
    LaneParams, LANE_CHUNK,
};
use rram_jart::{DeviceParams, JartDevice, MathMode};
use rram_units::{Kelvin, Seconds, Volts};

/// A per-lane parameter set scaled from the nominal one: the kind of
/// heterogeneity a Monte Carlo variability campaign installs.
fn spread_params(radius_scale: f64, disc_scale: f64) -> DeviceParams {
    let nominal = DeviceParams::default();
    DeviceParams {
        filament_radius: radius_scale * nominal.filament_radius,
        l_disc: disc_scale * nominal.l_disc,
        ..nominal
    }
}

/// Per-lane proptest input: (initial state, crosstalk ΔT, cell voltage,
/// force-exact-zero flag). The flag grounds the lane *exactly* often enough
/// to exercise the chunked kernel's all-zero fast path, both as whole zero
/// chunks and as zero lanes mixed into active chunks.
type LaneInput = (f64, f64, f64, bool);

/// A fully populated bank from proptest lane inputs, plus the resolved
/// voltage vector.
fn bank_of(lanes: &[LaneInput], table: Option<&[DeviceParams]>) -> (CellBank, Vec<f64>) {
    let nominal = DeviceParams::default();
    let mut bank = CellBank::new(lanes.len(), &nominal);
    let mut voltages = Vec::with_capacity(lanes.len());
    for (lane, &(state, delta, voltage, grounded)) in lanes.iter().enumerate() {
        let params = table.map_or(&nominal, |t| &t[lane]);
        let n = params.n_min + state * (params.n_max - params.n_min);
        bank.force_concentration(lane, n, params);
        bank.set_crosstalk(lane, delta);
        voltages.push(if grounded { 0.0 } else { voltage });
    }
    (bank, voltages)
}

/// Bitwise equality over every state lane of two banks.
fn assert_banks_identical(a: &CellBank, b: &CellBank) -> Result<(), TestCaseError> {
    for lane in 0..a.lanes() {
        prop_assert_eq!(
            a.concentrations()[lane].to_bits(),
            b.concentrations()[lane].to_bits(),
            "lane {} concentration: {} vs {}",
            lane,
            a.concentrations()[lane],
            b.concentrations()[lane]
        );
        prop_assert_eq!(
            a.temperatures()[lane].to_bits(),
            b.temperatures()[lane].to_bits()
        );
        prop_assert_eq!(
            a.stress_times()[lane].to_bits(),
            b.stress_times()[lane].to_bits()
        );
        prop_assert_eq!(a.charges()[lane].to_bits(), b.charges()[lane].to_bits());
        prop_assert_eq!(a.digital()[lane], b.digital()[lane]);
    }
    Ok(())
}

proptest! {
    #[test]
    fn step_lanes_is_bit_identical_to_independent_devices(
        // One (initial normalised state, crosstalk ΔT, cell voltage) per lane.
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5),
            1..10,
        ),
        // A shared sequence of step lengths, spanning idle to switching.
        steps in prop::collection::vec(1e-10f64..5e-7, 1..5),
    ) {
        let params = DeviceParams::default();
        let mut bank = CellBank::new(lanes.len(), &params);
        let mut devices: Vec<JartDevice> = Vec::with_capacity(lanes.len());
        let mut voltages: Vec<f64> = Vec::with_capacity(lanes.len());
        for (lane, &(state, delta, voltage)) in lanes.iter().enumerate() {
            let n = params.n_min + state * (params.n_max - params.n_min);
            bank.force_concentration(lane, n, &params);
            bank.set_crosstalk(lane, delta);
            let mut device = JartDevice::new(params.clone());
            device.force_concentration(n);
            device.set_crosstalk_delta(Kelvin(delta));
            devices.push(device);
            voltages.push(voltage);
        }

        for &dt in &steps {
            step_lanes(&params, &voltages, &mut bank.view_mut(), Seconds(dt));
            for (lane, device) in devices.iter_mut().enumerate() {
                device.step(Volts(voltages[lane]), Seconds(dt));
            }
            for (lane, device) in devices.iter().enumerate() {
                prop_assert_eq!(
                    bank.concentrations()[lane].to_bits(),
                    device.concentration().to_bits(),
                    "lane {} concentration: {} vs {}",
                    lane, bank.concentrations()[lane], device.concentration()
                );
                prop_assert_eq!(
                    bank.temperatures()[lane].to_bits(),
                    device.temperature().0.to_bits()
                );
                prop_assert_eq!(
                    bank.stress_times()[lane].to_bits(),
                    device.stress_time().0.to_bits()
                );
                prop_assert_eq!(
                    bank.charges()[lane].to_bits(),
                    device.conduction_charge().0.to_bits()
                );
                prop_assert_eq!(bank.digital()[lane], device.digital_state());
            }
        }
    }

    /// The same identity under device-to-device spreads: stepping a bank
    /// with a per-lane parameter table is bit-identical to stepping each
    /// lane as an independent `JartDevice` built from its table entry.
    #[test]
    fn per_lane_params_keep_the_bank_bit_identical_to_devices(
        // One (radius scale, disc-length scale, initial state, ΔT, voltage)
        // per lane: each lane is a different device.
        lanes in prop::collection::vec(
            (0.7f64..1.3, 0.7f64..1.3, 0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5),
            1..8,
        ),
        steps in prop::collection::vec(1e-10f64..5e-7, 1..4),
    ) {
        let nominal = DeviceParams::default();
        let table: Vec<DeviceParams> = lanes
            .iter()
            .map(|&(radius, disc, ..)| spread_params(radius, disc))
            .collect();
        let mut bank = CellBank::new(lanes.len(), &nominal);
        let mut devices: Vec<JartDevice> = Vec::with_capacity(lanes.len());
        let mut voltages: Vec<f64> = Vec::with_capacity(lanes.len());
        for (lane, &(_, _, state, delta, voltage)) in lanes.iter().enumerate() {
            let params = &table[lane];
            let n = params.n_min + state * (params.n_max - params.n_min);
            bank.force_concentration(lane, n, params);
            bank.set_crosstalk(lane, delta);
            let mut device = JartDevice::new(params.clone());
            device.force_concentration(n);
            device.set_crosstalk_delta(Kelvin(delta));
            devices.push(device);
            voltages.push(voltage);
        }

        for &dt in &steps {
            step_lanes(&table[..], &voltages, &mut bank.view_mut(), Seconds(dt));
            for (lane, device) in devices.iter_mut().enumerate() {
                device.step(Volts(voltages[lane]), Seconds(dt));
            }
            for (lane, device) in devices.iter().enumerate() {
                prop_assert_eq!(
                    bank.concentrations()[lane].to_bits(),
                    device.concentration().to_bits(),
                    "lane {} concentration under spreads: {} vs {}",
                    lane, bank.concentrations()[lane], device.concentration()
                );
                prop_assert_eq!(
                    bank.temperatures()[lane].to_bits(),
                    device.temperature().0.to_bits()
                );
                prop_assert_eq!(
                    bank.charges()[lane].to_bits(),
                    device.conduction_charge().0.to_bits()
                );
                prop_assert_eq!(bank.digital()[lane], device.digital_state());
            }
        }
    }

    /// The chunked `step_lanes` (fixed-width `LANE_CHUNK` blocks with an
    /// all-zero fast path, plus a scalar remainder loop) is bit-identical
    /// to stepping every lane through the per-lane `step_lane` reference —
    /// for lane counts spanning several chunks and every remainder length,
    /// with exact-zero voltages mixed into active chunks, and with zero and
    /// nonzero crosstalk.
    #[test]
    fn chunked_step_lanes_matches_the_per_lane_reference(
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5, any::<bool>()),
            1..(5 * LANE_CHUNK),
        ),
        steps in prop::collection::vec(1e-10f64..5e-7, 1..4),
    ) {
        let params = DeviceParams::default();
        let (mut chunked, voltages) = bank_of(&lanes, None);
        let mut reference = chunked.clone();

        for &dt in &steps {
            step_lanes(&params, &voltages, &mut chunked.view_mut(), Seconds(dt));
            for (lane, &v_cell) in voltages.iter().enumerate() {
                step_lane(&params, &mut reference.view_mut(), lane, v_cell, Seconds(dt));
            }
            assert_banks_identical(&chunked, &reference)?;
        }
    }

    /// The same chunk-vs-reference identity under a per-lane parameter
    /// table: chunk boundaries must narrow the table consistently with the
    /// per-lane lookup.
    #[test]
    fn chunked_step_lanes_matches_the_reference_under_spreads(
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5, any::<bool>()),
            1..(3 * LANE_CHUNK),
        ),
        scales in prop::collection::vec(
            (0.7f64..1.3, 0.7f64..1.3),
            (3 * LANE_CHUNK)..(3 * LANE_CHUNK + 1),
        ),
        dt in 1e-10f64..5e-7,
    ) {
        let table: Vec<DeviceParams> = scales[..lanes.len()]
            .iter()
            .map(|&(radius, disc)| spread_params(radius, disc))
            .collect();
        let (mut chunked, voltages) = bank_of(&lanes, Some(&table));
        let mut reference = chunked.clone();

        step_lanes(&table[..], &voltages, &mut chunked.view_mut(), Seconds(dt));
        for (lane, &v_cell) in voltages.iter().enumerate() {
            step_lane(&table[lane], &mut reference.view_mut(), lane, v_cell, Seconds(dt));
        }
        assert_banks_identical(&chunked, &reference)?;
    }

    /// Splitting one sub-step's lane range across scoped worker threads is
    /// bit-identical to the single-threaded kernel for any thread count
    /// 1–8 and any lane count (lanes are independent within a sub-step, so
    /// only the partitioning could go wrong — this pins it), under shared
    /// and per-lane parameters alike.
    #[test]
    fn threaded_step_lanes_is_bit_identical_for_any_thread_count(
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5, any::<bool>()),
            1..(5 * LANE_CHUNK),
        ),
        scales in prop::collection::vec(
            (0.7f64..1.3, 0.7f64..1.3),
            (5 * LANE_CHUNK)..(5 * LANE_CHUNK + 1),
        ),
        threads in 1usize..9,
        per_lane in any::<bool>(),
        dt in 1e-10f64..5e-7,
    ) {
        let nominal = DeviceParams::default();
        let table: Vec<DeviceParams> = scales[..lanes.len()]
            .iter()
            .map(|&(radius, disc)| spread_params(radius, disc))
            .collect();
        let params_table = per_lane.then_some(&table[..]);
        let (mut threaded, voltages) = bank_of(&lanes, params_table);
        let mut reference = threaded.clone();

        match params_table {
            Some(table) => {
                step_lanes_threaded(table, &voltages, threaded.view_mut(), Seconds(dt), threads);
                step_lanes(table, &voltages, &mut reference.view_mut(), Seconds(dt));
            }
            None => {
                step_lanes_threaded(&nominal, &voltages, threaded.view_mut(), Seconds(dt), threads);
                step_lanes(&nominal, &voltages, &mut reference.view_mut(), Seconds(dt));
            }
        }
        assert_banks_identical(&threaded, &reference)?;
    }

    /// The cached kernel — operating-point cache plus the cross-lane
    /// `LaneEcho` replay — is bit-identical to the uncached per-lane
    /// `step_lane_mode` reference over several sub-steps. Lanes are drawn
    /// from a small pool of `(state, ΔT, v)` tuples so identical lanes sit
    /// next to each other and echo hits really happen (lanes 0 and 1 always
    /// share pool entry 0 and stay identical, so every biased step of a
    /// shared-params bank replays at least once); the schedule changes the
    /// voltages between steps and inserts exact-zero gaps, which exercises
    /// cache hits, misses after a bias change, and the relax paths. Shared
    /// and per-lane tables, exact and fast math.
    #[test]
    fn cached_kernel_matches_the_uncached_reference_across_steps(
        // Pool entry: (initial state, crosstalk ΔT, |v|, negative bias).
        pool in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, 0.3f64..1.5, any::<bool>()),
            1..4,
        ),
        // Per lane: (pool pick, exact-zero flag).
        picks in prop::collection::vec((0usize..4, any::<bool>()), 0..(5 * LANE_CHUNK)),
        // Device spread per pool entry, for the per-lane table.
        scales in prop::collection::vec((0.7f64..1.3, 0.7f64..1.3), 4..5),
        // Per step: (dt, 0 = pool voltages / 1 = halved voltages / 2 = all-zero gap).
        steps in prop::collection::vec((1e-10f64..5e-7, 0usize..3), 1..6),
        per_lane in any::<bool>(),
        fast in any::<bool>(),
    ) {
        let mode = if fast { MathMode::Fast } else { MathMode::Exact };
        let nominal = DeviceParams::default();
        let lane_picks: Vec<(usize, bool)> = [(0, false), (0, false)]
            .into_iter()
            .chain(picks.iter().map(|&(pick, zero)| (pick % pool.len(), zero)))
            .collect();
        let table: Vec<DeviceParams> = lane_picks
            .iter()
            .map(|&(pick, _)| spread_params(scales[pick].0, scales[pick].1))
            .collect();
        let params = if per_lane {
            LaneParams::PerLane(&table)
        } else {
            LaneParams::Shared(&nominal)
        };
        let mut cached = CellBank::new(lane_picks.len(), &nominal);
        let mut biased = Vec::with_capacity(lane_picks.len());
        for (lane, &(pick, zero)) in lane_picks.iter().enumerate() {
            let (state, delta, magnitude, negative) = pool[pick];
            let lane_params = params.of(lane);
            let n = lane_params.n_min + state * (lane_params.n_max - lane_params.n_min);
            cached.force_concentration(lane, n, lane_params);
            cached.set_crosstalk(lane, delta);
            let v = if negative { -magnitude } else { magnitude };
            biased.push(if zero { 0.0 } else { v });
        }
        let mut reference = cached.clone();
        let echo_hits = || {
            rram_telemetry::Registry::global()
                .counter(
                    "kernel_echo_hits_total",
                    "Biased lane steps replayed from the cross-lane echo cache",
                )
                .value()
        };
        let hits_before = echo_hits();

        for &(dt, kind) in &steps {
            let voltages: Vec<f64> = match kind {
                0 => biased.clone(),
                1 => biased.iter().map(|v| 0.5 * v).collect(),
                _ => vec![0.0; biased.len()],
            };
            step_lanes_mode(params, &voltages, &mut cached.view_mut(), Seconds(dt), mode);
            for (lane, &v_cell) in voltages.iter().enumerate() {
                step_lane_mode(
                    params.of(lane), &mut reference.view_mut(), lane, v_cell, Seconds(dt), mode,
                );
            }
            assert_banks_identical(&cached, &reference)?;
            for lane in 0..cached.lanes() {
                prop_assert_eq!(cached.operating_point(lane), reference.operating_point(lane));
            }
        }
        if !per_lane && steps.iter().any(|&(_, kind)| kind != 2) {
            prop_assert!(echo_hits() > hits_before, "no echo hit on duplicate biased lanes");
        }
    }
}
