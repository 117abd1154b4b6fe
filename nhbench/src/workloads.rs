//! The benchmark's four workloads, generated from a seed.
//!
//! The program under test receives only the [`CampaignSpec`]s built here.
//! A seed permutes the order of the grid axes (which changes point keys,
//! grid order and thread scheduling, but not the amount of simulation) and
//! becomes the spec's master seed, so two seeds exercise the same code
//! paths at the same cost. Two inputs stay fixed because they set the cost:
//!
//! - `defense_mc` keeps `fig_defense`'s Monte Carlo seed (42). The sampled
//!   devices decide how many of its 20 points run to the full pulse budget
//!   (each such point costs ~2.7 s against < 0.3 s for the rest), which
//!   moved `campaign_s` between ~14.5 and ~18 s from seed to seed.
//! - The spacing axis keeps its order: it fixes the order of the serial
//!   FEM extractions, and with it the peak resident set, which otherwise
//!   moves by half with the extraction order.

use neurohammer::campaign::CampaignSpec;
use neurohammer::{AttackPattern, CouplingSpec};
use rram_crossbar::BackendKind;
use rram_defense::GuardSpec;
use rram_jart::DeviceParams;
use rram_units::{Kelvin, Seconds};
use rram_variability::{ParamField, ParamSpread};

/// The seed whose reports are pinned in `reference.json`.
pub const DEFAULT_SEED: u64 = 42;

/// Workload names, in the order the notes describe them.
pub const WORKLOADS: [&str; 4] = ["paper_flow", "large_array", "defense_mc", "service"];

/// Points of the `service` job.
pub const SERVICE_POINTS: usize = 8_000;
/// Shards the `service` job is split into.
pub const SERVICE_SHARDS: usize = 16;

/// splitmix64: a tiny deterministic generator for axis permutations.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The spec of `workload` under `seed`, or `None` for an unknown name.
pub fn spec(workload: &str, seed: u64) -> Option<CampaignSpec> {
    let mut rng = SplitMix::new(seed);
    let mut spec = match workload {
        "paper_flow" => paper_flow(),
        "large_array" => large_array(),
        "defense_mc" => defense_mc(),
        "service" => service(),
        _ => return None,
    };
    if workload != "defense_mc" {
        spec.seed = seed;
    }
    rng.shuffle(&mut spec.array_sizes);
    rng.shuffle(&mut spec.patterns);
    rng.shuffle(&mut spec.pulse_lengths_ns);
    rng.shuffle(&mut spec.ambients_k);
    rng.shuffle(&mut spec.guards);
    rng.shuffle(&mut spec.spread_scales);
    Some(spec)
}

/// Fig. 3a–c on the paper's flow: FEM α at 10 nm voxels for three
/// spacings, then pulse length × spacing × ambient on a 5×5 array.
fn paper_flow() -> CampaignSpec {
    CampaignSpec {
        name: "paper_flow".into(),
        pulse_lengths_ns: (1..=10).map(|i| 10.0 * i as f64).collect(),
        spacings_nm: vec![10.0, 50.0, 90.0],
        ambients_k: vec![298.0, 323.0, 348.0],
        backends: vec![BackendKind::Batched],
        coupling: CouplingSpec::Fem { voxel_nm: 10.0 },
        max_pulses: 3_000_000,
        batching: true,
        threads: 2,
        ..CampaignSpec::default()
    }
}

/// Single and quad patterns on 256² and 1024² arrays with a pulse budget
/// far below any flip, so every point integrates exactly `max_pulses`.
fn large_array() -> CampaignSpec {
    CampaignSpec {
        name: "large_array".into(),
        array_sizes: vec![(256, 256), (1024, 1024)],
        patterns: vec![AttackPattern::SingleAggressor, AttackPattern::Quad],
        backends: vec![BackendKind::Batched],
        coupling: CouplingSpec::Uniform { nearest: 0.15 },
        max_pulses: 24,
        batching: false,
        threads: 2,
        ..CampaignSpec::default()
    }
}

/// The `fig_defense --quick` grid: five guards × σ {0, 0.1} × 2 trials.
fn defense_mc() -> CampaignSpec {
    let nominal = DeviceParams::default();
    CampaignSpec {
        name: "defense_mc".into(),
        seed: 42,
        amplitudes_v: vec![1.05],
        pulse_lengths_ns: vec![100.0],
        guards: vec![
            GuardSpec::None,
            GuardSpec::WriteCounter {
                threshold: 32,
                window: Seconds(1.0),
            },
            GuardSpec::WriteCounter {
                threshold: 256,
                window: Seconds(1.0),
            },
            GuardSpec::ThermalSensor {
                threshold: Kelvin(15.0),
                cooldown: Seconds(1e-6),
            },
            GuardSpec::Scrubbing {
                period: Seconds(2e-6),
            },
        ],
        spread_scales: vec![0.0, 0.1],
        spreads: vec![
            ParamSpread::relative_normal(ParamField::FilamentRadius, 1.0, &nominal),
            ParamSpread::relative_normal(ParamField::LDisc, 1.0, &nominal),
        ],
        trials: 2,
        benign_writes: 64,
        backends: vec![BackendKind::Batched],
        coupling: CouplingSpec::Uniform { nearest: 0.15 },
        max_pulses: 20_000,
        batching: false,
        threads: 2,
        ..CampaignSpec::default()
    }
}

/// One job of [`SERVICE_POINTS`] cheap 5×5 points along an ambient axis.
fn service() -> CampaignSpec {
    CampaignSpec {
        name: "service".into(),
        ambients_k: (0..SERVICE_POINTS)
            .map(|i| 273.0 + 0.005 * i as f64)
            .collect(),
        backends: vec![BackendKind::Batched],
        coupling: CouplingSpec::Uniform { nearest: 0.15 },
        max_pulses: 4,
        threads: 1,
        ..CampaignSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_validates_and_a_seed_only_permutes_the_grid() {
        for name in WORKLOADS {
            let a = spec(name, DEFAULT_SEED).unwrap();
            let b = spec(name, 7).unwrap();
            a.validate().unwrap();
            assert_eq!(a.num_points(), b.num_points(), "{name}");
            let sorted = |mut v: Vec<f64>| {
                v.sort_by(f64::total_cmp);
                v
            };
            assert_eq!(sorted(a.ambients_k.clone()), sorted(b.ambients_k.clone()));
            assert_eq!(
                sorted(a.pulse_lengths_ns.clone()),
                sorted(b.pulse_lengths_ns.clone())
            );
            assert_eq!(spec(name, 7).unwrap(), b, "generation is deterministic");
        }
        assert!(spec("nope", 1).is_none());
    }

    #[test]
    fn workload_sizes_match_the_notes() {
        assert_eq!(spec("paper_flow", 1).unwrap().num_points(), 90);
        assert_eq!(spec("large_array", 1).unwrap().num_points(), 4);
        assert_eq!(spec("defense_mc", 1).unwrap().num_points(), 20);
        assert_eq!(spec("service", 1).unwrap().num_points(), SERVICE_POINTS);
    }
}
