//! Qualitative reproduction checks of the paper's evaluation figures, using
//! the quick experiment setup so the whole file runs in tens of seconds.
//!
//! The absolute pulse counts differ from the paper (the compact model is a
//! JART substitute calibrated in `rram_jart::params`, not the paper's
//! parameter set); these tests pin down the *shapes*:
//! the direction of every trend and rough effect sizes.

use neurohammer_repro::attack::{
    fig3a_pulse_length, fig3c_ambient_temperature, fig3d_attack_patterns, ExperimentSetup,
};
use neurohammer_repro::units::Seconds;

fn quick() -> ExperimentSetup {
    ExperimentSetup {
        max_pulses: 1_500_000,
        ..ExperimentSetup::quick()
    }
}

#[test]
fn fig3a_longer_pulses_need_fewer_pulses() {
    let series = fig3a_pulse_length(&quick(), &[20.0, 50.0, 100.0]).expect("fig3a");
    assert!(series.all_flipped(), "{series:?}");
    assert!(series.is_monotonically_decreasing(), "{series:?}");
    // Going from 20 ns to 100 ns pulses should save at least 2× in pulse count.
    assert!(series.endpoint_ratio().unwrap() > 2.0, "{series:?}");
}

#[test]
fn fig3c_hotter_ambient_needs_fewer_pulses() {
    let series =
        fig3c_ambient_temperature(&quick(), &[273.0, 323.0, 373.0], &[50.0]).expect("fig3c");
    let s = &series[0];
    assert!(s.all_flipped(), "{s:?}");
    assert!(s.is_monotonically_decreasing(), "{s:?}");
    // The paper spans roughly three decades from 273 K to 373 K; require at
    // least one decade here (the quick setup uses synthetic coupling).
    assert!(s.endpoint_ratio().unwrap() > 10.0, "{s:?}");
}

#[test]
fn fig3d_line_coupled_patterns_beat_the_diagonal_pattern() {
    let series = fig3d_attack_patterns(&quick(), Seconds(100e-9)).expect("fig3d");
    let pulses_of = |label: &str| {
        series
            .points
            .iter()
            .find(|p| p.label == label)
            .and_then(|p| p.pulses)
    };
    let single = pulses_of("single").expect("single-aggressor attack flips");
    let quad = pulses_of("quad").expect("quad attack flips");
    assert!(quad <= single, "quad {quad} vs single {single}");
    // The diagonal pattern couples only weakly: it must be the worst pattern
    // (more pulses than any line-coupled pattern, or no flip at all).
    if let Some(diag) = pulses_of("diagonal") {
        assert!(diag > quad, "diagonal {diag} vs quad {quad}");
    }
}
