//! Deterministic Cephes-style transcendentals for the fast-math tier.
//!
//! The exact kernel tier calls libm's `exp`/`sinh`/`asinh`, whose exact bit
//! patterns are a platform contract we deliberately keep (that is what the
//! campaign fingerprints pin). The fast-math tier replaces them with the
//! polynomial approximations in this module, which are built only from
//! IEEE-754 basic operations (`+ − × ÷ sqrt floor`) in a fixed evaluation
//! order with no FMA contraction, so they produce **the same bits on every
//! platform**: a fast-math campaign run on one machine reproduces another
//! machine's output exactly.
//!
//! Accuracy is ~2·10⁻¹³ relative for [`exp`] (degree-10 Taylor on the
//! range-reduced argument) and similar for [`ln`]/[`asinh`] — far inside
//! the 1 % pulses-to-flip agreement band the fast tier is pinned to, but
//! *not* inside the exact tier's 0.5 ulp, which is why fast-math results
//! carry their own campaign fingerprint and never merge into exact runs.

/// Degree-10 Taylor coefficients of `exp` in Horner order (`1/10!` first).
/// On the reduced range `|r| ≤ ln(2)/2` the truncation error is
/// `r¹¹/11! ≈ 2·10⁻¹³` relative.
const EXP_COEFFS: [f64; 11] = [
    1.0 / 3628800.0,
    1.0 / 362880.0,
    1.0 / 40320.0,
    1.0 / 5040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    1.0 / 2.0,
    1.0,
    1.0,
];

/// `ln(2)` split into a 32-bit-exact head and a tail, so `n·ln2` subtracts
/// from `x` without rounding in the head product (Cephes' reduction).
const LN2_HI: f64 = 6.93145751953125e-1;
#[allow(clippy::excessive_precision)] // canonical Cephes tail digits, kept verbatim
const LN2_LO: f64 = 1.42860682030941723212e-6;

/// Inputs above this saturate [`exp`] to `+∞` (slightly conservative
/// against the true overflow threshold ≈ 709.78).
const EXP_OVERFLOW: f64 = 709.0;
/// Inputs below this saturate [`exp`] to `+0.0` (conservative against the
/// subnormal range, so the power-of-two scaling never denormalises).
const EXP_UNDERFLOW: f64 = -708.0;

/// `p · 2ⁿ` by direct exponent-field construction; `n` must keep the
/// result normal, which the saturation bounds above guarantee.
#[inline]
fn scale_pow2(p: f64, n: i64) -> f64 {
    p * f64::from_bits(((1023 + n) as u64) << 52)
}

#[inline]
fn exp_reduce(x: f64) -> (f64, f64) {
    // Nearest integer multiple of ln2 via floor(t + ½).
    let n = (x * std::f64::consts::LOG2_E + 0.5).floor();
    let r = (x - n * LN2_HI) - n * LN2_LO;
    (n, r)
}

#[inline]
fn exp_horner(r: f64) -> f64 {
    let mut p = EXP_COEFFS[0];
    for &c in &EXP_COEFFS[1..] {
        p = p * r + c;
    }
    p
}

/// Fast `eˣ`: ~2·10⁻¹³ relative accuracy, saturating to `+∞` above
/// `EXP_OVERFLOW` (709) and to `+0.0` below `EXP_UNDERFLOW` (−708); NaN
/// propagates.
#[inline]
pub fn exp(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x > EXP_OVERFLOW {
        return f64::INFINITY;
    }
    if x < EXP_UNDERFLOW {
        return 0.0;
    }
    let (n, r) = exp_reduce(x);
    scale_pow2(exp_horner(r), n as i64)
}

/// Fast natural logarithm: atanh-series on the mantissa reduced into
/// `[√½·√2⁻¹ … √2)`, `e·ln2` re-added with the split constant. Domain
/// edges mirror `f64::ln` (`ln(0) = −∞`, negative → NaN).
pub fn ln(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x.is_infinite() {
        return f64::INFINITY;
    }
    if x < f64::MIN_POSITIVE {
        // Subnormal: renormalise with an exact power-of-two shift.
        return ln(x * scale_pow2(1.0, 54)) - 54.0 * std::f64::consts::LN_2;
    }
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    // ln(m) = 2·atanh(z) with z = (m−1)/(m+1); |z| ≤ 0.172 so the odd
    // series truncated at z¹⁷ is accurate to ~10⁻¹⁵ relative.
    let z = (m - 1.0) / (m + 1.0);
    let ef = e as f64;
    ef * LN2_HI + (atanh_series_x2(z) + ef * LN2_LO)
}

/// `2·atanh(z)` by the odd series up to `z¹⁷`; callers keep `|z| ≲ 0.18`.
#[inline]
fn atanh_series_x2(z: f64) -> f64 {
    let z2 = z * z;
    let mut p = 1.0 / 17.0;
    for &c in &[
        1.0 / 15.0,
        1.0 / 13.0,
        1.0 / 11.0,
        1.0 / 9.0,
        1.0 / 7.0,
        1.0 / 5.0,
        1.0 / 3.0,
        1.0,
    ] {
        p = p * z2 + c;
    }
    2.0 * z * p
}

/// `ln(1 + u)` without forming `1 + u` (which would round away small `u`):
/// `2·atanh(u / (2 + u))`. Callers keep `0 ≤ u ≲ 0.3`.
#[inline]
fn ln_1p(u: f64) -> f64 {
    atanh_series_x2(u / (2.0 + u))
}

/// Fast inverse hyperbolic sine, `ln(|x| + √(x²+1))` with the sign of `x`;
/// beyond 2²⁸ the `+1` is sub-ulp and the identity `ln(2|x|)` takes over.
pub fn asinh(x: f64) -> f64 {
    let ax = x.abs();
    let r = if ax >= 268435456.0 {
        ln(ax) + std::f64::consts::LN_2
    } else if ax < 0.25 {
        // ln(|x| + √(x²+1)) = ln(1 + u) with u = |x| + x²/(1+√(x²+1));
        // the log1p form keeps full relative accuracy as x → 0.
        ln_1p(ax + ax * ax / (1.0 + (ax * ax + 1.0).sqrt()))
    } else {
        ln(ax + (ax * ax + 1.0).sqrt())
    };
    r.copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_tracks_libm_closely() {
        let mut x = -700.0;
        while x <= 700.0 {
            let got = exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-12, "exp({x}): {got} vs {want}, rel {rel}");
            x += 0.37;
        }
    }

    #[test]
    fn exp_saturates_and_propagates_nan() {
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(-710.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert!(exp(f64::NAN).is_nan());
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn ln_tracks_libm_closely() {
        for &x in &[
            1e-300,
            2.2e-308,
            1e-9,
            0.5,
            1.0 - 1e-13,
            1.0,
            1.5,
            2.0,
            1e5,
            1e300,
        ] {
            let got = ln(x);
            let want = x.ln();
            let err = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            assert!(err < 1e-12, "ln({x}): {got} vs {want}");
        }
        // Subnormal domain stays finite and close.
        let sub = 1e-310;
        assert!((ln(sub) - sub.ln()).abs() < 1e-12);
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan());
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn asinh_tracks_libm_closely() {
        for &x in &[
            -1e12, -5.0, -0.3, -1e-7, 0.0, 1e-7, 0.2, 1.0, 7.5, 3e8, 1e15,
        ] {
            let got = asinh(x);
            let want = x.asinh();
            let err = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            assert!(err < 1e-12, "asinh({x}): {got} vs {want}");
        }
        assert_eq!(asinh(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(asinh(-0.0).to_bits(), (-0.0f64).to_bits());
    }
}
