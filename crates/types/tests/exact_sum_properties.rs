//! `ExactSum` against references it must match bit for bit.
//!
//! * Dyadic terms `mᵢ·2^(kᵢ+e)` sum exactly in `i128`; converting that
//!   sum to `f64` rounds it once, which is what `read` must return.
//! * Any terms at all — finite of every magnitude, subnormal, `±0.0`,
//!   `±∞`, NaN — read the same bits under any shuffle of the terms and
//!   under any split into parts that are summed apart and then merged.
//!
//! 10⁴ cases per property in release, a smoke count in debug.

use trapp_types::ExactSum;

fn cases() -> u64 {
    if cfg!(debug_assertions) {
        500
    } else {
        10_000
    }
}

/// xorshift64*: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn signed(&mut self, bits: u32) -> i64 {
        let m = (self.next() >> (64 - bits)) as i64;
        if self.next() & 1 == 0 {
            m
        } else {
            -m
        }
    }
}

fn sum(terms: &[f64]) -> ExactSum {
    terms.iter().copied().collect()
}

/// `2^e` as an `f64`, for `e` in the normal range.
fn pow2(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

#[test]
fn dyadic_sums_match_an_i128_reference() {
    let mut rng = Rng(0xD1AD_1C5E_ED00_0001);
    let mut subnormal = 0;
    for case in 0..cases() {
        let n = 1 + rng.below(64) as usize;
        // Normal cases: |mᵢ| < 2⁵³, kᵢ ≤ 20 and n ≤ 64 keep the sum below
        // 2⁷⁹, and a scale in [2⁻¹⁰⁰⁰, 2⁹⁴⁰] keeps every term and the
        // result normal, so scaling the rounded sum is exact. Subnormal
        // cases stay below 2⁵³ units of 2⁻¹⁰⁷⁴, where every sum is exact.
        let tiny = rng.below(4) == 0;
        let (bits, spread) = if tiny { (40, 6) } else { (53, 21) };
        let ints: Vec<(i64, u32)> = (0..n)
            .map(|_| (rng.signed(bits), rng.below(spread) as u32))
            .collect();
        let exact: i128 = ints.iter().map(|&(m, k)| (m as i128) << k).sum();
        let (terms, want): (Vec<f64>, f64) = if tiny {
            subnormal += 1;
            let unit = f64::from_bits(1);
            let terms = ints.iter().map(|&(m, k)| (m << k) as f64 * unit);
            (terms.collect(), exact as f64 * unit)
        } else {
            let e = rng.below(1941) as i32 - 1000;
            let terms = ints.iter().map(|&(m, k)| m as f64 * pow2(k as i32 + e));
            (terms.collect(), exact as f64 * pow2(e))
        };
        let got = sum(&terms).read();
        assert_eq!(
            got.to_bits(),
            (want + 0.0).to_bits(),
            "case {case}: {terms:?} read {got:e}, want {want:e}"
        );
    }
    assert!(subnormal > cases() / 8, "{subnormal} subnormal cases");
}

/// A term drawn to make folds round, overflow or cancel: neighbours of
/// ±2⁵³, ±1e300 and ±`f64::MAX`, subnormals, signed zeros, ±∞ and NaN,
/// and arbitrary finite bit patterns.
fn edge_term(rng: &mut Rng) -> f64 {
    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
    let nudge = |mut v: f64, rng: &mut Rng| {
        for _ in 0..rng.below(3) {
            v = if rng.below(2) == 0 {
                v.next_up()
            } else {
                v.next_down()
            };
        }
        v
    };
    match rng.below(12) {
        0 => sign * nudge(9007199254740992.0, rng),
        1 => sign * nudge(1e300, rng),
        2 => sign * nudge(f64::MAX, rng),
        3 => sign * f64::from_bits(1 + rng.below(1 << 52)),
        4 => -0.0,
        5 => 0.0,
        6 => sign * f64::INFINITY,
        7 if rng.below(8) == 0 => f64::NAN,
        8 => sign * (rng.below(1000) as f64),
        _ => {
            let v = f64::from_bits(rng.next());
            if v.is_finite() {
                v
            } else {
                sign
            }
        }
    }
}

#[test]
fn any_order_and_any_split_read_the_same_bits() {
    let mut rng = Rng(0x0DE7_F4EE_5EED_0002);
    let mut specials = [0u64; 3];
    for case in 0..cases() {
        let n = rng.below(48) as usize;
        // Some cases stay finite, some all signed zeros, the rest mixed.
        let mut terms: Vec<f64> = match rng.below(4) {
            0 => (0..n).map(|_| -0.0).collect(),
            1 => (0..n)
                .map(|_| edge_term(&mut rng))
                .filter(|x| x.is_finite())
                .collect(),
            _ => (0..n).map(|_| edge_term(&mut rng)).collect(),
        };
        let want = sum(&terms).read();
        specials[if want.is_nan() {
            0
        } else if want.is_infinite() {
            1
        } else {
            2
        }] += 1;
        if terms.iter().all(|x| x.to_bits() == (-0.0f64).to_bits()) {
            assert_eq!(want.to_bits(), (-0.0f64).to_bits(), "case {case}");
        }
        for i in (1..terms.len()).rev() {
            terms.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let shuffled = sum(&terms).read();
        assert_eq!(
            shuffled.to_bits(),
            want.to_bits(),
            "case {case}: shuffled {terms:?}"
        );
        let mut merged = ExactSum::new();
        let mut rest = &terms[..];
        while !rest.is_empty() {
            let (part, tail) = rest.split_at(1 + rng.below(rest.len() as u64) as usize);
            merged.merge(&sum(part));
            rest = tail;
        }
        assert_eq!(
            merged.read().to_bits(),
            want.to_bits(),
            "case {case}: merged parts of {terms:?}"
        );
    }
    assert!(specials.iter().all(|&n| n > cases() / 50), "{specials:?}");
}

#[test]
fn edge_values_sum_exactly() {
    let two53 = 9007199254740992.0;
    let read = |terms: &[f64]| sum(terms).read();
    // ±2⁵³ neighbours: the tie rounds to even, a term below breaks it.
    assert_eq!(read(&[two53, 1.0]), two53);
    assert_eq!(read(&[two53, 1.0, 1.0]), two53 + 2.0);
    assert_eq!(read(&[-two53, -1.0, -5e-324]), -two53 - 2.0);
    // ±1e300 and ±MAX overflow on the way, then cancel.
    assert_eq!(read(&[1e300, 1e300, -1e300, 1.0]), 1e300);
    assert_eq!(read(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    assert_eq!(read(&[-f64::MAX, -f64::MAX, f64::MAX]), -f64::MAX);
    assert_eq!(read(&[f64::MAX, f64::MAX, -f64::MAX, -f64::MAX, 0.5]), 0.5);
    assert_eq!(read(&[f64::MAX, f64::MAX]), f64::INFINITY);
    // MAX plus half an ulp of MAX is the tie past MAX: it reads ∞.
    let half_ulp = pow2(970);
    assert_eq!(read(&[f64::MAX, half_ulp]), f64::INFINITY);
    assert_eq!(read(&[f64::MAX, half_ulp, -5e-324]), f64::MAX);
    // Subnormals, and the step into the normal range.
    let tiny = f64::from_bits(1);
    assert_eq!(read(&[tiny, tiny, tiny]), 3.0 * tiny);
    assert_eq!(
        read(&[f64::MIN_POSITIVE, -tiny]),
        f64::MIN_POSITIVE.next_down()
    );
    assert_eq!(
        read(&[f64::MIN_POSITIVE.next_down(), tiny]),
        f64::MIN_POSITIVE
    );
    // Signed zeros.
    assert_eq!(read(&[-0.0, -0.0]).to_bits(), (-0.0f64).to_bits());
    assert_eq!(read(&[-0.0, 0.0]).to_bits(), 0.0f64.to_bits());
    assert_eq!(read(&[2.5, -2.5]).to_bits(), 0.0f64.to_bits());
    // ±∞ and NaN as IEEE addition.
    assert_eq!(read(&[f64::INFINITY, -f64::MAX]), f64::INFINITY);
    assert_eq!(read(&[f64::NEG_INFINITY, f64::MAX]), f64::NEG_INFINITY);
    assert!(read(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
    assert!(read(&[f64::NAN, 1.0]).is_nan());
}
