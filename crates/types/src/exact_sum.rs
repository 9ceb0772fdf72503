//! Exact floating-point summation: [`ExactSum`], a small superaccumulator
//! after Neal, *Fast exact summation using small and large
//! superaccumulators* (arXiv:1505.05571).
//!
//! Every finite `f64` is an integer multiple of 2⁻¹⁰⁷⁴ below 2¹⁰²⁴, so a
//! fixed-point integer of about 2,100 bits holds any sum of them exactly.
//! [`ExactSum`] keeps that integer in signed 64-bit chunks of 32 bits
//! each: an addition updates two chunks, their spare high bits absorb the
//! carries, and carries propagate only when a chunk nears overflow (after
//! some 500 additions to it at the least) and on a read. Because addition
//! is exact, the terms' order is irrelevant: the same terms, added in any
//! order or split into parts that are [`ExactSum::merge`]d, read back the
//! same bits — the exact sum rounded once, to nearest with ties to even.

/// Bits per chunk below its carry headroom.
const CHUNK_BITS: u32 = 32;
/// Chunks: 65 take the terms (2⁻¹⁰⁷⁴ up to 2¹⁰²⁴ is 2,098 bits), the top
/// one the carries and the sign.
const CHUNKS: usize = 66;
const TOP: usize = CHUNKS - 1;
const LOW_MASK: i64 = (1 << CHUNK_BITS) - 1;
const FRAC_MASK: u64 = (1 << 52) - 1;
/// Carries propagate once a chunk reaches this magnitude: an addition
/// adds under 2⁵³ to a chunk, so none can pass 2⁶³.
const CARRY_AT: u64 = 1 << 62;

/// The exact sum of `f64` terms, rounded once on [`ExactSum::read`].
///
/// `±∞` and NaN terms propagate as IEEE addition would (`∞ + −∞` is NaN);
/// finite terms never overflow the accumulator, so a sum that passes
/// `f64::MAX` on the way and comes back reads exactly, and one that stays
/// past it reads `±∞`. An exact zero reads `-0.0` only when every term was
/// `-0.0` (or there were none), as an `f64` fold from `-0.0` would.
///
/// ```
/// use trapp_types::ExactSum;
/// let mut s = ExactSum::new();
/// for x in [1e16, 1.0, -1e16] {
///     s.add(x);
/// }
/// s.add(1.0);
/// assert_eq!(s.read(), 2.0);
/// let t: ExactSum = [1.0, 1.0, 1e16, -1e16].into_iter().collect();
/// assert_eq!(t.read(), 2.0);
/// ```
#[derive(Clone, Debug)]
pub struct ExactSum {
    /// Chunk `i` weighs `2^(32·i − 1074)`; every chunk below `TOP` stays
    /// under [`CARRY_AT`] in magnitude between additions.
    chunks: [i64; CHUNKS],
    /// A finite non-zero term was added.
    nonzero: bool,
    /// A `+0.0` term was added.
    pos_zero: bool,
    pos_inf: bool,
    neg_inf: bool,
    nan: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::new()
    }
}

impl FromIterator<f64> for ExactSum {
    /// The sum of every term, [`ExactSum::add`]ed in turn.
    fn from_iter<I: IntoIterator<Item = f64>>(terms: I) -> Self {
        let mut sum = ExactSum::new();
        terms.into_iter().for_each(|x| sum.add(x));
        sum
    }
}

impl ExactSum {
    /// The empty sum (reads `-0.0`).
    pub fn new() -> ExactSum {
        ExactSum {
            chunks: [0; CHUNKS],
            nonzero: false,
            pos_zero: false,
            pos_inf: false,
            neg_inf: false,
            nan: false,
        }
    }

    /// Adds `x` exactly.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as usize;
        // Zeros, subnormals, `±∞` and NaN take the cold path.
        if exp.wrapping_sub(1) >= 0x7fe {
            return self.add_rare(x);
        }
        self.nonzero = true;
        self.add_mantissa(bits, (bits & FRAC_MASK) | 1 << 52, exp - 1);
    }

    /// Adds `±mant · 2^(p − 1074)`, the sign `bits`' top bit.
    #[inline]
    fn add_mantissa(&mut self, bits: u64, mant: u64, p: usize) {
        let (i, shift) = (p >> 5, p as u32 & 31);
        // The signed mantissa, split at chunk `i + 1`:
        // `m·2^shift = high·2³² + low`, `low` a digit.
        let s = (bits as i64) >> 63;
        let m = (mant as i64 ^ s) - s;
        let low = (m << shift) & LOW_MASK;
        let high = m >> (CHUNK_BITS - shift);
        let a = self.chunks[i] + low;
        let b = self.chunks[i + 1] + high;
        self.chunks[i] = a;
        self.chunks[i + 1] = b;
        // Either magnitude at `CARRY_AT` or past it sets bit 63.
        if ((a as u64).wrapping_add(CARRY_AT) | (b as u64).wrapping_add(CARRY_AT)) >> 63 != 0 {
            self.carry();
        }
    }

    #[cold]
    fn add_rare(&mut self, x: f64) {
        let bits = x.to_bits();
        let frac = bits & FRAC_MASK;
        if x.is_nan() {
            self.nan = true;
        } else if x.is_infinite() {
            self.pos_inf |= x > 0.0;
            self.neg_inf |= x < 0.0;
        } else if frac == 0 {
            self.pos_zero |= bits == 0;
        } else {
            // A subnormal: no implicit bit, the lowest exponent.
            self.nonzero = true;
            self.add_mantissa(bits, frac, 0);
        }
    }

    /// Adds every term `other` holds, exactly.
    pub fn merge(&mut self, other: &ExactSum) {
        self.nonzero |= other.nonzero;
        self.pos_zero |= other.pos_zero;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        self.nan |= other.nan;
        let mut other = other.clone();
        other.carry();
        self.carry();
        for (c, o) in self.chunks.iter_mut().zip(other.chunks) {
            *c += o;
        }
    }

    /// The exact sum, rounded once to the nearest `f64` (ties to even).
    pub fn read(&self) -> f64 {
        if self.nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        let zero = if self.nonzero || self.pos_zero {
            0.0
        } else {
            -0.0
        };
        let mut c = self.chunks;
        let (Some(lo), Some(hi)) = (
            c.iter().position(|&x| x != 0),
            c.iter().rposition(|&x| x != 0),
        ) else {
            return zero;
        };
        // Below `hi` every chunk is a digit in [0, 2³²) after propagating,
        // so the sign is `c[hi]`'s; a negative sum reads as the negated
        // magnitude.
        propagate(&mut c, lo, hi);
        let negative = c[hi] < 0;
        if negative {
            for x in &mut c[lo..=hi] {
                *x = -*x;
            }
            propagate(&mut c, lo, hi);
        }
        let Some(h) = (lo..=hi).rev().find(|&i| c[i] != 0) else {
            return zero;
        };
        // The top three chunks, bit 0 weighing 2^base, and whether any
        // bit below them is set (chunks below `lo` are zero).
        let digit = |i: usize| c[i] as u128;
        let top = (c[h] as u128) << 64
            | h.checked_sub(1).map_or(0, digit) << 32
            | h.checked_sub(2).map_or(0, digit);
        let below = h.saturating_sub(2);
        let sticky = c[lo.min(below)..below].iter().any(|&x| x != 0);
        let base = 32 * (h as i64 - 2) - 1074;
        let msb = base + (127 - top.leading_zeros() as i64);
        let mut lsb = (msb - 52).max(-1074);
        let shift = (lsb - base) as u32;
        let mut mant = (top >> shift) as u64;
        let rem = top & ((1 << shift) - 1);
        let half = 1u128 << (shift - 1);
        if rem > half || (rem == half && (sticky || mant & 1 == 1)) {
            mant += 1;
            if mant == 1 << 53 {
                mant >>= 1;
                lsb += 1;
            }
        }
        let magnitude = if mant >> 52 == 0 {
            f64::from_bits(mant)
        } else if lsb + 1075 >= 0x7ff {
            f64::INFINITY
        } else {
            f64::from_bits(((lsb + 1075) as u64) << 52 | (mant & FRAC_MASK))
        };
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Propagates every carry: each chunk below the top becomes a digit in
    /// `[0, 2³²)`, and the top holds the signed rest.
    fn carry(&mut self) {
        propagate(&mut self.chunks, 0, TOP);
    }
}

/// Moves each chunk's bits above the 32nd into the next chunk, for the
/// chunks `lo..hi`: they end as digits in `[0, 2³²)`, and `c[hi]` takes
/// the signed remainder.
fn propagate(c: &mut [i64; CHUNKS], lo: usize, hi: usize) {
    for i in lo..hi {
        let carry = c[i] >> CHUNK_BITS;
        c[i] &= LOW_MASK;
        c[i + 1] += carry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(terms: &[f64]) -> f64 {
        terms.iter().copied().collect::<ExactSum>().read()
    }

    #[test]
    fn small_sums_match_f64_when_f64_is_exact() {
        assert_eq!(sum(&[]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(sum(&[1.5, 2.25, -0.75]), 3.0);
        assert_eq!(
            sum(&[f64::MIN_POSITIVE, -f64::MIN_POSITIVE / 2.0]),
            f64::MIN_POSITIVE / 2.0
        );
        assert_eq!(sum(&[f64::MAX]), f64::MAX);
        assert_eq!(sum(&[-5e-324]), -5e-324);
    }

    #[test]
    fn cancellation_is_exact_in_any_order() {
        assert_eq!(sum(&[1e16, 1.0, -1e16, 1.0]), 2.0);
        assert_eq!(sum(&[1.0, 1.0, 1e16, -1e16]), 2.0);
        assert_eq!(sum(&[1e308, 1e308, -1e308]), 1e308);
        assert_eq!(sum(&[-1e308, 1e308, 1e308]), 1e308);
        assert_eq!(sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
    }

    #[test]
    fn rounds_once_to_nearest_even() {
        // 2⁵³ + 1 is a tie between 2⁵³ and 2⁵³ + 2: even wins; a sticky
        // bit far below breaks the tie upward.
        let two53 = 9007199254740992.0;
        assert_eq!(sum(&[two53, 1.0]), two53);
        assert_eq!(sum(&[two53, 1.0, 1e-300]), two53 + 2.0);
        assert_eq!(sum(&[two53, 3.0]), two53 + 4.0);
        assert_eq!(sum(&[two53, 1.0, -1e-300]), two53);
    }

    #[test]
    fn infinities_and_nan_propagate() {
        assert_eq!(sum(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(sum(&[f64::NEG_INFINITY, 1e308]), f64::NEG_INFINITY);
        assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(sum(&[1.0, f64::NAN]).is_nan());
    }

    #[test]
    fn zero_signs_follow_an_f64_fold_from_negative_zero() {
        assert_eq!(sum(&[-0.0, -0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(sum(&[-0.0, 0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[1.0, -1.0]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn carries_survive_many_terms() {
        let mut s = ExactSum::new();
        for _ in 0..5000 {
            s.add(f64::MAX);
        }
        for _ in 0..5000 {
            s.add(-f64::MAX);
        }
        s.add(0.5);
        assert_eq!(s.read(), 0.5);
    }

    #[test]
    fn merge_adds_the_other_terms() {
        let mut a = ExactSum::new();
        let mut b = ExactSum::new();
        a.add(1e16);
        a.add(1.0);
        b.add(-1e16);
        b.add(1.0);
        a.merge(&b);
        assert_eq!(a.read(), 2.0);
        a.merge(&ExactSum::new());
        assert_eq!(a.read(), 2.0);
    }
}
