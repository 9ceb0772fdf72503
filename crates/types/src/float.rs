//! A totally ordered floating-point wrapper.
//!
//! Bound endpoints, bound widths, and refresh costs are all real numbers that
//! must participate in ordered index structures (`BTreeMap`) and hash maps.
//! `f64` is not `Ord`/`Eq`/`Hash` because of NaN; [`OrderedF64`] restores
//! those traits by rejecting NaN at construction and ordering by IEEE-754
//! `total_cmp` (so `-0.0 < +0.0` and infinities order correctly).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::error::TrappError;

/// A finite-or-infinite (never NaN) `f64` with total ordering.
///
/// ```
/// use trapp_types::OrderedF64;
/// let a = OrderedF64::new(1.5).unwrap();
/// let b = OrderedF64::new(2.5).unwrap();
/// assert!(a < b);
/// assert!(OrderedF64::new(f64::NAN).is_err());
/// ```
#[derive(Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
#[serde(transparent)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Zero.
    pub const ZERO: OrderedF64 = OrderedF64(0.0);
    /// Positive infinity (used for `min(∅)`).
    pub const INFINITY: OrderedF64 = OrderedF64(f64::INFINITY);
    /// Negative infinity (used for `max(∅)`).
    pub const NEG_INFINITY: OrderedF64 = OrderedF64(f64::NEG_INFINITY);

    /// Wraps `v`, rejecting NaN.
    pub fn new(v: f64) -> Result<Self, TrappError> {
        if v.is_nan() {
            Err(TrappError::NanValue)
        } else {
            Ok(OrderedF64(v))
        }
    }

    /// Wraps `v` without checking for NaN.
    ///
    /// # Panics
    /// Panics in debug builds if `v` is NaN. In release builds a NaN would
    /// silently break ordering invariants, so callers must guarantee
    /// non-NaN input (e.g. values already validated by [`OrderedF64::new`]).
    #[inline]
    pub fn new_unchecked(v: f64) -> Self {
        debug_assert!(!v.is_nan(), "OrderedF64 cannot hold NaN");
        OrderedF64(v)
    }

    /// The underlying float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// `true` if the value is finite (neither infinite nor NaN).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        OrderedF64(self.0.abs())
    }

    /// The smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl PartialEq for OrderedF64 {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Hash for OrderedF64 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // total_cmp distinguishes -0.0 from +0.0, so hashing raw bits is
        // consistent with Eq.
        self.0.to_bits().hash(state);
    }
}

impl fmt::Debug for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl fmt::Display for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<OrderedF64> for f64 {
    fn from(v: OrderedF64) -> f64 {
        v.0
    }
}

impl TryFrom<f64> for OrderedF64 {
    type Error = TrappError;
    fn try_from(v: f64) -> Result<Self, TrappError> {
        OrderedF64::new(v)
    }
}

impl Add for OrderedF64 {
    type Output = OrderedF64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        // inf + (-inf) = NaN; map to 0 is wrong, so debug-assert instead.
        OrderedF64::new_unchecked(self.0 + rhs.0)
    }
}
impl Sub for OrderedF64 {
    type Output = OrderedF64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        OrderedF64::new_unchecked(self.0 - rhs.0)
    }
}
impl Mul for OrderedF64 {
    type Output = OrderedF64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        OrderedF64::new_unchecked(self.0 * rhs.0)
    }
}
impl Div for OrderedF64 {
    type Output = OrderedF64;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        OrderedF64::new_unchecked(self.0 / rhs.0)
    }
}
impl Neg for OrderedF64 {
    type Output = OrderedF64;
    #[inline]
    fn neg(self) -> Self {
        OrderedF64(-self.0)
    }
}

/// `γₖ = k·u / (1 − k·u)`, with unit roundoff `u = 2⁻⁵³`: `k` rounded
/// `f64` operations move a result by at most a factor `1 ± γₖ` (Higham,
/// *Accuracy and Stability of Numerical Algorithms*, Lemma 3.1).
pub fn gamma(k: usize) -> f64 {
    let ku = k as f64 * (f64::EPSILON / 2.0);
    ku / (1.0 - ku)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn rejects_nan() {
        assert!(OrderedF64::new(f64::NAN).is_err());
        assert!(OrderedF64::new(0.0).is_ok());
        assert!(OrderedF64::new(f64::INFINITY).is_ok());
    }

    #[test]
    fn total_order_with_infinities() {
        let neg = OrderedF64::NEG_INFINITY;
        let zero = OrderedF64::ZERO;
        let pos = OrderedF64::INFINITY;
        assert!(neg < zero && zero < pos);
        assert_eq!(neg.min(pos), neg);
        assert_eq!(neg.max(pos), pos);
    }

    #[test]
    fn negative_zero_orders_below_positive_zero() {
        let nz = OrderedF64::new(-0.0).unwrap();
        let pz = OrderedF64::new(0.0).unwrap();
        assert!(nz < pz);
        assert_ne!(nz, pz);
    }

    #[test]
    fn usable_as_btree_key() {
        let mut m = BTreeMap::new();
        for v in [3.0, 1.0, 2.0, -5.5, 0.25] {
            m.insert(OrderedF64::new(v).unwrap(), v);
        }
        let keys: Vec<f64> = m.keys().map(|k| k.get()).collect();
        assert_eq!(keys, vec![-5.5, 0.25, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn arithmetic() {
        let a = OrderedF64::new(1.5).unwrap();
        let b = OrderedF64::new(0.5).unwrap();
        assert_eq!((a + b).get(), 2.0);
        assert_eq!((a - b).get(), 1.0);
        assert_eq!((a * b).get(), 0.75);
        assert_eq!((a / b).get(), 3.0);
        assert_eq!((-a).get(), -1.5);
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(OrderedF64::new(1.0).unwrap());
        assert!(s.contains(&OrderedF64::new(1.0).unwrap()));
        assert!(!s.contains(&OrderedF64::new(2.0).unwrap()));
    }

    #[test]
    fn gamma_bounds_k_roundings() {
        assert_eq!(gamma(0), 0.0);
        let u = f64::EPSILON / 2.0;
        assert!(gamma(4) > 4.0 * u && gamma(4) < 4.0 * u * (1.0 + 8.0 * u));
    }
}
