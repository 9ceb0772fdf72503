//! # trapp-types
//!
//! Foundational value types for the TRAPP replication system
//! (Olston & Widom, *Offering a Precision-Performance Tradeoff for
//! Aggregation Queries over Replicated Data*, VLDB 2000).
//!
//! TRAPP caches store **bounds** `[L, H]` that are guaranteed to contain the
//! current master value of each replicated data object, and queries over those
//! bounds return **bounded answers** — again intervals — accompanied by
//! quantitative *precision constraints*. This crate provides the numeric and
//! logical substrate for that model:
//!
//! * [`ExactSum`] — exact, order-free `f64` summation, rounded once on
//!   read: every SUM-family endpoint folds through it.
//! * [`OrderedF64`] — a totally ordered, hashable `f64` wrapper (NaN rejected),
//!   usable as a B-tree index key over bound endpoints.
//! * [`Interval`] — closed real intervals with the arithmetic needed to
//!   evaluate expressions over bounded data (§5–§6 of the paper), including
//!   the empty-aggregate conventions `min(∅) = +∞`, `max(∅) = −∞`.
//! * [`Tri`] — Kleene three-valued logic used by the `Possible`/`Certain`
//!   predicate transformations of Figure 8 / Appendix D.
//! * [`Value`] / [`BoundedValue`] — dynamically typed cell values; numeric
//!   cells may be *exact* or *bounded*.
//! * Strongly typed identifiers for objects, tuples, sources, and caches.
//! * [`shard_of`] — the partition hash a sharded deployment's server and
//!   workload sides share.
//! * [`TrappError`] — the shared error type.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod error;
pub mod exact_sum;
pub mod float;
pub mod id;
pub mod interval;
pub mod shard;
pub mod tri;
pub mod value;

pub use error::{PartialFailure, SourceFailure, TrappError, TrappResult};
pub use exact_sum::ExactSum;
pub use float::OrderedF64;
pub use id::{CacheId, ObjectId, SourceId, TupleId};
pub use interval::Interval;
pub use shard::shard_of;
pub use tri::Tri;
pub use value::{BoundedValue, Value, ValueType};
