//! # trapp-storage
//!
//! The in-memory relational substrate underneath TRAPP/AG.
//!
//! A TRAPP **data cache** stores, per replicated object, a *bound* instead of
//! an exact value (§3 of the paper). In the relational model this becomes a
//! table whose *bounded columns* hold [`trapp_types::Interval`]s and whose
//! other columns hold exact values. This crate provides that table layer:
//!
//! * [`Schema`] / [`ColumnDef`] — typed columns, with per-column
//!   *boundedness* (only `FLOAT` columns may be bounded);
//! * [`Row`] — one tuple of exact/bounded cells;
//! * [`Table`] — tuple storage in dense slots indexed by stable
//!   [`trapp_types::TupleId`]s,
//!   per-tuple refresh costs (§3: "each object has its own cost to
//!   refresh"), cell refresh operations, and maintained ordered secondary
//!   indexes;
//! * [`index::OrderedIndex`] — B-tree indexes over bound endpoints, bound
//!   widths, and refresh costs, enabling the sub-linear CHOOSE_REFRESH
//!   variants the paper describes (§5.1, §5.2, §6.3, §8.3);
//! * [`Catalog`] — a name → table map for query binding.
//!
//! The storage layer is deliberately independent of the aggregation
//! algorithms: `trapp-core` consumes it through scans and index probes.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod catalog;
pub mod index;
pub mod row;
pub mod schema;
pub mod table;

pub use catalog::Catalog;
pub use index::{IndexKey, OrderedIndex};
pub use row::Row;
pub use schema::{ColumnDef, Schema};
pub use table::Table;
