//! Cross-shard partial-aggregate merging: the *gather* half of a sharded
//! TRAPP deployment's scatter-gather execution.
//!
//! A sharded serving layer splits a table's rows across N caches. A query
//! whose group set spans shards is answered by asking every shard for its
//! **partial input** — the shard's classified, evaluated [`AggInput`]
//! ([`QuerySession::partial_query`](crate::executor::QuerySession::partial_query),
//! now shape-generic — see [`crate::query_plan::QueryPartial`])
//! — and merging those partials back into the exact `AggInput` a single
//! cache holding all the rows would have built. Bounds are then derived
//! *once*, from the merged input, by the ordinary
//! [`bounded_answer`](crate::agg::bounded_answer) /
//! [`choose_refresh`](crate::refresh::choose_refresh) machinery:
//!
//! * COUNT merges by summing the per-band cardinalities (exact in `f64`);
//! * SUM/AVG merge by re-running the interval sum / tight Appendix E
//!   algorithm over the union of items;
//! * MIN/MAX merge by folding interval endpoints (associative and exact).
//!
//! SUM endpoints are exact sums rounded once
//! ([`ExactSum`](trapp_types::ExactSum)), so per-shard partial sums would
//! merge without drift; the items still ship because CHOOSE_REFRESH plans
//! over them — globally, so a sharded deployment refreshes exactly the
//! tuples a single cache would have chosen — and because the tight AVG
//! bound does not decompose into per-shard parts. Deriving the bounds
//! from the merged *input* makes the sharded answer **bit-equivalent** to
//! the single-cache answer.
//!
//! ## Tuple-id spaces
//!
//! Each shard numbers its tuples locally. Before merging, the caller must
//! rewrite every item's [`AggItem::tid`] into a shared *global* id space
//! ([`ShardPartial::rewrite_tids`]); the ids must be unique across shards.
//! When the global ids equal the tuple ids a single cache would have
//! assigned (insertion order), the merged input — item order included —
//! reproduces the single-cache input exactly.

use std::collections::BTreeMap;

use crate::agg::{AggInput, AggItem};
use crate::group_by::{render_key, GroupKey};
use crate::query_plan::TableSlice;
use crate::Aggregate;
use trapp_expr::Band;
use trapp_storage::Table;
use trapp_types::{TrappError, TupleId};

/// One shard's contribution to a scatter-gathered aggregate: the bound
/// query's shape plus the shard's evaluated input.
///
/// Produced by
/// [`QuerySession::partial_query`](crate::executor::QuerySession::partial_query)
/// (standalone for scalar queries, one per group for `GROUP BY`);
/// consumed by [`merge_partials`] after tuple-id rewriting.
#[derive(Clone, Debug)]
pub struct ShardPartial {
    /// The queried table.
    pub table: String,
    /// The aggregate.
    pub agg: Aggregate,
    /// Precision constraint `R` (`None` = ∞).
    pub within: Option<f64>,
    /// The shard's classified, evaluated aggregate input.
    pub input: AggInput,
}

impl ShardPartial {
    /// Rewrites every item's tuple id via `f` — shard-local ids into the
    /// global id space shared by all partials of one query.
    pub fn rewrite_tids(&mut self, mut f: impl FnMut(TupleId) -> TupleId) {
        for item in &mut self.input.items {
            item.tid = f(item.tid);
        }
    }
}

/// Merges per-shard partial inputs into the input a single cache holding
/// every row would have built.
///
/// Items are re-ordered exactly as [`AggInput::build`] orders them — all
/// `T+` items by ascending tuple id, then all `T?` items by ascending
/// tuple id — so every downstream consumer (bounded answers, refresh
/// planning, tie-breaking) behaves bit-identically to the single-cache
/// path. `minus_count` and the §8.3 cardinality slack add componentwise.
///
/// Tuple ids must already be globally unique (see
/// [`ShardPartial::rewrite_tids`]); duplicates are rejected because a
/// tuple counted by two shards would silently double its contribution.
pub fn merge_partials(inputs: impl IntoIterator<Item = AggInput>) -> Result<AggInput, TrappError> {
    let mut items: Vec<AggItem> = Vec::new();
    let mut minus_count = 0usize;
    let mut slack = (0u64, 0u64);
    for input in inputs {
        items.extend(input.items);
        minus_count += input.minus_count;
        slack.0 += input.cardinality_slack.0;
        slack.1 += input.cardinality_slack.1;
    }
    // AggInput::build order: T+ in tid order, then T? in tid order.
    items.sort_by_key(|i| (i.band != Band::Plus, i.tid));
    if items.windows(2).any(|w| w[0].tid == w[1].tid) {
        return Err(TrappError::Internal(
            "merge_partials: duplicate tuple id across shard partials \
             (rewrite shard-local ids to a global space first)"
                .into(),
        ));
    }
    Ok(AggInput::new(items, minus_count, slack))
}

/// Merges per-shard *grouped* partials — the `GROUP BY` gather half.
///
/// The group key partitions the row space, so with the partition column
/// as the group key each group's rows are co-located on one shard and the
/// merge is a pure key-indexed re-assembly; when the two columns differ a
/// group may span shards, and its inputs merge through the ordinary
/// [`merge_partials`] (same bit-equivalence argument, per key). Output is
/// in rendered-key order — the same deterministic order
/// [`QuerySession::execute_grouped`](crate::executor::QuerySession::execute_grouped)
/// produces.
pub fn merge_grouped_partials(
    shards: impl IntoIterator<Item = Vec<(GroupKey, ShardPartial)>>,
) -> Result<Vec<(GroupKey, ShardPartial)>, TrappError> {
    let mut by_key: BTreeMap<String, (GroupKey, ShardPartial, Vec<AggInput>)> = BTreeMap::new();
    for shard in shards {
        for (key, partial) in shard {
            match by_key.entry(render_key(&key)) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert((key, partial, Vec::new()));
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().2.push(partial.input);
                }
            }
        }
    }
    by_key
        .into_values()
        .map(|(key, mut first, rest)| {
            if !rest.is_empty() {
                let inputs = std::iter::once(first.input).chain(rest);
                first.input = merge_partials(inputs)?;
            }
            Ok((key, first))
        })
        .collect()
}

/// Concatenates per-shard [`TableSlice`]s back into the base table a
/// single cache holding every row would hold — the join gather half.
///
/// Tuple ids must already be rewritten into the global space and form the
/// dense range `1..=n` (the id assignment a single cache ingesting the
/// same rows would have produced); rows are inserted in ascending id
/// order so the merged table's ids, cells, and refresh costs are
/// cell-for-cell the single cache's, which is what lets the join pipeline
/// derive bit-identical bounds and refresh choices from it.
pub fn merge_table_slices(
    schema: std::sync::Arc<trapp_storage::Schema>,
    slices: impl IntoIterator<Item = TableSlice>,
) -> Result<Table, TrappError> {
    let mut name: Option<String> = None;
    let mut rows: Vec<(TupleId, Vec<trapp_types::BoundedValue>, f64)> = Vec::new();
    for slice in slices {
        match &name {
            None => name = Some(slice.table.clone()),
            Some(n) if *n != slice.table => {
                return Err(TrappError::Internal(format!(
                    "merge_table_slices: mixed tables {n} and {}",
                    slice.table
                )))
            }
            Some(_) => {}
        }
        rows.extend(slice.rows);
    }
    let name = name.ok_or_else(|| TrappError::Internal("merge_table_slices: no slices".into()))?;
    rows.sort_by_key(|(tid, _, _)| *tid);
    let mut table = Table::new(name, schema);
    for (i, (tid, cells, cost)) in rows.into_iter().enumerate() {
        if tid.raw() != i as u64 + 1 {
            return Err(TrappError::Internal(format!(
                "merge_table_slices: global tuple ids must be dense 1..=n \
                 (slot {} holds {tid}; rewrite shard-local ids first)",
                i + 1
            )));
        }
        let assigned = table.insert_with_cost(cells, cost)?;
        debug_assert_eq!(assigned, tid);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::test_fixture::*;
    use crate::agg::{bounded_answer, AggInput};
    use crate::executor::QuerySession;
    use crate::refresh::{choose_refresh, SolverStrategy};
    use trapp_expr::{BinaryOp, ColumnRef, Expr};
    use trapp_storage::Table;
    use trapp_types::Value;

    fn col(name: &str) -> Expr<usize> {
        Expr::Column(ColumnRef::bare(name)).bind(&schema()).unwrap()
    }

    fn cmp(name: &str, op: BinaryOp, k: f64) -> Expr<usize> {
        Expr::binary(
            op,
            Expr::Column(ColumnRef::bare(name)),
            Expr::Literal(Value::Float(k)),
        )
        .bind(&schema())
        .unwrap()
    }

    /// Splits the Figure 2 table into `n` shard tables (row `i` → shard
    /// `i % n`) and returns the per-shard tables plus each shard's
    /// local→global tid map (global = position in the original table).
    fn split(n: usize) -> Vec<(Table, Vec<TupleId>)> {
        let whole = links_table();
        let mut shards: Vec<(Table, Vec<TupleId>)> = (0..n)
            .map(|_| (Table::new("links", schema()), Vec::new()))
            .collect();
        for (global, row) in whole.scan() {
            let s = (global.raw() as usize - 1) % n;
            let cells = row.cells().to_vec();
            let (table, map) = &mut shards[s];
            table
                .insert_with_cost(cells, whole.cost(global).unwrap())
                .unwrap();
            map.push(global);
        }
        shards
    }

    fn merged_input(
        n: usize,
        predicate: Option<&Expr<usize>>,
        arg: Option<&Expr<usize>>,
    ) -> AggInput {
        let partials = split(n).into_iter().map(|(table, map)| {
            let mut input = AggInput::build(&table, predicate, arg).unwrap();
            for item in &mut input.items {
                item.tid = map[item.tid.raw() as usize - 1];
            }
            input
        });
        merge_partials(partials).unwrap()
    }

    /// The merged input must literally equal the single-table input —
    /// items, order, bands, intervals, costs — for every shard count.
    #[test]
    fn merge_reconstructs_single_table_input() {
        let whole = links_table();
        for (pred, arg) in [
            (None, Some(col("traffic"))),
            (
                Some(cmp("latency", BinaryOp::Gt, 10.0)),
                Some(col("latency")),
            ),
            (Some(cmp("traffic", BinaryOp::Gt, 100.0)), None),
        ] {
            let reference = AggInput::build(&whole, pred.as_ref(), arg.as_ref()).unwrap();
            for n in 1..=4 {
                let merged = merged_input(n, pred.as_ref(), arg.as_ref());
                assert_eq!(merged.items, reference.items, "n={n}");
                assert_eq!(merged.minus_count, reference.minus_count);
                assert_eq!(merged.cardinality_slack, reference.cardinality_slack);
            }
        }
    }

    /// Bit-equivalent answers and identical refresh plans from the merged
    /// input, for every aggregate and shard count.
    #[test]
    fn merged_answers_and_plans_are_bit_equal() {
        let whole = links_table();
        let arg = col("traffic");
        let reference = AggInput::build(&whole, None, Some(&arg)).unwrap();
        for n in 1..=4 {
            let merged = merged_input(n, None, Some(&arg));
            for agg in [
                Aggregate::Count,
                Aggregate::Sum,
                Aggregate::Avg,
                Aggregate::Min,
                Aggregate::Max,
            ] {
                let a = bounded_answer(agg, &reference).unwrap();
                let b = bounded_answer(agg, &merged).unwrap();
                assert_eq!(a.range, b.range, "{agg}, n={n}");
                let pa = choose_refresh(agg, &reference, 10.0, SolverStrategy::Exact).unwrap();
                let pb = choose_refresh(agg, &merged, 10.0, SolverStrategy::Exact).unwrap();
                assert_eq!(pa.tuples, pb.tuples, "{agg}, n={n}");
                assert_eq!(pa.planned_cost, pb.planned_cost);
            }
        }
    }

    #[test]
    fn duplicate_global_ids_are_rejected() {
        let whole = links_table();
        let input = AggInput::build(&whole, None, Some(&col("latency"))).unwrap();
        let err = merge_partials([input.clone(), input]).unwrap_err();
        assert!(matches!(err, TrappError::Internal(_)));
    }

    /// `partial_query` on a one-shard session agrees with a direct build
    /// of the same query's input.
    #[test]
    fn partial_query_matches_direct_build() {
        let session = QuerySession::new(links_table());
        let query = trapp_sql::parse_query("SELECT SUM(traffic) WITHIN 10 FROM links").unwrap();
        let partial = match session.partial_query(&query).unwrap() {
            crate::query_plan::QueryPartial::Scalar(p) => p,
            other => panic!("expected scalar partial, got {other:?}"),
        };
        assert_eq!(partial.table, "links");
        assert_eq!(partial.agg, Aggregate::Sum);
        assert_eq!(partial.within, Some(10.0));
        let direct = AggInput::build(&links_table(), None, Some(&col("traffic"))).unwrap();
        assert_eq!(partial.input.items, direct.items);
    }

    /// Grouped partials key-merge back into the whole-table grouping, and
    /// cross-shard groups recombine through `merge_partials` per key.
    #[test]
    fn grouped_partials_merge_by_key() {
        let query =
            trapp_sql::parse_query("SELECT SUM(latency) WITHIN 5 FROM links GROUP BY from_node")
                .unwrap();
        // Reference: the whole table's grouped partials.
        let whole = QuerySession::new(links_table());
        let reference = match whole.partial_query(&query).unwrap() {
            crate::query_plan::QueryPartial::Grouped(g) => g,
            other => panic!("expected grouped, got {other:?}"),
        };
        for n in 1..=4 {
            let shards: Vec<Vec<(crate::group_by::GroupKey, ShardPartial)>> = split(n)
                .into_iter()
                .map(|(table, map)| {
                    let session = QuerySession::new(table);
                    let mut groups = match session.partial_query(&query).unwrap() {
                        crate::query_plan::QueryPartial::Grouped(g) => g,
                        other => panic!("expected grouped, got {other:?}"),
                    };
                    for (_, p) in &mut groups {
                        p.rewrite_tids(|tid| map[tid.raw() as usize - 1]);
                    }
                    groups
                })
                .collect();
            let merged = merge_grouped_partials(shards).unwrap();
            assert_eq!(merged.len(), reference.len(), "n={n}");
            for ((ka, pa), (kb, pb)) in merged.iter().zip(&reference) {
                assert_eq!(
                    crate::group_by::render_key(ka),
                    crate::group_by::render_key(kb)
                );
                assert_eq!(pa.input.items, pb.input.items, "n={n}");
            }
        }
    }

    /// Merged table slices literally equal the original table — ids,
    /// cells, costs — for every shard count; non-dense ids are rejected.
    #[test]
    fn table_slices_reassemble_the_original_table() {
        let whole = links_table();
        for n in 1..=4 {
            let slices: Vec<crate::query_plan::TableSlice> = split(n)
                .into_iter()
                .map(|(table, map)| {
                    let mut rows = Vec::new();
                    for (tid, row) in table.scan() {
                        rows.push((
                            map[tid.raw() as usize - 1],
                            row.cells().to_vec(),
                            table.cost(tid).unwrap(),
                        ));
                    }
                    crate::query_plan::TableSlice {
                        table: "links".into(),
                        rows,
                    }
                })
                .collect();
            let merged = merge_table_slices(schema(), slices).unwrap();
            assert_eq!(merged.len(), whole.len(), "n={n}");
            for (tid, row) in whole.scan() {
                assert_eq!(merged.row(tid).unwrap().cells(), row.cells(), "n={n}");
                assert_eq!(merged.cost(tid).unwrap(), whole.cost(tid).unwrap());
            }
        }
        // A gap in the global id space is an error, not a silent renumber.
        let bad = crate::query_plan::TableSlice {
            table: "links".into(),
            rows: vec![(
                TupleId::new(2),
                links_table().row(TupleId::new(1)).unwrap().cells().to_vec(),
                1.0,
            )],
        };
        assert!(merge_table_slices(schema(), [bad]).is_err());
    }
}
