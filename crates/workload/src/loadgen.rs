//! Closed-loop service workload generator: zipfian object popularity,
//! mixed aggregate templates, configurable precision-constraint mix.
//!
//! Models the serving regime the query service targets: a `metrics` table
//! partitioned into groups ("segments"), many concurrent clients issuing
//! `SELECT agg(load) WITHIN r FROM metrics WHERE grp = g` with group
//! popularity following a zipfian distribution — so hot groups' replicated
//! objects are hit by many overlapping refresh plans (the coalescing
//! opportunity) and each group's rows span several sources (the batching
//! opportunity).
//!
//! The generator emits plain data — row specs and SQL strings — so the same
//! workload can drive a single-threaded `trapp_system::Simulation`, the
//! concurrent `trapp-server` service, or anything else, and their answers
//! can be compared.
//!
//! Two knobs target **sharded** deployments: `global_fraction` mixes in
//! group-free queries that a sharded service must scatter-gather, and
//! `shard_skew` concentrates query popularity on the groups of one shard
//! (via the same [`trapp_types::shard_of`] hash the server partitions
//! with) to measure scaling under hot-shard imbalance.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trapp_storage::{ColumnDef, Schema, Table};
use trapp_types::{shard_of, BoundedValue, ExactSum, SourceId, Value, ValueType};

/// The `weight > thr` threshold join queries filter segments by.
pub const JOIN_WEIGHT_THRESHOLD: f64 = 0.5;

/// Aggregate templates the generator mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggTemplate {
    /// `COUNT(*) … WHERE grp = g AND load > thr` (bounded predicate).
    Count,
    /// `SUM(load) … WHERE grp = g`.
    Sum,
    /// `AVG(load) … WHERE grp = g`.
    Avg,
    /// `MIN(load) … WHERE grp = g`.
    Min,
}

impl AggTemplate {
    /// All templates, in weight order.
    pub const ALL: [AggTemplate; 4] = [
        AggTemplate::Count,
        AggTemplate::Sum,
        AggTemplate::Avg,
        AggTemplate::Min,
    ];
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// RNG seed (the whole workload is deterministic per seed).
    pub seed: u64,
    /// Number of groups (distinct `grp` values).
    pub groups: usize,
    /// Rows per group.
    pub rows_per_group: usize,
    /// Number of data sources rows are spread across.
    pub sources: usize,
    /// Queries to generate.
    pub queries: usize,
    /// Zipf exponent for group popularity (`0` = uniform; `≈1` = classic).
    pub zipf_s: f64,
    /// Relative weights for `[COUNT, SUM, AVG, MIN]` templates.
    pub agg_weights: [u32; 4],
    /// Precision-constraint mix: `(R, weight)` pairs.
    pub precision: Vec<(f64, u32)>,
    /// Master values are drawn uniformly from this range.
    pub value_range: (f64, f64),
    /// Fraction of queries issued with **no group predicate**: they span
    /// every group, so a sharded service answers them by cross-shard
    /// scatter-gather. `0.0` (the default) keeps every query group-pinned.
    pub global_fraction: f64,
    /// Shard-skew knob: the probability that a sampled group is remapped
    /// onto the *hot shard* — the shard that owns group 0 under a
    /// [`skew_shards`](LoadConfig::skew_shards)-way
    /// [`trapp_types::shard_of`] partition. `0.0` leaves placement to the
    /// zipf alone (popularity spreads across shards because the partition
    /// hash mixes consecutive group ids); `1.0` aims every group-pinned
    /// query at one shard, the worst case for shard scaling.
    pub shard_skew: f64,
    /// The shard count [`shard_skew`](LoadConfig::shard_skew) targets.
    /// Must match the served topology for the skew to land where
    /// intended; `1` (the default) disables remapping.
    pub skew_shards: usize,
    /// Fraction of queries issued as `GROUP BY grp` over all groups: one
    /// bounded answer per group, each independently under the sampled
    /// `WITHIN`. `0.0` (the default) emits none.
    pub grouped_fraction: f64,
    /// Fraction of queries issued as two-table joins
    /// (`metrics ⋈ segments` on the group key, filtered by the segment's
    /// bounded `weight`). Any non-zero value also adds the `segments`
    /// side table (one row per group) to the workload; `0.0` (the
    /// default) emits neither, keeping historical workloads bit-stable.
    pub join_fraction: f64,
    /// Fraction of queries issued with a `DEADLINE` clause — the
    /// time-bounded (BlinkDB-style) contract, against which the service
    /// trades precision for latency under load. `0.0` (the default)
    /// emits none and leaves historical rng streams bit-stable.
    pub deadline_fraction: f64,
    /// The deadline budget, in milliseconds, attached to deadline-bearing
    /// queries. Ignored while [`deadline_fraction`](LoadConfig::deadline_fraction)
    /// is zero.
    pub deadline_ms: f64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            seed: 42,
            groups: 16,
            rows_per_group: 6,
            sources: 4,
            queries: 256,
            zipf_s: 1.1,
            agg_weights: [1, 2, 2, 1],
            // Mostly tight constraints (they force refreshes — the traffic
            // the service exists to reduce), some loose.
            precision: vec![(0.5, 3), (2.0, 2), (25.0, 1)],
            value_range: (50.0, 100.0),
            global_fraction: 0.0,
            shard_skew: 0.0,
            skew_shards: 1,
            grouped_fraction: 0.0,
            join_fraction: 0.0,
            deadline_fraction: 0.0,
            deadline_ms: 100.0,
        }
    }
}

/// One row of the generated table: which source owns its bounded cell and
/// the cell values to install.
#[derive(Clone, Debug)]
pub struct RowSpec {
    /// The owning source.
    pub source: SourceId,
    /// `[grp (exact int), load (initial master value)]`.
    pub cells: Vec<BoundedValue>,
}

/// The shape of a generated query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryShape {
    /// One bounded answer over `metrics` (group-pinned or global).
    Scalar,
    /// `GROUP BY grp` over all groups: one bounded answer per group.
    Grouped,
    /// `metrics ⋈ segments` on the group key, filtered by the segment's
    /// bounded `weight` — uncertainty on both join sides.
    Join,
}

/// One generated query.
#[derive(Clone, Debug)]
pub struct GeneratedQuery {
    /// Renderable TRAPP/AG SQL.
    pub sql: String,
    /// The targeted group; `None` for a global (all-groups) query, which
    /// a sharded service answers by scatter-gather. Always `None` for
    /// grouped and join shapes.
    pub group: Option<usize>,
    /// The template used (always [`AggTemplate::Sum`] for joins).
    pub agg: AggTemplate,
    /// The precision constraint (per group for grouped queries).
    pub within: f64,
    /// The deadline budget in milliseconds, when the query carries a
    /// `DEADLINE` clause.
    pub deadline: Option<f64>,
    /// The query's shape.
    pub shape: QueryShape,
}

/// Splices a `DEADLINE` clause into rendered SQL (the grammar places it
/// between `WITHIN` and `FROM`).
fn with_deadline(sql: String, deadline: Option<f64>) -> String {
    match deadline {
        Some(d) => sql.replacen(" FROM", &format!(" DEADLINE {d} FROM"), 1),
        None => sql,
    }
}

/// A generated workload: table shape, rows, and a query stream.
#[derive(Clone, Debug)]
pub struct ServiceWorkload {
    /// Configuration it was generated from.
    pub config: LoadConfig,
    /// Rows for the `metrics` table, in insertion order.
    pub rows: Vec<RowSpec>,
    /// Rows for the `segments` side table (one per group, in group
    /// order); empty unless [`LoadConfig::join_fraction`] is non-zero.
    /// Serving layers should add these *after* every `metrics` row so
    /// object ids `1..=rows.len()` keep backing the metrics rows.
    pub segments: Vec<RowSpec>,
    /// The query stream, in submission order.
    pub queries: Vec<GeneratedQuery>,
}

/// The `metrics` table schema: exact group key, bounded load.
pub fn schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![
        ColumnDef::exact("grp", ValueType::Int),
        ColumnDef::bounded_float("load"),
    ])
    .expect("static schema")
}

/// An empty `metrics` table.
pub fn table() -> Table {
    Table::new("metrics", schema())
}

/// The `segments` side-table schema: exact group key, bounded weight.
pub fn segments_schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![
        ColumnDef::exact("grp", ValueType::Int),
        ColumnDef::bounded_float("weight"),
    ])
    .expect("static schema")
}

/// An empty `segments` table.
pub fn segments_table() -> Table {
    Table::new("segments", segments_schema())
}

/// The group key of a generated row.
fn row_group(r: &RowSpec) -> i64 {
    match &r.cells[0] {
        BoundedValue::Exact(Value::Int(g)) => *g,
        other => unreachable!("generated rows carry exact int group keys, got {other:?}"),
    }
}

/// The point envelope of the metrics masters (each row known exactly).
fn point_envelope(w: &ServiceWorkload) -> Vec<(f64, f64)> {
    w.rows
        .iter()
        .map(|r| {
            let m = r.cells[1]
                .as_interval()
                .expect("load cell is numeric")
                .midpoint();
            (m, m)
        })
        .collect()
}

/// The master weight of one group's segment row.
pub fn segment_weight(w: &ServiceWorkload, group: i64) -> f64 {
    w.segments
        .iter()
        .find(|s| row_group(s) == group)
        .map(|s| {
            s.cells[1]
                .as_interval()
                .expect("weight cell is numeric")
                .midpoint()
        })
        .unwrap_or_else(|| panic!("no segment row for group {group}"))
}

/// The `(lo, hi)` envelope of one aggregate over the selected rows'
/// per-row envelopes — the shared kernel of every ground-truth checker.
fn agg_bounds(agg: AggTemplate, selected: &[(f64, f64)], mid: f64) -> (f64, f64) {
    let n = selected.len() as f64;
    // Sums are exact, rounded once: what a `WITHIN 0` SUM answers,
    // whatever order the rows are stored in.
    let sum = |end: fn(&(f64, f64)) -> f64| selected.iter().map(end).collect::<ExactSum>().read();
    match agg {
        // A row certainly passes `load > mid` only if its whole envelope
        // does; it possibly passes if any of it does.
        AggTemplate::Count => (
            selected.iter().filter(|&&(lo, _)| lo > mid).count() as f64,
            selected.iter().filter(|&&(_, hi)| hi > mid).count() as f64,
        ),
        AggTemplate::Sum => (sum(|r| r.0), sum(|r| r.1)),
        AggTemplate::Avg => (sum(|r| r.0) / n, sum(|r| r.1) / n),
        AggTemplate::Min => (
            selected.iter().fold(f64::INFINITY, |a, &(lo, _)| a.min(lo)),
            selected.iter().fold(f64::INFINITY, |a, &(_, hi)| a.min(hi)),
        ),
    }
}

/// The precise aggregate `q` should return, computed from the master
/// values in the workload's row specs — the ground truth benches and
/// tests check bounded answers against (`range` must contain it).
/// Handles scalar *and* join shapes; grouped queries have one truth per
/// group — use [`ground_truth_groups`].
pub fn ground_truth(w: &ServiceWorkload, q: &GeneratedQuery) -> f64 {
    ground_truth_bounds(w, q, &point_envelope(w)).0
}

/// The range the precise aggregate must lie in when each metrics row's
/// master value is only known to lie in `current[i] = (lo, hi)` — the
/// envelope benches use to sanity-check answers while an update stream is
/// concurrently rewriting masters (the instantaneous truth is then a
/// moving target, but it can never leave this envelope). `current` is
/// indexed like [`ServiceWorkload::rows`]; with point intervals this
/// degenerates to the exact [`ground_truth`].
///
/// Join queries select the rows whose group's segment clears the
/// `weight` threshold at its *master* value — segment masters are static
/// (the churn stream only rewrites metrics objects), so membership is
/// exact while values carry the envelope.
pub fn ground_truth_bounds(
    w: &ServiceWorkload,
    q: &GeneratedQuery,
    current: &[(f64, f64)],
) -> (f64, f64) {
    assert_eq!(current.len(), w.rows.len(), "one (lo, hi) per row");
    let mid = (w.config.value_range.0 + w.config.value_range.1) / 2.0;
    let selected: Vec<(f64, f64)> = w
        .rows
        .iter()
        .zip(current)
        .filter(|(r, _)| match q.shape {
            QueryShape::Scalar => match q.group {
                Some(g) => row_group(r) == g as i64,
                None => true,
            },
            QueryShape::Join => segment_weight(w, row_group(r)) > JOIN_WEIGHT_THRESHOLD,
            QueryShape::Grouped => {
                panic!("grouped queries have one truth per group; use ground_truth_group_bounds")
            }
        })
        .map(|(_, &range)| range)
        .collect();
    agg_bounds(q.agg, &selected, mid)
}

/// Per-group precise aggregates for a grouped query, ascending by group
/// id. (Serving layers order groups by *rendered* key — match by id, not
/// by position, when group counts reach double digits.)
pub fn ground_truth_groups(w: &ServiceWorkload, q: &GeneratedQuery) -> Vec<(i64, f64)> {
    ground_truth_group_bounds(w, q, &point_envelope(w))
        .into_iter()
        .map(|(g, (lo, _))| (g, lo))
        .collect()
}

/// Per-group envelope bounds for a grouped query under churn — the
/// grouped counterpart of [`ground_truth_bounds`].
pub fn ground_truth_group_bounds(
    w: &ServiceWorkload,
    q: &GeneratedQuery,
    current: &[(f64, f64)],
) -> Vec<(i64, (f64, f64))> {
    assert_eq!(current.len(), w.rows.len(), "one (lo, hi) per row");
    assert_eq!(q.shape, QueryShape::Grouped, "not a grouped query");
    let mid = (w.config.value_range.0 + w.config.value_range.1) / 2.0;
    let mut by_group: BTreeMap<i64, Vec<(f64, f64)>> = BTreeMap::new();
    for (r, &range) in w.rows.iter().zip(current) {
        by_group.entry(row_group(r)).or_default().push(range);
    }
    by_group
        .into_iter()
        .map(|(g, selected)| (g, agg_bounds(q.agg, &selected, mid)))
        .collect()
}

/// A seeded zipfian sampler over `0..n` (rank `k` has weight
/// `1/(k+1)^s`).
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution; `n` must be nonzero.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over empty domain");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Samples one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// Generates the workload for `config`.
pub fn generate(config: &LoadConfig) -> ServiceWorkload {
    assert!(config.groups > 0 && config.rows_per_group > 0 && config.sources > 0);
    assert!(!config.precision.is_empty(), "empty precision mix");
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Rows: group g's i-th row lives at source (g + i) mod sources, so
    // every group with ≥ 2 rows spans several sources and a tight query's
    // refresh plan is a multi-source batch.
    let mut rows = Vec::with_capacity(config.groups * config.rows_per_group);
    for g in 0..config.groups {
        for i in 0..config.rows_per_group {
            let source = SourceId::new(1 + ((g + i) % config.sources) as u64);
            let load = rng.gen_range(config.value_range.0..=config.value_range.1);
            rows.push(RowSpec {
                source,
                cells: vec![
                    BoundedValue::Exact(Value::Int(g as i64)),
                    BoundedValue::exact_f64(load).expect("finite load"),
                ],
            });
        }
    }

    // Segments: one row per group — the join workload's second side.
    // Generated only when join queries are requested, so workloads
    // without them keep their exact historical shape (row set, object-id
    // assignment, rng stream).
    assert!(
        (0.0..=1.0).contains(&(config.grouped_fraction + config.join_fraction)),
        "grouped_fraction + join_fraction must stay within [0, 1]"
    );
    let segments: Vec<RowSpec> = if config.join_fraction > 0.0 {
        (0..config.groups)
            .map(|g| RowSpec {
                source: SourceId::new(1 + (g % config.sources) as u64),
                cells: vec![
                    BoundedValue::Exact(Value::Int(g as i64)),
                    BoundedValue::exact_f64(rng.gen_range(0.0..=1.0)).expect("finite weight"),
                ],
            })
            .collect()
    } else {
        Vec::new()
    };

    // Queries: zipfian group, weighted template, weighted precision.
    let zipf = Zipf::new(config.groups, config.zipf_s);
    let agg_total: u32 = config.agg_weights.iter().sum();
    assert!(agg_total > 0, "all aggregate weights zero");
    let precision_total: u32 = config.precision.iter().map(|(_, w)| w).sum();
    assert!(precision_total > 0, "all precision weights zero");
    let mid_threshold = (config.value_range.0 + config.value_range.1) / 2.0;

    // The hot shard's groups, for the shard-skew remap: every group that
    // `shard_of` co-locates with group 0 under a `skew_shards`-way
    // partition. Non-empty by construction (it contains group 0).
    let hot_groups: Vec<usize> = if config.skew_shards > 1 && config.shard_skew > 0.0 {
        let hot = shard_of(0, config.skew_shards);
        (0..config.groups)
            .filter(|&g| shard_of(g as u64, config.skew_shards) == hot)
            .collect()
    } else {
        Vec::new()
    };

    let mut queries = Vec::with_capacity(config.queries);
    for _ in 0..config.queries {
        let mut group = Some(zipf.sample(&mut rng));
        if !hot_groups.is_empty() && rng.gen_range(0.0..1.0) < config.shard_skew {
            // Preserve the zipf rank ordering while landing on the hot
            // shard: popular ranks map to popular hot-shard groups.
            group = group.map(|g| hot_groups[g % hot_groups.len()]);
        }
        if config.global_fraction > 0.0 && rng.gen_range(0.0..1.0) < config.global_fraction {
            group = None;
        }
        let agg = {
            let mut pick = rng.gen_range(0..agg_total);
            let mut chosen = AggTemplate::ALL[0];
            for (template, &w) in AggTemplate::ALL.iter().zip(&config.agg_weights) {
                if pick < w {
                    chosen = *template;
                    break;
                }
                pick -= w;
            }
            chosen
        };
        let within = {
            let mut pick = rng.gen_range(0..precision_total);
            let mut chosen = config.precision[0].0;
            for &(r, w) in &config.precision {
                if pick < w {
                    chosen = r;
                    break;
                }
                pick -= w;
            }
            chosen
        };
        // Shape draw last, and only when shaped queries are requested —
        // historical seeds keep their exact query streams otherwise.
        let shape = if config.grouped_fraction > 0.0 || config.join_fraction > 0.0 {
            let u: f64 = rng.gen_range(0.0..1.0);
            if u < config.join_fraction {
                QueryShape::Join
            } else if u < config.join_fraction + config.grouped_fraction {
                QueryShape::Grouped
            } else {
                QueryShape::Scalar
            }
        } else {
            QueryShape::Scalar
        };
        // Deadline draw after the shape draw, and only when deadlines are
        // requested — again keeping historical rng streams untouched.
        let deadline = if config.deadline_fraction > 0.0
            && rng.gen_range(0.0..1.0) < config.deadline_fraction
        {
            Some(config.deadline_ms)
        } else {
            None
        };
        match shape {
            QueryShape::Join => {
                // Joins aggregate SUM(load) over metrics ⋈ segments: the
                // exact equi-join pins membership per group, the bounded
                // weight filter makes membership itself uncertain — the
                // two-sided refresh regime of §7.
                queries.push(GeneratedQuery {
                    sql: with_deadline(
                        format!(
                            "SELECT SUM(load) WITHIN {within} FROM metrics, segments \
                             WHERE metrics.grp = segments.grp AND weight > {JOIN_WEIGHT_THRESHOLD}"
                        ),
                        deadline,
                    ),
                    group: None,
                    agg: AggTemplate::Sum,
                    within,
                    deadline,
                    shape,
                });
                continue;
            }
            QueryShape::Grouped => {
                let sql = match agg {
                    AggTemplate::Count => format!(
                        "SELECT COUNT(*) WITHIN {within} FROM metrics \
                         WHERE load > {mid_threshold} GROUP BY grp"
                    ),
                    AggTemplate::Sum => {
                        format!("SELECT SUM(load) WITHIN {within} FROM metrics GROUP BY grp")
                    }
                    AggTemplate::Avg => {
                        format!("SELECT AVG(load) WITHIN {within} FROM metrics GROUP BY grp")
                    }
                    AggTemplate::Min => {
                        format!("SELECT MIN(load) WITHIN {within} FROM metrics GROUP BY grp")
                    }
                };
                queries.push(GeneratedQuery {
                    sql: with_deadline(sql, deadline),
                    group: None,
                    agg,
                    within,
                    deadline,
                    shape,
                });
                continue;
            }
            QueryShape::Scalar => {}
        }
        let sql = match (agg, group) {
            (AggTemplate::Count, Some(g)) => format!(
                "SELECT COUNT(*) WITHIN {within} FROM metrics \
                 WHERE grp = {g} AND load > {mid_threshold}"
            ),
            (AggTemplate::Count, None) => {
                format!("SELECT COUNT(*) WITHIN {within} FROM metrics WHERE load > {mid_threshold}")
            }
            (AggTemplate::Sum, Some(g)) => {
                format!("SELECT SUM(load) WITHIN {within} FROM metrics WHERE grp = {g}")
            }
            (AggTemplate::Sum, None) => {
                format!("SELECT SUM(load) WITHIN {within} FROM metrics")
            }
            (AggTemplate::Avg, Some(g)) => {
                format!("SELECT AVG(load) WITHIN {within} FROM metrics WHERE grp = {g}")
            }
            (AggTemplate::Avg, None) => {
                format!("SELECT AVG(load) WITHIN {within} FROM metrics")
            }
            (AggTemplate::Min, Some(g)) => {
                format!("SELECT MIN(load) WITHIN {within} FROM metrics WHERE grp = {g}")
            }
            (AggTemplate::Min, None) => {
                format!("SELECT MIN(load) WITHIN {within} FROM metrics")
            }
        };
        queries.push(GeneratedQuery {
            sql: with_deadline(sql, deadline),
            group,
            agg,
            within,
            deadline,
            shape: QueryShape::Scalar,
        });
    }

    ServiceWorkload {
        config: config.clone(),
        rows,
        segments,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trapp_core::executor::{QuerySession, TableOracle};

    #[test]
    fn deterministic_per_seed() {
        let c = LoadConfig::default();
        let a = generate(&c);
        let b = generate(&c);
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.sql, y.sql);
        }
        let c2 = LoadConfig {
            seed: 43,
            ..LoadConfig::default()
        };
        let d = generate(&c2);
        assert!(a
            .queries
            .iter()
            .zip(&d.queries)
            .any(|(x, y)| x.sql != y.sql));
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(10, 1.2);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 10];
        for _ in 0..5000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[4] && counts[4] > 0, "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 5000);
    }

    #[test]
    fn zipf_zero_exponent_is_uniformish() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(c > 700, "{counts:?}");
        }
    }

    #[test]
    fn groups_span_multiple_sources() {
        let w = generate(&LoadConfig::default());
        let per_group = w.config.rows_per_group;
        for g in 0..w.config.groups {
            let sources: std::collections::BTreeSet<SourceId> = w.rows
                [g * per_group..(g + 1) * per_group]
                .iter()
                .map(|r| r.source)
                .collect();
            assert!(sources.len() > 1, "group {g} lives on one source");
        }
    }

    #[test]
    fn shard_skew_concentrates_on_the_hot_shard() {
        let shards = 4;
        let skewed = generate(&LoadConfig {
            seed: 13,
            groups: 32,
            queries: 400,
            shard_skew: 1.0,
            skew_shards: shards,
            ..LoadConfig::default()
        });
        let hot = shard_of(0, shards);
        for q in &skewed.queries {
            let g = q.group.expect("no global queries by default");
            assert_eq!(shard_of(g as u64, shards), hot, "{}", q.sql);
        }

        // Without skew the zipf alone must leave several shards busy.
        let spread = generate(&LoadConfig {
            seed: 13,
            groups: 32,
            queries: 400,
            ..LoadConfig::default()
        });
        let shards_hit: std::collections::BTreeSet<usize> = spread
            .queries
            .iter()
            .map(|q| shard_of(q.group.unwrap() as u64, shards))
            .collect();
        assert!(shards_hit.len() > 1, "unskewed load stuck on one shard");
    }

    #[test]
    fn global_fraction_emits_group_free_queries() {
        let w = generate(&LoadConfig {
            seed: 21,
            queries: 200,
            global_fraction: 0.3,
            ..LoadConfig::default()
        });
        let globals = w.queries.iter().filter(|q| q.group.is_none()).count();
        assert!(
            (20..=120).contains(&globals),
            "expected roughly 30% global queries, got {globals}/200"
        );
        for q in w.queries.iter().filter(|q| q.group.is_none()) {
            assert!(!q.sql.contains("grp ="), "{}", q.sql);
        }
    }

    #[test]
    fn ground_truth_bounds_widen_with_the_envelope() {
        let w = generate(&LoadConfig {
            queries: 50,
            global_fraction: 0.2,
            ..LoadConfig::default()
        });
        // Point envelopes reproduce the exact ground truth.
        let points: Vec<(f64, f64)> = w
            .rows
            .iter()
            .map(|r| {
                let m = r.cells[1].as_interval().unwrap().midpoint();
                (m, m)
            })
            .collect();
        for q in &w.queries {
            let t = ground_truth(&w, q);
            assert_eq!(ground_truth_bounds(&w, q, &points), (t, t), "{}", q.sql);
        }
        // Widening every row's envelope widens (never shrinks) the bound,
        // and the exact truth stays inside it.
        let widened: Vec<(f64, f64)> = points
            .iter()
            .map(|&(lo, hi)| (lo - 3.0, hi + 3.0))
            .collect();
        for q in &w.queries {
            let t = ground_truth(&w, q);
            let (lo, hi) = ground_truth_bounds(&w, q, &widened);
            assert!(lo <= t && t <= hi, "{}: {t} outside [{lo}, {hi}]", q.sql);
        }
    }

    #[test]
    fn queries_parse_and_run() {
        let w = generate(&LoadConfig {
            queries: 40,
            ..LoadConfig::default()
        });
        // Build identical cached and master tables from the row specs and
        // run the stream with loose session defaults.
        let (mut cached, mut master) = (table(), table());
        for r in &w.rows {
            cached.insert(r.cells.clone()).unwrap();
            master.insert(r.cells.clone()).unwrap();
        }
        let mut session = QuerySession::new(cached);
        let mut oracle = TableOracle::from_table(master);
        for q in &w.queries {
            let r = session.execute_sql(&q.sql, &mut oracle).unwrap();
            assert!(r.satisfied, "{}", q.sql);
        }
    }

    /// A zero join fraction leaves historical workloads bit-stable: no
    /// segments, no shape draws perturbing the rng stream.
    #[test]
    fn zero_fractions_preserve_historical_streams() {
        let plain = generate(&LoadConfig::default());
        assert!(plain.segments.is_empty());
        assert!(plain.queries.iter().all(|q| q.shape == QueryShape::Scalar));
        assert!(plain.queries.iter().all(|q| q.deadline.is_none()));
        assert!(plain.queries.iter().all(|q| !q.sql.contains("DEADLINE")));
    }

    /// Deadline-bearing queries generate at roughly the requested rate,
    /// carry the configured budget, and render SQL the parser accepts.
    #[test]
    fn deadline_knob_emits_parsing_deadline_queries() {
        let w = generate(&LoadConfig {
            seed: 47,
            queries: 200,
            deadline_fraction: 0.5,
            deadline_ms: 75.0,
            grouped_fraction: 0.2,
            join_fraction: 0.2,
            ..LoadConfig::default()
        });
        let with_deadline = w.queries.iter().filter(|q| q.deadline.is_some()).count();
        assert!(
            (60..=140).contains(&with_deadline),
            "{with_deadline} of 200 carried a deadline"
        );
        for q in &w.queries {
            let parsed =
                trapp_sql::parse_query(&q.sql).unwrap_or_else(|e| panic!("{}: {e}", q.sql));
            assert_eq!(parsed.deadline, q.deadline, "{}", q.sql);
            if let Some(d) = q.deadline {
                assert_eq!(d, 75.0);
                assert!(q.sql.contains("DEADLINE 75"), "{}", q.sql);
            }
        }
    }

    /// Grouped and join queries generate at roughly the requested rates,
    /// parse, execute on a core session, and agree with the extended
    /// ground-truth checkers.
    #[test]
    fn grouped_and_join_queries_run_and_match_ground_truth() {
        let w = generate(&LoadConfig {
            seed: 31,
            groups: 6,
            rows_per_group: 3,
            sources: 2,
            queries: 120,
            grouped_fraction: 0.3,
            join_fraction: 0.3,
            ..LoadConfig::default()
        });
        assert_eq!(w.segments.len(), 6, "one segment per group");
        let grouped = w
            .queries
            .iter()
            .filter(|q| q.shape == QueryShape::Grouped)
            .count();
        let joins = w
            .queries
            .iter()
            .filter(|q| q.shape == QueryShape::Join)
            .count();
        assert!(
            (15..=60).contains(&grouped) && (15..=60).contains(&joins),
            "{grouped} grouped / {joins} joins of 120"
        );

        let mut catalog = trapp_storage::Catalog::new();
        let mut masters = trapp_storage::Catalog::new();
        let (mut cached, mut master) = (table(), table());
        for r in &w.rows {
            cached.insert(r.cells.clone()).unwrap();
            master.insert(r.cells.clone()).unwrap();
        }
        let (mut cseg, mut mseg) = (segments_table(), segments_table());
        for s in &w.segments {
            cseg.insert(s.cells.clone()).unwrap();
            mseg.insert(s.cells.clone()).unwrap();
        }
        catalog.add_table(cached).unwrap();
        catalog.add_table(cseg).unwrap();
        masters.add_table(master).unwrap();
        masters.add_table(mseg).unwrap();
        let mut session = QuerySession::with_catalog(catalog);
        let mut oracle = TableOracle::new(masters);

        let contains = |range: trapp_types::Interval, t: f64| range.lo() <= t && t <= range.hi();
        for q in &w.queries {
            let query = trapp_sql::parse_query(&q.sql).unwrap();
            match q.shape {
                QueryShape::Grouped => {
                    let groups = session.execute_grouped(&query, &mut oracle).unwrap();
                    let truths = ground_truth_groups(&w, q);
                    assert_eq!(groups.len(), truths.len(), "{}", q.sql);
                    for g in &groups {
                        let Value::Int(id) = g.key[0] else {
                            panic!("int group keys expected")
                        };
                        let &(_, t) = truths.iter().find(|(tg, _)| *tg == id).unwrap();
                        assert!(g.result.satisfied, "{}", q.sql);
                        assert!(
                            contains(g.result.answer.range, t),
                            "{}: group {id} truth {t} outside {}",
                            q.sql,
                            g.result.answer
                        );
                    }
                }
                QueryShape::Scalar | QueryShape::Join => {
                    let r = session.execute(&query, &mut oracle).unwrap();
                    let t = ground_truth(&w, q);
                    assert!(r.satisfied, "{}", q.sql);
                    assert!(
                        contains(r.answer.range, t),
                        "{}: truth {t} outside {}",
                        q.sql,
                        r.answer
                    );
                }
            }
        }
    }

    /// The grouped envelope checker widens with the envelope and keeps
    /// every group's exact truth inside it.
    #[test]
    fn grouped_ground_truth_bounds_cover_the_truth() {
        let w = generate(&LoadConfig {
            seed: 8,
            groups: 12,
            queries: 30,
            grouped_fraction: 1.0,
            ..LoadConfig::default()
        });
        let points: Vec<(f64, f64)> = w
            .rows
            .iter()
            .map(|r| {
                let m = r.cells[1].as_interval().unwrap().midpoint();
                (m, m)
            })
            .collect();
        let widened: Vec<(f64, f64)> = points
            .iter()
            .map(|&(lo, hi)| (lo - 3.0, hi + 3.0))
            .collect();
        for q in &w.queries {
            let truths = ground_truth_groups(&w, q);
            assert_eq!(truths.len(), w.config.groups);
            for ((g, t), (g2, (lo, hi))) in truths
                .iter()
                .zip(ground_truth_group_bounds(&w, q, &widened))
            {
                assert_eq!(*g, g2);
                assert!(lo <= *t && *t <= hi, "{}: group {g}", q.sql);
            }
        }
    }
}
