//! The five workloads and their seeded generator.
//!
//! The benchmark owns its generator (splitmix64) so that later changes to
//! the repo's own `loadgen` cannot move the benchmark's inputs. Only
//! tables, row cells, SQL strings and `(ObjectId, f64)` updates cross into
//! the program.

use std::collections::HashMap;

/// Queries in one pass over the stream; the clients cycle through it.
pub const STREAM_LEN: usize = 4096;
/// Updates per `apply_update_batch` call in the churn workload.
pub const UPDATE_BATCH: usize = 8;
/// Master values are uniform in this range; `COUNT` filters at its middle.
pub const VALUE_RANGE: (f64, f64) = (50.0, 100.0);
/// The `weight > thr` filter of the join template.
pub const JOIN_WEIGHT_THRESHOLD: f64 = 0.5;

/// A splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// the workloads can see.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Splits `total` into whole shares proportional to `weights` (largest
/// remainder), so every seed's stream has exactly the same mix.
fn apportion(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut shares: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b].fract())
            .total_cmp(&exact[a].fract())
            .then(a.cmp(&b))
    });
    let short = total - shares.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        shares[i] += 1;
    }
    shares
}

/// Zipfian weights over `0..n`: rank `k` has weight `1/(k+1)^s`.
fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Agg {
    Count,
    Sum,
    Avg,
    Min,
}

/// `COUNT : SUM : AVG : MIN`.
const AGG_MIX: [(Agg, u32); 4] = [(Agg::Count, 1), (Agg::Sum, 2), (Agg::Avg, 2), (Agg::Min, 1)];

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// `… WHERE grp = g`: runs on the one shard that owns the group.
    Pinned,
    /// No group predicate: spans every group (scatters when sharded).
    Global,
    /// `… GROUP BY grp`: one bounded answer per group.
    Grouped,
    /// `metrics ⋈ segments` on the group key, filtered by bounded `weight`.
    Join,
}

/// One query class of a workload with its share and `WITHIN` mix.
#[derive(Clone, Copy, Debug)]
pub struct ClassMix {
    pub class: Class,
    pub weight: u32,
    /// `(R, weight)` pairs.
    pub within: &'static [(f64, u32)],
}

/// A workload's shape. Everything the generator and the driver need.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub shards: usize,
    pub groups: usize,
    pub rows_per_group: usize,
    pub sources: usize,
    /// Queries between clock advances.
    pub epoch: usize,
    pub zipf_s: f64,
    pub classes: &'static [ClassMix],
    /// Apply one update batch before every n-th query (`0` = read-only).
    pub update_every: usize,
}

impl Spec {
    pub fn has_segments(&self) -> bool {
        self.classes.iter().any(|c| c.class == Class::Join)
    }

    pub fn rows(&self) -> usize {
        self.groups * self.rows_per_group
    }
}

/// Tight enough that most queries must fetch even once the adaptive bound
/// widths have shrunk to their floor (0.16 per row after a clock advance):
/// `WITHIN 0.5 / 2` would leave 57 % of the queries cache-served there and
/// put the median in the wrong mode.
const TIGHT: &[(f64, u32)] = &[(0.05, 3), (0.5, 2)];
const MIXED: &[(f64, u32)] = &[(0.5, 3), (2.0, 2), (25.0, 1)];

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "hot_cache",
        why: "Performance end of the dial: answers come from cache and every view is touched each epoch, so sql, bind, view sync and agg do the work; gateway, transport and install almost none.",
        shards: 1,
        groups: 32,
        rows_per_group: 256,
        sources: 8,
        epoch: 512,
        zipf_s: 1.1,
        classes: &[
            ClassMix { class: Class::Pinned, weight: 5, within: &[(8.0, 1)] },
            ClassMix { class: Class::Global, weight: 3, within: &[(1_000_000.0, 1)] },
            ClassMix { class: Class::Grouped, weight: 2, within: &[(1_000_000.0, 1)] },
        ],
        update_every: 0,
    },
    Spec {
        name: "tight_refresh",
        why: "Precision end of the dial: most queries must refresh, so CHOOSE_REFRESH and knapsack, gateway, transport, fetch pool and install dominate and plan is small.",
        shards: 1,
        groups: 64,
        rows_per_group: 12,
        sources: 8,
        epoch: 16,
        zipf_s: 0.6,
        classes: &[ClassMix { class: Class::Pinned, weight: 1, within: TIGHT }],
        update_every: 0,
    },
    Spec {
        name: "read_write_churn",
        why: "Writes beside reads on the same data: updates invalidate coalescing entries and force view replays, so a read-side gain that taxes the write path shows here and not in tight_refresh.",
        shards: 1,
        groups: 64,
        rows_per_group: 12,
        sources: 8,
        epoch: 16,
        zipf_s: 0.6,
        classes: &[ClassMix { class: Class::Pinned, weight: 1, within: TIGHT }],
        update_every: 4,
    },
    Spec {
        name: "scatter_mixed",
        why: "Every query scatters over 4 shards: per-shard partials, merges, cross-shard fetch waves and join rounds; the median sits in the global class and p99 in the join class.",
        shards: 4,
        groups: 32,
        rows_per_group: 8,
        sources: 8,
        epoch: 16,
        zipf_s: 1.1,
        classes: &[
            ClassMix { class: Class::Global, weight: 3, within: MIXED },
            ClassMix { class: Class::Grouped, weight: 1, within: MIXED },
            ClassMix { class: Class::Join, weight: 1, within: MIXED },
        ],
        update_every: 0,
    },
    Spec {
        name: "big_table",
        why: "Working set larger than the program's own cache: 2,500 views against a 256-view LRU and a change log capped at twice the rows, so idle views rebuild by scan and view sync dominates.",
        shards: 1,
        groups: 2500,
        rows_per_group: 8,
        sources: 16,
        epoch: 32,
        zipf_s: 0.9,
        classes: &[ClassMix { class: Class::Pinned, weight: 1, within: MIXED }],
        update_every: 0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One generated row: `[grp (exact int), value (initial master)]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RowSpec {
    /// The owning source, `1..=sources`.
    pub source: u64,
    pub grp: i64,
    pub value: f64,
}

/// One distinct query of a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    pub sql: String,
    pub class: Class,
    pub agg: Agg,
    /// The pinned group (`Class::Pinned` only).
    pub group: Option<usize>,
    pub within: f64,
}

/// One seeded master-value write: `(metrics row index, new value)`.
pub type Update = (u32, f64);

/// Everything one run feeds the program.
pub struct Workload {
    pub spec: &'static Spec,
    pub seed: u64,
    /// `metrics` rows in insertion order; row `k` backs object `k + 1`.
    pub rows: Vec<RowSpec>,
    /// `segments` rows (one per group), inserted after every metrics row.
    pub segments: Vec<RowSpec>,
    /// The distinct queries of the stream, in first-use order.
    pub distinct: Vec<QuerySpec>,
    /// `STREAM_LEN` indexes into `distinct`.
    pub stream: Vec<u32>,
    /// Update batches, cycled; empty for read-only workloads.
    pub updates: Vec<[Update; UPDATE_BATCH]>,
}

fn render_sql(class: Class, agg: Agg, group: Option<usize>, within: f64) -> String {
    let mid = (VALUE_RANGE.0 + VALUE_RANGE.1) / 2.0;
    if class == Class::Join {
        return format!(
            "SELECT SUM(load) WITHIN {within} FROM metrics, segments \
             WHERE metrics.grp = segments.grp AND weight > {JOIN_WEIGHT_THRESHOLD}"
        );
    }
    let select = match agg {
        Agg::Count => "COUNT(*)",
        Agg::Sum => "SUM(load)",
        Agg::Avg => "AVG(load)",
        Agg::Min => "MIN(load)",
    };
    let mut predicates = Vec::new();
    if let Some(g) = group {
        predicates.push(format!("grp = {g}"));
    }
    if agg == Agg::Count {
        predicates.push(format!("load > {mid}"));
    }
    let mut sql = format!("SELECT {select} WITHIN {within} FROM metrics");
    if !predicates.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&predicates.join(" AND "));
    }
    if class == Class::Grouped {
        sql.push_str(" GROUP BY grp");
    }
    sql
}

pub fn generate(spec: &'static Spec, seed: u64) -> Workload {
    // Mix the workload name in so two workloads never share a stream.
    let name_salt = fnv1a(spec.name.bytes());
    let mut rng = Rng::new(seed ^ name_salt);

    // Group g's i-th row lives at source (g + i) mod sources, so every
    // group spans several sources and a tight plan is a multi-source batch.
    let mut rows = Vec::with_capacity(spec.rows());
    for g in 0..spec.groups {
        for i in 0..spec.rows_per_group {
            rows.push(RowSpec {
                source: 1 + ((g + i) % spec.sources) as u64,
                grp: g as i64,
                value: rng.range(VALUE_RANGE.0, VALUE_RANGE.1),
            });
        }
    }
    let segments: Vec<RowSpec> = if spec.has_segments() {
        (0..spec.groups)
            .map(|g| RowSpec {
                source: 1 + (g % spec.sources) as u64,
                grp: g as i64,
                value: rng.unit(),
            })
            .collect()
    } else {
        Vec::new()
    };

    // The stream is dealt from two decks, each holding exact shares — one
    // of (class, WITHIN, aggregate) cells, one of groups by zipfian
    // popularity — shuffled independently by the seed. The seed decides
    // order and pairing, never the mix: a median that sits between two
    // query classes would otherwise move with the seed's luck.
    let mut cells: Vec<(Class, f64, Agg)> = Vec::new();
    let mut cell_weights: Vec<f64> = Vec::new();
    for mix in spec.classes {
        let within_total: u32 = mix.within.iter().map(|w| w.1).sum();
        for &(within, within_weight) in mix.within {
            for (agg, agg_weight) in AGG_MIX {
                cells.push((mix.class, within, agg));
                cell_weights.push(
                    mix.weight as f64 * within_weight as f64 / within_total as f64
                        * agg_weight as f64,
                );
            }
        }
    }
    let mut cell_deck: Vec<usize> = apportion(&cell_weights, STREAM_LEN)
        .into_iter()
        .enumerate()
        .flat_map(|(cell, n)| std::iter::repeat_n(cell, n))
        .collect();
    let mut group_deck: Vec<usize> = apportion(&zipf_weights(spec.groups, spec.zipf_s), STREAM_LEN)
        .into_iter()
        .enumerate()
        .flat_map(|(group, n)| std::iter::repeat_n(group, n))
        .collect();
    rng.shuffle(&mut cell_deck);
    rng.shuffle(&mut group_deck);

    let mut distinct: Vec<QuerySpec> = Vec::new();
    let mut by_sql: HashMap<String, u32> = HashMap::new();
    let mut stream = Vec::with_capacity(STREAM_LEN);
    for (&cell, &group) in cell_deck.iter().zip(&group_deck) {
        let (class, within, agg) = cells[cell];
        let (agg, group) = match class {
            Class::Pinned => (agg, Some(group)),
            Class::Global | Class::Grouped => (agg, None),
            Class::Join => (Agg::Sum, None),
        };
        let sql = render_sql(class, agg, group, within);
        let next = distinct.len() as u32;
        let id = *by_sql.entry(sql.clone()).or_insert(next);
        if id == next {
            distinct.push(QuerySpec {
                sql,
                class,
                agg,
                group,
                within,
            });
        }
        stream.push(id);
    }

    // A random walk per row, clamped to the value range, laid out in
    // stream order. Values are absolute, so a batch applied a few
    // positions early or late by the other client writes the same thing.
    // Read-only workloads (`update_every == 0`) get no batches.
    let batches = STREAM_LEN.checked_div(spec.update_every).unwrap_or(0);
    let mut current: Vec<f64> = rows.iter().map(|r| r.value).collect();
    let step = (VALUE_RANGE.1 - VALUE_RANGE.0) * 0.1;
    let updates = (0..batches)
        .map(|_| {
            let mut batch = [(0u32, 0.0f64); UPDATE_BATCH];
            for slot in &mut batch {
                let row = rng.below(rows.len());
                current[row] =
                    (current[row] + rng.range(-step, step)).clamp(VALUE_RANGE.0, VALUE_RANGE.1);
                *slot = (row as u32, current[row]);
            }
            batch
        })
        .collect();

    Workload {
        spec,
        seed,
        rows,
        segments,
        distinct,
        stream,
        updates,
    }
}

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Workload {
    /// The query at stream position `pos` (positions cycle).
    pub fn query_at(&self, pos: u64) -> (usize, &QuerySpec) {
        let id = self.stream[(pos % STREAM_LEN as u64) as usize] as usize;
        (id, &self.distinct[id])
    }

    /// The update batch due before position `pos`, if any.
    pub fn updates_at(&self, pos: u64) -> Option<&[Update; UPDATE_BATCH]> {
        let every = self.spec.update_every as u64;
        if every == 0 || !pos.is_multiple_of(every) {
            return None;
        }
        Some(&self.updates[((pos / every) % self.updates.len() as u64) as usize])
    }

    /// A fingerprint of every row and the first 64 SQL strings of the
    /// stream; a test pins it per seed so inputs cannot drift silently.
    pub fn fingerprint(&self) -> u64 {
        let rows = self.rows.iter().chain(&self.segments).flat_map(|r| {
            r.source
                .to_le_bytes()
                .into_iter()
                .chain(r.grp.to_le_bytes())
                .chain(r.value.to_bits().to_le_bytes())
        });
        let sql = (0..64u64).flat_map(|pos| self.query_at(pos).1.sql.bytes().chain([0u8]));
        fnv1a(rows.chain(sql))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for spec in &SPECS {
            let a = generate(spec, 42);
            let b = generate(spec, 42);
            let c = generate(spec, 43);
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.distinct, b.distinct);
            assert_eq!(a.updates, b.updates);
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", spec.name);
        }
    }

    #[test]
    fn shapes_match_the_spec() {
        for spec in &SPECS {
            let w = generate(spec, 7);
            assert_eq!(w.rows.len(), spec.rows());
            assert_eq!(w.stream.len(), STREAM_LEN);
            assert_eq!(
                w.segments.len(),
                if spec.has_segments() { spec.groups } else { 0 }
            );
            assert_eq!(w.updates.is_empty(), spec.update_every == 0);
            for q in &w.distinct {
                assert!(spec.classes.iter().any(|c| c.class == q.class));
                assert_eq!(q.group.is_some(), q.class == Class::Pinned);
            }
        }
    }

    #[test]
    fn every_seed_has_exactly_the_same_mix() {
        let share = |w: &Workload, class: Class| {
            w.stream
                .iter()
                .filter(|&&id| w.distinct[id as usize].class == class)
                .count()
        };
        let hot = spec("hot_cache").unwrap();
        for seed in [1, 42, 99] {
            let w = generate(hot, seed);
            assert_eq!(share(&w, Class::Pinned), STREAM_LEN / 2);
            // 30 % and 20 % of 4,096, to the nearest whole cell counts.
            assert!(share(&w, Class::Global).abs_diff(1229) <= 2);
            assert!(share(&w, Class::Grouped).abs_diff(819) <= 2);
            assert_eq!(
                share(&w, Class::Pinned),
                share(&generate(hot, 7), Class::Pinned)
            );
        }
        let tight = generate(spec("tight_refresh").unwrap(), 5);
        let tight_half = tight
            .stream
            .iter()
            .filter(|&&id| tight.distinct[id as usize].within == 0.05)
            .count();
        assert!(tight_half.abs_diff(STREAM_LEN * 3 / 5) <= 2);
    }

    #[test]
    fn apportion_is_exact_and_zipf_prefers_low_ranks() {
        assert_eq!(apportion(&[1.0, 2.0, 2.0, 1.0], 12), [2, 4, 4, 2]);
        assert_eq!(apportion(&[1.0, 1.0, 1.0], 10).iter().sum::<usize>(), 10);
        let shares = apportion(&zipf_weights(10, 1.2), 5000);
        assert_eq!(shares.iter().sum::<usize>(), 5000);
        assert!(shares.windows(2).all(|p| p[0] >= p[1]), "{shares:?}");
        assert!(shares[0] > 2 * shares[4] && shares[9] > 0);
    }
}
