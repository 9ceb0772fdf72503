//! A seeded fuzz loop over the front door: no text, however malformed,
//! may panic the parser or the binder. Each case is either a mutation of
//! a valid query (characters or whole tokens deleted, inserted, swapped,
//! duplicated, or the text cut short) or a random stream of SQL tokens.
//! It goes through `parse_query` and, when that accepts it, through
//! `bind_query` against the figure-2 catalog and the load generator's
//! `metrics` + `segments` catalog. Every failure must come back as a typed
//! error; a panic fails the test and names the case's seed and text, so
//! it replays from the seed alone.
//!
//! 10⁴ cases in release (`cargo test --release --test
//! parser_binder_fuzz`), 10³ in debug.

use std::panic::{catch_unwind, AssertUnwindSafe};

use trapp_core::plan::bind_query;
use trapp_sql::parse_query;
use trapp_storage::Catalog;
use trapp_workload::{figure2, loadgen};

const CASES: u64 = if cfg!(debug_assertions) {
    1_000
} else {
    10_000
};
const SEED: u64 = 0x7EA9_F022_5EED_0001;

/// Valid queries over both catalogs, every clause the grammar has.
const CORPUS: &[&str] = &[
    "SELECT MIN(bandwidth) WITHIN 10 FROM links WHERE on_path = TRUE",
    "SELECT SUM(latency) WITHIN 5 FROM links WHERE on_path = TRUE",
    "SELECT AVG(traffic) WITHIN 10 FROM links",
    "SELECT MIN(traffic) WITHIN 10 FROM links WHERE bandwidth > 50 AND latency < 10",
    "SELECT COUNT(*) WITHIN 1 FROM links WHERE latency > 10",
    "SELECT AVG(latency) WITHIN 2 FROM links WHERE traffic > 100",
    "SELECT MEDIAN(latency) WITHIN 1 FROM links",
    "SELECT SUM(latency * 2 + traffic / 4) WITHIN 3.5 DEADLINE 20 FROM links GROUP BY from_node",
    "SELECT COUNT(*) FROM links WHERE NOT (latency >= 3 OR -bandwidth <> 7) GROUP BY from_node, on_path",
    "SELECT SUM(load) WITHIN 8 FROM metrics WHERE grp = 3",
    "SELECT MAX(load) WITHIN 0 FROM metrics GROUP BY grp",
    "SELECT SUM(metrics.load * segments.weight) WITHIN 4 FROM metrics, segments \
     WHERE metrics.grp = segments.grp",
    "SELECT AVG(load) WITHIN 1 FROM metrics, segments \
     WHERE metrics.grp = segments.grp AND weight < 2 GROUP BY metrics.grp",
];

/// Tokens random streams and token mutations draw from, split on
/// whitespace: keywords, identifiers of both catalogs (and unknown ones),
/// odd numbers and every punctuation mark.
const TOKENS: &str = "SELECT FROM WHERE WITHIN DEADLINE GROUP BY AND OR NOT AS TRUE FALSE \
    SUM COUNT AVG MIN MAX MEDIAN FOO links metrics segments ghosts latency bandwidth traffic \
    on_path from_node load grp segments.grp weight nope links.latency metrics.load x.y.z \
    0 1 -1 2.5 1e308 1e999 -1e999 NaN inf 0.0000001 18446744073709551616 \
    ( ) , * + - / = <> != < <= > >= . ; ' 's' \" _";

/// Names a token mutation swaps for another name: tables and columns of
/// both catalogs, qualified and not, and names neither holds.
const NAMES: &str = "links metrics segments ghosts latency bandwidth traffic on_path \
    from_node load grp weight nope links.latency links.load metrics.grp metrics.load \
    segments.grp segments.weight ghosts.grp x.y.z";

/// Characters a character mutation inserts.
const CHARS: &[char] = &[
    ' ', '(', ')', ',', '*', '+', '-', '/', '=', '<', '>', '!', '.', ';', '\'', '"', '0', '9', 'e',
    'E', 'a', 'Z', '_', '\t', '\n', '\\', 'é', '∞', '\u{0}',
];

/// splitmix64: one `u64` of state, so a case replays from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// One character-level edit of `text`.
fn mutate_chars(rng: &mut Rng, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let at = rng.below(chars.len() + 1);
    match rng.below(5) {
        0 if at < chars.len() => {
            chars.remove(at);
        }
        1 => chars.insert(at, *rng.pick(CHARS)),
        2 => chars.truncate(at),
        3 if at < chars.len() => {
            let end = (at + 1 + rng.below(8)).min(chars.len());
            let span: Vec<char> = chars[at..end].to_vec();
            chars.splice(at..at, span);
        }
        _ => {
            let other = rng.below(chars.len().max(1));
            if at < chars.len() && other < chars.len() {
                chars.swap(at, other);
            }
        }
    }
    chars.into_iter().collect()
}

/// One token-level edit of `text` (tokens split on whitespace).
fn mutate_tokens<'a>(rng: &mut Rng, text: &'a str, vocabulary: &[&'a str]) -> String {
    let mut tokens: Vec<&str> = text.split_whitespace().collect();
    let at = rng.below(tokens.len() + 1);
    match rng.below(4) {
        0 if at < tokens.len() => {
            tokens.remove(at);
        }
        1 if at < tokens.len() => tokens[at] = *rng.pick(vocabulary),
        2 if at < tokens.len() => {
            let token = tokens[at];
            tokens.insert(at, token);
        }
        _ => tokens.insert(at, *rng.pick(vocabulary)),
    }
    tokens.join(" ")
}

/// `text` with one lowercase name (a table or column, qualified or not)
/// replaced by another from [`NAMES`]: the text still parses, and the
/// binder decides.
fn swap_name(rng: &mut Rng, text: &str) -> String {
    let is_name = |c: char| c.is_ascii_lowercase() || c == '_' || c == '.';
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        match (start, is_name(c)) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                spans.push(s..i);
                start = None;
            }
            _ => {}
        }
    }
    if spans.is_empty() {
        return text.to_owned();
    }
    let span = rng.pick(&spans).clone();
    let names: Vec<&str> = NAMES.split_whitespace().collect();
    format!(
        "{}{}{}",
        &text[..span.start],
        rng.pick(&names),
        &text[span.end..]
    )
}

/// The text of case `seed`: a valid query under one or two edits, or a
/// random token stream.
fn case(seed: u64, vocabulary: &[&str]) -> String {
    let mut rng = Rng(seed);
    if rng.below(4) == 0 {
        // Half the streams open like a query, to get past the first token.
        let opening = ["SELECT SUM (", ""][rng.below(2)];
        let len = 1 + rng.below(24);
        let stream: Vec<&str> = (0..len).map(|_| *rng.pick(vocabulary)).collect();
        return format!("{opening} {}", stream.join(" "));
    }
    let mut text = rng.pick(CORPUS).to_string();
    for _ in 0..1 + rng.below(2) {
        text = match rng.below(3) {
            0 => mutate_chars(&mut rng, &text),
            1 => mutate_tokens(&mut rng, &text, vocabulary),
            _ => swap_name(&mut rng, &text),
        };
    }
    text
}

fn catalogs() -> [Catalog; 2] {
    let mut figure2 = Catalog::new();
    figure2.add_table(figure2::links_table()).unwrap();
    let mut load = Catalog::new();
    load.add_table(loadgen::table()).unwrap();
    load.add_table(loadgen::segments_table()).unwrap();
    [figure2, load]
}

#[test]
fn parser_and_binder_never_panic() {
    let catalogs = catalogs();
    let vocabulary: Vec<&str> = TOKENS.split_whitespace().collect();
    let (mut parsed, mut bound) = (0u64, 0u64);
    for i in 0..CASES {
        let seed = SEED ^ i.wrapping_mul(0xA24B_AED4_963E_E407);
        let text = case(seed, &vocabulary);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(query) = parse_query(&text) else {
                return (0, 0);
            };
            let bound = catalogs
                .iter()
                .filter(|catalog| bind_query(&query, catalog).is_ok())
                .count();
            (1, bound as u64)
        }));
        match outcome {
            Ok((p, b)) => {
                parsed += p;
                bound += b;
            }
            Err(_) => panic!("case {i} (seed {seed:#x}) panicked on {text:?}"),
        }
    }
    eprintln!("parsed {parsed} bound {bound}");
    // The loop must reach the binder, not stop at the lexer every time.
    assert!(parsed > CASES / 20, "only {parsed} of {CASES} cases parsed");
    assert!(bound > CASES / 50, "only {bound} binds succeeded");
}
