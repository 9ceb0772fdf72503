//! Online aggregation behaviour (§8.2): watch a bounded answer tighten
//! monotonically, one refresh round at a time, until the precision
//! constraint is met — the TRAPP take on the CONTROL project's progressive
//! query answers the paper cites ([HAC+99]).
//!
//! Uses the iterative executor mode's building blocks directly so each
//! round's intermediate bound can be displayed.
//!
//! ```sh
//! cargo run --release --example online_aggregation
//! ```

use std::collections::HashSet;

use trapp_core::agg::{bounded_answer, AggInput, Aggregate};
use trapp_core::refresh::iterative::{next_refresh, IterativeHeuristic};
use trapp_core::{QuerySession, RefreshOracle, TableOracle};
use trapp_expr::{ColumnRef, Expr};
use trapp_types::TrappError;
use trapp_workload::stocks::{build_tables, generate, StockConfig};

fn main() -> Result<(), TrappError> {
    let days = generate(&StockConfig {
        symbols: 40,
        ..StockConfig::default()
    });
    let (cache, master) = build_tables(&days);
    let price = Expr::Column(ColumnRef::bare("price")).bind(cache.schema())?;
    let r = 8.0;

    let mut session = QuerySession::new(cache);
    let mut oracle = TableOracle::from_table(master);

    println!("online SUM(price) WITHIN {r} over 40 cached stocks\n");
    println!(
        "{:>5}  {:>26}  {:>9}  {:>10}",
        "round", "bound", "width", "spent"
    );

    let mut spent = 0.0;
    for round in 0.. {
        let input = AggInput::build(session.catalog().table("stocks")?, None, Some(&price))?;
        let answer = bounded_answer(Aggregate::Sum, &input)?;
        let bar = "#".repeat((answer.width() / 2.0).ceil() as usize);
        println!(
            "{round:>5}  [{:>10.2}, {:>10.2}]  {:>9.3}  {:>10.0}  {bar}",
            answer.range.lo(),
            answer.range.hi(),
            answer.width(),
            spent
        );
        if answer.width() <= r {
            println!("\nconstraint met after {round} rounds (cost {spent:.0}).");
            break;
        }
        let none = HashSet::new(); // no source is dark here
        let Some(tid) = next_refresh(
            Aggregate::Sum,
            &input,
            r,
            IterativeHeuristic::BestRatio,
            &none,
        ) else {
            println!("\nno further refresh can improve the bound.");
            break;
        };
        // Ask the source for the master value and pin it in the cache —
        // the user sees the bound shrink on the next line.
        let columns = [trapp_workload::stocks::PRICE];
        let values = oracle.refresh_batch("stocks", &[tid], &columns)?;
        session
            .catalog_mut()
            .table_mut("stocks")?
            .refresh_cell(tid, columns[0], values[0][0])?;
        spent += session.catalog().table("stocks")?.cost(tid)?;
    }
    Ok(())
}
