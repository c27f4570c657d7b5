//! Queries nested to the parser's depth limit run under every strategy.
//!
//! The parser refuses nesting past [`MAX_NESTING_DEPTH`] so that no later
//! stage can overflow its stack. This pins the other half of that bound:
//! at the limit, analysis, transformation and evaluation fit in an
//! ordinary test thread (and, for the correlated chains over a multi-page
//! outer table, in the morsel workers of a parallel run), and every
//! strategy returns nested iteration's rows.

use nsql_db::{Database, QueryOptions, Strategy};
use nsql_sql::MAX_NESTING_DEPTH;
use nsql_types::Relation;

/// `T` is a one-page inner table; `BIG` spans several pages, so a parallel
/// run partitions it into morsels.
fn db() -> Database {
    let mut db = Database::new();
    let t_rows: Vec<String> = (0..8).map(|i| format!("({i})")).collect();
    let big_rows: Vec<String> = (0..120).map(|i| format!("({})", i % 12)).collect();
    db.execute_script(&format!(
        "CREATE TABLE T (A INT); CREATE TABLE BIG (A INT);
         INSERT INTO T VALUES {};
         INSERT INTO BIG VALUES {};",
        t_rows.join(", "),
        big_rows.join(", ")
    ))
    .unwrap();
    db
}

/// A chain of `d` blocks, each correlated with its parent on `A`: the
/// outermost over `BIG`, every inner one over `T`. `link` renders the
/// predicate opening the next level (it ends in `(`), given the level's
/// alias and the select item to use inside it.
fn correlated_chain(d: usize, item: &str, link: &str) -> String {
    let select = |i: usize| item.replace("{x}", &format!("X{i}"));
    let mut sql = format!("SELECT X0.A FROM BIG X0 WHERE {}", link.replace("{x}", "X0"));
    for i in 1..d - 1 {
        sql.push_str(&format!(
            "SELECT {} FROM T X{i} WHERE X{i}.A = X{p}.A AND {}",
            select(i),
            link.replace("{x}", &format!("X{i}")),
            p = i - 1
        ));
    }
    let last = d - 1;
    sql.push_str(&format!(
        "SELECT {} FROM T X{last} WHERE X{last}.A = X{p}.A{}",
        select(last),
        ")".repeat(d - 1),
        p = last - 1
    ));
    sql
}

/// The shapes at exactly the depth limit: an uncorrelated `IN` chain (one
/// block per level), a run of `NOT`s, a run of parentheses, and three
/// chains of subqueries each correlated with its parent over `BIG` —
/// membership (type J), scalar aggregate (type JA, through the NEST-JA2
/// temporaries) and `NOT EXISTS` (through NEST-G).
fn shapes_at_limit() -> Vec<String> {
    let d = MAX_NESTING_DEPTH;
    let chain = format!(
        "{}SELECT A FROM T{}",
        "SELECT A FROM T WHERE A IN (".repeat(d - 1),
        ")".repeat(d - 1)
    );
    let nots = format!("SELECT A FROM T WHERE {}A = 1", "NOT ".repeat(d - 1));
    let parens =
        format!("SELECT A FROM T WHERE {}A < 5{}", "(".repeat(d - 1), ")".repeat(d - 1));
    vec![
        chain,
        nots,
        parens,
        correlated_chain(d, "{x}.A", "{x}.A IN ("),
        correlated_chain(d, "MAX({x}.A)", "{x}.A = ("),
        correlated_chain(d, "{x}.A", "NOT EXISTS ("),
    ]
}

fn sorted(rel: &Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.tuples().iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows
}

#[test]
fn every_strategy_answers_at_the_depth_limit() {
    let db = db();
    let big_pages = db.catalog().table("BIG").expect("BIG exists").page_ids().len();
    assert!(big_pages > 1, "BIG must span several pages, got {big_pages}");
    for sql in shapes_at_limit() {
        let reference = db
            .query_with(&sql, &QueryOptions { threads: 1, ..QueryOptions::nested_iteration() })
            .unwrap_or_else(|e| panic!("nested iteration failed: {e}\n{sql}"));
        assert!(!reference.relation.is_empty(), "vacuous shape: {sql}");
        for strategy in [Strategy::NestedIteration, Strategy::Transform, Strategy::Batched] {
            for threads in [1, 4] {
                let opts =
                    QueryOptions { strategy: strategy.clone(), threads, ..Default::default() };
                let out = db
                    .query_with(&sql, &opts)
                    .unwrap_or_else(|e| panic!("{strategy:?} threads={threads}: {e}\n{sql}"));
                assert_eq!(
                    sorted(&out.relation),
                    sorted(&reference.relation),
                    "{strategy:?} threads={threads}: {sql}"
                );
            }
        }
    }
}
