//! The ablation matrix: every wall-clock benchmark cell, as data. Each
//! cell names its group, id, workload, SQL and exact [`QueryOptions`]. A
//! group's cells share one workload and switch one mechanism (strategy,
//! join method, exec mode, threads, cache, statistics or binding memo), so
//! its medians credit that mechanism; counted page I/O stays fixed unless
//! the mechanism is strategy or join method. The cells of the historical
//! `BENCH_pr{2,3,7,8,9,10}.json` files keep their names and options.

use crate::workload::{queries, seed_from_env, WorkloadSpec};
use nsql_core::UnnestOptions;
use nsql_db::{CacheMode, ExecMode, JoinPolicy, QueryOptions, Strategy};

/// Distinct correlation values in the duplicate-heavy workloads.
const DUP_DOMAIN: usize = 8;

/// The data a cell runs against.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// [`crate::ja_workload`] at this spec.
    Ja(WorkloadSpec),
    /// [`crate::workload::dup_workload`] at this spec and distinct count.
    Dup(WorkloadSpec, usize),
    /// Two synthetic heap files sized for the hash-join operator kernel.
    Heaps,
}

/// What a cell times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Database::query_with(sql, opts)`, end to end.
    Query,
    /// `Database::plan(sql)`: the transformation alone, no execution.
    Plan,
    /// The hash-join kernel at `opts.threads`, vectorized under `Vector`.
    HashJoin,
}

/// One benchmark cell; its JSON line carries `group` and `id` (as `bench`).
#[derive(Debug, Clone)]
pub struct Cell {
    /// Timer group: the cells one ablation compares.
    pub group: &'static str,
    /// The cell's name within its group; `/`-separated `axis=value` parts.
    pub id: String,
    /// Workload, shared by every cell of the group.
    pub data: Data,
    /// Workload seed.
    pub seed: u64,
    /// What is timed.
    pub op: Op,
    /// The statement (empty for [`Op::HashJoin`]).
    pub sql: &'static str,
    /// Exact query options.
    pub opts: QueryOptions,
    /// Statistics-registry switch set before the cell; `None` leaves it.
    pub stats: Option<bool>,
    /// Time a transform refusal plus the nested-iteration fallback run.
    pub fallback: bool,
}

/// One sweep row: group, workload, statement and base options.
type Row<'a> = (&'static str, Data, &'static str, &'a QueryOptions);
/// An axis: the `(id, options)` cells a row's base options expand to.
type Axis<'a> = &'a dyn Fn(&QueryOptions) -> Vec<(String, QueryOptions)>;

/// Every row crossed with `axis`; [`Data::Heaps`] rows time the kernel.
fn sweep<'a>(rows: &'a [Row], axis: Axis<'a>) -> impl Iterator<Item = Cell> + 'a {
    let seed = seed_from_env();
    rows.iter().flat_map(move |&(group, data, sql, base)| {
        let op = if matches!(data, Data::Heaps) { Op::HashJoin } else { Op::Query };
        let cell = move |(id, opts)| Cell {
            group,
            id,
            data,
            seed,
            op,
            sql,
            opts,
            stats: None,
            fallback: false,
        };
        axis(base).into_iter().map(cell)
    })
}

/// Named options, as axis cells.
fn named<const N: usize>(cells: [(&str, QueryOptions); N]) -> Vec<(String, QueryOptions)> {
    cells.into_iter().map(|(id, opts)| (id.to_string(), opts)).collect()
}

/// `base` at each thread count, ids `threads=N`.
fn threads(base: &QueryOptions, counts: &[usize]) -> Vec<(String, QueryOptions)> {
    let at = |t| (format!("threads={t}"), QueryOptions { threads: t, ..base.clone() });
    counts.iter().map(|&t| at(t)).collect()
}

/// `base` under row and vector exec mode at 1 and 4 threads.
fn modes(base: &QueryOptions) -> Vec<(String, QueryOptions)> {
    let mut cells = Vec::new();
    for (id, opts) in threads(base, &[1, 4]) {
        for exec_mode in [ExecMode::Row, ExecMode::Vector] {
            let opts = QueryOptions { exec_mode, ..opts.clone() };
            cells.push((format!("mode={}/{id}", exec_mode.name()), opts));
        }
    }
    cells
}

/// Every cell, grouped: a group's cells are contiguous.
pub fn cells() -> Vec<Cell> {
    use queries::{TYPE_J as J, TYPE_JA_COUNT as JA, TYPE_JA_MAX, TYPE_J_NOT_IN as NOT_IN, TYPE_N};
    let small = Data::Ja(WorkloadSpec::small());
    let kim = Data::Ja(WorkloadSpec::kim_scale());
    let kim_ja = Data::Ja(WorkloadSpec::kim_scale_ja());
    let dup = Data::Dup(WorkloadSpec::kim_scale(), DUP_DOMAIN);
    let dup_ja = Data::Dup(WorkloadSpec::kim_scale_ja(), DUP_DOMAIN);
    let ni = QueryOptions::nested_iteration();
    let tr = QueryOptions::transformed();
    let merge = QueryOptions::transformed_merge();
    let hash = QueryOptions { join_policy: JoinPolicy::ForceHashJoin, ..tr.clone() };
    let set = UnnestOptions { preserve_duplicates: true, ..Default::default() };
    let tr_set = QueryOptions { unnest: set, ..tr.clone() };
    let serial = |base: &QueryOptions| QueryOptions { threads: 1, ..base.clone() };
    let mut all = Vec::new();

    // E1: nested iteration vs transformed, small workload (BENCH_pr2). The
    // base is the cost-based transform; IN queries keep set semantics.
    let rows = [
        ("type_n", small, TYPE_N, &tr_set),
        ("type_j", small, J, &tr_set),
        ("type_ja_count", small, JA, &tr),
        ("type_ja_max", small, TYPE_JA_MAX, &tr),
    ];
    all.extend(sweep(&rows, &|b| {
        let merge = QueryOptions { join_policy: JoinPolicy::ForceMergeJoin, ..b.clone() };
        named([
            ("nested_iteration", ni.clone()),
            ("transformed_merge", merge),
            ("transformed_cost_based", b.clone()),
        ])
    }));
    // E11: NEST-JA2 join-method ablation, and the transformation alone.
    let policies = [JoinPolicy::ForceNestedLoop, JoinPolicy::ForceMergeJoin, JoinPolicy::CostBased];
    all.extend(sweep(&[("ja2_join_policy", small, TYPE_JA_MAX, &tr)], &|b| {
        named(policies.map(|p| (p.name(), QueryOptions { join_policy: p, ..b.clone() })))
    }));
    for (id, sql) in [("type_ja", JA), ("type_j", J), ("type_n", TYPE_N)] {
        let row = [("transform_only", small, sql, &tr)];
        all.extend(
            sweep(&row, &|_| named([(id, Default::default())])).map(|c| Cell { op: Op::Plan, ..c }),
        );
    }
    // Morsel-parallel thread sweep (BENCH_pr3).
    let rows = [
        ("ni-type-J", kim, J, &ni),
        ("ni-type-JA-count", kim_ja, JA, &ni),
        ("ja2-transformed-merge", kim_ja, JA, &merge),
        ("ja2-transformed-hash", kim_ja, JA, &hash),
    ];
    all.extend(sweep(&rows, &|b| threads(b, &[1, 2, 4, 8])));
    // Row vs vectorized execution (BENCH_pr7), plus the bare join kernel.
    let rows = [
        ("vec-ni-type-J", kim, J, &ni),
        ("vec-ni-type-JA-count", kim_ja, JA, &ni),
        ("vec-hash-join", Data::Heaps, "", &QueryOptions::default()),
        ("vec-tr-hash", kim_ja, JA, &hash),
        ("vec-tr-merge", kim_ja, JA, &merge),
    ];
    all.extend(sweep(&rows, &modes));
    // Cross-query result cache, cold vs warm (BENCH_pr8). The harness
    // warmup runs fill the cache before the first timed sample.
    let rows = [
        ("cache-ni-type-J", kim, J, &ni),
        ("cache-ni-type-JA-count", kim_ja, JA, &ni),
        ("cache-tr-type-JA-count", kim_ja, JA, &tr),
        ("cache-tr-type-J", kim, J, &tr),
    ];
    all.extend(sweep(&rows, &|b| {
        let cache = |cache| QueryOptions { cache, ..serial(b) };
        named([("cache=off", cache(CacheMode::Off)), ("cache=on-warm", cache(CacheMode::On))])
    }));
    // Three-way strategy choice, duplicate-heavy vs unique bindings (BENCH_pr9).
    let batched = QueryOptions::batched();
    let strategies =
        [("ni", serial(&ni)), ("transform", serial(&tr)), ("batched", serial(&batched))];
    let rows = [
        ("strategy-dup-type-J-notin", dup, NOT_IN, &ni),
        ("strategy-dup-type-J", dup, J, &ni),
        ("strategy-dup-type-JA-count", dup_ja, JA, &ni),
        ("strategy-unique-type-JA-count", kim_ja, JA, &ni),
    ];
    all.extend(sweep(&rows, &|_| named(strategies.clone())).map(|c| Cell { fallback: true, ..c }));
    // Statistics-registry overhead (BENCH_pr10).
    let rows = [("stats-ni-type-J", kim, J, &ni), ("stats-tr-type-JA-count", kim_ja, JA, &tr)];
    let stats = |b: &QueryOptions| named([("stats=off", serial(b)), ("stats=on", serial(b))]);
    all.extend(sweep(&rows, &stats).map(|c| Cell { stats: Some(c.id == "stats=on"), ..c }));
    // Attribution: batch kernels vs binding memo vs batched vs transform,
    // one thread, cache off. The memo serves row mode too, so row NI runs
    // with and without it; memo=0 is a zero memo budget.
    let pinned = QueryOptions { threads: 1, cache: CacheMode::Off, ..ni.clone() };
    let row = QueryOptions { exec_mode: ExecMode::Row, ..pinned.clone() };
    let vector = QueryOptions { exec_mode: ExecMode::Vector, ..pinned.clone() };
    let memo_off = |base: &QueryOptions| QueryOptions { memo_budget: Some(0), ..base.clone() };
    let columns = [
        ("ni/mode=row", row.clone()),
        ("ni/mode=row/memo=0", memo_off(&row)),
        ("ni/mode=vector", vector.clone()),
        ("ni/mode=vector/memo=0", memo_off(&vector)),
        ("batched", QueryOptions { strategy: Strategy::Batched, ..pinned.clone() }),
        ("transform", QueryOptions { threads: 1, cache: CacheMode::Off, ..tr.clone() }),
    ];
    let rows = [
        ("memo-unique-type-J", kim, J, &ni),
        ("memo-dup-type-J", dup, J, &ni),
        ("memo-dup-type-J-notin", dup, NOT_IN, &ni),
        ("memo-dup-type-JA-count", dup_ja, JA, &ni),
    ];
    all.extend(sweep(&rows, &|_| named(columns.clone())).map(|c| Cell { fallback: true, ..c }));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The historical wall-clock files, one JSON median line per cell run.
    const HISTORY: [&str; 6] = [
        include_str!("../../../BENCH_pr2.json"),
        include_str!("../../../BENCH_pr3.json"),
        include_str!("../../../BENCH_pr7.json"),
        include_str!("../../../BENCH_pr8.json"),
        include_str!("../../../BENCH_pr9.json"),
        include_str!("../../../BENCH_pr10.json"),
    ];

    /// The string value of `"key":"…"` in a flat JSON line.
    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let tag = format!("\"{key}\":\"");
        let start = line.find(&tag).unwrap_or_else(|| panic!("no {key} in {line}")) + tag.len();
        let len = line[start..].find('"').expect("closing quote");
        &line[start..start + len]
    }

    #[test]
    fn every_recorded_cell_is_a_matrix_cell() {
        let recorded: BTreeSet<(&str, &str)> = HISTORY
            .iter()
            .flat_map(|file| file.lines())
            .map(|line| (field(line, "group"), field(line, "bench")))
            .collect();
        assert_eq!(recorded.len(), 78, "the historical files name 78 (group, bench) pairs");
        let cells = cells();
        for (group, id) in recorded {
            assert!(
                cells.iter().any(|c| c.group == group && c.id == id),
                "recorded cell {group}/{id} is missing from the matrix"
            );
        }
    }

    #[test]
    fn cells_are_unique_and_groups_contiguous_over_one_workload() {
        let cells = cells();
        let ids: BTreeSet<(&str, &str)> = cells.iter().map(|c| (c.group, c.id.as_str())).collect();
        assert_eq!(ids.len(), cells.len(), "duplicate (group, id)");
        let groups: Vec<&[Cell]> = cells.chunk_by(|a, b| a.group == b.group).collect();
        let names: BTreeSet<&str> = groups.iter().map(|g| g[0].group).collect();
        assert_eq!(names.len(), groups.len(), "a group's cells must be contiguous");
        for g in groups {
            let data = format!("{:?}", g[0].data);
            for c in g {
                assert_eq!(
                    format!("{:?}", c.data),
                    data,
                    "{}/{}: one workload per group",
                    c.group,
                    c.id
                );
                assert_eq!(
                    c.op == Op::HashJoin,
                    matches!(c.data, Data::Heaps),
                    "{}/{}",
                    c.group,
                    c.id
                );
            }
        }
    }

    /// Every id's `axis=value` parts and strategy words agree with the
    /// cell's options, and the options the recorded groups ran with are
    /// kept: cold start; serial unless a thread axis says otherwise, or the
    /// environment's thread count in the E1/E11 groups; set semantics for
    /// the transformed IN queries of E1.
    #[test]
    fn cell_ids_agree_with_their_options() {
        for c in cells().into_iter().filter(|c| c.op == Op::Query) {
            let o = &c.opts;
            let at = format!("{}/{}", c.group, c.id);
            assert!(o.cold_start, "{at}: timed from a cold buffer");
            let mut thread_axis = false;
            for part in c.id.split('/') {
                match part.split_once('=') {
                    Some(("threads", n)) => {
                        thread_axis = true;
                        assert_eq!(o.threads.to_string(), n, "{at}");
                    }
                    Some(("mode", m)) => assert_eq!(o.exec_mode.name(), m, "{at}"),
                    Some(("cache", m)) => assert_eq!(
                        o.cache,
                        if m == "off" { CacheMode::Off } else { CacheMode::On },
                        "{at}"
                    ),
                    Some(("stats", m)) => assert_eq!(c.stats, Some(m == "on"), "{at}"),
                    Some(("memo", n)) => {
                        assert_eq!(o.memo_budget, Some(n.parse().unwrap()), "{at}")
                    }
                    Some(_) => panic!("{at}: unknown axis"),
                    None => {
                        let (strategy, policy) = match part {
                            "ni" | "nested_iteration" => (Strategy::NestedIteration, None),
                            "transform" | "transformed_cost_based" => {
                                (Strategy::Transform, Some("cost-based"))
                            }
                            "transformed_merge" => (Strategy::Transform, Some("merge-join")),
                            "batched" => (Strategy::Batched, None),
                            policy => (Strategy::Transform, Some(policy)),
                        };
                        assert_eq!(o.strategy, strategy, "{at}");
                        if let Some(policy) = policy {
                            assert_eq!(o.join_policy.name(), policy, "{at}");
                        }
                    }
                }
            }
            let in_lists = c.group == "type_n" || c.group == "type_j";
            let set_semantics = in_lists && o.strategy == Strategy::Transform;
            assert_eq!(o.unnest.preserve_duplicates, set_semantics, "{at}");
            let env_threads = c.group.starts_with("type_") || c.group == "ja2_join_policy";
            if !thread_axis {
                assert_eq!(o.threads, if env_threads { 0 } else { 1 }, "{at}");
            }
            assert_eq!(
                c.fallback,
                c.group.starts_with("strategy-") || c.group.starts_with("memo-"),
                "{at}"
            );
        }
    }
}
