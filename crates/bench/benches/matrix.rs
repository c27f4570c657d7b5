//! Times every cell of [`nsql_bench::matrix::cells`], one timer group per
//! matrix group, with the `nsql_testkit::bench` harness (warmup, then the
//! median of `NSQL_BENCH_SAMPLES`, default 10; `NSQL_BENCH_JSON=<path>`
//! appends one JSON line per cell). `./scripts/bench.sh [label]` records a
//! run to BENCH_ablation.json.
//!
//! ```sh
//! cargo bench -p nsql-bench --bench matrix -- --test   # every cell once, untimed
//! ```

use nsql_bench::matrix::{cells, Cell, Data, Op};
use nsql_bench::workload::{dup_workload, ja_workload};
use nsql_db::{DbError, ExecMode, QueryOptions, Strategy};
use nsql_engine::{Exec, JoinKind};
use nsql_storage::{HeapFile, Storage};
use nsql_testkit::bench::{black_box, Bench, BenchGroup};
use nsql_types::{Column, ColumnType, Schema, Tuple, Value};

fn main() {
    let mut bench = Bench::from_env();
    for cells in cells().chunk_by(|a, b| a.group == b.group) {
        let mut group = bench.group(cells[0].group);
        let w = match cells[0].data {
            Data::Ja(spec) => ja_workload(spec, cells[0].seed),
            Data::Dup(spec, distinct) => dup_workload(spec, cells[0].seed, distinct),
            Data::Heaps => {
                hash_join(&mut group, cells);
                continue;
            }
        };
        for c in cells {
            if let Some(on) = c.stats {
                w.db.stats().set_enabled(on);
            }
            let fallback = QueryOptions { strategy: Strategy::NestedIteration, ..c.opts.clone() };
            group.bench_function(&c.id, |b| match c.op {
                Op::Plan => {
                    b.iter(|| black_box(w.db.plan(black_box(c.sql)).expect("transformable")))
                }
                _ => b.iter(|| {
                    let out = match w.db.query_with(black_box(c.sql), &c.opts) {
                        Ok(out) => out,
                        Err(DbError::Transform(_)) if c.fallback => {
                            w.db.query_with(black_box(c.sql), &fallback)
                                .expect("nested-iteration fallback runs")
                        }
                        Err(e) => panic!("{}/{} failed: {e}", c.group, c.id),
                    };
                    black_box(out.relation.len())
                }),
            });
        }
    }
}

/// A heap file of `rows` tuples: column 0 is `key(i)`, then 3 derived int
/// columns (wide enough that per-tuple clone cost shows in the row path).
fn heap(storage: &Storage, prefix: &str, rows: usize, key: impl Fn(usize) -> i64) -> HeapFile {
    let mut cols = vec![Column::new(format!("{prefix}K"), ColumnType::Int)];
    cols.extend((0..3).map(|c| Column::new(format!("{prefix}P{c}"), ColumnType::Int)));
    let tuples: Vec<Tuple> = (0..rows)
        .map(|i| {
            let payload = (0..3).map(|c| Value::Int((i * 31 + c * 7) as i64 % 1009));
            Tuple::new(std::iter::once(Value::Int(key(i))).chain(payload).collect())
        })
        .collect();
    HeapFile::from_tuples(storage, Schema::new(cols), tuples)
}

/// The hash-join operator kernel, build + probe. Build side: 20k rows,
/// dense keys. Probe side: 60k rows over a 4x wider key domain, so every
/// build bucket is probed and 3 of 4 probes miss: the row path's per-probe
/// key allocation and per-tuple clones against the vectorized u64-prehash
/// probe that materializes tuples only on match.
fn hash_join(group: &mut BenchGroup<'_>, cells: &[Cell]) {
    let storage = Storage::new(512, 4096);
    let build = heap(&storage, "R", 20_000, |i| i as i64);
    let probe = heap(&storage, "L", 60_000, |i| ((i * 2_654_435_761) % 80_000) as i64);
    for c in cells {
        let vectorized = c.opts.exec_mode == ExecMode::Vector;
        let e = Exec::with_threads(storage.clone(), c.opts.threads).with_vectorized(vectorized);
        let join = |l, r| e.hash_join_collect(l, r, &[0], &[0], None, JoinKind::Inner);
        group.bench_function(&c.id, |b| {
            b.iter(|| {
                black_box(join(black_box(&probe), black_box(&build)).expect("join runs").len())
            })
        });
    }
}
