#![warn(missing_docs)]

//! Experiment harness: workload generators and measurement helpers shared
//! by the per-figure binaries and the ablation matrix ([`matrix`]).
//!
//! Workloads are scaled to Kim's configurations: the inner relation is
//! ~100 pages, the outer a few dozen, the buffer 6 pages, and the outer
//! simple predicate selects ≈`f(i)·Ni = 100` tuples — the setting in which
//! Kim reports 10 220 / 10 120 / 3 050 page I/Os for nested iteration
//! (Figure 1).

pub mod matrix;
pub mod workload;

pub use workload::{ja_workload, n_workload, Workload, WorkloadSpec};

use nsql_db::{Database, QueryOptions};
use nsql_storage::IoStats;
use nsql_types::Relation;

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Strategy label.
    pub label: String,
    /// Page I/Os.
    pub io: IoStats,
    /// Result rows (for cross-checking between strategies).
    pub relation: Relation,
}

/// Run `sql` under `opts` and collect the measurement.
pub fn measure(db: &Database, sql: &str, label: &str, opts: &QueryOptions) -> Measurement {
    let out = db
        .query_with(sql, opts)
        .unwrap_or_else(|e| panic!("query failed under {label}: {e}\n{sql}"));
    Measurement { label: label.to_string(), io: out.io, relation: out.relation }
}

/// Percentage saved by `new` relative to `baseline` (the paper's headline
/// metric: "cost savings of 80% to 95% are possible").
pub fn savings(baseline: &Measurement, new: &Measurement) -> f64 {
    1.0 - new.io.total() as f64 / baseline.io.total() as f64
}

/// Render a simple aligned table: header plus rows of cells.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("── {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("  {:<w$}", c, w = widths[i]));
        }
        println!("{s}");
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_math() {
        let base = Measurement {
            label: "a".into(),
            io: IoStats { reads: 90, writes: 10 },
            relation: Relation::empty(Default::default()),
        };
        let new = Measurement {
            label: "b".into(),
            io: IoStats { reads: 10, writes: 10 },
            relation: Relation::empty(Default::default()),
        };
        assert!((savings(&base, &new) - 0.8).abs() < 1e-9);
    }
}
