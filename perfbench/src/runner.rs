//! Drives a workload as one closed-loop client: the next statement goes out
//! only after the previous one has returned (`Database` is single-session).
//!
//! A run is a sequence of passes. Each pass sets up a fresh database (timed
//! as set-up, not as statements) and then issues the workload's fixed
//! statement list, so counted page I/O repeats exactly from pass to pass.

use crate::stats::{block_percentile, median, percentile, ratio};
use crate::sys::{self, DataDir};
use crate::trace::Tracer;
use crate::workload::{Mode, Step, Workload};
use nsql_analyzer::validate_query;
use nsql_core::transform_query;
use nsql_db::{CacheStats, Database, QueryOptions, Strategy};
use nsql_engine::NestedIter;
use nsql_sql::{parse_query, parse_statements, QueryBlock};
use nsql_storage::IoSnapshot;
use nsql_types::Relation;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// No pass starts after the process has run this long, so a slow host
/// still exits well inside the 180 s one run may take.
const HARD_CAP: Duration = Duration::from_secs(140);

/// Failures described on stderr per phase; the rest are only counted.
const REPORTED_FAILURES: u64 = 5;

/// A measured metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// How long a phase runs: passes continue until `seconds` of statement
/// time have passed and the sample floors are met.
pub struct Phase {
    /// Statement time to measure, in seconds.
    pub seconds: f64,
    /// SELECT latencies the phase's percentiles need.
    pub min_selects: usize,
    /// INSERT latencies the phase's percentiles need.
    pub min_inserts: usize,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// SELECT latencies scaled to the reference machine, ms.
    pub select_ms: Vec<f64>,
    /// INSERT latencies scaled to the reference machine, ms.
    pub insert_ms: Vec<f64>,
    /// Statements issued.
    pub attempted: u64,
    /// Statements that errored or returned a wrong answer.
    pub failed: u64,
    /// Counted page I/O (reads + writes) of all statements.
    pub pages: u64,
    /// Bytes the process wrote during INSERTs.
    pub written_bytes: u64,
    /// User bytes the INSERTs carried.
    pub inserted_bytes: u64,
    /// Time of the passes' statement streams, set-up excluded, scaled to
    /// the reference machine, s.
    pub measured_s: f64,
    /// The same, unscaled wall time, s.
    pub raw_measured_s: f64,
    /// Each pass's scale factor to the reference machine.
    pub scales: Vec<f64>,
    /// Set-up time of each pass, scaled to the reference machine, s.
    pub setup_s: Vec<f64>,
    /// Passes run.
    pub passes: u64,
}

impl Tally {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= REPORTED_FAILURES {
                eprintln!("# failed: {}", what());
            }
        }
    }

    /// Statements answered correctly per second of statement time.
    pub fn stmts_per_s(&self) -> f64 {
        ratio((self.attempted - self.failed) as f64, self.measured_s)
    }

    /// The end-to-end metrics of an untraced phase.
    pub fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        Ok(vec![
            ("query_p50_ms", block_percentile(&self.select_ms, 50)?, "ms"),
            ("query_p99_ms", block_percentile(&self.select_ms, 99)?, "ms"),
            ("stmts_per_s", self.stmts_per_s(), "1/s"),
            (
                "pages_per_stmt",
                ratio(self.pages as f64, self.attempted as f64),
                "pages",
            ),
            ("setup_s", median(&self.setup_s), "s"),
            ("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        ])
    }
}

/// The options of each [`Mode`], indexed by `mode as usize`.
fn mode_options(w: &Workload) -> [QueryOptions; 3] {
    [
        w.options(Mode::Default),
        w.options(Mode::NiVec),
        w.options(Mode::Batched),
    ]
}

/// Milliseconds [`reference_task`] takes on the reference machine (a
/// 2-vCPU VM at 2.1 GHz). Timings are scaled by this over the task's
/// time measured beside them.
const REFERENCE_MS: f64 = 1.8;

/// A fixed sort-and-index task that touches no engine code: sort 2^14
/// pseudo-random keys, index them in a `BTreeMap`, look each one up.
/// Returns its wall time in ms.
fn reference_task() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..1 << 14)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let index: BTreeMap<u64, usize> = keys.iter().copied().zip(0..).collect();
    let found = keys.iter().rev().filter(|k| index.contains_key(k)).count();
    std::hint::black_box(found);
    t.elapsed().as_secs_f64() * 1e3
}

/// The host's current slowness: the median of three [`reference_task`]
/// timings, in ms.
fn calibrate() -> f64 {
    median(&[reference_task(), reference_task(), reference_task()])
}

/// Run passes until `phase` is satisfied, issuing each pass's statements
/// through `pass`.
///
/// The machines this runs on are shared, and their speed drifts by ±15%
/// over tens of seconds. So the reference task is timed between passes,
/// and every time a pass records (set-up, statement latencies, statement
/// time) is scaled by `REFERENCE_MS` over the reference task's time around
/// that pass: the figures read as if on the reference machine, and a
/// change to the engine moves them exactly as much as it moves wall time.
fn run_passes(
    w: &Workload,
    phase: &Phase,
    started: Instant,
    mut pass: impl FnMut(&mut Database, Option<&Path>, &mut Tally),
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut before = calibrate();
    loop {
        let dir = if w.kind.durable() {
            Some(DataDir::new()?)
        } else {
            None
        };
        let dir_path = dir.as_ref().map(DataDir::path);
        let t = Instant::now();
        let mut db = w.setup(dir_path)?;
        tally
            .setup_s
            .push(t.elapsed().as_secs_f64() * REFERENCE_MS / before);
        let (selects, inserts) = (tally.select_ms.len(), tally.insert_ms.len());
        let t = Instant::now();
        pass(&mut db, dir_path, &mut tally);
        let raw_s = t.elapsed().as_secs_f64();
        // The database goes before its directory.
        drop(db);
        drop(dir);
        let after = calibrate();
        let scale = REFERENCE_MS / ((before + after) / 2.0);
        before = after;
        for ms in tally.select_ms[selects..]
            .iter_mut()
            .chain(&mut tally.insert_ms[inserts..])
        {
            *ms *= scale;
        }
        tally.measured_s += raw_s * scale;
        tally.raw_measured_s += raw_s;
        tally.scales.push(scale);
        tally.passes += 1;
        let done = tally.raw_measured_s >= phase.seconds
            && tally.select_ms.len() >= phase.min_selects
            && tally.insert_ms.len() >= phase.min_inserts;
        if done || started.elapsed() >= HARD_CAP {
            return Ok(tally);
        }
    }
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The untraced stream: every statement through `Database::query_with` or
/// `Database::execute_script`, timed around that one call.
pub fn run_plain(w: &Workload, phase: &Phase, started: Instant) -> Result<Tally, String> {
    let opts = mode_options(w);
    run_passes(w, phase, started, |db, _, tally| {
        for step in &w.steps {
            match step {
                Step::Select {
                    shape,
                    mode,
                    sql,
                    expected,
                } => {
                    let t = Instant::now();
                    let out = db.query_with(sql, &opts[*mode as usize]);
                    tally.select_ms.push(elapsed_ms(t));
                    let ok = match &out {
                        Ok(o) => {
                            tally.pages += o.io.total();
                            mode.accepts(&o.relation, expected)
                        }
                        Err(_) => false,
                    };
                    tally.record(ok, || {
                        describe(shape, *mode, out.err().map(|e| e.to_string()))
                    });
                }
                Step::Insert { sql, user_bytes } => {
                    let io0 = db.storage().io_snapshot();
                    let written0 = sys::written_bytes();
                    let t = Instant::now();
                    let out = db.execute_script(sql);
                    tally.insert_ms.push(elapsed_ms(t));
                    if let (Some(a), Some(b)) = (written0, sys::written_bytes()) {
                        tally.written_bytes += b.saturating_sub(a);
                    }
                    tally.pages += db.storage().io_snapshot().since(&io0).total();
                    tally.inserted_bytes += user_bytes;
                    let err = out.err().map(|e| e.to_string());
                    tally.record(err.is_none(), || {
                        format!("INSERT: {}", err.unwrap_or_default())
                    });
                }
            }
        }
    })
}

fn describe(shape: &str, mode: Mode, err: Option<String>) -> String {
    match err {
        Some(e) => format!("{shape} ({mode:?}): {e}"),
        None => format!("{shape} ({mode:?}): answer differs from nested iteration's"),
    }
}

/// Counters read around one layer call in the traced run.
struct Probe {
    io: IoSnapshot,
    tuples_read: u64,
    index_probes: u64,
    cache: CacheStats,
}

impl Probe {
    fn take(db: &Database) -> Probe {
        let snap = db.stats().snapshot();
        Probe {
            io: db.storage().io_snapshot(),
            tuples_read: snap.tables.iter().map(|t| t.tuples_read).sum(),
            index_probes: snap.tables.iter().map(|t| t.index_probes).sum(),
            cache: db.result_cache().stats(),
        }
    }
}

/// Per-layer counts summed over the traced run.
#[derive(Debug, Default)]
pub struct Layers {
    refusals: u64,
    execute_us: Vec<f64>,
    temp_pages: u64,
    planned_selects: u64,
    rows_out: u64,
    io: IoSnapshot,
    tuples_read: u64,
    index_probes: u64,
    cache: CacheStats,
    cache_bytes: Vec<f64>,
    serial_us: f64,
    parallel_us: f64,
    wal_growth: Vec<f64>,
    checkpoints: u64,
    file_amp: Vec<f64>,
}

impl Layers {
    /// Add the counter deltas between two probes; returns the page I/O.
    fn add(&mut self, before: &Probe, after: &Probe) -> u64 {
        let d = after.io.since(&before.io);
        self.io.reads += d.reads;
        self.io.writes += d.writes;
        self.io.hits += d.hits;
        self.io.misses += d.misses;
        self.tuples_read += after.tuples_read.saturating_sub(before.tuples_read);
        self.index_probes += after.index_probes.saturating_sub(before.index_probes);
        let (a, b) = (&after.cache, &before.cache);
        self.cache.hits += a.hits.saturating_sub(b.hits);
        self.cache.misses += a.misses.saturating_sub(b.misses);
        self.cache.invalidations += a.invalidations.saturating_sub(b.invalidations);
        self.cache.evictions += a.evictions.saturating_sub(b.evictions);
        d.total()
    }
}

/// Evaluate a nested-iteration or batched SELECT by calling the engine
/// directly, as `Database::run_query` would for these options.
fn eval_engine(
    db: &Database,
    q: &QueryBlock,
    opts: &QueryOptions,
    threads: usize,
) -> Result<Relation, String> {
    let strategy = opts.strategy.resolve();
    // Batched evaluation runs without the vector kernels, as in `run_query`.
    let mut ni = NestedIter::new(db.catalog(), db.storage().clone())
        .with_vectorized(strategy != Strategy::Batched && opts.exec_mode.vectorized());
    if opts.cache.enabled() {
        ni = ni.with_query_cache(Arc::clone(db.result_cache()));
    }
    if let Some(budget) = opts.memo_budget {
        ni = ni.with_memo_budget(budget);
    }
    let out = match strategy {
        Strategy::Batched => ni.eval_query_batched(q, threads),
        _ => ni.eval_query_threads(q, threads),
    };
    out.map_err(|e| e.to_string())
}

/// What a traced SELECT returned: its rows, its counted page I/O, and the
/// engine call's time when the engine was called directly.
type Traced = (Relation, u64, Option<f64>);

/// One traced SELECT after parsing: validate, then either transform and
/// `run_query` (the transform strategy) or call the engine directly.
fn traced_select(
    db: &Database,
    q: &QueryBlock,
    opts: &QueryOptions,
    tr: &mut Tracer,
    root: usize,
    layers: &mut Layers,
) -> Result<Traced, String> {
    let (valid, validate_us) = tr.time("analyzer.validate", root, || {
        validate_query(db.catalog(), q)
    });
    valid.map_err(|e| e.to_string())?;
    let before = Probe::take(db);
    let strategy = opts.strategy.resolve();
    if strategy == Strategy::Transform {
        let (plan, transform_us) = tr.time("core.transform", root, || {
            transform_query(db.catalog(), q, &opts.unnest)
        });
        layers.refusals += u64::from(plan.is_err());
        let (out, run_us) = tr.time("db.run_query", root, || db.run_query(q, opts));
        let pages = layers.add(&before, &Probe::take(db));
        layers.execute_us.push(run_us - validate_us - transform_us);
        let out = out.map_err(|e| e.to_string())?;
        layers.planned_selects += 1;
        layers.temp_pages += out.temps.iter().map(|t| t.pages as u64).sum::<u64>();
        return Ok((out.relation, pages, None));
    }
    let name = match strategy {
        Strategy::Batched => "engine.batched",
        _ if opts.exec_mode.vectorized() => "engine.ni_vec",
        _ => "engine.ni_row",
    };
    let (rel, us) = tr.time(name, root, || eval_engine(db, q, opts, opts.threads));
    let pages = layers.add(&before, &Probe::take(db));
    Ok((rel?, pages, Some(us)))
}

/// The traced stream: the same passes, with every call into a layer
/// wrapped in a span.
pub fn run_traced(
    w: &Workload,
    phase: &Phase,
    started: Instant,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<Tally, String> {
    let opts = mode_options(w);
    let base_bytes = w.tables().user_bytes();
    run_passes(w, phase, started, |db, dir, tally| {
        let mut inserted = 0;
        for step in &w.steps {
            let root = tr.begin_stmt();
            match step {
                Step::Select {
                    shape,
                    mode,
                    sql,
                    expected,
                } => {
                    let opts = &opts[*mode as usize];
                    let (parsed, _) = tr.time("sql.parse", root, || parse_query(sql));
                    let out = match &parsed {
                        Ok(q) => traced_select(db, q, opts, tr, root, layers),
                        Err(e) => Err(e.to_string()),
                    };
                    tally.select_ms.push(tr.end(root) / 1e3);
                    let ok = match &out {
                        Ok((rel, pages, _)) => {
                            tally.pages += pages;
                            layers.rows_out += rel.len() as u64;
                            mode.accepts(rel, expected)
                        }
                        Err(_) => false,
                    };
                    if let (Ok(q), Ok((_, _, Some(parallel_us)))) = (&parsed, &out) {
                        if opts.threads > 1 {
                            // The same engine call serially, for the
                            // morsel-parallel speed-up; a root span of its
                            // own, outside the statement's latency.
                            let id = tr.begin("exec_par.threads1", None);
                            let _ = eval_engine(db, q, opts, 1);
                            layers.serial_us += tr.end(id);
                            layers.parallel_us += parallel_us;
                        }
                    }
                    tally.record(ok, || describe(shape, *mode, out.err()));
                }
                Step::Insert { sql, user_bytes } => {
                    let _ = tr.time("sql.parse_insert", root, || parse_statements(sql));
                    let wal = dir.map(|d| d.join("wal.nsql"));
                    let wal0 = wal.as_deref().map_or(0, sys::file_len);
                    let before = Probe::take(db);
                    let (out, _) = tr.time("db.insert", root, || db.execute_script(sql));
                    tally.pages += layers.add(&before, &Probe::take(db));
                    if let Some(wal) = &wal {
                        match sys::file_len(wal) {
                            n if n < wal0 => layers.checkpoints += 1,
                            n => layers.wal_growth.push((n - wal0) as f64),
                        }
                    }
                    tally.insert_ms.push(tr.end(root) / 1e3);
                    inserted += user_bytes;
                    let err = out.err().map(|e| e.to_string());
                    tally.record(err.is_none(), || {
                        format!("INSERT: {}", err.unwrap_or_default())
                    });
                }
            }
        }
        layers
            .cache_bytes
            .push(db.result_cache().stats().bytes as f64);
        if let Some(dir) = dir {
            let stored =
                sys::file_len(&dir.join("pages.nsql")) + sys::file_len(&dir.join("wal.nsql"));
            layers
                .file_amp
                .push(ratio(stored as f64, (base_bytes + inserted) as f64));
        }
    })
}

/// The per-layer metrics of a `--trace 1` run, with the end-to-end
/// figures that only some workloads can report and the tracing overhead.
pub fn per_layer(
    plain: &Tally,
    traced: &Tally,
    layers: &Layers,
    tr: &Tracer,
) -> Result<Vec<Metric>, String> {
    let selfs = tr.self_times();
    let self_us = |name: &str| selfs.get(name).map_or(0.0, |v| median(v));
    let passes = traced.passes as f64;
    let stmts = traced.attempted as f64;
    let io = &layers.io;
    let cache = &layers.cache;
    let write = |p| {
        if plain.insert_ms.is_empty() {
            Ok(0.0)
        } else {
            percentile(&plain.insert_ms, p)
        }
    };
    Ok(vec![
        ("sql.parse_us", self_us("sql.parse"), "us"),
        ("analyzer.validate_us", self_us("analyzer.validate"), "us"),
        ("core.transform_us", self_us("core.transform"), "us"),
        (
            "core.refusals",
            ratio(layers.refusals as f64, passes),
            "count",
        ),
        ("db.execute_us", median(&layers.execute_us), "us"),
        (
            "db.temp_pages_per_stmt",
            ratio(layers.temp_pages as f64, layers.planned_selects as f64),
            "pages",
        ),
        (
            "db.rows_examined_per_row",
            ratio(layers.tuples_read as f64, layers.rows_out as f64),
            "ratio",
        ),
        ("engine.ni_vec_us", self_us("engine.ni_vec"), "us"),
        ("engine.batched_us", self_us("engine.batched"), "us"),
        (
            "exec_par.speedup",
            ratio(layers.serial_us, layers.parallel_us),
            "ratio",
        ),
        (
            "storage.reads_per_stmt",
            ratio(io.reads as f64, stmts),
            "pages",
        ),
        (
            "storage.writes_per_stmt",
            ratio(io.writes as f64, stmts),
            "pages",
        ),
        (
            "storage.hit_ratio",
            ratio(io.hits as f64, (io.hits + io.misses) as f64),
            "ratio",
        ),
        (
            "index.probes_per_stmt",
            ratio(layers.index_probes as f64, traced.select_ms.len() as f64),
            "count",
        ),
        (
            "cache.hit_ratio",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            "ratio",
        ),
        (
            "cache.invalidations",
            ratio(cache.invalidations as f64, passes),
            "count",
        ),
        (
            "cache.evictions",
            ratio(cache.evictions as f64, passes),
            "count",
        ),
        ("cache.bytes", median(&layers.cache_bytes), "bytes"),
        ("db.insert_us", self_us("db.insert"), "us"),
        ("sql.parse_insert_us", self_us("sql.parse_insert"), "us"),
        (
            "storage.wal_bytes_per_insert",
            median(&layers.wal_growth),
            "bytes",
        ),
        (
            "storage.checkpoints",
            ratio(layers.checkpoints as f64, passes),
            "count",
        ),
        (
            "storage.file_bytes_per_user_byte",
            median(&layers.file_amp),
            "ratio",
        ),
        (
            "failed_frac",
            ratio(
                (plain.failed + traced.failed) as f64,
                (plain.attempted + traced.attempted) as f64,
            ),
            "ratio",
        ),
        ("write_p50_ms", write(50)?, "ms"),
        ("write_p90_ms", write(90)?, "ms"),
        (
            "write_amp",
            ratio(plain.written_bytes as f64, plain.inserted_bytes as f64),
            "ratio",
        ),
        (
            "trace.query_p50_ms",
            percentile(&traced.select_ms, 50)?,
            "ms",
        ),
        (
            "trace.overhead_ratio",
            ratio(
                percentile(&traced.select_ms, 50)?,
                percentile(&plain.select_ms, 50)?,
            ),
            "ratio",
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    /// Exactly one pass.
    const ONE_PASS: Phase = Phase {
        seconds: 0.0,
        min_selects: 0,
        min_inserts: 0,
    };

    #[test]
    fn same_seed_repeats_pages_and_answers() {
        let a = Workload::build(Kind::PaperDefault, 42, 2).unwrap();
        let b = Workload::build(Kind::PaperDefault, 42, 2).unwrap();
        for (x, y) in a.steps.iter().zip(&b.steps) {
            if let (Step::Select { expected: x, .. }, Step::Select { expected: y, .. }) = (x, y) {
                assert!(x.same_bag(y));
            }
        }
        let (ta, tb) = (
            run_plain(&a, &ONE_PASS, Instant::now()).unwrap(),
            run_plain(&b, &ONE_PASS, Instant::now()).unwrap(),
        );
        assert_eq!((ta.failed, tb.failed), (0, 0));
        assert_eq!(ta.pages, tb.pages);
        assert_eq!(ta.attempted, a.steps.len() as u64);
    }

    #[test]
    fn every_workload_answers_at_two_seeds() {
        for kind in Kind::ALL {
            for seed in [42, 43] {
                let w = Workload::build(kind, seed, 2).unwrap();
                assert_eq!(w.empty_answers(), 0, "{} seed {seed}", kind.name());
                let t = run_plain(&w, &ONE_PASS, Instant::now()).unwrap();
                assert_eq!(t.failed, 0, "{} seed {seed}", kind.name());
                assert!(t.pages > 0);
            }
        }
    }

    #[test]
    fn gate_rejects_a_wrong_expected_answer() {
        let mut w = Workload::build(Kind::PaperDefault, 42, 2).unwrap();
        let Some(Step::Select { expected, .. }) = w.steps.first_mut() else {
            panic!("paper_default starts with a SELECT");
        };
        let short = expected.tuples()[1..].to_vec();
        *expected = Arc::new(Relation::new(expected.schema().clone(), short).unwrap());
        let t = run_plain(&w, &ONE_PASS, Instant::now()).unwrap();
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn traced_run_reports_every_layer() {
        let w = Workload::build(Kind::IngestMixed, 42, 2).unwrap();
        let enough_inserts = Phase {
            min_inserts: crate::stats::samples_needed(90),
            ..ONE_PASS
        };
        let plain = run_plain(&w, &enough_inserts, Instant::now()).unwrap();
        let (mut tr, mut layers) = (Tracer::default(), Layers::default());
        let traced = run_traced(&w, &ONE_PASS, Instant::now(), &mut tr, &mut layers).unwrap();
        assert_eq!(traced.failed, 0);
        assert_eq!(
            traced.pages * plain.passes,
            plain.pages,
            "tracing must not move counted I/O"
        );
        let metrics = per_layer(&plain, &traced, &layers, &tr).unwrap();
        let value = |n: &str| metrics.iter().find(|m| m.0 == n).unwrap().1;
        for name in [
            "sql.parse_us",
            "db.execute_us",
            "engine.ni_vec_us",
            "db.insert_us",
            "write_p90_ms",
        ] {
            assert!(value(name) > 0.0, "{name}");
        }
        assert!(value("storage.checkpoints") > 0.0 && value("cache.invalidations") > 0.0);
        let selfs = tr.self_times();
        assert!(selfs["stmt"].len() == w.steps.len() && selfs.contains_key("db.run_query"));
    }

    /// Names and units of the metrics a run emits, in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = std::fs::read_to_string("../BENCHMARK.json").unwrap();
        let body = json.split(&format!("\"{section}\"")).nth(1).unwrap();
        let body = &body[..body.find(']').unwrap()];
        let field = |line: &str, key: &str| {
            let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
            Some(rest[..rest.find('"')?].to_string())
        };
        body.lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tally = Tally {
            select_ms: samples,
            setup_s: vec![1.0],
            ..Tally::default()
        };
        let emitted = |m: Vec<Metric>| -> Vec<(String, String)> {
            m.into_iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(emitted(tally.end_to_end().unwrap()), declared("end_to_end"));
        let layers = per_layer(&tally, &tally, &Layers::default(), &Tracer::default()).unwrap();
        assert_eq!(emitted(layers), declared("per_layer"));
    }
}
