//! Query-evaluation options.

use crate::{DbError, Result};
use nsql_core::UnnestOptions;
use std::path::PathBuf;

/// An environment lookup: the process environment in production, a fake in
/// tests.
type Env<'a> = &'a dyn Fn(&str) -> Option<String>;

/// The process environment as an [`Env`]: every `NSQL_*` knob is read here.
fn process_env(key: &str) -> Option<String> {
    std::env::var(key).ok()
}

/// `NSQL_DURABILITY`, read once per [`crate::Database::new`]: `None` (unset,
/// `memory`, or unrecognised) keeps pages in memory. Bare `file` yields a
/// base directory (`NSQL_DATA_DIR`, else the system temp dir) under which
/// the database creates and owns a private subdirectory (`true`);
/// `file:<dir>` yields exactly `<dir>`, which the database does not own
/// (`false`).
pub(crate) fn file_store_from_env() -> Option<(PathBuf, bool)> {
    let v = process_env("NSQL_DURABILITY")?;
    if v.eq_ignore_ascii_case("file") {
        let base = std::env::var_os("NSQL_DATA_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        return Some((base, true));
    }
    match v.strip_prefix("file:") {
        Some(dir) if !dir.is_empty() => Some((PathBuf::from(dir), false)),
        _ => None,
    }
}

/// Physical join-method policy for transformed queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinPolicy {
    /// Always nested loops.
    ForceNestedLoop,
    /// Merge join wherever an equi-key exists, nested loops otherwise.
    ForceMergeJoin,
    /// Hash join wherever an equi-key exists, nested loops otherwise.
    /// A **modern extension** — System R and the paper had no hash join;
    /// kept for the E13 ablation.
    ForceHashJoin,
    /// Pick the cheaper method per join from actual page counts and the
    /// Section-7 cost formulas.
    #[default]
    CostBased,
}

impl JoinPolicy {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            JoinPolicy::ForceNestedLoop => "nested-loop",
            JoinPolicy::ForceMergeJoin => "merge-join",
            JoinPolicy::ForceHashJoin => "hash-join",
            JoinPolicy::CostBased => "cost-based",
        }
    }
}

/// Whether the executor may route restrictions and back-joins through
/// B+tree indexes ([`crate::Catalog::create_index`]). Index paths change
/// page-I/O counts, never results — the diff harness checks all three
/// settings against the naive oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexUse {
    /// Use an index path when the Section-7 extension says it is cheaper
    /// (`index_restrict_cost` / `index_nested_join_cost`).
    #[default]
    CostBased,
    /// Take an applicable index path even when costed as more expensive
    /// (exercises the index operators regardless of table shape).
    Prefer,
    /// Never touch an index; plans read as if no index existed.
    Never,
}

/// What NEST-N-J's join expansion does to row multiplicity — the paper's
/// Section 4 duplicates problem made an explicit, documented choice instead
/// of a silent set-level test comparison.
///
/// Nested iteration (the semantic ground truth) emits each outer tuple at
/// most once per `IN` test, however many inner rows match. Kim's NEST-N-J
/// replaces the membership test with a join, so an outer tuple appears once
/// *per match*. The two agree as bags only when the merged inner column is
/// key-valued (at most one match per outer tuple); otherwise a choice must
/// be made, and both available choices are deviations:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicateSemantics {
    /// Kim's join form verbatim (the faithful historical reading): output
    /// multiplicity is join multiplicity. Bag-equal to nested iteration for
    /// key-valued inner columns; over-counts matches otherwise (only
    /// set-level agreement is promised — `Relation::same_set`).
    #[default]
    KimFaithful,
    /// The modern semijoin-style fix: deduplicate the final result of
    /// IN-merged queries (`TransformPlan::needs_distinct_for_semantics`).
    /// The output has DISTINCT (set) semantics — join-expansion duplicates
    /// disappear, but so do *legitimate* duplicate outer tuples, so this
    /// too matches nested iteration only up to sets.
    ForceDistinct,
}

/// Which tuple-at-a-time representation the executor runs on.
///
/// Vectorized execution batches each page into column vectors and
/// evaluates predicates, join probes, and aggregate folds with batch
/// kernels; operators without a vectorized implementation (and blocks the
/// predicate compiler declines) fall back to the row path per operator.
/// Results, error values, page-I/O totals, and buffer hit/miss splits are
/// byte-identical across modes — only CPU time changes (property-tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Tuple-at-a-time interpretation (the historical baseline).
    Row,
    /// Columnar batch kernels with per-operator row-path fallback.
    Vector,
    /// Resolve from `NSQL_EXEC_MODE` (`vector`/`vectorized` → vectorized;
    /// anything else, or unset → row).
    #[default]
    Auto,
}

impl ExecMode {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Row => "row",
            ExecMode::Vector => "vector",
            ExecMode::Auto => "auto",
        }
    }

    /// Whether this mode (after `Auto` resolution) runs vectorized.
    pub fn vectorized(self) -> bool {
        self.vectorized_in(&process_env)
    }

    fn vectorized_in(self, env: Env) -> bool {
        match self {
            ExecMode::Row => false,
            ExecMode::Vector => true,
            ExecMode::Auto => env("NSQL_EXEC_MODE").is_some_and(|v| {
                v.eq_ignore_ascii_case("vector") || v.eq_ignore_ascii_case("vectorized")
            }),
        }
    }
}

/// Cross-query result caching policy (see `nsql-cache` and DESIGN.md
/// "Result caching").
///
/// The cache holds inner-block results under one correlation binding, so
/// only the strategies that evaluate inner blocks — nested iteration and
/// batched evaluation — consult it; the transform path runs uncached. A
/// hit requires the same normalized block, the same binding and the same
/// table generation, and recharges the block's inner-scan page sequence,
/// so results **and** counted I/O are byte-identical with an uncached run
/// (checked by `scripts/verify.sh`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Never consult or populate the cache.
    Off,
    /// Consult and populate the cache — I/O-transparent.
    On,
    /// Resolve from `NSQL_CACHE` (`on`/`1` → [`CacheMode::On`]; anything
    /// else, or unset → off).
    #[default]
    Auto,
}

impl CacheMode {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::On => "on",
            CacheMode::Auto => "auto",
        }
    }

    /// `Auto` resolved against the environment; other modes unchanged.
    pub fn resolve(self) -> CacheMode {
        self.resolve_in(&process_env)
    }

    fn resolve_in(self, env: Env) -> CacheMode {
        match self {
            CacheMode::Auto => match env("NSQL_CACHE") {
                Some(v) if v.eq_ignore_ascii_case("on") || v == "1" => CacheMode::On,
                _ => CacheMode::Off,
            },
            other => other,
        }
    }

    /// Whether this mode (after `Auto` resolution) consults the cache.
    pub fn enabled(self) -> bool {
        !matches!(self.resolve(), CacheMode::Off)
    }
}

/// How to evaluate a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// System R semantics: direct nested iteration (the paper's baseline
    /// and the semantic ground truth).
    NestedIteration,
    /// Transform to canonical form first (NEST-G driving NEST-N-J and
    /// NEST-JA2 / Kim's NEST-JA), then execute the flat query.
    Transform,
    /// Batched correlated evaluation (Guravannavar & Sudarshan): sort and
    /// deduplicate the outer correlation bindings with the external sort,
    /// evaluate the inner block once per *distinct* binding, then replay
    /// the memoized answers over the outer rows in their original order.
    /// Results and error semantics are identical to nested iteration; the
    /// inner block runs `D` times instead of `N` times.
    Batched,
    /// Resolve from `NSQL_STRATEGY` (`nested-iteration`/`ni` → nested
    /// iteration, `batched` → batched; anything else, or unset →
    /// transform). The default, so the env knob steers default-option
    /// runs while explicitly pinned options stay untouched.
    #[default]
    Auto,
}

impl Strategy {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::NestedIteration => "nested-iteration",
            Strategy::Transform => "transform",
            Strategy::Batched => "batched",
            Strategy::Auto => "auto",
        }
    }

    /// `Auto` resolved against the environment; other strategies unchanged.
    pub fn resolve(self) -> Strategy {
        self.resolve_in(&process_env)
    }

    fn resolve_in(self, env: Env) -> Strategy {
        match self {
            Strategy::Auto => match env("NSQL_STRATEGY") {
                Some(v) if v.eq_ignore_ascii_case("nested-iteration")
                    || v.eq_ignore_ascii_case("ni") =>
                {
                    Strategy::NestedIteration
                }
                Some(v) if v.eq_ignore_ascii_case("batched") => Strategy::Batched,
                _ => Strategy::Transform,
            },
            other => other,
        }
    }
}

/// Full option set for [`crate::Database::query_with`].
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// Transformation options (JA variant, duplicate preservation).
    pub unnest: UnnestOptions,
    /// Row-multiplicity semantics for NEST-N-J's join expansion (see
    /// [`DuplicateSemantics`]). `ForceDistinct` maps onto
    /// `unnest.preserve_duplicates` when the query is transformed; nested
    /// iteration ignores it (its multiplicities are already the ground
    /// truth).
    pub duplicates: DuplicateSemantics,
    /// Join-method policy for the transformed path.
    pub join_policy: JoinPolicy,
    /// Whether restriction predicates and back-joins may route through
    /// B+tree indexes (see [`IndexUse`]). Irrelevant when no index exists.
    pub index_use: IndexUse,
    /// Start from a cold buffer and zeroed I/O counters so the reported
    /// cost is comparable across runs. The derived default is `false`; the
    /// named constructors below set it.
    pub cold_start: bool,
    /// Keep the temporary tables after the query (for inspection in the
    /// experiment binaries); they are dropped otherwise.
    pub keep_temps: bool,
    /// Worker threads for morsel-parallel execution. `0` (the default)
    /// resolves from `NSQL_THREADS` (a positive integer; anything else is a
    /// [`DbError::Config`]), falling back to the machine's available
    /// parallelism; `1` takes the exact serial code path. Parallel runs
    /// report the same per-query I/O totals as serial runs by construction.
    pub threads: usize,
    /// Collect observability data: lifecycle spans, per-operator metrics,
    /// and diagnostic events ([`crate::QueryOutcome::obs`]). Collection is
    /// pure side-state — it never changes the reported page-I/O totals,
    /// the hit/miss split, or the result rows (property-tested).
    pub observe: bool,
    /// Row-at-a-time vs columnar batch execution (see [`ExecMode`]).
    /// `Auto` (the default) resolves from `NSQL_EXEC_MODE`.
    pub exec_mode: ExecMode,
    /// Cross-query result caching (see [`CacheMode`]). `Auto` (the
    /// default) resolves from `NSQL_CACHE`.
    pub cache: CacheMode,
    /// Byte budget for nested iteration's per-query, per-distinct-binding
    /// result memo. `None` keeps the engine default (1 MiB); the budget is
    /// accounted with the same size estimate as the cross-query cache.
    pub memo_budget: Option<usize>,
    /// Slow-query threshold in milliseconds: statements whose wall time
    /// reaches it are appended (with their rendered EXPLAIN) to the
    /// statistics registry's slow-query log. `Some(0)` logs everything;
    /// `None` (the default) resolves from `NSQL_SLOW_QUERY_MS`, and when
    /// that is unset too the log stays off.
    pub slow_query_ms: Option<u64>,
}

/// [`QueryOptions`] after [`QueryOptions::resolve`]: every `Auto` and
/// env-dependent knob pinned to the value this statement runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resolved {
    /// Never [`Strategy::Auto`].
    pub strategy: Strategy,
    /// Whether the vector kernels run (always `false` under batched).
    pub vectorized: bool,
    /// Never [`CacheMode::Auto`].
    pub cache: CacheMode,
    /// Worker threads, at least 1.
    pub threads: usize,
    /// Slow-query threshold in microseconds; `None` keeps the log off.
    pub slow_query_us: Option<u64>,
}

impl QueryOptions {
    /// The effective slow-query threshold in **microseconds** (the unit
    /// statement timings are recorded in), after `NSQL_SLOW_QUERY_MS`
    /// resolution; `None` disables the slow-query log.
    pub fn slow_query_threshold_us(&self) -> Option<u64> {
        self.slow_query_threshold_us_in(&process_env)
    }

    fn slow_query_threshold_us_in(&self, env: Env) -> Option<u64> {
        let ms = self
            .slow_query_ms
            .or_else(|| env("NSQL_SLOW_QUERY_MS").and_then(|v| v.trim().parse::<u64>().ok()));
        ms.map(|ms| ms.saturating_mul(1000))
    }

    /// Resolve every environment-dependent knob once, at statement start.
    /// Everything downstream — dispatch, EXPLAIN header, statistics sample,
    /// slow-query log — reads the returned value, never the environment.
    pub(crate) fn resolve(&self) -> Result<Resolved> {
        self.resolve_in(&process_env)
    }

    fn resolve_in(&self, env: Env) -> Result<Resolved> {
        let strategy = self.strategy.resolve_in(env);
        let threads = match self.threads {
            0 => match env("NSQL_THREADS") {
                Some(v) => v.trim().parse().ok().filter(|&n: &usize| n >= 1).ok_or_else(|| {
                    DbError::Config(format!("bad NSQL_THREADS: {v:?} (want a positive integer)"))
                })?,
                None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            },
            n => n,
        };
        Ok(Resolved {
            strategy,
            // Batched evaluation never runs the vector kernels.
            vectorized: strategy != Strategy::Batched && self.exec_mode.vectorized_in(env),
            cache: self.cache.resolve_in(env),
            threads,
            slow_query_us: self.slow_query_threshold_us_in(env),
        })
    }

    /// The paper's baseline: nested iteration, cold buffer.
    pub fn nested_iteration() -> QueryOptions {
        QueryOptions {
            strategy: Strategy::NestedIteration,
            cold_start: true,
            ..QueryOptions::default()
        }
    }

    /// The paper's headline configuration: NEST-JA2 + merge joins.
    pub fn transformed_merge() -> QueryOptions {
        QueryOptions {
            strategy: Strategy::Transform,
            join_policy: JoinPolicy::ForceMergeJoin,
            cold_start: true,
            ..QueryOptions::default()
        }
    }

    /// Transformation with the cost-based method choice.
    pub fn transformed() -> QueryOptions {
        QueryOptions {
            strategy: Strategy::Transform,
            join_policy: JoinPolicy::CostBased,
            cold_start: true,
            ..QueryOptions::default()
        }
    }

    /// Batched correlated evaluation, cold buffer.
    pub fn batched() -> QueryOptions {
        QueryOptions {
            strategy: Strategy::Batched,
            cold_start: true,
            ..QueryOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake environment holding exactly `vars`.
    fn env_of<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| vars.iter().find(|(k, _)| *k == key).map(|(_, v)| v.to_string())
    }

    #[test]
    fn bad_thread_counts_are_typed_errors() {
        for bad in ["abc", "0", "-2", ""] {
            let vars = [("NSQL_THREADS", bad)];
            let err = QueryOptions::default().resolve_in(&env_of(&vars)).unwrap_err();
            assert!(
                matches!(&err, DbError::Config(m) if m.contains("NSQL_THREADS")),
                "{bad:?}: {err:?}"
            );
            // A pinned thread count never consults the variable.
            let pinned = QueryOptions { threads: 2, ..QueryOptions::default() };
            assert_eq!(pinned.resolve_in(&env_of(&vars)).unwrap().threads, 2);
        }
        let r = QueryOptions::default().resolve_in(&env_of(&[("NSQL_THREADS", " 3 ")])).unwrap();
        assert_eq!(r.threads, 3);
    }

    #[test]
    fn auto_knobs_resolve_from_the_given_env_only() {
        let unset = QueryOptions::default().resolve_in(&env_of(&[("NSQL_THREADS", "1")])).unwrap();
        assert_eq!(
            unset,
            Resolved {
                strategy: Strategy::Transform,
                vectorized: false,
                cache: CacheMode::Off,
                threads: 1,
                slow_query_us: None,
            }
        );
        let set = QueryOptions::default()
            .resolve_in(&env_of(&[
                ("NSQL_STRATEGY", "NI"),
                ("NSQL_EXEC_MODE", "vectorized"),
                ("NSQL_CACHE", "ON"),
                ("NSQL_THREADS", "4"),
                ("NSQL_SLOW_QUERY_MS", "7"),
            ]))
            .unwrap();
        assert_eq!(
            set,
            Resolved {
                strategy: Strategy::NestedIteration,
                vectorized: true,
                cache: CacheMode::On,
                threads: 4,
                slow_query_us: Some(7000),
            }
        );
        // Malformed values of the other knobs keep their documented
        // fallbacks rather than failing.
        let junk = QueryOptions::default()
            .resolve_in(&env_of(&[
                ("NSQL_STRATEGY", "fastest"),
                ("NSQL_EXEC_MODE", "simd"),
                ("NSQL_CACHE", "yes"),
                ("NSQL_THREADS", "1"),
                ("NSQL_SLOW_QUERY_MS", "soon"),
            ]))
            .unwrap();
        assert_eq!((junk.strategy, junk.vectorized), (Strategy::Transform, false));
        assert_eq!((junk.cache, junk.slow_query_us), (CacheMode::Off, None));
        // The retired `rewrite` value is just another unknown value.
        let rewrite = CacheMode::Auto.resolve_in(&env_of(&[("NSQL_CACHE", "rewrite")]));
        assert_eq!(rewrite, CacheMode::Off);
    }

    #[test]
    fn batched_never_resolves_vectorized() {
        let opts = QueryOptions { exec_mode: ExecMode::Vector, ..QueryOptions::batched() };
        let r = opts.resolve_in(&env_of(&[("NSQL_THREADS", "1")])).unwrap();
        assert_eq!((r.strategy, r.vectorized), (Strategy::Batched, false));
        // Pinned options ignore the env knobs entirely.
        let pinned = QueryOptions {
            strategy: Strategy::NestedIteration,
            exec_mode: ExecMode::Row,
            cache: CacheMode::Off,
            threads: 1,
            slow_query_ms: Some(5),
            ..QueryOptions::default()
        };
        let r = pinned
            .resolve_in(&env_of(&[
                ("NSQL_STRATEGY", "batched"),
                ("NSQL_EXEC_MODE", "vector"),
                ("NSQL_CACHE", "on"),
                ("NSQL_THREADS", "abc"),
                ("NSQL_SLOW_QUERY_MS", "9"),
            ]))
            .unwrap();
        assert_eq!(
            (r.strategy, r.vectorized, r.cache, r.threads, r.slow_query_us),
            (Strategy::NestedIteration, false, CacheMode::Off, 1, Some(5000))
        );
    }
}
