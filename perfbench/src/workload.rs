//! The three workloads: generated data, the statement stream of one pass,
//! the pinned query options, and the expected answer of every SELECT.
//!
//! Everything here is a pure function of the workload and the seed; the
//! engine only ever sees the generated rows and SQL text.

use nsql_db::{CacheMode, Database, ExecMode, QueryOptions, Strategy};
use nsql_testkit::Rng;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};
use std::path::Path;
use std::sync::Arc;

/// Buffer pool pages and page size: the paper's `B = 6` at 512-byte pages.
const BUFFER_PAGES: usize = 6;
/// Page size in bytes.
const PAGE_SIZE: usize = 512;
/// `PARTS` rows (`Ni`).
const OUTER_TUPLES: usize = 1000;
/// `SUPPLY` rows (`Nj`).
const INNER_TUPLES: usize = 1500;
/// `GRP = 0` keeps one outer row in `GRP_MOD`: `f(i)·Ni = 100`.
const GRP_MOD: i64 = 10;
/// Share of `SUPPLY.PNUM` values that exist in `PARTS`.
const MATCH_FRACTION: f64 = 0.8;
/// Distinct `PARTS.PNUM` values in `correlated_dup`. The 100 `GRP = 0`
/// rows carry 6 distinct bindings, each 16 or 17 times.
const DUP_DISTINCT: usize = 12;
/// Columns per row, all `Int`: the user bytes of a row are `8 · COLUMNS`.
const COLUMNS: u64 = 4;
/// Bytes of one `Int` value.
const INT_BYTES: u64 = 8;

/// Full cycles through the shapes in one `paper_default` pass.
const PAPER_CYCLES: usize = 10;
/// Full cycles through the shapes (each issued twice) in one
/// `correlated_dup` pass.
const DUP_CYCLES: usize = 2;
/// INSERT rounds in one `ingest_mixed` pass.
const INGEST_ROUNDS: usize = 16;
/// SUPPLY rows per INSERT.
const ROWS_PER_INSERT: usize = 5;
/// Times each SELECT pair is repeated after an INSERT.
const INGEST_REPEATS: usize = 3;

/// Type-N: membership in a large uncorrelated list.
const TYPE_N: &str =
    "SELECT PNUM FROM PARTS WHERE SERIAL IN (SELECT TAG FROM SUPPLY WHERE EPOCH < 34)";
/// Type-J: correlated membership.
const TYPE_J: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
    (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
/// Type-JA with COUNT (the COUNT-bug shape).
const TYPE_JA_COUNT: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
    (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)";

/// `paper_default`: shapes the default strategy (the NEST-G transform)
/// answers with nested iteration's answer. Type-J, the paper's central
/// shape, is issued three times a cycle: type-J and type-N take the same
/// time, and the three copies put the median latency in the middle of
/// that one tight cluster. With every shape once, it fell in a gap
/// between shapes and jumped by 15% from run to run.
const PAPER_SHAPES: [(&str, &str); 11] = [
    (
        "type-A",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH <= \
         (SELECT MIN(QUAN) FROM SUPPLY WHERE EPOCH < 5)",
    ),
    ("type-N", TYPE_N),
    ("type-J IN", TYPE_J),
    ("type-JA COUNT", TYPE_JA_COUNT),
    (
        // `<`, not `=`: with `=` one seed in ten has an empty answer.
        "type-JA MAX",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH < \
         (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)",
    ),
    ("type-J IN", TYPE_J),
    (
        "EXISTS",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND EXISTS \
         (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 10)",
    ),
    (
        "NOT EXISTS",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND NOT EXISTS \
         (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 10)",
    ),
    (
        "> ANY",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH > ANY \
         (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
    ),
    ("type-J IN", TYPE_J),
    (
        "non-equality JA",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
         (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM AND EPOCH < 1)",
    ),
];

/// `correlated_dup`: shapes the default transform refuses or answers only
/// under a divergence license. The `EPOCH` bounds keep about three inner
/// rows per binding, so COUNT, ALL and NOT IN answers are not empty. An
/// EXISTS answer is all or nothing per binding, and there are only six, so
/// `SUPPLY.PNUM < 6` splits them three and three whatever the seed.
const DUP_SHAPES: [(&str, &str); 7] = [
    (
        "type-J IN",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
         (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 3)",
    ),
    (
        "type-J NOT IN",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH NOT IN \
         (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 3)",
    ),
    (
        "type-JA COUNT",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
         (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 3)",
    ),
    (
        "EXISTS",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND EXISTS \
         (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.PNUM < 6)",
    ),
    (
        "NOT EXISTS",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND NOT EXISTS \
         (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.PNUM < 6)",
    ),
    (
        "< ALL",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH < ALL \
         (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 3)",
    ),
    (
        "two-level COUNT over IN",
        "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
         (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 3 \
          AND QUAN IN (SELECT QOH FROM PARTS P2 WHERE P2.GRP = 1))",
    ),
];

/// `ingest_mixed`: the SELECTs repeated after every INSERT.
const INGEST_SHAPES: [(&str, &str); 2] = [("type-J IN", TYPE_J), ("type-JA COUNT", TYPE_JA_COUNT)];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Default options on the paper's shapes: the transform does the work.
    PaperDefault,
    /// Duplicate-heavy bindings: the per-binding inner loop does the work.
    CorrelatedDup,
    /// INSERTs beside reads on the file backend with an index and the
    /// result cache.
    IngestMixed,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::PaperDefault, Kind::CorrelatedDup, Kind::IngestMixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperDefault => "paper_default",
            Kind::CorrelatedDup => "correlated_dup",
            Kind::IngestMixed => "ingest_mixed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// `QueryOptions::threads` before capping at the host's parallelism.
    fn pinned_threads(self) -> usize {
        match self {
            Kind::CorrelatedDup => 2,
            Kind::PaperDefault | Kind::IngestMixed => 1,
        }
    }

    /// Whether the database sits on the file backend.
    pub fn durable(self) -> bool {
        self == Kind::IngestMixed
    }
}

/// How a SELECT is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload's default options (strategy resolves to the transform).
    Default,
    /// Nested iteration with the vector exec mode.
    NiVec,
    /// Batched correlated evaluation.
    Batched,
}

impl Mode {
    /// The correctness gate: whether `got` passes against nested
    /// iteration's `expected` answer. Nested iteration and batched
    /// evaluation promise its bag; the transform promises its set only
    /// (KimFaithful duplicates, DESIGN.md "Oracle semantics").
    pub fn accepts(self, got: &Relation, expected: &Relation) -> bool {
        match self {
            Mode::Default => got.same_set(expected),
            Mode::NiVec | Mode::Batched => got.same_bag(expected),
        }
    }
}

/// One statement of a pass.
#[derive(Debug, Clone)]
pub enum Step {
    /// A SELECT and nested iteration's answer to it at this point of the
    /// pass.
    Select {
        /// Shape label.
        shape: &'static str,
        /// Evaluation mode.
        mode: Mode,
        /// SQL text.
        sql: &'static str,
        /// Expected answer.
        expected: Arc<Relation>,
    },
    /// An INSERT of a few SUPPLY rows.
    Insert {
        /// SQL text.
        sql: String,
        /// Bytes of user data it inserts.
        user_bytes: u64,
    },
}

/// The generated base tables.
pub struct Tables {
    /// `PARTS(PNUM, QOH, GRP, SERIAL)`.
    pub parts: Relation,
    /// `SUPPLY(PNUM, QUAN, EPOCH, TAG)`.
    pub supply: Relation,
}

impl Tables {
    /// User bytes of all rows.
    pub fn user_bytes(&self) -> u64 {
        (self.parts.len() + self.supply.len()) as u64 * COLUMNS * INT_BYTES
    }
}

/// Kim-scale `PARTS` and `SUPPLY` (`Pi ≈ 67`, `Pj ≈ 100` pages), drawn in the
/// same order as `nsql_bench::workload::ja_workload` (`distinct = None`) and
/// `dup_workload` (`Some(D)`), so a seed gives the same rows as there.
pub fn generate(seed: u64, distinct: Option<usize>) -> Tables {
    let mut rng = Rng::from_seed(seed);
    let wide = (INNER_TUPLES as i64 * 20).max(1000);
    let parts_schema = Schema::new(vec![
        Column::new("PNUM", ColumnType::Int),
        Column::new("QOH", ColumnType::Int),
        Column::new("GRP", ColumnType::Int),
        Column::new("SERIAL", ColumnType::Int),
    ]);
    let supply_schema = Schema::new(vec![
        Column::new("PNUM", ColumnType::Int),
        Column::new("QUAN", ColumnType::Int),
        Column::new("EPOCH", ColumnType::Int),
        Column::new("TAG", ColumnType::Int),
    ]);
    let pnum = |i: usize| match distinct {
        Some(d) => (i % d.max(1)) as i64,
        None => i as i64,
    };
    let mut parts = Vec::with_capacity(OUTER_TUPLES);
    for i in 0..OUTER_TUPLES {
        parts.push(Tuple::new(vec![
            Value::Int(pnum(i)),
            Value::Int(rng.gen_range(0..6)),
            Value::Int(i as i64 % GRP_MOD),
            Value::Int(rng.gen_range(0..wide)),
        ]));
    }
    let supply_pnums = match distinct {
        Some(d) => d.max(1) as i64,
        None => (OUTER_TUPLES as f64 / MATCH_FRACTION).ceil() as i64,
    };
    let mut supply = Vec::with_capacity(INNER_TUPLES);
    for _ in 0..INNER_TUPLES {
        supply.push(supply_row(&mut rng, supply_pnums, wide));
    }
    Tables {
        parts: Relation::new(parts_schema, parts).expect("PARTS rows match the schema"),
        supply: Relation::new(supply_schema, supply).expect("SUPPLY rows match the schema"),
    }
}

fn supply_row(rng: &mut Rng, pnums: i64, wide: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(rng.gen_range(0..pnums)),
        Value::Int(rng.gen_range(0..20)),
        Value::Int(rng.gen_range(0..100)),
        Value::Int(rng.gen_range(0..wide)),
    ])
}

/// The INSERT statements of one `ingest_mixed` pass, drawn from their own
/// stream of the seed.
fn inserts(seed: u64) -> Vec<String> {
    let mut rng = Rng::from_seed(seed ^ 0x9E37_79B9_7F4A_7C15);
    let pnums = (OUTER_TUPLES as f64 / MATCH_FRACTION).ceil() as i64;
    let wide = (INNER_TUPLES as i64 * 20).max(1000);
    (0..INGEST_ROUNDS)
        .map(|_| {
            let rows: Vec<String> = (0..ROWS_PER_INSERT)
                .map(|_| {
                    let vals: Vec<String> = supply_row(&mut rng, pnums, wide)
                        .values()
                        .iter()
                        .map(|v| v.to_string())
                        .collect();
                    format!("({})", vals.join(", "))
                })
                .collect();
            format!("INSERT INTO SUPPLY VALUES {}", rows.join(", "))
        })
        .collect()
}

/// A workload instantiated at one seed: its pass and its options.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The seed everything is drawn from.
    pub seed: u64,
    /// `QueryOptions::threads` of every SELECT: the pinned count, capped at
    /// the host's parallelism.
    pub threads: usize,
    /// The statements of one pass, in order. Every pass starts from a
    /// freshly set-up database, so every pass sees the same answers.
    pub steps: Vec<Step>,
}

impl Workload {
    /// Instantiate `kind` at `seed` and compute every expected answer with
    /// nested iteration (row mode, cache off) on a separate in-memory copy
    /// of the data. Untimed.
    pub fn build(kind: Kind, seed: u64, nproc: usize) -> Result<Workload, String> {
        let mut w = Workload {
            kind,
            seed,
            threads: kind.pinned_threads().min(nproc.max(1)),
            steps: Vec::new(),
        };
        let mut oracle = w.memory_db()?;
        let opts = QueryOptions {
            strategy: Strategy::NestedIteration,
            exec_mode: ExecMode::Row,
            cache: CacheMode::Off,
            threads: nproc.clamp(1, 2),
            ..QueryOptions::default()
        };
        let expect = |db: &Database, sql: &str| -> Result<Arc<Relation>, String> {
            db.query_with(sql, &opts)
                .map(|o| Arc::new(o.relation))
                .map_err(|e| format!("oracle failed on {sql}: {e}"))
        };
        match kind {
            Kind::PaperDefault | Kind::CorrelatedDup => {
                let (shapes, modes, cycles): (&[(&str, &str)], &[Mode], usize) =
                    if kind == Kind::PaperDefault {
                        (&PAPER_SHAPES, &[Mode::Default], PAPER_CYCLES)
                    } else {
                        (&DUP_SHAPES, &[Mode::NiVec, Mode::Batched], DUP_CYCLES)
                    };
                let mut cycle = Vec::new();
                for &(shape, sql) in shapes {
                    let expected = expect(&oracle, sql)?;
                    for &mode in modes {
                        cycle.push(Step::Select {
                            shape,
                            mode,
                            sql,
                            expected: Arc::clone(&expected),
                        });
                    }
                }
                for _ in 0..cycles {
                    w.steps.extend(cycle.iter().cloned());
                }
            }
            Kind::IngestMixed => {
                for sql in inserts(seed) {
                    oracle
                        .execute_script(&sql)
                        .map_err(|e| format!("oracle INSERT: {e}"))?;
                    let user_bytes = (ROWS_PER_INSERT as u64) * COLUMNS * INT_BYTES;
                    w.steps.push(Step::Insert { sql, user_bytes });
                    let mut round = Vec::new();
                    for &(shape, sql) in &INGEST_SHAPES {
                        let expected = expect(&oracle, sql)?;
                        for mode in [Mode::Default, Mode::NiVec] {
                            round.push(Step::Select {
                                shape,
                                mode,
                                sql,
                                expected: Arc::clone(&expected),
                            });
                        }
                    }
                    for _ in 0..INGEST_REPEATS {
                        w.steps.extend(round.iter().cloned());
                    }
                }
            }
        }
        Ok(w)
    }

    /// The query options of `mode` on this workload.
    pub fn options(&self, mode: Mode) -> QueryOptions {
        let cache = if self.kind == Kind::IngestMixed {
            CacheMode::On
        } else {
            CacheMode::Off
        };
        let base = match self.kind {
            // The defaults a user gets without tuning, threads pinned.
            Kind::PaperDefault => QueryOptions::default(),
            Kind::CorrelatedDup | Kind::IngestMixed => QueryOptions {
                cache,
                ..QueryOptions::default()
            },
        };
        let strategy = match mode {
            Mode::Default => base.strategy,
            Mode::NiVec => Strategy::NestedIteration,
            Mode::Batched => Strategy::Batched,
        };
        let exec_mode = if mode == Mode::Default {
            base.exec_mode
        } else {
            ExecMode::Vector
        };
        QueryOptions {
            strategy,
            exec_mode,
            threads: self.threads,
            ..base
        }
    }

    /// The generated base tables.
    pub fn tables(&self) -> Tables {
        let distinct = (self.kind == Kind::CorrelatedDup).then_some(DUP_DISTINCT);
        generate(self.seed, distinct)
    }

    /// Set up the database a pass runs on: generate the rows, open the
    /// store (the file backend in `dir` for durable workloads), load both
    /// tables, and build the `SUPPLY.PNUM` index where the workload has one.
    pub fn setup(&self, dir: Option<&Path>) -> Result<Database, String> {
        match dir {
            Some(dir) if self.kind.durable() => {
                let tables = self.tables();
                let mut db = Database::open_with(BUFFER_PAGES, PAGE_SIZE, dir)
                    .map_err(|e| format!("open {}: {e}", dir.display()))?;
                load(&mut db, &tables)?;
                db.catalog_mut()
                    .create_index("SUPPLY", "PNUM")
                    .map_err(|e| format!("create index: {e}"))?;
                Ok(db)
            }
            Some(_) => Err(format!("{} runs on the memory backend", self.kind.name())),
            None if self.kind.durable() => {
                Err(format!("{} needs a data directory", self.kind.name()))
            }
            None => self.memory_db(),
        }
    }

    fn memory_db(&self) -> Result<Database, String> {
        let mut db = Database::with_storage(BUFFER_PAGES, PAGE_SIZE);
        load(&mut db, &self.tables())?;
        Ok(db)
    }

    /// SELECTs and INSERTs in one pass.
    pub fn counts(&self) -> (usize, usize) {
        let inserts = self
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Insert { .. }))
            .count();
        (self.steps.len() - inserts, inserts)
    }

    /// Expected answers of the pass that are empty (an empty answer checks
    /// nothing, so the workloads are sized to avoid them).
    pub fn empty_answers(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Select { expected, .. } if expected.is_empty()))
            .count()
    }
}

fn load(db: &mut Database, tables: &Tables) -> Result<(), String> {
    for (name, rel) in [("PARTS", &tables.parts), ("SUPPLY", &tables.supply)] {
        db.catalog_mut()
            .load_table(name, rel)
            .map_err(|e| format!("load {name}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_seeds_give_different_data() {
        for distinct in [None, Some(DUP_DISTINCT)] {
            let a = generate(42, distinct);
            let b = generate(42, distinct);
            let c = generate(43, distinct);
            assert!(a.parts.same_bag(&b.parts) && a.supply.same_bag(&b.supply));
            assert!(
                !a.supply.same_bag(&c.supply),
                "the seed must steer the generator"
            );
        }
        assert_eq!(inserts(42), inserts(42));
        assert_ne!(inserts(42), inserts(43));
    }

    #[test]
    fn gate_compares_bags_or_sets_by_mode() {
        let t = generate(42, None);
        let rows = t.parts.tuples()[..3].to_vec();
        let once = Relation::new(t.parts.schema().clone(), rows.clone()).unwrap();
        let doubled = [rows.clone(), rows].concat();
        let twice = Relation::new(t.parts.schema().clone(), doubled).unwrap();
        assert!(Mode::Default.accepts(&twice, &once));
        assert!(!Mode::NiVec.accepts(&twice, &once));
        assert!(!Mode::Batched.accepts(&twice, &once));
        assert!(Mode::Batched.accepts(&once, &once));
    }

    #[test]
    fn kim_scale_page_counts() {
        let w = Workload {
            kind: Kind::PaperDefault,
            seed: 42,
            threads: 1,
            steps: Vec::new(),
        };
        let db = w.setup(None).unwrap();
        let pages = |t: &str| db.catalog().table(t).unwrap().page_count();
        assert!(
            (60..=75).contains(&pages("PARTS")),
            "Pi = {}",
            pages("PARTS")
        );
        assert!(
            (90..=110).contains(&pages("SUPPLY")),
            "Pj = {}",
            pages("SUPPLY")
        );
    }

    #[test]
    fn options_are_pinned() {
        for kind in Kind::ALL {
            let w = Workload {
                kind,
                seed: 42,
                threads: kind.pinned_threads(),
                steps: Vec::new(),
            };
            for mode in [Mode::Default, Mode::NiVec, Mode::Batched] {
                let o = w.options(mode);
                assert!((1..=2).contains(&o.threads));
                assert_eq!(o.cache.enabled(), kind == Kind::IngestMixed);
            }
        }
        assert_eq!(Kind::parse("ingest_mixed"), Some(Kind::IngestMixed));
        assert_eq!(Kind::parse("nope"), None);
    }
}
