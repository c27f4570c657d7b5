//! A tiny `harness = false` micro-benchmark timer.
//!
//! API shape mirrors the slice of Criterion the workspace once used —
//! `group` / `bench_function` / `iter` — with none of the registry
//! dependencies.
//!
//! Behaviour:
//!
//! * **warmup** — each benchmark runs untimed until ~100 ms (at least 2
//!   iterations) before sampling, so cold caches don't pollute sample 0;
//! * **median-of-N** — N timed samples (default 10; env
//!   `NSQL_BENCH_SAMPLES`, a positive integer, overrides it), reported as
//!   `median (min … max)`. Medians resist scheduler noise without
//!   criterion's bootstrap machinery;
//! * **JSON** — with `NSQL_BENCH_JSON=<path>`, appends one JSON object per
//!   benchmark (group, name, nanosecond stats) for scripting;
//! * **test mode** — cargo runs `harness = false` bench targets during
//!   `cargo test` passing `--test`: each closure then runs once, untimed,
//!   as a smoke test, keeping tier-1 fast while still executing the code.

pub use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Timed samples per benchmark unless `NSQL_BENCH_SAMPLES` overrides it.
const DEFAULT_SAMPLES: usize = 10;

/// Top-level bench context; create one per bench binary via
/// [`Bench::from_env`].
pub struct Bench {
    test_mode: bool,
    samples: usize,
    json_path: Option<String>,
}

impl Bench {
    /// Build from process args (`--test` → smoke mode) and environment
    /// (`NSQL_BENCH_SAMPLES`, `NSQL_BENCH_JSON`).
    pub fn from_env() -> Bench {
        let test_mode = std::env::args().any(|a| a == "--test");
        let samples =
            std::env::var("NSQL_BENCH_SAMPLES").map_or(DEFAULT_SAMPLES, |v| parse_samples(&v));
        Bench { test_mode, samples, json_path: std::env::var("NSQL_BENCH_JSON").ok() }
    }

    /// Start a named group of benchmarks.
    pub fn group(&mut self, name: &str) -> BenchGroup<'_> {
        if !self.test_mode {
            println!("── {name}");
        }
        BenchGroup { bench: self, name: name.to_string() }
    }
}

/// A positive sample count; anything else (including `0`, which leaves no
/// sample to take a median of) is rejected naming the variable.
fn parse_samples(v: &str) -> usize {
    v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| panic!("bad NSQL_BENCH_SAMPLES: {v}"))
}

/// A named group of related benchmarks.
pub struct BenchGroup<'a> {
    bench: &'a mut Bench,
    name: String,
}

impl BenchGroup<'_> {
    /// Run one benchmark. The closure receives a [`Bencher`] and must call
    /// [`Bencher::iter`] exactly once with the code under measurement.
    pub fn bench_function(&mut self, id: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let samples = self.bench.samples;
        let mut b = Bencher { mode: if self.bench.test_mode { Mode::Smoke } else { Mode::Measure { samples } }, stats: None };
        f(&mut b);
        match (self.bench.test_mode, b.stats) {
            (true, _) => println!("smoke {}/{id} ... ok", self.name),
            (false, Some(stats)) => {
                println!(
                    "  {id:<28} {:>12} ({} … {}) n={samples}",
                    fmt_ns(stats.median_ns),
                    fmt_ns(stats.min_ns),
                    fmt_ns(stats.max_ns),
                );
                if let Some(path) = &self.bench.json_path {
                    let line = format!(
                        "{{\"group\":\"{}\",\"bench\":\"{}\",\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"samples\":{}}}\n",
                        self.name, id, stats.median_ns, stats.min_ns, stats.max_ns, samples
                    );
                    std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(path)
                        .and_then(|mut f| f.write_all(line.as_bytes()))
                        .unwrap_or_else(|e| panic!("cannot write NSQL_BENCH_JSON={path}: {e}"));
                }
            }
            (false, None) => panic!("benchmark '{id}' never called Bencher::iter"),
        }
        self
    }
}

enum Mode {
    Smoke,
    Measure { samples: usize },
}

struct Stats {
    median_ns: u128,
    min_ns: u128,
    max_ns: u128,
}

/// Handed to the benchmark closure; drives warmup and sampling.
pub struct Bencher {
    mode: Mode,
    stats: Option<Stats>,
}

impl Bencher {
    /// Measure `f`: warm up, then time `samples` runs and record
    /// median/min/max. In smoke mode, runs `f` once.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        match self.mode {
            Mode::Smoke => {
                black_box(f());
            }
            Mode::Measure { samples } => {
                // Warmup: at least 2 iterations, until ~100 ms elapses.
                let warm_start = Instant::now();
                let mut warm_iters = 0u32;
                while warm_iters < 2 || warm_start.elapsed() < Duration::from_millis(100) {
                    black_box(f());
                    warm_iters += 1;
                    if warm_iters >= 10_000 {
                        break;
                    }
                }
                let mut times: Vec<u128> = (0..samples)
                    .map(|_| {
                        let t = Instant::now();
                        black_box(f());
                        t.elapsed().as_nanos()
                    })
                    .collect();
                times.sort_unstable();
                self.stats = Some(Stats {
                    median_ns: times[times.len() / 2],
                    min_ns: times[0],
                    max_ns: times[times.len() - 1],
                });
            }
        }
    }
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.500 µs");
        assert_eq!(fmt_ns(2_000_000), "2.000 ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.200 s");
    }

    #[test]
    fn sample_count_parses_positive_integers() {
        assert_eq!(parse_samples("1"), 1);
        assert_eq!(parse_samples("25"), 25);
    }

    #[test]
    #[should_panic(expected = "bad NSQL_BENCH_SAMPLES: 0")]
    fn zero_samples_are_rejected() {
        parse_samples("0");
    }

    #[test]
    #[should_panic(expected = "bad NSQL_BENCH_SAMPLES: ten")]
    fn non_numeric_samples_are_rejected() {
        parse_samples("ten");
    }

    #[test]
    fn measure_mode_produces_ordered_stats() {
        let mut b = Bencher { mode: Mode::Measure { samples: 5 }, stats: None };
        b.iter(|| std::thread::sleep(Duration::from_micros(50)));
        let s = b.stats.expect("stats recorded");
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        assert!(s.min_ns >= 50_000, "sleep(50µs) cannot take less");
    }
}
