//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_default --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Generates the named workload from the seed, drives its statements as one
//! closed-loop client, checks every answer against nested iteration's, and
//! prints one JSON line of metrics last. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs the stream untraced for half the time and
//! traced for the other half, reports the per-layer metrics, and writes
//! the spans to `.perfbench/spans-<workload>-<seed>.json`. See README.md.

mod runner;
mod stats;
mod sys;
mod trace;
mod workload;

use runner::{Metric, Phase};
use std::fmt::Write as _;
use std::time::Instant;
use workload::{Kind, Workload};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(&value).ok_or_else(|| {
                        let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                        format!("unknown workload {value}; one of {}", names.join(", "))
                    })?)
                }
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(seconds > 0.0 && seconds <= 100.0) {
                        return Err(bad(&"must lie in (0, 100]"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let kind = kind.ok_or("--workload is required")?;
        Ok(Args {
            kind,
            seed,
            seconds,
            trace,
        })
    }
}

/// Engine settings that resolve from the environment in the middle of a
/// query; a run with any of them set would not measure the pinned options.
fn nsql_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NSQL_"))
        .collect()
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run() -> Result<i32, String> {
    let started = Instant::now();
    let args = Args::parse(std::env::args().skip(1))?;
    let set = nsql_env();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set; unset every NSQL_* variable",
            set.join(", ")
        ));
    }
    let nproc = sys::nproc();
    let w = Workload::build(args.kind, args.seed, nproc)?;
    let (selects, inserts) = w.counts();
    println!(
        "# run: workload={} seed={} trace={} nproc={} threads={} commit={}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        nproc,
        w.threads,
        sys::commit()
    );
    println!(
        "# pass: {} statements ({selects} SELECT, {inserts} INSERT), {} empty expected answers",
        w.steps.len(),
        w.empty_answers()
    );
    let (plain, traced, metrics) = if args.trace {
        let half = args.seconds / 2.0;
        let min_inserts = if inserts > 0 {
            stats::samples_needed(90)
        } else {
            0
        };
        let plain = runner::run_plain(
            &w,
            &Phase {
                seconds: half,
                min_selects: stats::samples_needed(50),
                min_inserts,
            },
            started,
        )?;
        let mut tr = trace::Tracer::default();
        let mut layers = runner::Layers::default();
        let phase = Phase {
            seconds: half,
            min_selects: stats::samples_needed(50),
            min_inserts: 0,
        };
        let traced = runner::run_traced(&w, &phase, started, &mut tr, &mut layers)?;
        let metrics = runner::per_layer(&plain, &traced, &layers, &tr)?;
        let path = sys::out_dir()?.join(format!("spans-{}-{}.json", args.kind.name(), args.seed));
        let header = [
            ("workload", args.kind.name().to_string()),
            ("seed", args.seed.to_string()),
        ];
        std::fs::write(&path, tr.to_json(&header))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "# trace: {} spans written to {}",
            tr.spans().len(),
            path.display()
        );
        (plain, Some(traced), metrics)
    } else {
        let phase = Phase {
            seconds: args.seconds,
            min_selects: stats::samples_needed(99),
            min_inserts: 0,
        };
        let plain = runner::run_plain(&w, &phase, started)?;
        let metrics = plain.end_to_end()?;
        (plain, None, metrics)
    };
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    for (label, t) in [("untraced", Some(&plain)), ("traced", traced.as_ref())] {
        let Some(t) = t else { continue };
        println!(
            "# {label}: {} passes, {} statements ({} SELECT, {} INSERT), {} failed, \
             {:.3} s wall ({:.3} s scaled, median scale {:.4})",
            t.passes,
            t.attempted,
            t.select_ms.len(),
            t.insert_ms.len(),
            t.failed,
            t.raw_measured_s,
            t.measured_s,
            stats::median(&t.scales)
        );
    }
    if let Some(t) = &traced {
        attempted += t.attempted;
        failed += t.failed;
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    Ok(if failed == 0 { 0 } else { 1 })
}

fn main() {
    let code = run().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        2
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload ingest_mixed --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                kind: Kind::IngestMixed,
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err(), "workload is required");
        assert!(args("--workload paper_default --trace 2").is_err());
        assert!(args("--workload paper_default --seconds").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let line = result_line(true, 3, 0, &[("a", 1.5, "ms"), ("b", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"ms\"},\"b\":{\"value\":0,\"unit\":\"s\"}}}"
        );
    }
}
