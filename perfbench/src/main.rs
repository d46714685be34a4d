//! `ocep-perfbench`: the OCEP serve-path benchmark.
//!
//! ```text
//! ocep-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the named workload's inputs from the seed, measures for
//! about the given seconds, gates every run's verdicts against the
//! in-process reference, and prints two JSON lines: a stamp (host,
//! build, seed, parameters, sample counts) and, last, the result
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Any mismatch
//! prints `correct: false` with no metrics and exits 1; a usage error
//! exits 2. See `README.md` beside this crate.

mod host;
mod metrics;
mod reference;
mod run;
mod served;
mod stats;
mod trace;
mod workload;

use ocep_bench::json::Json;
use std::path::PathBuf;
use workload::{generate, Spec, Workload};

const USAGE: &str = "usage: ocep-perfbench --workload <embedded-deadlock50|ingest-mpi-wal> \
                     --seed <n> --seconds <1-60> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u32 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("seconds must be 1 to 60, not {s}"));
                }
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A per-run scratch directory inside the checkout, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only when empty
        }
    }
}

fn spec_json(spec: &Spec) -> Json {
    Json::obj([
        ("traces", Json::from(spec.traces)),
        ("events_per_stream", Json::from(spec.events)),
        ("streams", Json::from(spec.streams)),
        ("cycle", Json::from(spec.cycle)),
        ("deadlock_prob", Json::from(spec.deadlock_prob)),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = Scratch(
        std::env::current_dir()
            .expect("working directory")
            .join(".perfbench-scratch")
            .join(format!("run-{}", std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("scratch {}: {e}", scratch.0.display());
        std::process::exit(2);
    }
    let spec = Spec::full(args.workload);
    let inputs = generate(spec, args.seed);
    let result = if args.trace {
        trace::traced(&inputs, args.seconds, &scratch.0)
    } else {
        run::end_to_end(&inputs, args.seconds, &scratch.0)
    };
    let expected: &[(&str, &str)] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let result = result.and_then(|o| {
        let got: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
        if got == expected {
            Ok(o)
        } else {
            Err((
                o,
                "the run's metrics differ from the metric dictionary".to_owned(),
            ))
        }
    });
    let (outcome, error) = match result {
        Ok(o) => (o, None),
        Err((o, e)) => (o, Some(e)),
    };
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let stamp = Json::obj([
        ("host", host::fingerprint()),
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("spec", spec_json(&spec)),
        ("run", Json::obj(outcome.params.iter().cloned())),
        ("fail_frac", Json::from(fail_frac)),
        (
            "samples",
            Json::obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name, Json::from(m.samples))),
            ),
        ),
    ]);
    println!("{}", Json::obj([("stamp", stamp)]));
    let correct = error.is_none() && outcome.failed == 0;
    let metrics = if correct {
        Json::obj(outcome.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
            )
        }))
    } else {
        Json::obj(Vec::<(&str, Json)>::new())
    };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(outcome.attempted.max(1))),
            ("failed", Json::from(outcome.failed)),
            ("metrics", metrics),
        ])
    );
    if !correct {
        eprintln!(
            "run failed: {}",
            error.unwrap_or_else(|| format!(
                "{} of {} events failed",
                outcome.failed, outcome.attempted
            ))
        );
        drop(scratch);
        std::process::exit(1);
    }
}
