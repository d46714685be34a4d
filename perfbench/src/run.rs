//! Untraced runs: the end-to-end metrics of each workload.

use crate::reference::{build_set, gate, replay, Fingerprint};
use crate::served::{self, Serving};
use crate::stats::{median, relative_spread, Samples};
use crate::workload::{Inputs, Workload};
use ocep_bench::json::Json;
use std::path::Path;
use std::time::Instant;

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// A finished run: its metrics plus the accounting the result line
/// reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Events the run offered to the system.
    pub attempted: u64,
    /// Events offered but not admitted.
    pub failed: u64,
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Run parameters for the stamp.
    pub params: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records the median and the windowed, guarded p99
    /// ([`Samples::windowed_tail`]) of `samples` under `p50` / `p99`.
    ///
    /// # Errors
    ///
    /// When a window leaves fewer than ten samples beyond its p99.
    pub fn latency(
        &mut self,
        p50: &'static str,
        p99: &'static str,
        samples: &Samples,
    ) -> Result<(), String> {
        let tail = samples.windowed_tail(0.99, p99)?;
        self.metric(p50, samples.p50(), "us", samples.len());
        self.metric(p99, tail, "us", samples.len());
        Ok(())
    }
}

/// Extra set-ups per served round beyond the saturating pass's, so the
/// reported set-up median rests on samples from the whole run.
const SETUP_REPEATS: usize = 30;

/// Extra in-process set-ups per embedded round (each is microseconds).
const EMBEDDED_SETUP_REPEATS: usize = 50;

/// Per-round figures of the detection latency: each round's p50 and
/// windowed p99. The run reports the median over rounds of each, so a
/// slow stretch of the host moves one round, not the run.
#[derive(Debug, Default)]
struct Rounds {
    p50: Vec<f64>,
    p99: Vec<f64>,
    samples: usize,
}

impl Rounds {
    /// Adds one round's samples.
    ///
    /// # Errors
    ///
    /// When the round's p99 window is too thin.
    fn add(&mut self, s: &Samples) -> Result<(), String> {
        self.p99.push(s.windowed_tail(0.99, "detect_p99_us")?);
        self.p50.push(s.p50());
        self.samples += s.len();
        Ok(())
    }
}

/// Runs `inputs`' workload for about `seconds` seconds.
///
/// # Errors
///
/// A failed correctness gate, a transport failure, or a percentile
/// with too thin a tail. The outcome's counts ride along so the caller
/// can report them.
pub fn end_to_end(
    inputs: &Inputs,
    seconds: f64,
    scratch: &Path,
) -> Result<Outcome, (Outcome, String)> {
    let mut out = Outcome::default();
    let result = match inputs.spec.workload {
        Workload::Embedded => embedded(inputs, seconds, &mut out),
        Workload::Ingest => served_run(inputs, seconds, scratch, &mut out),
    };
    match result {
        Ok(()) => Ok(out),
        Err(e) => Err((out, e)),
    }
}

/// Embedded: rounds until the run's time is spent. A round replays
/// every stream untimed through a fresh set (saturating; one throughput
/// figure per round), replays every stream again with each call timed
/// (the detection samples), and times extra set-ups.
fn embedded(inputs: &Inputs, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let mut firsts: Vec<Option<Fingerprint>> = vec![None; inputs.streams.len()];
    let mut check = |i: usize, fp: Fingerprint, what: &str| -> Result<(), String> {
        match &firsts[i] {
            None if fp.verdicts.is_empty() => Err(format!("stream {i}: no verdicts")),
            None => {
                firsts[i] = Some(fp);
                Ok(())
            }
            Some(first) => gate(&format!("{what}, stream {i}"), &fp, first),
        }
    };
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut detect = Rounds::default();
    let start = Instant::now();
    while rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // A round's rate is all its streams' events over their summed
        // walls, so no single stream sets the figure.
        let (mut events, mut wall) = (0usize, 0.0);
        let mut round = Samples::default();
        for timed in [false, true] {
            for (i, s) in inputs.streams.iter().enumerate() {
                let t0 = Instant::now();
                let set = build_set(inputs.n_traces, &inputs.patterns);
                setups.push(t0.elapsed().as_secs_f64());
                let r = replay(set, s, &[s.len()], timed);
                out.attempted += s.len() as u64;
                out.failed += s.len() as u64 - r.snapshots[0].admitted;
                if timed {
                    round.extend(&r.detect);
                } else {
                    events += s.len();
                    wall += r.wall_s;
                }
                check(i, r.snapshots[0].clone(), "in-process pass")?;
            }
        }
        rates.push(events as f64 / wall);
        detect.add(&round)?;
        for _ in 0..EMBEDDED_SETUP_REPEATS {
            let t0 = Instant::now();
            let set = build_set(inputs.n_traces, &inputs.patterns);
            setups.push(t0.elapsed().as_secs_f64());
            drop(set);
        }
    }
    out.params.push(("rounds", Json::from(rates.len())));
    finish_metrics(out, &rates, &detect, &setups)
}

fn finish_metrics(
    out: &mut Outcome,
    rates: &[f64],
    detect: &Rounds,
    setups: &[f64],
) -> Result<(), String> {
    out.metric("throughput_eps", median(rates), "1/s", rates.len());
    if let Some(spread) = relative_spread(rates) {
        out.params
            .push(("throughput_pass_spread", Json::from(spread)));
    }
    out.metric("detect_p50_us", median(&detect.p50), "us", detect.samples);
    out.metric("detect_p99_us", median(&detect.p99), "us", detect.samples);
    out.metric("setup_s", median(setups), "s", setups.len());
    out.metric("peak_rss_mb", crate::host::peak_rss_mb()?, "MiB", 1);
    Ok(())
}

/// Served: a warm-up replay of the reference, then rounds until the
/// run's time is spent. A round replays the reference with each call
/// timed (the detection samples, and a determinism check), runs one
/// saturating pass, and times extra set-ups.
fn served_run(
    inputs: &Inputs,
    seconds: f64,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let serving = Serving::of(inputs.spec.workload);
    let stream = &inputs.streams[0];
    // The first replay warms the allocator (history growth first-touches
    // fresh pages) and fixes the fingerprint every later run must hit.
    let set = build_set(inputs.n_traces, &inputs.patterns);
    let reference = replay(set, stream, &[stream.len()], false)
        .snapshots
        .remove(0);
    let mut wal_seq = 0;
    let mut wal_dir = || {
        wal_seq += 1;
        serving.wal.then(|| scratch.join(format!("wal-{wal_seq}")))
    };

    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut detect = Rounds::default();
    let start = Instant::now();
    while rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let set = build_set(inputs.n_traces, &inputs.patterns);
        let r = replay(set, stream, &[stream.len()], true);
        gate("reference replay", &r.snapshots[0], &reference)?;
        detect.add(&r.detect)?;

        out.attempted += stream.len() as u64;
        let pass = served::saturating(inputs, serving, wal_dir()).inspect_err(|_| {
            out.failed += stream.len() as u64;
        })?;
        account(out, &pass, stream.len())?;
        gate("saturating pass", &pass.fingerprint, &reference)?;
        rates.push(pass.sent as f64 / pass.wall_s);
        setups.push(pass.setup_s);
        for _ in 0..SETUP_REPEATS {
            setups.push(served::setup_only(inputs, wal_dir())?);
        }
    }
    out.params.push(("frame", Json::from(serving.frame)));
    out.params.push(("wal", Json::from(serving.wal)));
    out.params.push(("rounds", Json::from(rates.len())));
    finish_metrics(out, &rates, &detect, &setups)
}

/// Adds a pass's admission shortfall to the failure count; a pass that
/// lost events or degraded fails the run.
fn account(out: &mut Outcome, pass: &served::Pass, planned: usize) -> Result<(), String> {
    let lost = planned as u64 - pass.fingerprint.admitted.min(planned as u64);
    out.failed += lost;
    if lost > 0 || pass.sent != planned as u64 || pass.degraded {
        return Err(format!(
            "{} of {planned} events sent, {} admitted (degraded: {})",
            pass.sent, pass.fingerprint.admitted, pass.degraded
        ));
    }
    Ok(())
}
