//! The served path: a loopback [`Server`] in this process, fed by one
//! producer [`Client`] on the benchmark thread.

use crate::reference::{build_set, coords, Fingerprint};
use crate::stats::Samples;
use crate::workload::{Inputs, Workload};
use ocep_net::{Client, ServeConfig, ServeReport, Server};
use ocep_poet::Event;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How a workload is served (always to the single engine).
#[derive(Debug, Clone, Copy)]
pub struct Serving {
    /// Journal to a durable log at the default durability.
    pub wal: bool,
    /// Events per frame in the saturating phase.
    pub frame: usize,
    /// Events per frame in the paced phase.
    pub paced_frame: usize,
    /// The paced phase's constant offered load, events per second,
    /// fixed here and never derived at run time, so a faster program
    /// meets the same load. Chosen on a 2-vCPU Xeon VM at about a fifth
    /// (served) and an eighth (in-process) of the saturating
    /// throughput there: the VM slowed by up to 2x for minutes at a
    /// time, and nearer the knee that tipped whole runs into a growing
    /// backlog, so the latencies stopped repeating.
    pub paced_rate: f64,
}

impl Serving {
    /// The serving configuration of `w`. The embedded workload is never
    /// served for its end-to-end figures; its traced run serves it on
    /// the single engine without a log to check transport transparency.
    #[must_use]
    pub fn of(w: Workload) -> Serving {
        match w {
            Workload::Embedded => Serving {
                wal: false,
                frame: 1024,
                paced_frame: 64,
                paced_rate: 100_000.0,
            },
            Workload::Ingest => Serving {
                wal: true,
                frame: 1024,
                paced_frame: 512,
                paced_rate: 60_000.0,
            },
        }
    }
}

/// Producer session name the benchmark connects under.
pub const SESSION: &str = "perfbench";

struct Session {
    server: Server,
    client: Client,
    wal_dir: Option<PathBuf>,
    setup_s: f64,
}

/// The serve configuration of `inputs`' monitors, logging to `wal_dir`
/// when given.
#[must_use]
pub fn config(inputs: &Inputs, wal_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        wal_dir,
        pattern_sources: inputs
            .patterns
            .iter()
            .map(|r| (r.name.clone(), r.source.clone()))
            .collect(),
        ..ServeConfig::default()
    }
}

/// Everything up to the first event: pattern compile, set build, bind
/// (opening an empty log directory), connect.
fn open(inputs: &Inputs, wal_dir: Option<PathBuf>) -> Result<Session, String> {
    let start = Instant::now();
    let set = build_set(inputs.n_traces, &inputs.patterns);
    let config = config(inputs, wal_dir.clone());
    let server = Server::bind("127.0.0.1:0", set, config).map_err(|e| format!("bind: {e}"))?;
    let client = Client::connect(&server.addr().to_string(), inputs.n_traces, SESSION)
        .map_err(|e| format!("connect: {e}"))?;
    Ok(Session {
        server,
        client,
        wal_dir,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// Shuts the session down and returns the server's report plus the
/// bytes its log wrote.
fn close(s: Session) -> Result<(ServeReport, u64), String> {
    let handle = s.server.handle();
    let shutdown = s.client.shutdown();
    if shutdown.is_err() {
        // The producer could not ask; stop the server locally so the
        // join below cannot wait forever.
        handle.shutdown();
    }
    let report = s.server.join();
    shutdown.map_err(|e| format!("shutdown: {e}"))?;
    let bytes = s.wal_dir.as_deref().map_or(0, dir_bytes);
    if let Some(d) = &s.wal_dir {
        std::fs::remove_dir_all(d).map_err(|e| format!("remove {}: {e}", d.display()))?;
    }
    Ok((report, bytes))
}

/// Total size of every file under `dir`, recursively.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The served run's fingerprint, from its final report.
#[must_use]
pub fn fingerprint(report: &ServeReport) -> Fingerprint {
    Fingerprint {
        verdicts: report
            .verdicts
            .iter()
            .map(|(n, m)| (n.clone(), coords(m)))
            .collect(),
        subsets: report.subsets.clone(),
        admitted: report.stats.admitted,
    }
}

/// One served pass's measurements.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Input handed over (recording text, when parsed) until the final
    /// `StatsReport` returned, seconds.
    pub wall_s: f64,
    /// First frame sent until the final `StatsReport`, seconds.
    pub send_wall_s: f64,
    /// Time spent inside `send_batch` (credit waits included), seconds.
    pub blocked_s: f64,
    /// Events sent.
    pub sent: u64,
    /// What the server reported.
    pub fingerprint: Fingerprint,
    /// Whether the guard reported a degraded stream.
    pub degraded: bool,
    /// Log bytes on disk after shutdown.
    pub wal_bytes: u64,
    /// Per-frame commit latency (µs) in the paced phase.
    pub commit: Samples,
    /// Per-frame generator lateness (µs) in the paced phase.
    pub late: Samples,
}

fn finish(mut pass: Pass, session: Session) -> Result<Pass, String> {
    let (report, bytes) = close(session)?;
    pass.fingerprint = fingerprint(&report);
    pass.degraded = report.stats.degraded;
    pass.wal_bytes = bytes;
    Ok(pass)
}

/// Set-up only: opens a session and closes it without sending.
///
/// # Errors
///
/// Transport failures.
pub fn setup_only(inputs: &Inputs, wal_dir: Option<PathBuf>) -> Result<f64, String> {
    let s = open(inputs, wal_dir)?;
    let setup = s.setup_s;
    close(s)?;
    Ok(setup)
}

/// The saturating phase: every event, in `serving.frame`-event frames
/// under the default credit window. When the inputs carry recording
/// text, the clock starts before the parse.
///
/// # Errors
///
/// Parse or transport failures.
pub fn saturating(
    inputs: &Inputs,
    serving: Serving,
    wal_dir: Option<PathBuf>,
) -> Result<Pass, String> {
    let mut session = open(inputs, wal_dir)?;
    let start = Instant::now();
    let events: Cow<[Event]> = match &inputs.text {
        Some(text) => Cow::Owned(
            ocep_adapters::by_name("mpi")
                .expect("mpi adapter registered")
                .parse_str(text)
                .map_err(|e| format!("parse: {e}"))?
                .events,
        ),
        None => Cow::Borrowed(&inputs.streams[0]),
    };
    let sending = Instant::now();
    let mut pass = Pass {
        setup_s: session.setup_s,
        ..Pass::default()
    };
    for chunk in events.chunks(serving.frame) {
        let t0 = Instant::now();
        session
            .client
            .send_batch(chunk)
            .map_err(|e| format!("send: {e}"))?;
        pass.blocked_s += t0.elapsed().as_secs_f64();
        pass.sent += chunk.len() as u64;
    }
    session.client.stats().map_err(|e| format!("stats: {e}"))?;
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.send_wall_s = sending.elapsed().as_secs_f64();
    finish(pass, session)
}

/// Waits until `due` (sleeping; the producer must not take a core from
/// the server threads).
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The paced open-loop phase: the first `n` events in
/// `serving.paced_frame`-event frames at `serving.paced_rate`. Each
/// frame is followed by a `stats` round trip; its commit latency runs
/// from the frame's *scheduled* send time until that round trip
/// returns, so generator lateness and credit stalls count.
///
/// # Errors
///
/// Transport failures.
pub fn paced(
    inputs: &Inputs,
    serving: Serving,
    wal_dir: Option<PathBuf>,
    n: usize,
) -> Result<Pass, String> {
    let mut session = open(inputs, wal_dir)?;
    let period = Duration::from_secs_f64(serving.paced_frame as f64 / serving.paced_rate);
    let mut pass = Pass {
        setup_s: session.setup_s,
        ..Pass::default()
    };
    let start = Instant::now();
    for (k, chunk) in inputs.streams[0][..n]
        .chunks(serving.paced_frame)
        .enumerate()
    {
        let due = start + period * k as u32;
        wait_until(due);
        pass.late.push(due.elapsed().as_secs_f64() * 1e6);
        session
            .client
            .send_batch(chunk)
            .map_err(|e| format!("send: {e}"))?;
        session.client.stats().map_err(|e| format!("stats: {e}"))?;
        pass.commit.push(due.elapsed().as_secs_f64() * 1e6);
        pass.sent += chunk.len() as u64;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    finish(pass, session)
}
