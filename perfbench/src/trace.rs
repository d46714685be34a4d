//! The traced run: per-layer numbers, timed from outside the program
//! by calling each crate's public functions in engine order.
//!
//! Per stream the run (1) serves it untraced, (2) replays it through
//! the in-process reference, (3) runs the layer pipeline — adapter
//! parse, wire encode, decode, clock intern, guard admit, WAL append,
//! monitor observe — with a timer around every call, and once more
//! without timers, (4) delivers the decoded frames to a threaded
//! [`ShardGroup`], and (5) drives [`EngineCore::on_frame`] in-process
//! over the same frames, once with the workload's configuration and
//! once bare (no monitors or guard; a log where the workload serves with
//! one). Every verdict stream must equal the served one. Each timed call runs no other timed layer, so
//! its duration is that layer's self time.
//!
//! Two checks reconcile the self times (see [`reconcile`]): the
//! pipeline's timed layers against its untimed twin's wall, and the
//! engine's layers against the in-process `on_frame` wall.

use crate::reference::{build_set, coords, fingerprint, gate, replay, Fingerprint, Verdict};
use crate::run::Outcome;
use crate::served::{self, wait_until, Serving, SESSION};
use crate::stats::{median, Samples, TAIL_WINDOW};
use crate::workload::{render_mpi, Inputs, Registration, Workload};
use ocep_bench::json::Json;
use ocep_core::{
    AdmissionGuard, GuardConfig, Monitor, MonitorConfig, MonitorSet, MonitorStats, OverflowPolicy,
};
use ocep_net::wire::{encode_body_delta, put_event_body};
use ocep_net::{
    route_of, Decoded, EngineCore, Frame, FrameDecoder, Mode, OutQueue, ServeConfig, ShardGroup,
    SystemClock,
};
use ocep_pattern::Pattern;
use ocep_poet::Event;
use ocep_wal::{Durability, Wal, WalOptions, REC_DELIVER};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards of the threaded shard-layer replay. The workloads serve the
/// single engine, so this replay alone measures the shard layer.
const SHARDS: usize = 2;

/// `Wal::sync` probes per run: the sync group is the run's event count
/// divided by this, so every run holds enough syncs for a p99.
const SYNC_PROBES: usize = 1300;

/// How far the per-layer self times may miss the wall they reconcile
/// with (`trace.unaccounted_frac` and `trace.pipeline_unaccounted_frac`,
/// either sign) before the traced run fails: the two sides are timed in
/// different replays, so host noise alone moves them apart by several
/// percent.
const RECONCILE_BOUND: f64 = 0.25;

/// Frames per served paced segment: each segment runs on a fresh
/// server, so a slow stretch of the host moves few segments.
const PACED_SEGMENT_FRAMES: usize = 160;

/// Repeats of each `Pattern::parse` timing.
const COMPILE_REPEATS: usize = 50;

/// Self time (ns) and counters summed over a run's streams.
#[derive(Debug, Default)]
struct Layers {
    /// Cost of one timer pair, subtracted from every per-call span.
    timer_ns: f64,
    events: u64,
    parse_ns: f64,
    encode_ns: f64,
    decode_ns: f64,
    intern_ns: f64,
    admit_ns: f64,
    wal_ns: f64,
    observe_ns: f64,
    wire_bytes: u64,
    pipeline_wal_bytes: u64,
    admitted: u64,
    quarantined: u64,
    wal_sync: Samples,
    search: Samples,
    /// Observe time per shard, monitors assigned by `route_of`.
    busy_ns: Vec<f64>,
    ocep: MonitorStats,
    suppressed: u64,
    history_bytes: u64,
    pool_hits: u64,
    pool_misses: u64,
    comparisons: u64,
    /// Wall of the pipeline loop, timers on (sync probes excluded).
    traced_wall_ns: f64,
    /// Wall of the same loop, timers and counters off.
    untraced_wall_ns: f64,
    deliver_ns: f64,
    /// In-process `on_frame` wall with the workload's configuration.
    engine_ns: f64,
    /// In-process `on_frame` wall with no monitors or guard.
    engine_bare_ns: f64,
    served_send_ns: f64,
    served_blocked_ns: f64,
    served_wal_bytes: u64,
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// The cost (ns) of one `Instant::now` + `elapsed` pair, the median of
/// 101 batches: subtracted from every per-call span, so the timers do
/// not inflate the layers they time.
fn timer_cost_ns() -> f64 {
    const PAIRS: u32 = 1000;
    let batches: Vec<f64> = (0..101)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..PAIRS {
                std::hint::black_box(Instant::now().elapsed());
            }
            ns(t) / f64::from(PAIRS)
        })
        .collect();
    median(&batches)
}

/// Runs the traced pipeline over one stream. With `timed` off, only the
/// loop's wall is kept (the untimed twin that `trace.overhead_frac` and
/// `trace.pipeline_unaccounted_frac` compare against).
/// Returns the pipeline's fingerprint and its decoded frames (before
/// interning), which the shard and engine replays consume.
#[allow(clippy::too_many_lines)]
fn pipeline(
    inputs: &Inputs,
    stream: &[Event],
    serving: Serving,
    wal_dir: &Path,
    sync_group: usize,
    timed: bool,
    l: &mut Layers,
) -> Result<(Fingerprint, Vec<Vec<Event>>), String> {
    if timed {
        // Parse: the workload's recording, or the stream rendered as
        // `mpi` text when it was generated as events.
        let text = match &inputs.text {
            Some(t) => t.clone(),
            None => render_mpi(inputs.n_traces, stream),
        };
        let adapter = ocep_adapters::by_name("mpi").expect("mpi adapter registered");
        let t = Instant::now();
        let parsed = adapter.parse_str(&text).map_err(|e| e.to_string())?;
        l.parse_ns += ns(t);
        if parsed.events != stream {
            return Err("adapter parse does not reproduce the stream".into());
        }
        l.events += stream.len() as u64;
        ocep_vclock::ops::reset();
        ocep_vclock::ops::enable(true);
    }
    let n = inputs.n_traces;
    let mut pool = ocep_vclock::ClockPool::new(n);
    let mut guard = AdmissionGuard::new(n, GuardConfig::default());
    let (mut wal, _) = Wal::open(wal_dir, WalOptions::default()).map_err(|e| e.to_string())?;
    let mut monitors: Vec<(String, Monitor)> = inputs
        .patterns
        .iter()
        .map(|r| (r.name.clone(), new_monitor(r, n)))
        .collect();
    let mut verdicts = Vec::new();
    let mut decoded_frames = Vec::new();
    let mut decoder = FrameDecoder::new();
    let mut admitted: Vec<Event> = Vec::new();
    let mut payload = Vec::new();
    let mut wire = Vec::new();
    let mut unsynced = 0usize;
    let mut sync_ns = 0.0;
    let mut at = 0;
    // Each `lap` starts a timer only when timed.
    let lap = || timed.then(Instant::now);
    let timer = l.timer_ns;
    let span = move |t: Instant| (ns(t) - timer).max(0.0);
    let add = |acc: &mut f64, t: Option<Instant>| {
        if let Some(t) = t {
            *acc += span(t);
        }
    };
    let start = Instant::now();
    for chunk in stream.chunks(serving.frame) {
        at += chunk.len();
        // As `Client::send_batch` does: the frame owns a copy.
        let t = lap();
        let body = encode_body_delta(&Frame::EventBatch(chunk.to_vec()));
        add(&mut l.encode_ns, t);
        wire.clear();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);

        let t = lap();
        decoder.push(&wire);
        let decoded = decoder.next();
        add(&mut l.decode_ns, t);
        let Some(Decoded::Frame {
            frame: Frame::EventBatch(mut events),
            bytes,
        }) = decoded
        else {
            return Err(format!("frame at event {at} did not decode to a batch"));
        };
        if timed {
            l.wire_bytes += bytes;
            decoded_frames.push(events.clone());
        }

        let t = lap();
        for e in &mut events {
            e.intern_clock(&mut pool);
        }
        add(&mut l.intern_ns, t);

        // The guard's copies are released in the admit layer's time,
        // as the decoded events are in the decoder's: each layer pays
        // for what it allocates.
        let t = lap();
        admitted.clear();
        guard.admit_batch(&events, &mut admitted);
        add(&mut l.admit_ns, t);
        let t = lap();
        drop(events);
        add(&mut l.decode_ns, t);

        let t = lap();
        let mut frame_sync_ns = 0.0;
        for e in &admitted {
            payload.clear();
            payload.extend_from_slice(&(SESSION.len() as u32).to_le_bytes());
            payload.extend_from_slice(SESSION.as_bytes());
            put_event_body(&mut payload, e);
            wal.append(REC_DELIVER, &payload)
                .map_err(|e| e.to_string())?;
            unsynced += 1;
            if unsynced >= sync_group {
                // A sync probe, outside the append's self time; the
                // untimed twin syncs too, so both loops see the same
                // disk traffic.
                unsynced = 0;
                let t = Instant::now();
                wal.sync().map_err(|e| e.to_string())?;
                let d = ns(t);
                frame_sync_ns += d;
                if timed {
                    l.wal_sync.push(d / 1e3);
                }
            }
        }
        wal.flush_os().map_err(|e| e.to_string())?;
        if let Some(t) = t {
            l.wal_ns += span(t) - frame_sync_ns;
        }
        sync_ns += frame_sync_ns;

        for e in &admitted {
            for (name, m) in &mut monitors {
                let before = m.stats().searches;
                let t = lap();
                let fired = m.observe(e);
                if let Some(t) = t {
                    let d = span(t);
                    l.observe_ns += d;
                    l.busy_ns[route_of(name, SHARDS)] += d;
                    if m.stats().searches > before {
                        l.search.push(d / 1e3);
                    }
                }
                verdicts.extend(fired.iter().map(|mm| (name.clone(), coords(mm))));
            }
        }
    }
    let loop_ns = ns(start) - sync_ns;
    admitted.clear();
    guard.flush(&mut admitted);
    for e in &admitted {
        for (name, m) in &mut monitors {
            verdicts.extend(m.observe(e).iter().map(|mm| (name.clone(), coords(mm))));
        }
    }
    drop(wal);
    if !timed {
        l.untraced_wall_ns += loop_ns;
        return Ok((fp(&monitors, verdicts, &guard), decoded_frames));
    }
    l.traced_wall_ns += loop_ns;
    let ops = ocep_vclock::ops::snapshot();
    ocep_vclock::ops::enable(false);
    l.pool_hits += ops.pool_hits;
    l.pool_misses += ops.pool_misses;
    l.comparisons += ops.comparisons;
    l.pipeline_wal_bytes += served::dir_bytes(wal_dir);
    l.admitted += guard.stats().admitted;
    l.quarantined += guard.stats().quarantined();
    for (_, m) in &monitors {
        l.ocep.absorb(m.stats());
        l.suppressed += m.suppressed() as u64;
    }
    l.history_bytes = l
        .history_bytes
        .max(monitors.iter().map(|(_, m)| m.history_bytes() as u64).sum());
    Ok((fp(&monitors, verdicts, &guard), decoded_frames))
}

fn new_monitor(r: &Registration, n: usize) -> Monitor {
    let p = Pattern::parse(&r.source).expect("generated patterns compile");
    Monitor::with_config(p, n, MonitorConfig::default())
}

fn fp(
    monitors: &[(String, Monitor)],
    verdicts: Vec<Verdict>,
    guard: &AdmissionGuard,
) -> Fingerprint {
    Fingerprint {
        verdicts,
        subsets: monitors
            .iter()
            .map(|(name, m)| (name.clone(), m.subset().into_iter().map(coords).collect()))
            .collect(),
        admitted: guard.stats().admitted,
    }
}

/// Delivers the decoded frames to a threaded [`ShardGroup`] logging to
/// per-shard WALs under `wal_root`; returns the summed deliver time and
/// the merged verdicts.
fn shard_replay(
    inputs: &Inputs,
    frames: &[Vec<Event>],
    wal_root: &Path,
) -> Result<(f64, Vec<Verdict>), String> {
    let sources = served::config(inputs, None).pattern_sources;
    let mut g = ShardGroup::new(
        build_set(inputs.n_traces, &inputs.patterns),
        SHARDS,
        &sources,
    );
    g.recover(wal_root, Durability::Batch)?;
    g.start_threads();
    let mut deliver_ns = 0.0;
    let mut verdicts = Vec::new();
    for f in frames {
        let events = f.clone();
        let t = Instant::now();
        let out = g.deliver_batch(SESSION, events);
        g.flush_os();
        deliver_ns += ns(t);
        verdicts.extend(out.verdicts.iter().map(|(n, m)| (n.clone(), coords(m))));
    }
    let out = g.flush();
    verdicts.extend(out.verdicts.iter().map(|(n, m)| (n.clone(), coords(m))));
    g.seal();
    Ok((deliver_ns, verdicts))
}

/// Drives [`EngineCore::on_frame`] in-process over the decoded frames,
/// timing each batch, logging to `wal_dir` when given. `bare` serves an
/// empty set without guard; otherwise the workload's monitors. Returns
/// the summed `on_frame` time and, unless bare, the final report's
/// fingerprint.
fn engine_replay(
    inputs: &Inputs,
    frames: &[Vec<Event>],
    wal_dir: Option<&Path>,
    bare: bool,
) -> Result<(f64, Option<Fingerprint>), String> {
    let (set, config) = if bare {
        let config = ServeConfig {
            wal_dir: wal_dir.map(Path::to_path_buf),
            ..ServeConfig::default()
        };
        (MonitorSet::new(inputs.n_traces), config)
    } else {
        (
            build_set(inputs.n_traces, &inputs.patterns),
            served::config(inputs, wal_dir.map(Path::to_path_buf)),
        )
    };
    let clock = Arc::new(SystemClock::new());
    let mut core = EngineCore::new(set, config, clock, Arc::new(AtomicU64::new(0)));
    core.recover_wal()?;
    let out = OutQueue::new(1024, OverflowPolicy::Reject);
    core.on_accepted(0, "in-process".into(), out.clone());
    let frame = |core: &mut EngineCore, f: Frame| -> Result<f64, String> {
        let t = Instant::now();
        core.on_frame(0, f, 0, 0);
        let d = ns(t);
        for reply in out.drain() {
            if let Frame::Fault { code, detail } = reply {
                return Err(format!("engine fault {}: {detail}", code.name()));
            }
        }
        Ok(d)
    };
    frame(
        &mut core,
        Frame::Hello {
            mode: Mode::Producer,
            n_traces: inputs.n_traces as u32,
            name: SESSION.into(),
        },
    )?;
    let mut total = 0.0;
    for f in frames {
        total += frame(&mut core, Frame::EventBatch(f.clone()))?;
    }
    frame(&mut core, Frame::StatsReq)?;
    let _ = core.on_frame(0, Frame::Shutdown, 0, 0);
    let report = core.finish();
    Ok((total, (!bare).then(|| served::fingerprint(&report))))
}

fn verdicts_gate(what: &str, run: &[Verdict], served: &Fingerprint) -> Result<(), String> {
    if run == served.verdicts.as_slice() {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} verdicts differ from the served run's {}",
            run.len(),
            served.verdicts.len()
        ))
    }
}

/// Paces every embedded stream once, each on a fresh set, in frames of
/// `paced_frame` events at the fixed rate on one schedule, gating each
/// stream against `refs`. A frame's commit latency runs from its
/// scheduled time until its last `observe_raw` returned; commit and
/// generator-lateness samples (µs) are appended.
fn embedded_paced(
    inputs: &Inputs,
    refs: &[Fingerprint],
    out: &mut Outcome,
    commit: &mut Samples,
    late: &mut Samples,
) -> Result<(), String> {
    let serving = Serving::of(Workload::Embedded);
    let period = Duration::from_secs_f64(serving.paced_frame as f64 / serving.paced_rate);
    let start = Instant::now();
    let mut k = 0u32;
    for (i, s) in inputs.streams.iter().enumerate() {
        let mut set = build_set(inputs.n_traces, &inputs.patterns);
        let mut verdicts = Vec::new();
        for chunk in s.chunks(serving.paced_frame) {
            let due = start + period * k;
            k += 1;
            wait_until(due);
            late.push(due.elapsed().as_secs_f64() * 1e6);
            for e in chunk {
                let fired = set.observe_raw(e);
                verdicts.extend(fired.iter().map(|(n, m)| (n.clone(), coords(m))));
            }
            commit.push(due.elapsed().as_secs_f64() * 1e6);
        }
        let fired = set.flush_guard();
        verdicts.extend(fired.iter().map(|(n, m)| (n.clone(), coords(m))));
        let fp = fingerprint(&set, &verdicts);
        out.attempted += s.len() as u64;
        out.failed += s.len() as u64 - fp.admitted;
        gate(&format!("paced pass, stream {i}"), &fp, &refs[i])?;
    }
    Ok(())
}

/// Runs the traced measurement of `inputs`' workload.
///
/// # Errors
///
/// Any verdict mismatch between the served run, the reference, the
/// pipeline, the shard replay and the engine replay; a transport
/// failure; or a tail percentile with too few samples.
pub fn traced(inputs: &Inputs, seconds: f64, scratch: &Path) -> Result<Outcome, (Outcome, String)> {
    let mut out = Outcome::default();
    match traced_into(inputs, seconds, scratch, &mut out) {
        Ok(()) => Ok(out),
        Err(e) => Err((out, e)),
    }
}

#[allow(clippy::too_many_lines)]
fn traced_into(
    inputs: &Inputs,
    seconds: f64,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let run_start = Instant::now();
    let w = inputs.spec.workload;
    let serving = Serving::of(w);
    let mut l = Layers {
        timer_ns: timer_cost_ns(),
        busy_ns: vec![0.0; SHARDS],
        ..Layers::default()
    };
    let sync_group = (inputs.total_events() / SYNC_PROBES).max(1);
    let mut dir_seq = 0;
    let mut fresh = |what: &str| {
        dir_seq += 1;
        scratch.join(format!("{what}-{dir_seq}"))
    };
    // Removes a replay's log as soon as it is done, so dirty pages of
    // finished logs do not throttle the writes of later steps.
    let done =
        |dir: &Path| std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()));

    for (i, stream) in inputs.streams.iter().enumerate() {
        // One stream per served pass; the served inputs carry their
        // text only for the first stream.
        let one = Inputs {
            streams: vec![stream.clone()],
            text: if i == 0 { inputs.text.clone() } else { None },
            ..inputs.clone()
        };
        out.attempted += stream.len() as u64;
        let pass = served::saturating(&one, serving, serving.wal.then(|| fresh("served")))?;
        let lost = stream.len() as u64 - pass.fingerprint.admitted.min(stream.len() as u64);
        out.failed += lost;
        if lost > 0 || pass.degraded {
            return Err(format!(
                "stream {i}: served run admitted {} of {}",
                pass.fingerprint.admitted,
                stream.len()
            ));
        }
        let served = pass.fingerprint;
        l.served_send_ns += pass.send_wall_s * 1e9;
        l.served_blocked_ns += pass.blocked_s * 1e9;
        l.served_wal_bytes += pass.wal_bytes;

        let set = build_set(inputs.n_traces, &inputs.patterns);
        let reference = replay(set, stream, &[stream.len()], false);
        gate(
            &format!("stream {i}: served vs reference"),
            &served,
            &reference.snapshots[0],
        )?;

        let dir = fresh("pipeline");
        let (traced_fp, frames) = pipeline(&one, stream, serving, &dir, sync_group, true, &mut l)?;
        done(&dir)?;
        gate(
            &format!("stream {i}: traced vs served"),
            &traced_fp,
            &served,
        )?;
        let dir = fresh("pipeline");
        let (untraced_fp, _) = pipeline(&one, stream, serving, &dir, sync_group, false, &mut l)?;
        done(&dir)?;
        gate(
            &format!("stream {i}: untraced twin vs served"),
            &untraced_fp,
            &served,
        )?;

        let dir = fresh("shards");
        let (deliver_ns, shard_verdicts) = shard_replay(&one, &frames, &dir)?;
        done(&dir)?;
        verdicts_gate(
            &format!("stream {i}: shard replay"),
            &shard_verdicts,
            &served,
        )?;
        l.deliver_ns += deliver_ns;

        let dir = fresh("engine");
        let wal = serving.wal.then_some(dir.as_path());
        let (engine_ns, engine_fp) = engine_replay(&one, &frames, wal, false)?;
        let _ = std::fs::remove_dir_all(&dir);
        gate(
            &format!("stream {i}: in-process engine vs served"),
            &engine_fp.expect("full replay reports"),
            &served,
        )?;
        l.engine_ns += engine_ns;
        let dir = fresh("bare");
        let wal = serving.wal.then_some(dir.as_path());
        let (bare_ns, _) = engine_replay(&one, &frames, wal, true)?;
        let _ = std::fs::remove_dir_all(&dir);
        l.engine_bare_ns += bare_ns;
    }

    // Generator lateness and the commit p99, from paced segments like
    // the untraced run's; last, once the allocator is warm, until the
    // run's time is spent.
    let (mut late, mut commit) = (Samples::default(), Samples::default());
    let more =
        |late: &Samples| late.len() < TAIL_WINDOW || run_start.elapsed().as_secs_f64() < seconds;
    if w == Workload::Embedded {
        // References first: replaying one inside the paced schedule
        // would stall it.
        let refs: Vec<Fingerprint> = inputs
            .streams
            .iter()
            .map(|s| {
                let set = build_set(inputs.n_traces, &inputs.patterns);
                replay(set, s, &[s.len()], false).snapshots.remove(0)
            })
            .collect();
        while more(&late) {
            embedded_paced(inputs, &refs, out, &mut commit, &mut late)?;
        }
    } else {
        let len = inputs.streams[0].len();
        let n = (PACED_SEGMENT_FRAMES * serving.paced_frame)
            .min(len / serving.paced_frame * serving.paced_frame);
        let set = build_set(inputs.n_traces, &inputs.patterns);
        let reference = replay(set, &inputs.streams[0], &[n], false);
        while more(&late) {
            out.attempted += n as u64;
            let pass = served::paced(inputs, serving, serving.wal.then(|| fresh("paced")), n)?;
            gate("paced pass", &pass.fingerprint, &reference.snapshots[0])?;
            late.extend(&pass.late);
            commit.extend(&pass.commit);
        }
    }

    let mut compile = Vec::new();
    for r in &inputs.patterns {
        for _ in 0..COMPILE_REPEATS {
            let t = Instant::now();
            let p = Pattern::parse(&r.source).map_err(|e| e.to_string())?;
            compile.push(t.elapsed().as_secs_f64() * 1e6);
            drop(p);
        }
    }

    report(out, &l, serving, &commit, &late, &compile)
}

/// The reconciled self times, all in ns summed over the run.
#[derive(Debug, PartialEq)]
struct Reconciled {
    /// Engine self time: the bare `on_frame` wall less the timed layers
    /// the bare engine still runs (clock intern; the log append where
    /// the workload serves with a log). The engine's own bookkeeping
    /// around the log (session name, payload buffer, durable offsets)
    /// stays in it.
    engine_self: f64,
    /// `trace.unaccounted_frac`: 1 − (engine self + intern + admit +
    /// log + observe) ÷ the in-process `on_frame` wall `W`. Intern and
    /// log cancel against the engine self time, so this checks admit,
    /// observe and the engine's delivery path.
    unaccounted: f64,
    /// `trace.pipeline_unaccounted_frac`: 1 − (encode + decode +
    /// intern + admit + log + observe) ÷ the untimed twin's wall. No
    /// layer cancels, so every timed pipeline layer is checked.
    pipeline_unaccounted: f64,
}

fn reconcile(l: &Layers, serving: Serving) -> Reconciled {
    let wal = if serving.wal { l.wal_ns } else { 0.0 };
    let engine_self = l.engine_bare_ns - l.intern_ns - wal;
    let on_frame = engine_self + l.intern_ns + l.admit_ns + wal + l.observe_ns;
    let pipeline = l.encode_ns + l.decode_ns + l.intern_ns + l.admit_ns + l.wal_ns + l.observe_ns;
    Reconciled {
        engine_self,
        unaccounted: 1.0 - on_frame / l.engine_ns,
        pipeline_unaccounted: 1.0 - pipeline / l.untraced_wall_ns,
    }
}

/// The traced run's failure, if the reconciliation leaves its bounds.
fn reconciliation_error(r: &Reconciled) -> Option<String> {
    if r.engine_self < 0.0 {
        return Some(format!(
            "the layers the bare engine runs exceed its on_frame wall by {:.0} ns",
            -r.engine_self
        ));
    }
    [
        ("the in-process on_frame wall", r.unaccounted),
        ("the untimed pipeline wall", r.pipeline_unaccounted),
    ]
    .into_iter()
    .find(|(_, miss)| miss.abs() > RECONCILE_BOUND)
    .map(|(what, miss)| {
        format!("per-layer self times miss {what} by {miss:.3} (bound {RECONCILE_BOUND})")
    })
}

#[allow(clippy::cast_precision_loss)]
fn report(
    out: &mut Outcome,
    l: &Layers,
    serving: Serving,
    commit: &Samples,
    late: &Samples,
    compile: &[f64],
) -> Result<(), String> {
    out.latency("commit_p50_us", "commit_p99_us", commit)?;
    let ev = l.events as f64;
    let adm = l.admitted.max(1) as f64;
    let per_ev = |x: f64| x / ev;
    out.metric(
        "adapters.parse_ns_per_event",
        per_ev(l.parse_ns),
        "ns",
        l.events as usize,
    );
    out.metric(
        "wire.encode_ns_per_event",
        per_ev(l.encode_ns),
        "ns",
        l.events as usize,
    );
    out.metric(
        "wire.decode_ns_per_event",
        per_ev(l.decode_ns),
        "ns",
        l.events as usize,
    );
    out.metric(
        "wire.bytes_per_event",
        l.wire_bytes as f64 / ev,
        "B",
        l.events as usize,
    );
    out.metric(
        "vclock.intern_ns_per_event",
        per_ev(l.intern_ns),
        "ns",
        l.events as usize,
    );
    let lookups = (l.pool_hits + l.pool_misses).max(1) as f64;
    out.metric(
        "vclock.pool_hit_frac",
        l.pool_hits as f64 / lookups,
        "share",
        lookups as usize,
    );
    out.metric(
        "vclock.comparisons_per_event",
        l.comparisons as f64 / adm,
        "count",
        l.admitted as usize,
    );
    out.metric(
        "ingest.admit_ns_per_event",
        per_ev(l.admit_ns),
        "ns",
        l.events as usize,
    );
    out.metric("ingest.admitted", l.admitted as f64, "count", 1);
    out.metric("ingest.quarantined", l.quarantined as f64, "count", 1);
    out.metric(
        "wal.append_ns_per_event",
        l.wal_ns / adm,
        "ns",
        l.admitted as usize,
    );
    out.latency("wal.sync_p50_us", "wal.sync_p99_us", &l.wal_sync)?;
    let wal_bytes = if serving.wal {
        l.served_wal_bytes
    } else {
        l.pipeline_wal_bytes
    };
    out.metric(
        "wal.bytes_per_event",
        wal_bytes as f64 / ev,
        "B",
        l.events as usize,
    );

    let busy_max = l.busy_ns.iter().copied().fold(0.0, f64::max);
    let busy_mean = l.busy_ns.iter().sum::<f64>() / l.busy_ns.len() as f64;
    out.metric(
        "shard.deliver_ns_per_event",
        per_ev(l.deliver_ns),
        "ns",
        l.events as usize,
    );
    out.metric(
        "shard.busy_max_ns_per_event",
        per_ev(busy_max),
        "ns",
        l.events as usize,
    );
    out.metric(
        "shard.skew",
        busy_max / busy_mean.max(f64::MIN_POSITIVE),
        "ratio",
        SHARDS,
    );
    out.metric(
        "shard.overhead_ns_per_event",
        per_ev(l.deliver_ns - busy_max),
        "ns",
        l.events as usize,
    );

    let searches = l.ocep.searches.max(1) as f64;
    out.metric(
        "ocep.observe_ns_per_event",
        l.observe_ns / adm,
        "ns",
        l.admitted as usize,
    );
    out.latency("ocep.search_p50_us", "ocep.search_p99_us", &l.search)?;
    out.metric("ocep.searches", l.ocep.searches as f64, "count", 1);
    out.metric(
        "ocep.nodes_per_search",
        l.ocep.nodes as f64 / searches,
        "count",
        l.ocep.searches as usize,
    );
    out.metric(
        "ocep.candidates_per_search",
        l.ocep.candidates as f64 / searches,
        "count",
        l.ocep.searches as usize,
    );
    out.metric(
        "ocep.domains_per_search",
        l.ocep.domains as f64 / searches,
        "count",
        l.ocep.searches as usize,
    );
    out.metric(
        "ocep.backjumps_per_search",
        l.ocep.backjumps as f64 / searches,
        "count",
        l.ocep.searches as usize,
    );
    out.metric(
        "ocep.monitor_arrivals_per_event",
        l.ocep.events as f64 / adm,
        "count",
        l.admitted as usize,
    );
    out.metric(
        "ocep.suppressed_frac",
        l.suppressed as f64 / l.ocep.events.max(1) as f64,
        "share",
        l.ocep.events as usize,
    );
    out.metric(
        "ocep.matches_found",
        l.ocep.matches_found as f64,
        "count",
        1,
    );
    out.metric(
        "ocep.matches_reported",
        l.ocep.matches_reported as f64,
        "count",
        1,
    );
    out.metric("ocep.history_bytes", l.history_bytes as f64, "B", 1);

    let rec = reconcile(l, serving);
    out.metric(
        "net.engine_ns_per_event",
        per_ev(rec.engine_self),
        "ns",
        l.events as usize,
    );
    out.metric(
        "net.transport_ns_per_event",
        per_ev(l.served_send_ns - l.engine_ns),
        "ns",
        l.events as usize,
    );
    out.metric(
        "net.client_blocked_frac",
        l.served_blocked_ns / l.served_send_ns,
        "share",
        1,
    );
    out.metric("pattern.compile_us", median(compile), "us", compile.len());
    let tail = late.windowed_tail(0.99, "gen.late_p99_us")?;
    out.metric("gen.late_p99_us", tail, "us", late.len());
    out.metric("trace.unaccounted_frac", rec.unaccounted, "share", 1);
    out.metric(
        "trace.pipeline_unaccounted_frac",
        rec.pipeline_unaccounted,
        "share",
        1,
    );
    out.metric(
        "trace.overhead_frac",
        l.traced_wall_ns / l.untraced_wall_ns - 1.0,
        "share",
        1,
    );
    out.params
        .push(("paced_rate_eps", Json::from(serving.paced_rate)));
    out.params
        .push(("paced_frame", Json::from(serving.paced_frame)));
    out.params.push(("shard_replay_shards", SHARDS.into()));
    out.params.push(("timer_pair_ns", Json::from(l.timer_ns)));
    let raw = [
        ("intern", l.intern_ns),
        ("admit", l.admit_ns),
        ("wal", l.wal_ns),
        ("observe", l.observe_ns),
        ("deliver", l.deliver_ns),
        ("engine", l.engine_ns),
        ("engine_bare", l.engine_bare_ns),
        ("served_send", l.served_send_ns),
        ("encode", l.encode_ns),
        ("decode", l.decode_ns),
        ("traced_loop", l.traced_wall_ns),
        ("untraced_loop", l.untraced_wall_ns),
    ];
    out.params.push((
        "layer_total_ns",
        Json::obj(raw.map(|(k, v)| (k, Json::from(v)))),
    ));
    out.params.push(("wal_sync_probes", SYNC_PROBES.into()));
    reconciliation_error(&rec).map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers() -> Layers {
        Layers {
            encode_ns: 15.0,
            decode_ns: 25.0,
            intern_ns: 10.0,
            admit_ns: 20.0,
            wal_ns: 30.0,
            observe_ns: 100.0,
            engine_ns: 200.0,
            engine_bare_ns: 50.0,
            untraced_wall_ns: 220.0,
            ..Layers::default()
        }
    }

    fn serving(wal: bool) -> Serving {
        Serving {
            wal,
            ..Serving::of(Workload::Ingest)
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn reconciliation_arithmetic() {
        let l = layers();
        // With a log the bare engine logs too: self = 50 - 10 - 30 =
        // 10; on_frame path = 10 + 10 + 20 + 30 + 100 = 170 of W = 200;
        // pipeline = 15 + 25 + 10 + 20 + 30 + 100 = 200 of a 220 twin.
        let r = reconcile(&l, serving(true));
        assert!(close(r.engine_self, 10.0));
        assert!(close(r.unaccounted, 1.0 - 170.0 / 200.0));
        assert!(close(r.pipeline_unaccounted, 1.0 - 200.0 / 220.0));
        assert_eq!(reconciliation_error(&r), None);
        // Without a log: self = 50 - 10 = 40; the path leaves the append
        // out (the pipeline still runs it).
        let r = reconcile(&l, serving(false));
        assert!(close(r.engine_self, 40.0));
        assert!(close(r.unaccounted, 1.0 - 170.0 / 200.0));
        assert!(close(r.pipeline_unaccounted, 1.0 - 200.0 / 220.0));
    }

    #[test]
    fn a_wrong_layer_timing_shows_in_the_reconciliation() {
        let good = reconcile(&layers(), serving(false));
        // An observe timed 100 ns too long misses both walls.
        let observe = reconcile(
            &Layers {
                observe_ns: 200.0,
                ..layers()
            },
            serving(false),
        );
        assert!(close(
            observe.unaccounted - good.unaccounted,
            -100.0 / 200.0
        ));
        assert!(close(
            observe.pipeline_unaccounted - good.pipeline_unaccounted,
            -100.0 / 220.0
        ));
        assert!(reconciliation_error(&observe).is_some());
        // Intern and the log cancel in the on_frame check, not in the
        // pipeline check; timed too long, they leave the engine's self
        // time negative.
        let good = reconcile(&layers(), serving(true));
        for bad in [
            Layers {
                intern_ns: 70.0,
                ..layers()
            },
            Layers {
                wal_ns: 90.0,
                ..layers()
            },
        ] {
            let r = reconcile(&bad, serving(true));
            assert!(close(r.unaccounted, good.unaccounted));
            assert!(close(
                r.pipeline_unaccounted - good.pipeline_unaccounted,
                -60.0 / 220.0
            ));
            let err = reconciliation_error(&r).expect("negative engine self time");
            assert!(err.contains("bare engine"), "{err}");
        }
        // Within the bound either way, the run passes.
        let noisy = Reconciled {
            engine_self: 1.0,
            unaccounted: -0.2,
            pipeline_unaccounted: 0.2,
        };
        assert_eq!(reconciliation_error(&noisy), None);
    }
}
