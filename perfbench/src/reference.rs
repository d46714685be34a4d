//! The in-process reference: one [`MonitorSet`] fed the same stream
//! through `observe_raw`, and the correctness gate that compares a run
//! against it.

use crate::stats::Samples;
use crate::workload::Registration;
use ocep_core::{GuardConfig, Match, MonitorSet};
use ocep_net::engine::MatchCoords;
use ocep_pattern::Pattern;
use ocep_poet::Event;
use std::time::Instant;

/// One verdict: the monitor and the leaf-wise `(trace, index)` of its
/// match.
pub type Verdict = (String, Vec<(u32, u32)>);

/// What a run must reproduce: every verdict in report order, each
/// monitor's final representative subset, and the admitted count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint {
    /// `(monitor, leaf-wise (trace, index))` per verdict, in order.
    pub verdicts: Vec<Verdict>,
    /// `(monitor, subset)` per live monitor, in registration order.
    pub subsets: Vec<(String, MatchCoords)>,
    /// Events the admission guard admitted.
    pub admitted: u64,
}

/// Leaf-wise `(trace, index)` coordinates of a match.
#[must_use]
pub fn coords(m: &Match) -> Vec<(u32, u32)> {
    m.events()
        .iter()
        .map(|e| (e.trace().as_u32(), e.index().get()))
        .collect()
}

/// Compiles `patterns` into a set behind the default admission guard.
///
/// # Panics
///
/// Panics if a generated pattern fails to compile (a generator bug).
#[must_use]
pub fn build_set(n_traces: usize, patterns: &[Registration]) -> MonitorSet {
    let mut set = MonitorSet::new(n_traces);
    for r in patterns {
        set.add(
            r.name.clone(),
            Pattern::parse(&r.source).expect("generated patterns compile"),
        );
    }
    set.enable_guard(GuardConfig::default());
    set
}

/// The fingerprint of `set` after it reported `verdicts`.
#[must_use]
pub fn fingerprint(set: &MonitorSet, verdicts: &[Verdict]) -> Fingerprint {
    Fingerprint {
        verdicts: verdicts.to_vec(),
        subsets: set
            .iter()
            .map(|(name, m)| {
                (
                    name.to_owned(),
                    m.subset().into_iter().map(coords).collect(),
                )
            })
            .collect(),
        admitted: set.ingest_stats().admitted,
    }
}

/// One replay's outcome.
#[derive(Debug, Default)]
pub struct Replay {
    /// Fingerprint after each requested prefix length, in order.
    pub snapshots: Vec<Fingerprint>,
    /// Wall time (µs) of each `observe_raw` call that advanced the
    /// set's search count — the paper's per-terminating-event time.
    /// Empty unless the replay was timed.
    pub detect: Samples,
    /// Wall time from the first `observe_raw` until the final
    /// `flush_guard` returned, in seconds.
    pub wall_s: f64,
}

/// Replays `events` through `set` (fresh from [`build_set`]), taking a
/// fingerprint after each prefix length in `snapshots` (ascending; a
/// length equal to the stream's is taken after the final `flush_guard`).
/// Only a `timed` replay times each call for [`Replay::detect`]; an
/// untimed one runs nothing per event but `observe_raw`, so its wall is
/// the program's alone.
#[must_use]
pub fn replay(mut set: MonitorSet, events: &[Event], snapshots: &[usize], timed: bool) -> Replay {
    let mut verdicts = Vec::new();
    let mut out = Replay::default();
    let mut snaps = snapshots.iter().copied().peekable();
    let start = Instant::now();
    for (i, e) in events.iter().enumerate() {
        while snaps.next_if_eq(&i).is_some() {
            out.snapshots.push(fingerprint(&set, &verdicts));
        }
        let fired = if timed {
            let before = set.total_stats().searches;
            let t0 = Instant::now();
            let fired = set.observe_raw(e);
            let dt = t0.elapsed();
            if set.total_stats().searches > before {
                out.detect.push(dt.as_secs_f64() * 1e6);
            }
            fired
        } else {
            set.observe_raw(e)
        };
        verdicts.extend(fired.iter().map(|(n, m)| (n.clone(), coords(m))));
    }
    let fired = set.flush_guard();
    out.wall_s = start.elapsed().as_secs_f64();
    verdicts.extend(fired.iter().map(|(n, m)| (n.clone(), coords(m))));
    for _ in snaps {
        out.snapshots.push(fingerprint(&set, &verdicts));
    }
    out
}

/// The correctness gate: `run` must equal `reference` exactly.
///
/// # Errors
///
/// Describes the first difference found.
pub fn gate(what: &str, run: &Fingerprint, reference: &Fingerprint) -> Result<(), String> {
    if run.admitted != reference.admitted {
        return Err(format!(
            "{what}: admitted {} events, reference admitted {}",
            run.admitted, reference.admitted
        ));
    }
    if run.verdicts.len() != reference.verdicts.len() {
        return Err(format!(
            "{what}: {} verdicts, reference has {}",
            run.verdicts.len(),
            reference.verdicts.len()
        ));
    }
    if let Some(i) = (0..run.verdicts.len()).find(|&i| run.verdicts[i] != reference.verdicts[i]) {
        return Err(format!(
            "{what}: verdict {i} is {:?}, reference has {:?}",
            run.verdicts[i], reference.verdicts[i]
        ));
    }
    if run.subsets != reference.subsets {
        return Err(format!(
            "{what}: representative subsets differ from the reference"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Spec, Workload};

    #[test]
    fn replay_is_deterministic_and_snapshots_prefixes() {
        let inp = generate(Spec::small(Workload::Embedded), 5);
        let ev = &inp.streams[0];
        let mid = ev.len() / 2;
        let a = replay(
            build_set(inp.n_traces, &inp.patterns),
            ev,
            &[mid, ev.len()],
            true,
        );
        let b = replay(
            build_set(inp.n_traces, &inp.patterns),
            ev,
            &[ev.len()],
            false,
        );
        assert_eq!(a.snapshots.len(), 2);
        assert_eq!(a.snapshots[1], b.snapshots[0]);
        assert_eq!(a.snapshots[1].admitted, ev.len() as u64);
        assert_eq!(a.snapshots[0].admitted, mid as u64);
        assert!(a.detect.len() > 0);
        assert_eq!(b.detect.len(), 0, "an untimed replay takes no samples");
        assert!(!a.snapshots[1].verdicts.is_empty(), "the stream must fire");
        assert!(gate("same", &a.snapshots[1], &b.snapshots[0]).is_ok());
    }

    #[test]
    fn gate_rejects_a_stream_with_one_event_dropped() {
        let inp = generate(Spec::small(Workload::Ingest), 2);
        let ev = &inp.streams[0];
        let full = replay(
            build_set(inp.n_traces, &inp.patterns),
            ev,
            &[ev.len()],
            false,
        );
        // Drop the last event: the guard admits one event fewer.
        let short = &ev[..ev.len() - 1];
        let cut = replay(
            build_set(inp.n_traces, &inp.patterns),
            short,
            &[short.len()],
            false,
        );
        assert!(gate("dropped", &cut.snapshots[0], &full.snapshots[0]).is_err());
        // Drop an event mid-stream: the guard holds back its causal
        // successors on that trace, so far fewer events are admitted.
        let mut holed = ev.clone();
        holed.remove(ev.len() / 2);
        let hole = replay(
            build_set(inp.n_traces, &inp.patterns),
            &holed,
            &[holed.len()],
            false,
        );
        let err = gate("holed", &hole.snapshots[0], &full.snapshots[0]).unwrap_err();
        assert!(err.contains("admitted"), "{err}");
    }

    #[test]
    fn gate_rejects_a_changed_verdict() {
        let inp = generate(Spec::small(Workload::Embedded), 4);
        let ev = &inp.streams[0];
        let full = replay(
            build_set(inp.n_traces, &inp.patterns),
            ev,
            &[ev.len()],
            false,
        );
        assert!(
            !full.snapshots[0].verdicts.is_empty(),
            "the stream must fire"
        );
        let mut bad = full.snapshots[0].clone();
        bad.verdicts[0].1[0].1 += 1;
        assert!(gate("changed", &bad, &full.snapshots[0]).is_err());
        let mut reordered = full.snapshots[0].clone();
        reordered.subsets.reverse();
        reordered.subsets.push(("extra".into(), Vec::new()));
        assert!(gate("subsets", &reordered, &full.snapshots[0]).is_err());
    }
}
