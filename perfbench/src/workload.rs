//! The named workloads and their seeded input generators.
//!
//! Every input is a pure function of `(workload, seed)`: the benchmark
//! generates it once, before any timed phase, and hands the program
//! only the generated events (or recording text).

use ocep_adapters::testgen;
use ocep_bench::figures::deadlock_params;
use ocep_poet::{Event, EventKind};
use ocep_simulator::workloads::random_walk;
use std::fmt::Write as _;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig 6 deadlock stream at 50 traces, in-process.
    Embedded,
    /// An MPI recording parsed and served to a single engine with a WAL.
    Ingest,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Embedded, Workload::Ingest];

    /// The workload's benchmark name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Embedded => "embedded-deadlock50",
            Workload::Ingest => "ingest-mpi-wal",
        }
    }

    /// Looks a workload up by its benchmark name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Size parameters of one workload's inputs. [`Spec::full`] is what the
/// benchmark runs; tests use [`Spec::small`].
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Traces (ranks) in the computation.
    pub traces: usize,
    /// Target events per stream.
    pub events: usize,
    /// Independent streams generated per run (embedded only; the
    /// served workloads stream one recording).
    pub streams: usize,
    /// Injected deadlock-cycle length.
    pub cycle: usize,
    /// Per-round probability of a deadlock episode.
    pub deadlock_prob: f64,
}

impl Spec {
    /// The benchmark's input sizes.
    #[must_use]
    pub fn full(workload: Workload) -> Spec {
        match workload {
            Workload::Embedded => Spec {
                workload,
                traces: 50,
                events: 40_000,
                streams: 12,
                cycle: 8,
                // What `deadlock_params` derives for this size (it
                // sets the rate itself; recorded for the stamp).
                deadlock_prob: 0.3,
            },
            Workload::Ingest => Spec {
                workload,
                traces: 8,
                events: 1_000_000,
                streams: 1,
                cycle: 3,
                deadlock_prob: 0.1,
            },
        }
    }

    /// The same shapes at a size unit tests can afford.
    #[cfg(test)]
    #[must_use]
    pub fn small(workload: Workload) -> Spec {
        let full = Spec::full(workload);
        Spec {
            events: 4_000,
            streams: full.streams.min(2),
            ..full
        }
    }
}

/// One pattern, registered in-process before the first event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// The monitor name the engine reports verdicts under.
    pub name: String,
    /// Pattern source.
    pub source: String,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The sizes these inputs were generated at.
    pub spec: Spec,
    /// Traces in the computation.
    pub n_traces: usize,
    /// The event streams, each a valid linearization.
    pub streams: Vec<Vec<Event>>,
    /// The recording text the first stream is parsed from (served
    /// `ingest` input; `None` when the stream is handed over as events).
    pub text: Option<String>,
    /// The monitors' patterns.
    pub patterns: Vec<Registration>,
}

/// SplitMix64: derives independent sub-seeds from the run seed.
#[must_use]
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(i.wrapping_add(1)))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates `spec`'s inputs for `seed`.
///
/// # Panics
///
/// Panics if a generator produces a recording its own adapter rejects
/// (a generator bug).
#[must_use]
pub fn generate(spec: Spec, seed: u64) -> Inputs {
    match spec.workload {
        Workload::Embedded => {
            let streams = (0..spec.streams)
                .map(|i| {
                    let params =
                        deadlock_params(spec.traces, spec.events, spec.cycle, mix(seed, i as u64));
                    arrival(&random_walk::generate(&params).poet)
                })
                .collect();
            Inputs {
                spec,
                n_traces: spec.traces,
                streams,
                text: None,
                patterns: vec![deadlock(spec.cycle)],
            }
        }
        Workload::Ingest => {
            // The `mpi_soak` shape (8 ranks, walk 2, ring exchange,
            // 3-cycles) at a higher episode rate, so the run holds
            // enough searches for a detection p99.
            let rounds = spec.events.div_ceil(spec.traces * 4);
            let rec = testgen::mpi_deadlock(
                mix(seed, 0),
                spec.traces,
                rounds,
                spec.cycle,
                spec.deadlock_prob,
                2,
            );
            let events = rec.parse("mpi").events;
            Inputs {
                spec,
                n_traces: spec.traces,
                streams: vec![events],
                text: Some(rec.text),
                patterns: vec![deadlock(spec.cycle)],
            }
        }
    }
}

fn deadlock(cycle: usize) -> Registration {
    Registration {
        name: "deadlock".to_owned(),
        source: random_walk::cycle_pattern(cycle),
    }
}

fn arrival(poet: &ocep_poet::PoetServer) -> Vec<Event> {
    poet.store().iter_arrival().cloned().collect()
}

impl Inputs {
    /// Every generated byte in a canonical encoding: recording text,
    /// each stream as one OCWP batch body, then the registrations.
    /// Equal bytes mean equal inputs.
    #[cfg(test)]
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.text.as_deref().unwrap_or("").as_bytes());
        for s in &self.streams {
            out.extend_from_slice(&ocep_net::wire::encode_body(&ocep_net::Frame::EventBatch(
                s.clone(),
            )));
        }
        let mut meta = String::new();
        for r in &self.patterns {
            let _ = writeln!(meta, "{}\n{}", r.name, r.source);
        }
        out.extend_from_slice(meta.as_bytes());
        out
    }

    /// Total events over every stream.
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

/// Renders an MPI-vocabulary stream as `mpi` adapter text that parses
/// back to the same events, so the adapter layer can be timed on
/// streams generated as events. Sends carry their receive's tag;
/// receives name their partner's trace.
///
/// # Panics
///
/// Panics on a receive without a partner (not an MPI stream).
#[must_use]
pub fn render_mpi(n_traces: usize, events: &[Event]) -> String {
    let mut tags = std::collections::HashMap::new();
    for e in events {
        if let Some(p) = e.partner() {
            tags.insert(p, e.text());
        }
    }
    let mut text = format!("mpi {n_traces}\n");
    for e in events {
        let t = e.trace().as_u32();
        let _ = match e.kind() {
            EventKind::Unary => writeln!(text, "{t} local {} {}", e.ty(), e.text()),
            EventKind::Send => {
                let op = if e.ty() == "mpi_block_send" {
                    "bsend"
                } else {
                    "send"
                };
                let dst = e.text().trim_start_matches('T');
                let tag = tags.get(&e.id()).copied().unwrap_or("");
                writeln!(text, "{t} {op} {dst} {tag}")
            }
            EventKind::Receive => {
                let src = e.partner().expect("a receive names its send").trace();
                writeln!(text, "{t} recv {} {}", src.as_u32(), e.text())
            }
        };
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a = generate(Spec::small(w), 7).to_bytes();
            let b = generate(Spec::small(w), 7).to_bytes();
            let c = generate(Spec::small(w), 8).to_bytes();
            assert_eq!(a, b, "{}: same seed must give identical inputs", w.name());
            assert_ne!(a, c, "{}: another seed must give other inputs", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn rendered_mpi_text_parses_back_to_the_stream() {
        let inp = generate(Spec::small(Workload::Embedded), 3);
        let text = render_mpi(inp.n_traces, &inp.streams[0]);
        let out = ocep_adapters::by_name("mpi")
            .unwrap()
            .parse_str(&text)
            .unwrap();
        assert_eq!(out.events, inp.streams[0]);
    }
}
