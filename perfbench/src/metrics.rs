//! The metric dictionary: every name the benchmark prints, with its
//! unit, in the order `BENCHMARK.json` lists them.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_eps", "1/s"),
    ("detect_p50_us", "us"),
    ("detect_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. The commit latencies
/// lead: end-to-end figures kept here, unbounded, because on shared
/// 2-vCPU hosts their run-to-run spread exceeds any bound the benchmark
/// may set (see README.md).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("commit_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("adapters.parse_ns_per_event", "ns"),
    ("wire.encode_ns_per_event", "ns"),
    ("wire.decode_ns_per_event", "ns"),
    ("wire.bytes_per_event", "B"),
    ("vclock.intern_ns_per_event", "ns"),
    ("vclock.pool_hit_frac", "share"),
    ("vclock.comparisons_per_event", "count"),
    ("ingest.admit_ns_per_event", "ns"),
    ("ingest.admitted", "count"),
    ("ingest.quarantined", "count"),
    ("wal.append_ns_per_event", "ns"),
    ("wal.sync_p50_us", "us"),
    ("wal.sync_p99_us", "us"),
    ("wal.bytes_per_event", "B"),
    ("shard.deliver_ns_per_event", "ns"),
    ("shard.busy_max_ns_per_event", "ns"),
    ("shard.skew", "ratio"),
    ("shard.overhead_ns_per_event", "ns"),
    ("ocep.observe_ns_per_event", "ns"),
    ("ocep.search_p50_us", "us"),
    ("ocep.search_p99_us", "us"),
    ("ocep.searches", "count"),
    ("ocep.nodes_per_search", "count"),
    ("ocep.candidates_per_search", "count"),
    ("ocep.domains_per_search", "count"),
    ("ocep.backjumps_per_search", "count"),
    ("ocep.monitor_arrivals_per_event", "count"),
    ("ocep.suppressed_frac", "share"),
    ("ocep.matches_found", "count"),
    ("ocep.matches_reported", "count"),
    ("ocep.history_bytes", "B"),
    ("net.engine_ns_per_event", "ns"),
    ("net.transport_ns_per_event", "ns"),
    ("net.client_blocked_frac", "share"),
    ("pattern.compile_us", "us"),
    ("gen.late_p99_us", "us"),
    ("trace.unaccounted_frac", "share"),
    ("trace.pipeline_unaccounted_frac", "share"),
    ("trace.overhead_frac", "share"),
];

/// True when `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(!valid_name("") && !valid_name("a b") && !valid_name("µs"));
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Every workload BENCHMARK.json lists is one the benchmark runs.
        let listed = compact
            .split("\"workloads\":[")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .expect("a workloads array");
        let names: Vec<&str> = listed
            .split("\"name\":\"")
            .skip(1)
            .filter_map(|n| n.split('"').next())
            .collect();
        assert!(names.len() >= 2, "{names:?}");
        for n in names {
            assert!(crate::workload::Workload::from_name(n).is_some(), "{n}");
        }
    }
}
