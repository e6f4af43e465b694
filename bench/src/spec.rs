//! The frozen definition of the benchmark: its four workloads, its
//! end-to-end metrics with their bounds, and its per-layer metrics.
//! `BENCHMARK.json` at the repo root states the same tables for the
//! driver; a unit test keeps the two from drifting apart.

use crate::gen::Mix;
use crate::json::Value;
use hot_ycsb::DatasetKind;

/// How long one run measures when the command line does not say
/// (`run_seconds` of `BENCHMARK.json`; the driver always says).
pub const RUN_SECONDS: u32 = 10;

/// Which default entry points a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `ConcurrentHot::get_batch`, one call per chunk.
    LibBatch,
    /// Scalar `get`/`insert`/`remove`/`scan_into` on `ConcurrentHot`,
    /// with a second thread reading.
    LibScalar,
    /// `hot-server` in-process, driven through one `hot_client::Connection`.
    Serve,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: DatasetKind,
    /// Keys in the index after set-up.
    pub loaded: usize,
    /// Keys the generator may make live in total (`loaded` + dead pool).
    pub universe: usize,
    pub mix: Mix,
    pub engine: EngineKind,
    /// Ops per slice: sized once, on the commit that added the benchmark,
    /// so that a slice takes about a third of a second there. A multiple
    /// of the chunk size.
    pub slice_ops: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "lib-read-url2m",
        why: "2M url keys, index+tuples >> L2: uniform get_batch; all trie/MLP/key-compare work, no serving, no writes",
        kind: DatasetKind::Url,
        loaded: 2_000_000,
        universe: 2_000_000,
        mix: Mix::READ_ONLY,
        engine: EngineKind::LibBatch,
        slice_ops: 4096 * 128,
    },
    Spec {
        name: "lib-churn-int1m",
        why: "1M integer keys by incremental insert, then scalar get/insert/remove/scan with a pinned reader: COW writes, ROWEX, epochs; bypasses MLP and router",
        kind: DatasetKind::Integer,
        loaded: 1_000_000,
        universe: 2_000_000,
        mix: Mix { get: 40, put_live: 0, insert_dead: 20, remove: 20, scan: 20, dead_one_in: 8, zipf: true },
        engine: EngineKind::LibScalar,
        slice_ops: 1536 * 128,
    },
    Spec {
        name: "serve-read-url2m",
        why: "the lib-read-url2m stream as GET frames over loopback, 1024 in flight: same trie work plus client, socket, decode, coalescing, router, encode",
        kind: DatasetKind::Url,
        loaded: 2_000_000,
        universe: 2_000_000,
        mix: Mix::READ_ONLY,
        engine: EngineKind::Serve,
        slice_ops: 3072 * 128,
    },
    Spec {
        name: "serve-mix-int200k",
        why: "200k integer keys, cache-resident: Zipfian GET/PUT/DEL/SCAN frames; trie nearly free, so protocol and server code are the cost, GET runs broken by writes",
        kind: DatasetKind::Integer,
        loaded: 200_000,
        universe: 220_000,
        mix: Mix { get: 50, put_live: 20, insert_dead: 10, remove: 10, scan: 10, dead_one_in: 0, zipf: true },
        engine: EngineKind::Serve,
        slice_ops: 2048 * 128,
    },
];

impl Spec {
    /// The `--quick` variant: at most 100 k keys and small slices, to
    /// smoke-test the harness in seconds. Its numbers mean nothing.
    pub fn quick(&self) -> Spec {
        let loaded = self.loaded.min(100_000);
        Spec {
            loaded,
            universe: loaded + (self.universe - self.loaded).min(loaded),
            slice_ops: 256 * 128,
            ..*self
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// What a user of the library or the service sees. Every workload reports
/// all of them. The speed bounds are the widest the contract allows: on
/// the 2-vCPU host the benchmark was sized on, ten seeds spread by a third
/// of that or more (`bench/README.md`, "Bounds and what was seen").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_mops",
        unit: "Mops",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p05_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_per_key_b",
        unit: "B",
        lower_is_better: true,
        bound: 0.1,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn layer(name: &'static str, unit: &'static str, lower_is_better: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better,
    }
}

/// Traced-run metrics, `<module>.<metric>`. Every workload's traced run
/// reports all of them: the layer rows are measured on that workload's
/// corpus and key distribution.
pub const PER_LAYER: [PerLayer; 57] = [
    // Ladder rungs and their differences (ns per op).
    layer("trie.get_ns", "ns", true),
    layer("sync.get_ns", "ns", true),
    layer("sync.rowex_ns", "ns", true),
    layer("mlp.get_batch_ns", "ns", true),
    layer("mlp.batch_gain", "ratio", false),
    layer("mlp.get_batch_w8_ns", "ns", true),
    layer("mlp.get_batch_w32_ns", "ns", true),
    layer("mlp.get_batch_w1024_ns", "ns", true),
    layer("shard.get_batch_ns", "ns", true),
    layer("shard.route_ns", "ns", true),
    layer("shard.imbalance", "ratio", true),
    layer("protocol.loop_ns", "ns", true),
    layer("protocol.req_encode_ns", "ns", true),
    layer("protocol.req_decode_ns", "ns", true),
    layer("protocol.resp_encode_ns", "ns", true),
    layer("protocol.resp_decode_ns", "ns", true),
    layer("protocol.bytes_per_req", "B", true),
    layer("protocol.bytes_per_resp", "B", true),
    layer("server.loopback_cpu_ns", "ns", true),
    layer("server.loopback_wall_ns", "ns", true),
    layer("server.transport_ns", "ns", true),
    layer("server.bytes_in_per_op", "B", true),
    layer("server.bytes_out_per_op", "B", true),
    layer("server.proto_errors", "count", true),
    layer("server.start_s", "s", true),
    layer("client.encode_ns", "ns", true),
    layer("client.flush_ns", "ns", true),
    layer("client.recv_wait_ns", "ns", true),
    layer("client.busy_share", "ratio", true),
    layer("client.rtt_p50_us", "us", true),
    // Structure.
    layer("trie.node_bytes_per_key", "B", true),
    layer("trie.mean_leaf_depth", "count", true),
    // Write path and scans, scalar.
    layer("sync.insert_ns", "ns", true),
    layer("sync.remove_ns", "ns", true),
    layer("sync.load_insert_ns", "ns", true),
    layer("scan.scan_ns", "ns", true),
    layer("scan.ns_per_tid", "ns", true),
    // Set-up.
    layer("bulk.load_ns_per_key", "ns", true),
    layer("bulk.sort_ns_per_key", "ns", true),
    layer("keys.arena_fill_ns_per_key", "ns", true),
    layer("keys.tuple_bytes_per_key", "B", true),
    // Side rows.
    layer("arena.get_ns", "ns", true),
    layer("arena.bytes_per_key", "B", true),
    layer("metrics.record_ns", "ns", true),
    // The workload's own timed phase, from /proc.
    layer("proc.user_us_per_op", "us", true),
    layer("proc.sys_us_per_op", "us", true),
    layer("proc.vol_ctxsw_per_kop", "1/kop", true),
    layer("proc.invol_ctxsw_per_kop", "1/kop", true),
    // Qualifiers of the run.
    layer("driver.window_p50_mops", "Mops", false),
    layer("driver.lat_p50_us", "us", true),
    layer("driver.lat_p99_us", "us", true),
    layer("driver.slice_iqr_pct", "%", true),
    layer("driver.little_ratio", "ratio", true),
    layer("ycsb.gen_ns_per_op", "ns", true),
    layer("trace.overhead_pct", "%", true),
    layer("trace.chunk_self_pct", "%", true),
    layer("host.spin_mops", "Mops", false),
];

/// A metric as the harness passes it around; its unit is in the tables.
pub type Row = (&'static str, f64);

/// Diagnostics that are in neither table, with their units.
const EXTRAS: [(&str, &str); 2] = [("host.spin_gap_pct", "%"), ("sync.bg_reader_mops", "Mops")];

/// The unit of a metric or diagnostic this benchmark reports.
pub fn unit_of(name: &str) -> &'static str {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    let per_layer = PER_LAYER.iter().map(|m| (m.name, m.unit));
    end_to_end
        .chain(per_layer)
        .chain(EXTRAS)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is in no metric table"))
        .1
}

fn better(lower_is_better: bool) -> Value {
    Value::str(if lower_is_better { "lower" } else { "higher" })
}

/// `BENCHMARK.json`, generated from the tables above
/// (`repo-bench manifest > BENCHMARK.json`).
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
    ];
    Value::obj([
        ("command", Value::Arr(command.map(Value::str).to_vec())),
        ("paths", Value::Arr(vec![Value::str("bench")])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", better(m.lower_is_better)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", better(m.lower_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` is what the driver reads; it must be what these
    /// tables generate, and within the limits the contract sets.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `repo-bench manifest > BENCHMARK.json`"
        );

        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)) && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(w.slice_ops % crate::gen::CHUNK, 0);
        }
        // 4 + 22 runs per workload must fit the driver's 3420 s with builds.
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
