//! What the benchmark is: the five workloads, the end-to-end metrics
//! with their bounds, and the per-layer metrics. `BENCHMARK.json` at
//! the repository root is generated from these tables (`manifest`), and
//! a test holds the two equal.

use std::fmt::Write as _;

/// How long one driver run measures.
pub const RUN_SECONDS: u64 = 22;

/// The seed `run` uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// The five workloads; the names are fixed for later changes to refer
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    Kernels,
    SqlSingle,
    SqlSharded,
    ServeMixed,
    IngestWal,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Kernels,
        Workload::SqlSingle,
        Workload::SqlSharded,
        Workload::ServeMixed,
        Workload::IngestWal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::SqlSingle => "sql_single",
            Workload::SqlSharded => "sql_sharded",
            Workload::ServeMixed => "serve_mixed",
            Workload::IngestWal => "ingest_wal",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Kernels => {
                "the paper's experiment: six algorithms x five distributions x low/mid/high \
                 cardinality on the bare simulator, the floor under every other workload"
            }
            Workload::SqlSingle => {
                "six SQL statement shapes through one session (whole-plan and prepared \
                 drivers), working set larger than the simulated L2; parse, plan, cache, \
                 filter, join, tail"
            }
            Workload::SqlSharded => {
                "the same SQL through the morsel executor on 4 shards and 2 workers; 40% of \
                 statements are zone-map-pruned so coordination overhead shows beside 60% \
                 simulator-bound ones"
            }
            Workload::ServeMixed => {
                "what a vagg-serve client feels: 2 loopback connections, 85% reads and 15% \
                 single-row INSERTs on one catalogue that fits the simulated L2, compaction \
                 mid-run"
            }
            Workload::IngestWal => {
                "the write path: durable 64-row appends, rolling-window DELETE, compaction = \
                 WAL checkpoint, reads during ingest, then checkpoint and drop/reopen recovery"
            }
        }
    }

    /// What one operation is, and which operation the latency
    /// percentiles are taken over.
    pub fn operation(self) -> &'static str {
        match self {
            Workload::Kernels => "one grid cell: one algorithm over one 2048-row dataset",
            Workload::SqlSingle | Workload::SqlSharded => "one SQL statement",
            Workload::ServeMixed => {
                "one request (read or INSERT); latency percentiles are over the reads"
            }
            Workload::IngestWal => {
                "one engine call (append, DELETE, read, checkpoint, reopen + first aggregate); \
                 latency percentiles are over the 64-row appends"
            }
        }
    }

    /// Whether a pass's simulated cycles must repeat bit for bit.
    /// The other two run operations on racing threads, and each
    /// simulated machine's caches remember what it ran.
    pub fn exact_cycles(self) -> bool {
        !matches!(self, Workload::SqlSharded | Workload::ServeMixed)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see. Reported by every
/// workload, with tracing off.
///
/// The bounds are at least three times the widest ten-seed quartile
/// spread measured on the reference host (README, "Measured
/// steadiness"), capped at the contract's 0.25 — which every host
/// metric hits: that host cannot resolve less in single runs.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the parent's median by which the metric may get
    /// worse before a change counts as a regression.
    pub bound: f64,
    /// Host wall time, or the simulated machine's clock.
    pub clock: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Lower, 0.25, "host"),
    e2e("ops_per_s", "1/s", Higher, 0.25, "host"),
    e2e("p50_ms", "ms", Lower, 0.25, "host"),
    e2e("p90_ms", "ms", Lower, 0.25, "host"),
    e2e("p99_ms", "ms", Lower, 0.25, "host"),
    e2e("sim_cycles_per_op", "cycles", Lower, 0.06, "simulated"),
    e2e("peak_rss_mb", "MiB", Lower, 0.25, "host"),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    clock: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        clock,
    }
}

/// A metric of one layer, from the traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A simulated or byte count that must repeat bit for bit across
    /// the passes of one run.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

pub const PER_LAYER: [Layer; 81] = [
    host("harness.calib_ms", "ms", Lower),
    host("harness.trace_overhead_pct", "%", Lower),
    host("datagen.gen_ns_per_row", "ns", Lower),
    host("isa.lines_touched_ns", "ns", Lower),
    host("isa.exec_ns_per_elem", "ns", Lower),
    host("isa.cam_ns_per_key", "ns", Lower),
    host("mem.access_ns", "ns", Lower),
    exact("mem.l1_hit_rate", "ratio", Higher),
    exact("mem.l2_hit_rate", "ratio", Higher),
    exact("mem.dram_row_hit_rate", "ratio", Higher),
    host("cpu.dispatch_ns", "ns", Lower),
    exact("cpu.uops_per_row", "count", Lower),
    host("sim.stage_ns_per_row", "ns", Lower),
    host("sim.host_ns_per_uop", "ns", Lower),
    host("sim.host_ns_per_cycle", "ns", Lower),
    exact("sim.avg_vl", "count", Higher),
    host("sim.masked_op_ns", "ns", Lower),
    host("sim.unit_load_ns", "ns", Lower),
    host("sim.gather_ns", "ns", Lower),
    host("sort.radix_ns_per_row", "ns", Lower),
    host("sort.vsr_ns_per_row", "ns", Lower),
    host("core.scalar.ns_per_row", "ns", Lower),
    host("core.ssr.ns_per_row", "ns", Lower),
    host("core.poly.ns_per_row", "ns", Lower),
    host("core.asr.ns_per_row", "ns", Lower),
    host("core.mono.ns_per_row", "ns", Lower),
    host("core.psm.ns_per_row", "ns", Lower),
    exact("core.scalar.cpt", "cycles", Lower),
    exact("core.ssr.cpt", "cycles", Lower),
    exact("core.poly.cpt", "cycles", Lower),
    exact("core.asr.cpt", "cycles", Lower),
    exact("core.mono.cpt", "cycles", Lower),
    exact("core.psm.cpt", "cycles", Lower),
    host("db.sql.parse_us", "us", Lower),
    host("db.plan.cold_us", "us", Lower),
    host("db.plan.cached_us", "us", Lower),
    exact("db.cache.hit_rate", "ratio", Higher),
    host("db.session.host_ns_per_row", "ns", Lower),
    host("db.session.full_ms", "ms", Lower),
    host("db.session.filter_ms", "ms", Lower),
    host("db.session.composite_ms", "ms", Lower),
    host("db.session.pruned_ms", "ms", Lower),
    host("db.session.tail_ms", "ms", Lower),
    exact("db.session.filter_cycle_share", "ratio", Lower),
    exact("db.session.tail_cycle_share", "ratio", Lower),
    host("db.filter.ns_per_row", "ns", Lower),
    host("db.join.ms", "ms", Lower),
    host("db.join.freeze_us", "us", Lower),
    host("db.snapshot.capture_us", "us", Lower),
    host("db.executor.morsels_per_op", "count", Lower),
    host("db.executor.steal_rate", "ratio", Lower),
    host("db.executor.prune_rate", "ratio", Higher),
    host("db.executor.affinity_moves", "count", Lower),
    host("db.executor.queue_wait_us", "us", Lower),
    host("db.executor.worker_imbalance", "ratio", Lower),
    host("db.shard.speedup_vs_single", "ratio", Higher),
    host("db.shard.pruned_op_us", "us", Lower),
    host("db.shard.cycle_jitter_ppm", "ppm", Lower),
    host("db.delta.append_us", "us", Lower),
    host("db.delta.compaction_ms", "ms", Lower),
    exact("db.delta.compactions", "count", Lower),
    host("db.delta.delete_ms", "ms", Lower),
    host("db.delta.read_ms", "ms", Lower),
    host("db.wal.append_overhead_pct", "%", Lower),
    exact("db.wal.write_syscalls_per_batch", "count", Lower),
    exact("db.wal.written_bytes_per_user_byte", "ratio", Lower),
    host("db.wal.replay_rows_per_s", "1/s", Higher),
    host("db.wal.checkpoint_ms", "ms", Lower),
    exact("db.wal.stored_bytes_per_live_byte", "ratio", Lower),
    host("db.wal.recover_ms", "ms", Lower),
    host("db.metrics.snapshot_us", "us", Lower),
    host("server.protocol.encode_ns_per_row", "ns", Lower),
    host("server.protocol.decode_ns_per_row", "ns", Lower),
    exact("server.protocol.reply_bytes_per_row", "count", Lower),
    host("server.gate.reject_us", "us", Lower),
    host("server.gate.rejected", "count", Lower),
    host("server.wire_tax_us", "us", Lower),
    host("server.floor_us", "us", Lower),
    host("server.connect_us", "us", Lower),
    host("server.scaling_2v1", "ratio", Higher),
    host("server.insert_us", "us", Lower),
];

/// The declared per-layer metric called `name`.
pub fn layer(name: &str) -> &'static Layer {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
            w.name(),
            w.why()
        );
        out.push_str(if i + 1 < Workload::ALL.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        );
        out.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.name()
        );
        out.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            on_disk == manifest(),
            "BENCHMARK.json is stale: regenerate it with \
             `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        let mut names = HashSet::new();
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for w in Workload::ALL {
            assert!(ok(w.name(), "_.-", 64) && names.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(ok(m.name, "_.-", 64) && ok(m.unit, "_/%.-", 16) && names.insert(m.name));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(
                ok(m.name, "_.-", 64) && ok(m.unit, "_/%.-", 16) && names.insert(m.name),
                "{}",
                m.name
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().len() < 64 * 1024);
        let json = crate::json::parse(&manifest()).expect("the manifest is JSON");
        assert_eq!(
            json.get("per_layer").unwrap().as_array().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
