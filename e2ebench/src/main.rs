//! End-to-end and per-layer benchmark of the SHE serving stack.
//!
//! ```text
//! e2ebench --workload <ingest|read_mix|cluster_query> --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload drives real in-process `she_server::Server`s over
//! loopback TCP from at most two generator threads, checks the served
//! answers against the in-process engines and exact window truth, and
//! prints one line per figure followed by a final JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end figures; with `--trace 1` the same workload
//! runs again with spans recorded around every call into a layer, plus
//! single-layer timings of the hash, sketch, engine and protocol code,
//! and the metrics are the per-layer figures. See `README.md`.

mod cluster;
mod ingest;
mod layers;
mod read_mix;
mod report;
mod trace;

use report::Table;
use she_server::EngineConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Hash seed of every engine. Fixed: the run seed varies the inputs only.
pub const ENGINE_SEED: u32 = 1;
/// Global window (items) and per-structure memory of the 2-shard servers.
pub const WINDOW: u64 = 1 << 16;
pub const MEMORY: usize = 64 << 10;
pub const SHARDS: usize = 2;
/// How many times each run sets up its servers; `setup_s` is the median.
pub const SETUPS: usize = 9;
/// Longest wait for queued inserts to apply or the read path to catch
/// up, so a stuck server fails the run instead of hanging it.
pub const SETTLE_LIMIT: std::time::Duration = std::time::Duration::from_secs(30);

/// Set up `SETUPS` times, tearing each earlier set-up down, and return
/// the last one with the median set-up time in seconds.
pub fn set_up_median<T>(
    mut set_up: impl FnMut() -> std::io::Result<T>,
    mut tear_down: impl FnMut(T),
) -> std::io::Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            tear_down(old);
        }
        let start = std::time::Instant::now();
        live = Some(set_up()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((live.expect("SETUPS is positive"), report::median(times)))
}

/// The 2-shard sizing shared by `ingest` and `read_mix`.
pub fn engine_cfg() -> EngineConfig {
    EngineConfig { window: WINDOW, shards: SHARDS, memory_bytes: MEMORY, seed: ENGINE_SEED }
}

/// An input-generator seed derived from the run seed, one per role.
pub fn stream_seed(seed: u64, salt: u64) -> u64 {
    she_hash::mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Output checks and request failures, counted as operations.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Count one operation; `what` describes it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Count `n` operations that succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every figure under its workload-specific name.
    pub figures: Table,
    /// Per-layer figures (filled only when tracing).
    pub layers: Table,
    pub checks: Checks,
}

/// The end-to-end metrics every workload reports (`BENCHMARK.json`),
/// each with the workload figure it reads.
pub fn end_to_end(workload: &str) -> [(&'static str, &'static str); 4] {
    let (throughput, latency) = match workload {
        "ingest" => ("applied_items_per_s", "insert_batch_mean_us"),
        "read_mix" => ("read_ops_per_s", "fast_read_p50_us"),
        _ => ("cluster_requests_per_s", "cluster_point_p50_us"),
    };
    [
        ("setup_s", "setup_s"),
        ("peak_rss_mib", "peak_rss_mib"),
        ("throughput_per_s", throughput),
        ("latency_us", latency),
    ]
}

/// The per-layer metrics every traced run reports (`BENCHMARK.json`),
/// with their units. A layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("she_hash.bob_hash_ns", "ns"),
    ("she_hash.mix64_ns", "ns"),
    ("she_core.bf_insert_ns", "ns"),
    ("she_core.bm_insert_ns", "ns"),
    ("she_core.cm_insert_ns", "ns"),
    ("she_core.mh_insert_ns", "ns"),
    ("she_core.bf_contains_ns", "ns"),
    ("she_core.cm_query_ns", "ns"),
    ("she_core.bm_estimate_us", "us"),
    ("she_core.mh_similarity_us", "us"),
    ("engine.shard_insert_ns", "ns"),
    ("engine.direct_items_per_s", "1/s"),
    ("engine.serve_efficiency", "ratio"),
    ("engine.partition_ns_per_key", "ns"),
    ("protocol.batch_encode_ns_per_key", "ns"),
    ("protocol.batch_decode_ns_per_key", "ns"),
    ("reactor.hello_rtt_p50_us", "us"),
    ("reactor.reads_over_1ms", "count"),
    ("reactor.insert_ack_p99_us", "us"),
    ("worker.query_p99_us", "us"),
    ("worker.acked_items_per_s", "1/s"),
    ("worker.drain_ms", "ms"),
    ("worker.busy_retries", "count"),
    ("worker.queue_depth_max", "count"),
    ("snapshot.checkpoint_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("she_readpath.hit_rate", "ratio"),
    ("she_readpath.invalidations_per_kread", "1/kread"),
    ("she_readpath.catchup_ms", "ms"),
    ("cluster.leg_connect_us", "us"),
    ("cluster.direct_point_p50_us", "us"),
    ("gen.writer_late_p99_us", "us"),
    ("trace.served_per_s", "1/s"),
    ("trace.spans", "count"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2ebench --workload <ingest|read_mix|cluster_query> --seed N \
         --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

/// Every flag is required, so the run length has one source: the
/// caller (`run_seconds` in `BENCHMARK.json`).
fn parse_args() -> Option<Args> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = Some(v.parse().ok()?),
            "--seconds" => seconds = Some(v.parse().ok().filter(|s: &f64| *s > 0.0)?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some(Args { workload: workload?, seed: seed?, seconds: seconds?, trace: trace? })
}

/// Where a traced run writes its spans: under the build directory, inside
/// the checkout.
fn spans_path(args: &Args) -> PathBuf {
    let root =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    root.join("e2ebench-spans").join(format!("{}-{}.tsv", args.workload, args.seed))
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else { return usage() };
    let mut tracer = Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "ingest" => ingest::run(&args, &mut tracer),
        "read_mix" => read_mix::run(&args, &mut tracer),
        "cluster_query" => cluster::run(&args, &mut tracer),
        _ => return usage(),
    };
    let mut out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &out.checks.notes {
        eprintln!("check failed: {note}");
    }
    out.figures.print(&format!("{} seed={} seconds={}", args.workload, args.seed, args.seconds));
    let metrics = if args.trace {
        layers::finish_table(&mut out, &tracer, &args.workload);
        out.layers.print("per-layer (traced run)");
        if let Err(e) = tracer.write(&spans_path(&args)) {
            eprintln!("e2ebench: could not write spans: {e}");
        }
        let names: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
        out.layers.json_object(&names)
    } else {
        let mut e2e = Table::default();
        for (metric, figure) in end_to_end(&args.workload) {
            let m = out.figures.metrics.iter().find(|m| m.name == figure).expect("figure measured");
            e2e.put_n(metric, m.unit, m.value, m.samples);
        }
        e2e.json_object(&end_to_end(&args.workload).map(|(metric, _)| metric))
    };
    println!(
        "attempted={} failed={} spans={}",
        out.checks.attempted,
        out.checks.failed,
        tracer.len()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics
    );
    ExitCode::SUCCESS
}
