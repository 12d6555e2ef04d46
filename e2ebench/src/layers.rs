//! Single-layer timings for the traced run, and the per-layer table.
//!
//! The hash, sketch, engine and protocol layers are timed in process on
//! the ingest trace at one shard's sizing; the reactor and cluster layers
//! are timed over loopback against the workload's own servers once its
//! timed phase is over. Every timing is a span, and the table is computed
//! from the spans.

use crate::report::Table;
use crate::trace::Tracer;
use crate::{end_to_end, engine_cfg, Outcome, ENGINE_SEED, MEMORY, PER_LAYER, SHARDS, WINDOW};
use she_core::{SheBitmap, SheBloomFilter, SheCountMin, SheMinHash};
use she_hash::{mix64, Bob32};
use she_server::engine::ROUTER_SEED;
use she_server::protocol::Request;
use she_server::{Client, DirectEngine, ShardEngine};
use she_streams::{CaidaLike, KeyStream};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

/// Keys for the cheap per-item timings, and for the composite ones.
const MICRO_KEYS: usize = 200_000;
const COMPOSITE_KEYS: usize = 40_000;
/// Passes over the keys, so every timing covers tens of milliseconds and
/// a scheduler hiccup cannot dominate it: nanosecond-scale calls (hash,
/// partition, codec) and sketch calls.
const FAST_PASSES: u64 = 50;
const SKETCH_PASSES: u64 = 5;
/// Whole-structure reads timed per call: bitmap sweeps and MinHash
/// comparisons.
const SWEEPS: u64 = 200;
const SIMILARITIES: u64 = 20_000;
/// Round trips per wire probe, and connects for the leg-connect probe.
const PROBE_CALLS: usize = 2000;
const PROBE_CONNECTS: usize = 300;

/// Time the hash, sketch, engine and protocol layers on the ingest trace
/// (the first keys of the `ingest` workload's stream A).
pub fn micro(seed: u64, t: &mut Tracer) {
    if !t.on() {
        return;
    }
    let root = t.open("layers.micro", 0);
    let keys = CaidaLike::default_trace(crate::stream_seed(seed, crate::ingest::SALT_A))
        .take_vec(MICRO_KEYS);
    let n = keys.len() as u64;
    let few = &keys[..COMPOSITE_KEYS];

    let bob = Bob32::new(ENGINE_SEED);
    t.time("she_hash.bob_hash", root, n * FAST_PASSES, || {
        (0..FAST_PASSES).fold(0u32, |acc, _| {
            keys.iter().fold(acc, |acc, k| acc ^ bob.hash(&black_box(*k).to_le_bytes()))
        })
    });
    t.time("she_hash.mix64", root, n * FAST_PASSES, || {
        (0..FAST_PASSES).fold(0u64, |acc, _| {
            keys.iter().fold(acc, |acc, k| acc ^ mix64(black_box(*k) ^ ROUTER_SEED))
        })
    });

    // One shard's sizing, exactly as `ShardEngine::new` builds it.
    let (window, bytes) = (WINDOW / SHARDS as u64, MEMORY / SHARDS);
    let mut bf =
        SheBloomFilter::builder().window(window).memory_bytes(bytes).seed(ENGINE_SEED).build();
    let mut bm = SheBitmap::builder().window(window).memory_bytes(bytes).seed(ENGINE_SEED).build();
    let mut cm =
        SheCountMin::builder().window(window).memory_bytes(bytes).seed(ENGINE_SEED).build();
    let mut mh_a = SheMinHash::builder().window(window).num_hashes(128).seed(ENGINE_SEED).build();
    let mut mh_b = SheMinHash::builder().window(window).num_hashes(128).seed(ENGINE_SEED).build();
    let sketch_ops = n * SKETCH_PASSES;
    let passes = 0..SKETCH_PASSES;
    t.time("she_core.bf_insert", root, sketch_ops, || {
        passes.clone().for_each(|_| keys.iter().for_each(|k| bf.insert(k)))
    });
    t.time("she_core.bm_insert", root, sketch_ops, || {
        passes.clone().for_each(|_| keys.iter().for_each(|k| bm.insert(k)))
    });
    t.time("she_core.cm_insert", root, sketch_ops, || {
        passes.clone().for_each(|_| keys.iter().for_each(|k| cm.insert(k)))
    });
    t.time("she_core.mh_insert", root, few.len() as u64, || {
        few.iter().for_each(|k| mh_a.insert(k))
    });
    keys[keys.len() - COMPOSITE_KEYS..].iter().for_each(|k| mh_b.insert(k));
    t.time("she_core.bf_contains", root, sketch_ops, || {
        passes
            .clone()
            .map(|_| keys.iter().filter(|k| bf.contains(black_box(*k))).count())
            .sum::<usize>()
    });
    t.time("she_core.cm_query", root, sketch_ops, || {
        passes.clone().fold(0u64, |acc, _| {
            keys.iter().fold(acc, |acc, k| acc.wrapping_add(cm.query(black_box(k))))
        })
    });
    t.time("she_core.bm_estimate", root, SWEEPS, || {
        (0..SWEEPS).map(|_| black_box(bm.estimate())).sum::<f64>()
    });
    t.time("she_core.mh_similarity", root, SIMILARITIES, || {
        (0..SIMILARITIES).map(|_| black_box(mh_a.similarity(&mut mh_b))).sum::<f64>()
    });

    let cfg = engine_cfg();
    let mut shard = ShardEngine::new(&cfg, 0);
    t.time("engine.shard_insert", root, few.len() as u64, || {
        few.iter().for_each(|&k| shard.insert(0, k))
    });
    let mut direct = DirectEngine::new(cfg);
    let direct_keys = &keys[..2 * COMPOSITE_KEYS];
    t.time("engine.direct_insert", root, direct_keys.len() as u64, || {
        direct_keys.iter().for_each(|&k| direct.insert(0, k))
    });
    let batches: Vec<&[u64]> = keys.chunks(crate::ingest::BATCH).collect();
    t.time("engine.partition", root, n * FAST_PASSES, || {
        (0..FAST_PASSES)
            .map(|_| batches.iter().map(|b| black_box(cfg.partition(b)).len()).sum::<usize>())
            .sum::<usize>()
    });
    let encode = || -> Vec<Vec<u8>> {
        batches
            .iter()
            .map(|b| Request::InsertBatch { stream: 0, keys: b.to_vec() }.encode())
            .collect()
    };
    t.time("protocol.batch_encode", root, n * FAST_PASSES, || {
        (0..FAST_PASSES).map(|_| black_box(encode()).len()).sum::<usize>()
    });
    let frames = encode();
    t.time("protocol.batch_decode", root, n * FAST_PASSES, || {
        (0..FAST_PASSES)
            .map(|_| frames.iter().filter(|f| Request::decode(f).is_ok()).count())
            .sum::<usize>()
    });
    t.close(root, 0);
}

/// Time the loopback layers against a running server: `HELLO` round
/// trips, bare connects (what every scatter leg pays), and point queries
/// sent straight to the node owning each key.
pub fn wire_probes(
    t: &mut Tracer,
    server: SocketAddr,
    owner_of: &dyn Fn(u64) -> SocketAddr,
    keys: &[u64],
) -> std::io::Result<()> {
    if !t.on() {
        return Ok(());
    }
    let root = t.open("layers.wire", 0);
    let mut c = Client::connect(server)?;
    for _ in 0..PROBE_CALLS {
        let start = Instant::now();
        c.hello()?;
        t.record("reactor.hello", root, start, Instant::now(), 1);
    }
    for _ in 0..PROBE_CONNECTS {
        let start = Instant::now();
        let leg = Client::connect(server)?;
        t.record("cluster.leg_connect", root, start, Instant::now(), 1);
        drop(leg);
    }
    let mut direct: Vec<(SocketAddr, Client)> = Vec::new();
    for &k in keys.iter().cycle().take(PROBE_CALLS) {
        let addr = owner_of(k);
        let i = match direct.iter().position(|(a, _)| *a == addr) {
            Some(i) => i,
            None => {
                direct.push((addr, Client::connect(addr)?));
                direct.len() - 1
            }
        };
        let start = Instant::now();
        direct[i].1.query_member(k)?;
        t.record("cluster.direct_point", root, start, Instant::now(), 1);
    }
    t.close(root, 0);
    Ok(())
}

fn put_span_figures(table: &mut Table, t: &Tracer) {
    let per = |name: &str| t.ns_per_item(name);
    for (metric, span) in [
        ("she_hash.bob_hash_ns", "she_hash.bob_hash"),
        ("she_hash.mix64_ns", "she_hash.mix64"),
        ("she_core.bf_insert_ns", "she_core.bf_insert"),
        ("she_core.bm_insert_ns", "she_core.bm_insert"),
        ("she_core.cm_insert_ns", "she_core.cm_insert"),
        ("she_core.mh_insert_ns", "she_core.mh_insert"),
        ("she_core.bf_contains_ns", "she_core.bf_contains"),
        ("she_core.cm_query_ns", "she_core.cm_query"),
        ("engine.shard_insert_ns", "engine.shard_insert"),
        ("engine.partition_ns_per_key", "engine.partition"),
        ("protocol.batch_encode_ns_per_key", "protocol.batch_encode"),
        ("protocol.batch_decode_ns_per_key", "protocol.batch_decode"),
    ] {
        table.put(metric, "ns", per(span));
    }
    table.put("she_core.bm_estimate_us", "us", per("she_core.bm_estimate") / 1e3);
    table.put("she_core.mh_similarity_us", "us", per("she_core.mh_similarity") / 1e3);
    table.put("engine.direct_items_per_s", "1/s", t.items_per_s("engine.direct_insert"));
    for (metric, span) in [
        ("reactor.hello_rtt_p50_us", "reactor.hello"),
        ("cluster.leg_connect_us", "cluster.leg_connect"),
        ("cluster.direct_point_p50_us", "cluster.direct_point"),
    ] {
        let (v, n) = t.quantile_us(span, 0.5);
        table.put_n(metric, "us", v, n);
    }
    let (ack, n) = t.quantile_us("client.insert_batch", 0.99);
    table.put_n("reactor.insert_ack_p99_us", "us", ack, n);
    let (query, n) = t.quantile_us("client.query", 0.99);
    table.put_n("worker.query_p99_us", "us", query, n);
    let slow = t.count_over(&["client.query_fast", "client.query"], 1_000_000);
    table.put("reactor.reads_over_1ms", "count", slow as f64);
}

/// Complete the per-layer table: span-derived figures, the ratio of
/// served to single-thread ingest, the traced throughput (its gap to an
/// untraced run is the tracing overhead), and 0 for every layer the
/// workload bypasses.
pub fn finish_table(out: &mut Outcome, t: &Tracer, workload: &str) {
    let mut table = Table::default();
    put_span_figures(&mut table, t);
    let direct = table.get("engine.direct_items_per_s").unwrap_or(0.0);
    let efficiency = match out.figures.get("applied_items_per_s") {
        Some(applied) if direct > 0.0 => applied / (SHARDS as f64 * direct),
        _ => 0.0,
    };
    table.put("engine.serve_efficiency", "ratio", efficiency);
    let (_, throughput) = end_to_end(workload)[2];
    table.put("trace.served_per_s", "1/s", out.figures.get(throughput).unwrap_or(0.0));
    table.put("trace.spans", "count", t.len() as f64);
    for m in &out.layers.metrics {
        table.put_n(&m.name, m.unit, m.value, m.samples);
    }
    for &(name, unit) in PER_LAYER {
        if table.get(name).is_none() {
            table.put(name, unit, 0.0);
        }
    }
    out.layers = table;
}
