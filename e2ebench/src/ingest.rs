//! `ingest`: one 2-shard server with the op log on and the read path off;
//! one closed-loop connection sends 1024-key `INSERT_BATCH` frames from a
//! CAIDA-like Zipf trace (every 8th batch feeds stream B, so similarity
//! has two sides). Nearly all the time goes to the composite
//! `ShardEngine::insert` behind the shard queues.
//!
//! The figure is *applied* throughput: items divided by the time from the
//! first send until `STATS` (which rides each shard's FIFO queue behind
//! the inserts) counts every item applied. Closed-loop ack latency is set
//! by the client's `BUSY` backoff sleeps, so it is reported but is not
//! what this workload is for.

use crate::report::{peak_rss_mib, Samples};
use crate::{engine_cfg, layers, set_up_median, Args, Checks, Outcome, SHARDS, WINDOW};
use she_core::analysis::she_bm_error_bound;
use she_core::SheCountMin;
use she_server::cluster::cluster_op;
use she_server::{
    Checkpoint, Client, DirectEngine, EngineConfig, Server, ServerConfig, ShardEngine,
};
use she_streams::{CaidaLike, KeyStream};
use she_window::WindowTruth;
use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

pub const BATCH: usize = 1024;
/// Every `B_EVERY`-th batch goes to stream B.
const B_EVERY: u64 = 8;
pub const SALT_A: u64 = 0xA;
const SALT_B: u64 = 0xB;
const SALT_PROBE: u64 = 0xC;
/// Op-log capacity in records (one record per batch).
const REPL_LOG: usize = 1024;
/// How often the sender samples the shard queue depths.
const STATUS_EVERY: Duration = Duration::from_millis(100);
/// Keys drawn uniformly from the universe to probe beyond the window.
const OTHER_PROBES: usize = 2048;
/// SHE-BM's default α and β (the composite builds its bitmap with
/// defaults).
const BM_ALPHA: f64 = 0.2;
const BM_BETA: f64 = 0.9;

/// The ingest key stream: batch `i` (1-based) is stream B when
/// `i % B_EVERY == 0`, else stream A. Cloning replays it exactly.
#[derive(Debug, Clone)]
struct Trace {
    a: CaidaLike,
    b: CaidaLike,
    batches: u64,
}

impl Trace {
    fn new(seed: u64) -> Self {
        Self {
            a: CaidaLike::default_trace(crate::stream_seed(seed, SALT_A)),
            b: CaidaLike::default_trace(crate::stream_seed(seed, SALT_B)),
            batches: 0,
        }
    }

    fn next(&mut self, keys: &mut Vec<u64>) -> u8 {
        self.batches += 1;
        let (stream, g) =
            if self.batches.is_multiple_of(B_EVERY) { (1, &mut self.b) } else { (0, &mut self.a) };
        keys.clear();
        keys.extend((0..BATCH).map(|_| g.next_key()));
        stream
    }
}

struct Live {
    server: Server,
    client: Client,
    trace: Trace,
}

fn set_up(seed: u64) -> io::Result<Live> {
    let trace = Trace::new(seed);
    let server = Server::start(ServerConfig {
        engine: engine_cfg(),
        repl_log: REPL_LOG,
        ..Default::default()
    })?;
    let mut client = Client::connect(server.local_addr())?;
    client.hello()?;
    Ok(Live { server, client, trace })
}

/// What one shard of the in-process replay hands back.
struct ShardReplay {
    snapshot: Vec<u8>,
    /// Exact counts over the most recent three quarters of the shard's
    /// window (stream A): clear of the window edge.
    recent: WindowTruth,
    /// Exact distinct keys in the shard's whole window.
    distinct: usize,
    /// A Count-Min sized like the shard's, fed the same stream-A keys: it
    /// tells which counters of a key are mature.
    cm: SheCountMin,
}

impl ShardReplay {
    /// Whether at least one of `key`'s Count-Min counters is mature (age
    /// at least the shard window). Its frequency is then the minimum over
    /// counters that cover the whole window, which never reads below the
    /// exact in-window count (§4.4). Keys whose counters are all young get
    /// the method's best-effort fallback, which may read low.
    fn has_mature_counter(&self, key: u64) -> bool {
        let engine = self.cm.engine();
        let mut cells = Vec::new();
        engine.updates_for(&key, &mut cells);
        cells.iter().any(|c| engine.observe_mature(c.group(engine.config().group_cells)))
    }
}

/// Feed every key the server received, in order, into one `ShardEngine`
/// per shard (one thread each), tracking exact window truth per shard.
fn replay(trace: &Trace, batches: u64, cfg: EngineConfig) -> Vec<ShardReplay> {
    let shard_window = usize::try_from(cfg.window).expect("window fits") / cfg.shards;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.shards)
            .map(|shard| {
                let mut trace = trace.clone();
                s.spawn(move || {
                    let mut engine = ShardEngine::new(&cfg, shard);
                    // Sized as `ShardEngine::new` sizes its Count-Min.
                    let mut cm = SheCountMin::builder()
                        .window(cfg.window / cfg.shards as u64)
                        .memory_bytes(cfg.memory_bytes / cfg.shards)
                        .seed(cfg.seed)
                        .build();
                    let mut ring: VecDeque<u64> = VecDeque::with_capacity(shard_window + BATCH);
                    let mut keys = Vec::with_capacity(BATCH);
                    for _ in 0..batches {
                        let stream = trace.next(&mut keys);
                        for &k in keys.iter().filter(|&&k| cfg.shard_of(k) == shard) {
                            engine.insert(stream, k);
                            if stream == 0 {
                                cm.insert(&k);
                                ring.push_back(k);
                            }
                        }
                        while ring.len() > shard_window {
                            ring.pop_front();
                        }
                    }
                    let mut recent = WindowTruth::new(shard_window * 3 / 4);
                    ring.iter().for_each(|&k| {
                        recent.insert(k);
                    });
                    let mut whole: Vec<u64> = ring.into_iter().collect();
                    whole.sort_unstable();
                    whole.dedup();
                    ShardReplay { snapshot: engine.snapshot(), recent, distinct: whole.len(), cm }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    })
}

pub fn run(args: &Args, t: &mut crate::trace::Tracer) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (Live { server, mut client, trace }, setup_s) = set_up_median(
        || set_up(args.seed),
        |l| {
            drop(l.client);
            l.server.join();
        },
    )?;

    // Timed phase: closed-loop batches until the clock runs out.
    let mut checks = Checks::default();
    let mut sender = trace.clone();
    let mut keys = Vec::with_capacity(BATCH);
    let mut acks = Samples::default();
    let mut sent = 0u64;
    let mut depth_max = 0u64;
    let root = t.open("ingest.timed", 0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let mut next_status = t0 + STATUS_EVERY;
    while Instant::now() < deadline {
        let stream = sender.next(&mut keys);
        let start = Instant::now();
        let r = client.insert_batch(stream, &keys);
        let end = Instant::now();
        t.record("client.insert_batch", root, start, end, BATCH as u64);
        match r {
            Ok(n) => checks.check(n == BATCH as u64, || format!("batch accepted {n} of {BATCH}")),
            Err(e) => {
                checks.check(false, || format!("insert batch: {e}"));
                break;
            }
        }
        acks.push(end - start);
        sent += BATCH as u64;
        if end >= next_status {
            let depths = t.time("client.cluster_status", root, 1, || client.cluster_status())?;
            depth_max = depth_max.max(depths.queue_depths.iter().copied().max().unwrap_or(0));
            next_status = end + STATUS_EVERY;
        }
    }
    let acked_at = Instant::now();
    let applied = loop {
        let stats = t.time("client.stats", root, 1, || client.stats())?;
        let applied: u64 = stats.iter().map(|s| s.inserts).sum();
        if applied >= sent || acked_at.elapsed() > crate::SETTLE_LIMIT {
            break applied;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let applied_at = Instant::now();
    t.close(root, sent);
    let peak = peak_rss_mib();
    checks.check(applied == sent, || format!("{applied} items applied, {sent} sent"));

    let snap_start = Instant::now();
    let snapshot = client.snapshot_all()?;
    let checkpoint_ms = snap_start.elapsed().as_secs_f64() * 1e3;

    let (all_young, recent_keys) =
        verify(&mut checks, &mut client, (&trace, sender.batches), &snapshot, args.seed)?;

    let f = &mut out.figures;
    f.put("setup_s", "s", setup_s);
    f.put("peak_rss_mib", "MiB", peak);
    f.put("applied_items_per_s", "1/s", sent as f64 / (applied_at - t0).as_secs_f64());
    f.put_n("insert_batch_mean_us", "us", acks.mean_us(), acks.len());
    f.put_p50_tail("insert_batch_p50_us", "insert_batch_p99_us", &mut acks);
    f.put("items_sent", "count", sent as f64);
    f.put_n("freq_all_young_keys", "count", all_young as f64, recent_keys);

    let l = &mut out.layers;
    l.put("worker.acked_items_per_s", "1/s", sent as f64 / (acked_at - t0).as_secs_f64());
    l.put("worker.drain_ms", "ms", (applied_at - acked_at).as_secs_f64() * 1e3);
    l.put("worker.busy_retries", "count", client.busy_retries as f64);
    l.put("worker.queue_depth_max", "count", depth_max as f64);
    l.put("snapshot.checkpoint_ms", "ms", checkpoint_ms);
    l.put("snapshot.bytes", "B", snapshot.len() as f64);

    let addr = server.local_addr();
    // The trace's 256 hottest keys (rank r is key `mix64(r)`).
    let hot: Vec<u64> = (0..256).map(she_hash::mix64).collect();
    layers::wire_probes(t, addr, &|_| addr, &hot)?;
    layers::micro(args.seed, t);
    drop(client);
    server.join();
    out.checks = checks;
    Ok(out)
}

/// The output checks: the served state equals the in-process engines fed
/// the same keys, byte for byte; served member/freq/card/sim answers
/// equal a `DirectEngine` restored from those engines; no false negative
/// in the recent part of each shard's window; cardinality within SHE-BM's
/// analytic bound plus linear-counting noise of the exact in-window
/// distinct count; a recent key with a mature Count-Min counter never
/// reads a frequency below its exact count. Returns how many recent keys
/// had only young counters (exempt from that check), and how many recent
/// keys were probed.
fn verify(
    checks: &mut Checks,
    client: &mut Client,
    (trace, batches): (&Trace, u64),
    served: &[u8],
    seed: u64,
) -> io::Result<(usize, usize)> {
    let cfg = engine_cfg();
    let mut shards = replay(trace, batches, cfg);
    let snapshots = shards.iter_mut().map(|s| std::mem::take(&mut s.snapshot)).collect();
    let mirror_bytes = Checkpoint { cfg, shards: snapshots }.encode();
    checks.check(served == mirror_bytes.as_slice(), || {
        "served checkpoint differs from the in-process engines fed the same keys".to_string()
    });
    let mut mirror = DirectEngine::restore(&mirror_bytes, None)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;

    let mut probes: Vec<u64> =
        shards.iter().flat_map(|s| s.recent.iter_counts().map(|(k, _)| k)).collect();
    let recent_len = probes.len();
    let mut rng = she_hash::Xoshiro256::new(crate::stream_seed(seed, SALT_PROBE));
    probes.extend(
        (0..OTHER_PROBES)
            .map(|_| she_hash::mix64(she_hash::RandomSource::next_u64(&mut rng) % 600_000)),
    );
    let mut all_young = 0;
    let members = client.query_batch(cluster_op::MEMBER, &probes)?;
    let freqs = client.query_batch(cluster_op::FREQ, &probes)?;
    for (i, &k) in probes.iter().enumerate() {
        let (m, f) = (members[i], freqs[i]);
        let want_m = u64::from(mirror.member(k));
        let want_f = mirror.frequency(k);
        checks.check(m == want_m, || format!("member({k:#x}) served {m}, engine {want_m}"));
        checks.check(f == want_f, || format!("freq({k:#x}) served {f}, engine {want_f}"));
        if i < recent_len {
            let shard = &shards[cfg.shard_of(k)];
            let exact = u64::from(shard.recent.frequency(k));
            checks.check(m == 1, || format!("false negative for recent key {k:#x}"));
            if shard.has_mature_counter(k) {
                checks.check(f >= exact, || {
                    format!("freq({k:#x}) {f} below exact {exact} with a mature counter")
                });
            } else {
                all_young += 1;
            }
        }
    }

    let card = client.query_card()?;
    let want = mirror.cardinality();
    checks.check(card.to_bits() == want.to_bits(), || format!("card served {card}, engine {want}"));
    let shard_window = WINDOW / SHARDS as u64;
    let bits_per_shard = (crate::MEMORY / SHARDS * 8) as f64;
    let (mut exact, mut tolerance) = (0.0, 0.0);
    for s in &shards {
        let c = s.distinct.max(1) as f64;
        // Eq. 3's bias bound, plus four standard errors of linear
        // counting over the legal bits: group ages are uniform over
        // [0, (1 + α)N) and groups younger than βN are skipped.
        let bias = she_bm_error_bound(BM_ALPHA, shard_window, s.distinct.max(1) as u64);
        let legal_bits = bits_per_shard * (1.0 + BM_ALPHA - BM_BETA) / (1.0 + BM_ALPHA);
        let noise = 4.0 * (bits_per_shard / (legal_bits * c)).sqrt();
        exact += c;
        tolerance += (bias + noise) * c;
    }
    checks.check((card - exact).abs() <= tolerance, || {
        format!("card {card:.0} vs exact {exact:.0}: outside ±{tolerance:.0}")
    });
    eprintln!(
        "ingest card: served {card:.1}, exact in-window {exact:.0}, tolerance ±{tolerance:.0}"
    );

    let sim = client.query_sim()?;
    let want = mirror.similarity();
    checks.check(sim.to_bits() == want.to_bits(), || format!("sim served {sim}, engine {want}"));
    Ok((all_young, recent_len))
}
