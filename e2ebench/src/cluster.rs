//! `cluster_query`: three in-process nodes, each the primary of one
//! single-shard partition at RF 1, under a static `ClusterMap` installed
//! through one shared `ClusterDirectory` (no gossip or replica threads).
//! The nodes are preloaded with partition-routed inserts on both streams;
//! then one closed-loop client asks one coordinator, cycling
//! `CLUSTER_QUERY` member, freq, card, sim and a 256-key
//! `CLUSTER_QUERY_BATCH`; throughput is the five requests of one cycle
//! over the median cycle time, so every kind feeds it. Nothing is
//! inserted while timed, so every answer is checked against a 3-shard
//! `DirectEngine` fed the same preload.

use crate::report::{peak_rss_mib, Samples};
use crate::trace::Tracer;
use crate::{layers, set_up_median, Args, Checks, Outcome, ENGINE_SEED};
use she_hash::{mix64, RandomSource, Xoshiro256};
use she_server::cluster::cluster_op;
use she_server::{
    Client, ClusterDirectory, ClusterMap, DirectEngine, EngineConfig, NodeRef, PartitionMap,
    Response, Server, ServerConfig,
};
use she_streams::{CaidaLike, KeyStream};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PARTITIONS: usize = 3;
/// Global sizing: each partition gets the same per-shard window and
/// memory as a shard of the 2-shard servers.
const WINDOW: u64 = 3 << 15;
const MEMORY: usize = 96 << 10;
const PRELOAD_BATCH: usize = 1024;
const BATCH_KEYS: usize = 256;
/// Requests per cycle: member, freq, card, sim and one batch.
const CYCLE_REQUESTS: f64 = 5.0;
/// Probe keys the client cycles through; a multiple of `BATCH_KEYS`.
const POOL: usize = 16 * BATCH_KEYS;
const UNIVERSE: u64 = 600_000;
const SALT_A: u64 = 0x31;
const SALT_B: u64 = 0x32;
const SALT_POOL: u64 = 0x33;

fn node_cfg() -> EngineConfig {
    EngineConfig {
        window: WINDOW / PARTITIONS as u64,
        shards: 1,
        memory_bytes: MEMORY / PARTITIONS,
        seed: ENGINE_SEED,
    }
}

/// What the in-process engine says every timed query must answer.
struct Expected {
    pool: Vec<u64>,
    member: Vec<bool>,
    freq: Vec<u64>,
    card: f64,
    sim: f64,
}

struct Live {
    nodes: Vec<Server>,
    map: ClusterMap,
    expected: Expected,
}

fn set_up(seed: u64) -> io::Result<Live> {
    let directory =
        Arc::new(ClusterDirectory::new(ClusterMap { epoch: 0, rf: 1, partitions: Vec::new() }));
    let nodes = (0..PARTITIONS)
        .map(|_| {
            Server::start(ServerConfig {
                engine: node_cfg(),
                cluster: Some(Arc::clone(&directory)),
                ..Default::default()
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let map = ClusterMap {
        epoch: 1,
        rf: 1,
        partitions: nodes
            .iter()
            .zip(1u64..)
            .map(|(n, id)| PartitionMap {
                primary: NodeRef { node_id: id, addr: n.local_addr().to_string() },
                replicas: Vec::new(),
            })
            .collect(),
    };
    if !directory.observe(&map) {
        return Err(io::Error::other("static cluster map was not adopted"));
    }

    let mut mirror = DirectEngine::new(EngineConfig {
        window: WINDOW,
        shards: PARTITIONS,
        memory_bytes: MEMORY,
        seed: ENGINE_SEED,
    });
    let mut clients =
        nodes.iter().map(|n| Client::connect(n.local_addr())).collect::<io::Result<Vec<_>>>()?;
    let window = usize::try_from(WINDOW).expect("window fits");
    let a = CaidaLike::default_trace(crate::stream_seed(seed, SALT_A)).take_vec(window);
    let b = CaidaLike::default_trace(crate::stream_seed(seed, SALT_B)).take_vec(window / 2);
    for (stream, keys) in [(0u8, &a), (1u8, &b)] {
        for chunk in keys.chunks(PRELOAD_BATCH) {
            let mut per: Vec<Vec<u64>> = vec![Vec::new(); PARTITIONS];
            for &k in chunk {
                per[map.partition_of(k)].push(k);
                mirror.insert(stream, k);
            }
            for (c, keys) in clients.iter_mut().zip(&per) {
                if !keys.is_empty() {
                    c.insert_batch(stream, keys)?;
                }
            }
        }
    }
    for c in &mut clients {
        c.stats()?; // rides the shard queue behind the preload
    }

    // Half the pool from the preload's distribution (mostly present),
    // half uniform over the universe (mostly absent).
    let mut hot = CaidaLike::default_trace(crate::stream_seed(seed, SALT_POOL));
    let mut rng = Xoshiro256::new(crate::stream_seed(seed, SALT_POOL ^ 1));
    let pool: Vec<u64> = (0..POOL)
        .map(|i| if i % 2 == 0 { hot.next_key() } else { mix64(rng.next_u64() % UNIVERSE) })
        .collect();
    let member = pool.iter().map(|&k| mirror.member(k)).collect();
    let freq = pool.iter().map(|&k| mirror.frequency(k)).collect();
    let expected =
        Expected { member, freq, card: mirror.cardinality(), sim: mirror.similarity(), pool };
    Ok(Live { nodes, map, expected })
}

fn shut_down(nodes: Vec<Server>) {
    nodes.iter().for_each(Server::shutdown);
    for n in nodes {
        n.join();
    }
}

fn same(r: &Response, want: &Response) -> bool {
    match (r, want) {
        (Response::F64(a), Response::F64(b)) => a.to_bits() == b.to_bits(),
        _ => r == want,
    }
}

pub fn run(args: &Args, t: &mut Tracer) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (Live { nodes, map, expected: ex }, setup_s) =
        set_up_median(|| set_up(args.seed), |l| shut_down(l.nodes))?;
    let coordinator = nodes[0].local_addr();
    let mut c = Client::connect(coordinator)?;
    c.hello()?;

    let mut checks = Checks::default();
    // Member and freq both route to one partition, so they share one
    // latency figure; card (a bitmap sweep per leg) and sim cost an order
    // of magnitude apart, so each gets its own.
    let (mut point, mut card, mut sim, mut batch) =
        (Samples::default(), Samples::default(), Samples::default(), Samples::default());
    let mut batch_keys = 0u64;
    let root = t.open("cluster.timed", 0);
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Whole cycles, so point, card, sim and batch traffic all feed the
    // throughput figure. Its median, unlike a per-second count, does not
    // carry every scheduling stall of the host's two cores.
    let mut cycles = Samples::default();
    let mut cycle = 0usize;
    'run: while Instant::now() < end {
        let cycle_start = Instant::now();
        let (i, j) = ((2 * cycle) % POOL, (2 * cycle + 1) % POOL);
        let calls = [
            (cluster_op::MEMBER, ex.pool[i], Response::Bool(ex.member[i])),
            (cluster_op::FREQ, ex.pool[j], Response::U64(ex.freq[j])),
            (cluster_op::CARD, 0, Response::F64(ex.card)),
            (cluster_op::SIM, 0, Response::F64(ex.sim)),
        ];
        for (op, key, want) in calls {
            let s = Instant::now();
            let r = c.cluster_query(op, key);
            let e = Instant::now();
            match r {
                Ok(r) => checks.check(same(&r, &want), || {
                    format!("op {op} key {key:#x}: {r:?}, engine {want:?}")
                }),
                Err(err) => {
                    checks.check(false, || format!("cluster query op {op}: {err}"));
                    break 'run;
                }
            }
            let (samples, span) = match op {
                cluster_op::CARD => (&mut card, "client.cluster_card"),
                cluster_op::SIM => (&mut sim, "client.cluster_sim"),
                _ => (&mut point, "client.cluster_point"),
            };
            samples.push(e - s);
            t.record(span, root, s, e, 1);
        }
        let from = (cycle * BATCH_KEYS) % POOL;
        let keys = &ex.pool[from..from + BATCH_KEYS];
        let op = if cycle.is_multiple_of(2) { cluster_op::MEMBER } else { cluster_op::FREQ };
        let s = Instant::now();
        let r = c.cluster_query_batch(op, keys);
        let e = Instant::now();
        t.record("client.cluster_batch", root, s, e, BATCH_KEYS as u64);
        match r {
            Ok(values) => {
                let want: Vec<u64> = (from..from + BATCH_KEYS)
                    .map(|p| {
                        if op == cluster_op::MEMBER {
                            u64::from(ex.member[p])
                        } else {
                            ex.freq[p]
                        }
                    })
                    .collect();
                checks.check(values == want, || {
                    format!("batch op {op} at {from} differs from the engine")
                });
            }
            Err(err) => {
                checks.check(false, || format!("cluster batch: {err}"));
                break 'run;
            }
        }
        batch.push(e - s);
        cycles.push(e - cycle_start);
        batch_keys += BATCH_KEYS as u64;
        cycle += 1;
    }
    t.close(root, batch_keys);
    let peak = peak_rss_mib();

    let f = &mut out.figures;
    f.put("setup_s", "s", setup_s);
    f.put("peak_rss_mib", "MiB", peak);
    f.put_n("cluster_requests_per_s", "1/s", CYCLE_REQUESTS * 1e6 / cycles.p50(), cycles.len());
    let batch_p50 = batch.p50();
    f.put_n(
        "cluster_batch_keys_per_s",
        "1/s",
        BATCH_KEYS as f64 * 1e6 / batch_p50.max(1e-9),
        batch.len(),
    );
    f.put_p50_tail("cluster_point_p50_us", "cluster_point_p99_us", &mut point);
    f.put_p50_tail("cluster_card_p50_us", "cluster_card_p99_us", &mut card);
    f.put_p50_tail("cluster_sim_p50_us", "cluster_sim_p99_us", &mut sim);
    f.put_n("cluster_batch_p50_us", "us", batch_p50, batch.len());

    let mut first = Client::connect(nodes[0].local_addr())?;
    let snap_start = Instant::now();
    let snapshot = first.snapshot_all()?;
    out.layers.put("snapshot.checkpoint_ms", "ms", snap_start.elapsed().as_secs_f64() * 1e3);
    out.layers.put("snapshot.bytes", "B", snapshot.len() as f64);
    let owners: Vec<SocketAddr> = nodes.iter().map(Server::local_addr).collect();
    layers::wire_probes(t, coordinator, &|k| owners[map.partition_of(k)], &ex.pool)?;
    layers::micro(args.seed, t);
    drop((c, first));
    shut_down(nodes);
    out.checks = checks;
    Ok(out)
}
