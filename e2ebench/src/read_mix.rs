//! `read_mix`: one 2-shard server with the op log and the read path on,
//! preloaded with one full window. A paced open-loop writer sends
//! 256-key batches at 20k items/s, sleeping between sends; beside it one
//! closed-loop reader sends nine `QUERY_FAST` member/freq reads per
//! authoritative `QUERY`, with Zipf(1.1) keys over the writer's universe.
//! The window slides several times while reads run, so mark-cache
//! invalidations and queue waits behind insert jobs are real.
//!
//! Writer acks are timed from when each batch was due, so a stall counts
//! against every batch it delays; how late the writer ran is reported.

use crate::report::{peak_rss_mib, Samples};
use crate::trace::{SpanId, Tracer};
use crate::{engine_cfg, layers, set_up_median, Args, Checks, Outcome, WINDOW};
use she_hash::{mix64, RandomSource, Xoshiro256};
use she_server::{
    fast_op, Client, DirectEngine, ReadPathConfig, ReadpathStatus, Server, ServerConfig,
};
use she_streams::{CaidaLike, KeyStream, Zipf};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const BATCH: usize = 256;
const PRELOAD_BATCH: usize = 1024;
/// Writer rate in items per second.
const RATE: f64 = 20_000.0;
/// Fast reads per authoritative query.
const FAST_PER_QUERY: usize = 9;
const READ_SKEW: f64 = 1.1;
/// The writer's universe (`CaidaLike::default_trace`).
const UNIVERSE: usize = 600_000;
/// Op-log capacity in records: far more than the refresher ever lags.
const REPL_LOG: usize = 8192;
/// Zipf-drawn keys probed at quiescence (plus the writer's last batch).
const PROBES: usize = 512;
const STATUS_EVERY: Duration = Duration::from_millis(100);
const SALT_PRELOAD: u64 = 0x21;
const SALT_WRITER: u64 = 0x22;
const SALT_READER: u64 = 0x23;
const SALT_PROBE: u64 = 0x24;

struct Live {
    server: Server,
    client: Client,
    preload: Vec<u64>,
    zipf: Zipf,
}

/// Poll `CLUSTER_STATUS` until the read path has applied the whole op log.
fn wait_caught_up(c: &mut Client) -> io::Result<ReadpathStatus> {
    let start = Instant::now();
    loop {
        let st = c.cluster_status()?;
        if st.readpath.seq >= st.head {
            return Ok(st.readpath);
        }
        if start.elapsed() > crate::SETTLE_LIMIT {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("read path stuck at seq {} of head {}", st.readpath.seq, st.head),
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn set_up(seed: u64) -> io::Result<Live> {
    let zipf = Zipf::new(UNIVERSE, READ_SKEW);
    let server = Server::start(ServerConfig {
        engine: engine_cfg(),
        repl_log: REPL_LOG,
        readpath: Some(ReadPathConfig::default()),
        ..Default::default()
    })?;
    let mut client = Client::connect(server.local_addr())?;
    client.hello()?;
    let window = usize::try_from(WINDOW).expect("window fits");
    let preload = CaidaLike::default_trace(crate::stream_seed(seed, SALT_PRELOAD)).take_vec(window);
    for chunk in preload.chunks(PRELOAD_BATCH) {
        client.insert_batch(0, chunk)?;
    }
    client.stats()?; // rides every shard queue behind the preload
    wait_caught_up(&mut client)?;
    Ok(Live { server, client, preload, zipf })
}

#[derive(Default)]
struct Writer {
    batches: u64,
    acks: Samples,
    late: Samples,
    busy_retries: u64,
    /// From the last ack until the read path reached the op-log head.
    catchup: Duration,
    checks: Checks,
}

fn write_paced(
    addr: SocketAddr,
    seed: u64,
    (t0, end): (Instant, Instant),
    t: &mut Tracer,
    root: SpanId,
) -> Writer {
    let mut w = Writer::default();
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            w.checks.check(false, || format!("writer connect: {e}"));
            return w;
        }
    };
    let mut gen = CaidaLike::default_trace(crate::stream_seed(seed, SALT_WRITER));
    let interval = Duration::from_secs_f64(BATCH as f64 / RATE);
    let mut keys = Vec::with_capacity(BATCH);
    loop {
        let due = t0 + interval * u32::try_from(w.batches).unwrap_or(u32::MAX);
        if due >= end {
            break;
        }
        keys.clear();
        keys.extend((0..BATCH).map(|_| gen.next_key()));
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        let r = c.insert_batch(0, &keys);
        let done = Instant::now();
        t.record("client.insert_batch", root, start, done, BATCH as u64);
        w.batches += 1;
        w.late.push(start - due);
        w.acks.push(done - due);
        if let Err(e) = r {
            w.checks.check(false, || format!("writer batch: {e}"));
            break;
        }
        w.checks.passed(1);
    }
    let stopped = Instant::now();
    match wait_caught_up(&mut c) {
        Ok(_) => w.catchup = stopped.elapsed(),
        Err(e) => w.checks.check(false, || format!("catch-up poll: {e}")),
    }
    w.busy_retries = c.busy_retries;
    w
}

#[derive(Default)]
struct Reader {
    fast: Samples,
    query: Samples,
    /// One cycle: `FAST_PER_QUERY` fast reads and one query.
    cycles: Samples,
    depth_max: u64,
    checks: Checks,
}

fn read_closed_loop(
    addr: SocketAddr,
    seed: u64,
    zipf: &Zipf,
    end: Instant,
    t: &mut Tracer,
    root: SpanId,
) -> Reader {
    let mut r = Reader::default();
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            r.checks.check(false, || format!("reader connect: {e}"));
            return r;
        }
    };
    let mut rng = Xoshiro256::new(crate::stream_seed(seed, SALT_READER));
    let mut next_status = Instant::now() + STATUS_EVERY;
    let mut cycle = 0u64;
    'run: while Instant::now() < end {
        let cycle_start = Instant::now();
        for j in 0..=FAST_PER_QUERY {
            let key = mix64(zipf.sample(&mut rng) as u64);
            let member = if j < FAST_PER_QUERY { j % 2 == 0 } else { cycle.is_multiple_of(2) };
            let s = Instant::now();
            let res = if j < FAST_PER_QUERY {
                let op = if member { fast_op::MEMBER } else { fast_op::FREQ };
                c.query_fast(op, key).map(drop)
            } else if member {
                c.query_member(key).map(drop)
            } else {
                c.query_freq(key).map(drop)
            };
            let e = Instant::now();
            if let Err(err) = res {
                r.checks.check(false, || format!("read: {err}"));
                break 'run;
            }
            r.checks.passed(1);
            if j < FAST_PER_QUERY {
                t.record("client.query_fast", root, s, e, 1);
                r.fast.push(e - s);
            } else {
                t.record("client.query", root, s, e, 1);
                r.query.push(e - s);
            }
        }
        r.cycles.push(Instant::now() - cycle_start);
        cycle += 1;
        if Instant::now() >= next_status {
            match c.cluster_status() {
                Ok(st) => {
                    r.depth_max =
                        r.depth_max.max(st.queue_depths.iter().copied().max().unwrap_or(0))
                }
                Err(e) => r.checks.check(false, || format!("status: {e}")),
            }
            next_status += STATUS_EVERY;
        }
    }
    r
}

pub fn run(args: &Args, t: &mut Tracer) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (Live { server, mut client, preload, zipf }, setup_s) = set_up_median(
        || set_up(args.seed),
        |l| {
            drop(l.client);
            l.server.join();
        },
    )?;
    let addr = server.local_addr();
    let before = client.cluster_status()?.readpath;

    let root = t.open("read_mix.timed", 0);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(args.seconds);
    let (mut wt, mut rt) = (t.child(1), t.child(2));
    let (w, r) = std::thread::scope(|s| {
        let writer = s.spawn(|| write_paced(addr, args.seed, (t0, end), &mut wt, root));
        let reader = s.spawn(|| read_closed_loop(addr, args.seed, &zipf, end, &mut rt, root));
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    t.merge(wt);
    t.merge(rt);
    t.close(root, 0);
    let after = wait_caught_up(&mut client)?;
    let stats = client.stats()?;
    let peak = peak_rss_mib();
    let mut checks = Checks::default();
    let items = preload.len() as u64 + w.batches * BATCH as u64;
    let applied: u64 = stats.iter().map(|s| s.inserts).sum();
    checks.check(applied == items, || format!("{applied} items applied, {items} sent"));

    let snap_start = Instant::now();
    let snapshot = client.snapshot_all()?;
    let checkpoint_ms = snap_start.elapsed().as_secs_f64() * 1e3;

    verify(&mut checks, &mut client, &preload, w.batches, args.seed, &zipf)?;

    let (mut fast, mut query, mut acks, mut late) = (r.fast, r.query, w.acks, w.late);
    let f = &mut out.figures;
    f.put("setup_s", "s", setup_s);
    f.put("peak_rss_mib", "MiB", peak);
    // The reads of the median cycle. A per-second count carries every
    // F1 stall and every delayed wake-up on the host's two cores; those
    // show in `fast_read_p99_us` and `reactor.reads_over_1ms` instead.
    let mut cycles = r.cycles;
    let cycle_reads = (FAST_PER_QUERY + 1) as f64;
    f.put_n("read_ops_per_s", "1/s", cycle_reads * 1e6 / cycles.p50(), cycles.len());
    f.put_p50_tail("fast_read_p50_us", "fast_read_p99_us", &mut fast);
    f.put_p50_tail("query_p50_us", "query_p99_us", &mut query);
    f.put_p50_tail("insert_ack_p50_us", "insert_ack_p99_us", &mut acks);

    let l = &mut out.layers;
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let lookups = (hits + misses).max(1) as f64;
    l.put("she_readpath.hit_rate", "ratio", hits as f64 / lookups);
    let invalidations = (after.invalidations - before.invalidations) as f64;
    l.put("she_readpath.invalidations_per_kread", "1/kread", invalidations / lookups * 1e3);
    l.put("she_readpath.catchup_ms", "ms", w.catchup.as_secs_f64() * 1e3);
    l.put("worker.acked_items_per_s", "1/s", (w.batches * BATCH as u64) as f64 / args.seconds);
    l.put("worker.busy_retries", "count", w.busy_retries as f64);
    l.put("worker.queue_depth_max", "count", r.depth_max as f64);
    l.put("snapshot.checkpoint_ms", "ms", checkpoint_ms);
    l.put("snapshot.bytes", "B", snapshot.len() as f64);
    let (_, late_p99) = late.tail();
    l.put_n("gen.writer_late_p99_us", "us", late_p99, late.len());

    let probe_keys = &preload[preload.len() - 256..];
    layers::wire_probes(t, addr, &|_| addr, probe_keys)?;
    layers::micro(args.seed, t);
    drop(client);
    server.join();
    checks.absorb(w.checks);
    checks.absorb(r.checks);
    out.checks = checks;
    Ok(out)
}

/// At quiescence (read-path seq at the op-log head, every shard drained):
/// authoritative `QUERY` answers equal an in-process `DirectEngine` fed
/// the preload and the writer's batches in order; warm `QUERY_FAST`
/// entries keep the read path's staleness bound (a cached member-true is
/// still true, a cached freq is at most the current one); after a cache
/// flush every `QUERY_FAST` answer equals its `QUERY` answer and the
/// engine's, bit for bit. Cardinality equals the engine's too.
fn verify(
    checks: &mut Checks,
    c: &mut Client,
    preload: &[u64],
    batches: u64,
    seed: u64,
    zipf: &Zipf,
) -> io::Result<()> {
    let mut mirror = DirectEngine::new(engine_cfg());
    preload.iter().for_each(|&k| mirror.insert(0, k));
    let mut gen = CaidaLike::default_trace(crate::stream_seed(seed, SALT_WRITER));
    let mut last = Vec::new();
    for _ in 0..batches {
        last = gen.take_vec(BATCH);
        last.iter().for_each(|&k| mirror.insert(0, k));
    }
    let mut rng = Xoshiro256::new(crate::stream_seed(seed, SALT_PROBE));
    let mut probes: Vec<u64> = (0..PROBES).map(|_| mix64(zipf.sample(&mut rng) as u64)).collect();
    probes.extend(last);
    probes.push(rng.next_u64());
    for &k in &probes {
        let (fm, ff) = (c.fast_member(k)?, c.fast_freq(k)?);
        let (qm, qf) = (c.query_member(k)?, c.query_freq(k)?);
        let (mm, mf) = (mirror.member(k), mirror.frequency(k));
        checks.check(qm == mm, || format!("member({k:#x}) {qm}, engine {mm}"));
        checks.check(qf == mf, || format!("freq({k:#x}) {qf}, engine {mf}"));
        checks.check(!fm || qm, || format!("warm fast member({k:#x}) true, QUERY false"));
        checks.check(ff <= qf, || format!("warm fast freq({k:#x}) {ff} above QUERY {qf}"));
    }
    c.fast_flush()?;
    for &k in &probes {
        let (fm, ff) = (c.fast_member(k)?, c.fast_freq(k)?);
        let (mm, mf) = (mirror.member(k), mirror.frequency(k));
        checks.check(fm == mm, || format!("fast member({k:#x}) {fm}, engine {mm}"));
        checks.check(ff == mf, || format!("fast freq({k:#x}) {ff}, engine {mf}"));
    }
    let (card, want) = (c.query_card()?, mirror.cardinality());
    checks.check(card.to_bits() == want.to_bits(), || format!("card {card}, engine {want}"));
    Ok(())
}
