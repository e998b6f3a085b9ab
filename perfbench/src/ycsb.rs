//! `ycsb-a-inproc`: YCSB-A (50 % reads, 50 % updates, zipfian 0.99)
//! over 2 KV shards, measured in process, and its traced run, which also
//! replays the stream over TCP.
//!
//! Records are loaded straight into the stores: loading them through a
//! socket would spend set-up time in the delayed-ACK stall that
//! `tpca-tcp` shows.

use std::time::Instant;

use envy_core::{EnvyConfig, EnvyStore, Memory};
use envy_kv::KvStore;
use envy_server::shard::{Reply, Request};
use envy_server::{ServeConfig, ShardPlan};
use envy_sim::rng::Rng;
use envy_workload::ycsb::{YcsbConfig, YcsbMix, YcsbOp, YcsbStream};

use crate::checks;
use crate::layers::{self, CoreSpans, Layers, StoreMem};
use crate::served;
use crate::util::{self, Args, Outcome, Samples, SetupTimes, Windows};

pub const SHARDS: u32 = 2;
pub const CONNS: u32 = 2;
/// Preloaded records (keys `0..RECORDS`), half per shard.
pub const RECORDS: u64 = 4_096;
/// Operations per client stream replayed through the timing model for
/// `sim_tps` and `write_amp` (the served path runs KV operations
/// untimed): a fixed count, so both depend on the seed alone.
pub const SIM_OPS_PER_CONN: usize = 10_000;

/// One shard's array: 4 banks of 32 segments × 256 pages × 256 B
/// (2 MiB) with payload storage, at 80 % utilization; its SRAM buffer
/// is one segment (64 KiB).
pub fn store_config() -> EnvyConfig {
    EnvyConfig::scaled(4, 32, 256, 256).with_utilization(0.8)
}

pub fn serve_config() -> ServeConfig {
    let mut config = ServeConfig::small(SHARDS);
    config.store = store_config();
    config.queue_capacity = 1_024;
    config.batch_max = 64;
    config
}

pub fn ycsb_config() -> YcsbConfig {
    YcsbConfig::standard(YcsbMix::A, RECORDS)
}

pub fn shard_of(key: u64) -> u32 {
    (key % SHARDS as u64) as u32
}

/// The seed of one connection's operation stream.
pub fn conn_seed(seed: u64, conn: u32) -> u64 {
    seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A connection's operation stream as requests.
pub struct OpStream {
    stream: YcsbStream,
    rng: Rng,
    config: YcsbConfig,
}

impl OpStream {
    pub fn new(seed: u64, conn: u32) -> OpStream {
        let config = ycsb_config();
        OpStream {
            stream: YcsbStream::new(&config, conn, CONNS),
            rng: Rng::seed_from(conn_seed(seed, conn)),
            config,
        }
    }

    pub fn next_request(&mut self) -> Request {
        match self.stream.next_op(&mut self.rng) {
            YcsbOp::Read { key } => Request::KvGet {
                shard: shard_of(key),
                key,
            },
            YcsbOp::Update { key } => Request::KvPut {
                shard: shard_of(key),
                key,
                txn: 0,
                value: self.config.value_for(key, self.stream.version()),
            },
            other => unreachable!("YCSB-A draws only reads and updates, not {other:?}"),
        }
    }
}

/// Uniform 8-byte overwrites consuming the initial free space twice, so
/// the cleaner is at steady state before the records go in.
fn churn(store: &mut EnvyStore) {
    let total = store.config().geometry.total_pages();
    let free = total - store.config().logical_pages;
    let mut rng = Rng::seed_from(0xC0FFEE);
    let slots = store.size() / 8;
    for _ in 0..free * 2 {
        store
            .write(rng.below(slots) * 8, &[0u8; 8])
            .expect("churn write");
    }
}

/// The loaded per-shard stores every run starts from.
pub fn start_state() -> Vec<EnvyStore> {
    let mut base = EnvyStore::new(store_config()).expect("valid config");
    base.prefill().expect("prefill fits");
    churn(&mut base);
    let mut stores: Vec<EnvyStore> = (0..SHARDS).map(|_| base.fork()).collect();
    let config = ycsb_config();
    for key in 0..RECORDS {
        let shard = shard_of(key);
        let put = Request::KvPut {
            shard,
            key,
            txn: 0,
            value: config.value_for(key, 0),
        };
        envy_server::shard::apply(&mut stores[shard as usize], &put).expect("load a record");
    }
    stores
}

/// Run one KV request on a shard store through `mem`, opening the KV
/// region per request as the shard worker does.
pub fn kv_apply<M: Memory>(mem: &mut M, req: &Request) -> Result<(), String> {
    let mut kv = KvStore::open(mem, 0).map_err(|e| e.to_string())?;
    match req {
        Request::KvGet { key, .. } => kv.get(mem, *key).map(drop),
        Request::KvPut { key, value, .. } => kv.put(mem, *key, value),
        other => unreachable!("not a YCSB-A request: {other:?}"),
    }
    .map_err(|e| e.to_string())
}

/// The first `n` operations of every connection's stream, interleaved
/// round-robin.
pub fn interleaved(seed: u64, n: usize) -> Vec<Request> {
    let mut streams: Vec<OpStream> = (0..CONNS).map(|c| OpStream::new(seed, c)).collect();
    (0..n)
        .flat_map(|_| {
            streams
                .iter_mut()
                .map(OpStream::next_request)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// What the paper's timing model says a stream costs: operations per
/// simulated second of the busiest shard's clock, and bytes programmed
/// to Flash per byte of value written.
pub struct Priced {
    pub sim_tps: f64,
    pub write_amp: f64,
    pub stores: Vec<EnvyStore>,
}

/// Run `ops` through `KvStore` over the timed path on forks of the start
/// state (a fork starts with zeroed statistics and clock), and price
/// them.
pub fn timed_replay<const SPANS: bool>(
    start: &[EnvyStore],
    ops: &[Request],
    spans: &mut CoreSpans,
) -> Result<Priced, String> {
    let mut stores: Vec<EnvyStore> = start.iter().map(EnvyStore::fork).collect();
    let plan = ShardPlan::new(SHARDS, start[0].size());
    let mut payload = 0u64;
    for req in ops {
        let (shard, _) = served::route(&plan, req);
        if let Request::KvPut { value, .. } = req {
            payload += value.len() as u64;
        }
        kv_apply(
            &mut StoreMem::<true, SPANS>::new(&mut stores[shard as usize], spans),
            req,
        )?;
    }
    let busiest = stores.iter().map(EnvyStore::now).max().expect("shards");
    let programmed: u64 = stores
        .iter()
        .map(|s| util::programmed_pages(s.stats()))
        .sum();
    let page = store_config().geometry.page_bytes() as f64;
    Ok(Priced {
        sim_tps: ops.len() as f64 / busiest.as_secs_f64(),
        write_amp: programmed as f64 * page / payload as f64,
        stores,
    })
}

/// Every key holds a value `allowed` accepts as its last, and each shard
/// holds exactly its share of the records.
pub fn final_state(
    stores: &mut [EnvyStore],
    allowed: impl Fn(u64, u8) -> bool,
    value_len: usize,
) -> Result<(), String> {
    for (shard, store) in stores.iter_mut().enumerate() {
        let kv = KvStore::open(store, 0).map_err(|e| format!("shard {shard}: {e}"))?;
        let expected = (0..RECORDS)
            .filter(|&k| shard_of(k) == shard as u32)
            .count() as u64;
        if kv.count() != expected {
            return Err(format!(
                "shard {shard} holds {} keys, expected {expected}",
                kv.count()
            ));
        }
        for key in (0..RECORDS).filter(|&k| shard_of(k) == shard as u32) {
            let value = kv.get(store, key).map_err(|e| e.to_string())?;
            let fill = value
                .as_deref()
                .and_then(|v| checks::uniform_fill(v, value_len));
            if !fill.is_some_and(|f| allowed(key, f)) {
                return Err(format!(
                    "key {key} ends on {value:?}, not its last acknowledged put"
                ));
            }
        }
    }
    Ok(())
}

/// Operations per host-time window of `ycsb-a-inproc`.
const WINDOW_OPS: usize = 50_000;

/// `ycsb-a-inproc`: two seeded client streams, interleaved, run on one
/// thread through `shard::apply` (the shard worker's request path: KV
/// region opened per request, untimed store path) on the loaded stores.
/// No socket, queue or thread hand-off is timed, so host noise from
/// cross-CPU wake-ups stays out of the figures.
pub fn run_inproc(args: &Args) -> Outcome {
    let mut setups = SetupTimes::default();
    let start = setups.build(start_state);
    let config = ycsb_config();
    let plan = ShardPlan::new(SHARDS, start[0].size());
    let mut stores: Vec<EnvyStore> = start.iter().map(EnvyStore::fork).collect();
    // The last value written to each key (the preload, then every put).
    let mut last: Vec<u8> = (0..RECORDS).map(|k| config.value_for(k, 0)[0]).collect();
    let mut streams: Vec<OpStream> = (0..CONNS).map(|c| OpStream::new(args.seed, c)).collect();
    let mut out = Outcome::default();
    let mut windows = Windows::default();
    let mut lat = Samples::with_capacity(WINDOW_OPS);
    let (mut puts, mut bad_reads) = (0u64, 0u64);
    let deadline = Instant::now() + args.duration();
    let mut window_start = Instant::now();
    // Whole rounds: one operation from each stream, as two connections
    // with one operation in flight each would issue them. A round is
    // timed as a whole and each of its operations is charged half: with
    // 50 % gets (~1.5 µs) and 50 % puts (~3.5 µs), a per-operation median
    // would sit in the sparse gap between the two modes and jump with the
    // mix, while the get-and-put rounds put the median inside a mode.
    while Instant::now() < deadline {
        let reqs: [Request; CONNS as usize] = std::array::from_fn(|c| streams[c].next_request());
        let t0 = Instant::now();
        let replies: [_; CONNS as usize] =
            std::array::from_fn(|c| served::apply(&plan, &mut stores, &reqs[c]));
        lat.push(t0.elapsed() / CONNS);
        out.attempted += CONNS as u64;
        for (req, reply) in reqs.iter().zip(replies) {
            match (req, reply) {
                (Request::KvGet { key, .. }, Ok(Reply::KvValue(v))) => {
                    if checks::latest_value(v.as_deref(), last[*key as usize], config.value_len)
                        .is_err()
                    {
                        bad_reads += 1;
                    }
                }
                (Request::KvPut { key, value, .. }, Ok(Reply::KvPutDone)) => {
                    last[*key as usize] = value[0];
                    puts += 1;
                }
                (req, reply) => {
                    out.failed += 1;
                    out.errors.push(format!("{req:?} -> {reply:?}"));
                }
            }
        }
        if lat.len() * CONNS as usize >= WINDOW_OPS {
            let ops = lat.len() * CONNS as usize;
            windows.add(ops, window_start.elapsed().as_secs_f64(), &mut lat);
            lat.clear();
            // Another timed build for `setup_s`, outside the windows.
            drop(setups.build(start_state));
            window_start = Instant::now();
        }
    }
    let peak_rss_mb = util::peak_rss_mb();
    out.check(
        "read values",
        if bad_reads == 0 {
            Ok(())
        } else {
            Err(format!(
                "{bad_reads} reads did not return the key's last value"
            ))
        },
    );
    for (i, s) in stores.iter().enumerate() {
        out.check(&format!("shard {i} invariants"), s.check_invariants());
    }
    out.check(
        "final key-value state",
        final_state(
            &mut stores,
            |key, fill| last[key as usize] == fill,
            config.value_len,
        ),
    );
    let sim_ops = interleaved(args.seed, SIM_OPS_PER_CONN);
    let (sim_tps, write_amp) =
        match timed_replay::<false>(&start, &sim_ops, &mut CoreSpans::default()) {
            Ok(p) => (p.sim_tps, p.write_amp),
            Err(e) => {
                out.errors.push(format!("timed replay: {e}"));
                (0.0, 0.0)
            }
        };
    let n_windows = windows.len();
    let [ops_per_s, p50, p90, p99, p999] = windows.sustained();
    out.metric("setup_s", setups.median(), "s");
    out.metric("ops_per_s", ops_per_s, "1/s");
    out.metric("p50_us", p50, "us");
    out.metric("p90_us", p90, "us");
    out.metric("sim_tps", sim_tps, "1/s");
    out.metric("write_amp", write_amp, "ratio");
    out.metric("peak_rss_mb", peak_rss_mb, "MiB");
    println!(
        "ycsb-a-inproc {} ops ({puts} updates), {n_windows} windows; p99_us {p99:.3} p999_us {p999:.3}",
        out.attempted
    );
    out
}

/// Operations per connection replayed at the served-path boundaries in
/// a traced run.
const PEEL_OPS_PER_CONN: usize = 20_000;

/// The traced run: the timing model and the KV layer priced in process
/// on the stream's head, then the served path peeled at its three
/// boundaries.
pub fn trace(args: &Args) -> Outcome {
    let start = start_state();
    let mut out = Outcome::default();
    let mut l = Layers {
        gen_ns: layers::per_item_ns(PEEL_OPS_PER_CONN * CONNS as usize, || {
            std::hint::black_box(interleaved(args.seed, PEEL_OPS_PER_CONN));
        }),
        ..Layers::default()
    };
    let ops = interleaved(args.seed, PEEL_OPS_PER_CONN);
    out.attempted = ops.len() as u64;

    let mut spans = CoreSpans::default();
    match timed_replay::<true>(
        &start,
        &ops[..SIM_OPS_PER_CONN * CONNS as usize],
        &mut spans,
    ) {
        Ok(p) => {
            l.core(&mut spans);
            l.controller(
                &layers::merged(&p.stores),
                (SIM_OPS_PER_CONN * CONNS as usize) as u64,
            );
        }
        Err(e) => out.errors.push(format!("timed replay: {e}")),
    }

    let forks = || start.iter().map(EnvyStore::fork).collect::<Vec<_>>();
    match (
        layers::kv_split(&mut forks(), &ops, false),
        layers::kv_split(&mut forks(), &ops, true),
    ) {
        (Ok(plain), Ok(mut spanned)) => {
            l.overhead = layers::overhead(spanned.total_ns, plain.total_ns);
            l.kv(&mut spanned);
        }
        (Err(e), _) | (_, Err(e)) => out.errors.push(format!("KV split: {e}")),
    }

    let conns: Vec<Vec<Vec<Request>>> = (0..CONNS)
        .map(|c| {
            ops.iter()
                .skip(c as usize)
                .step_by(CONNS as usize)
                .map(|r| vec![r.clone()])
                .collect()
        })
        .collect();
    match layers::peel(&start, &serve_config(), &conns) {
        Ok(mut p) => {
            l.boundaries(&mut p);
            l.proto(&ops, &p.replies);
        }
        Err(e) => out.errors.push(format!("served-path replay: {e}")),
    }
    l.emit(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key's last value as the benchmark records it: the preload.
    fn preloaded() -> Vec<u8> {
        let config = ycsb_config();
        (0..RECORDS).map(|k| config.value_for(k, 0)[0]).collect()
    }

    #[test]
    fn a_lost_update_is_caught() {
        let config = ycsb_config();
        let mut stores = start_state();
        let mut last = preloaded();
        let put = |key: u64| Request::KvPut {
            shard: shard_of(key),
            key,
            txn: 0,
            value: config.value_for(key, 1),
        };
        let plan = ShardPlan::new(SHARDS, stores[0].size());
        served::apply(&plan, &mut stores, &put(5)).unwrap();
        last[5] = config.value_for(5, 1)[0];
        let ends_on_last = |stores: &mut [EnvyStore], last: &[u8]| {
            final_state(stores, |k, fill| last[k as usize] == fill, config.value_len)
        };
        assert!(ends_on_last(&mut stores, &last).is_ok());
        // An update the benchmark saw acknowledged that the store lost.
        last[7] = config.value_for(7, 1)[0];
        assert!(ends_on_last(&mut stores, &last).is_err());
    }
}
