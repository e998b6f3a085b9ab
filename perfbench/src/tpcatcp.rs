//! `tpca-tcp`: the `tpca-engine` transaction shape served over loopback
//! TCP on one connection, as a traced run only. Each transaction's
//! accesses leave corked in one write and their responses are awaited
//! together, so the server handles batches of small frames and answers
//! with multi-response writes. The measured run was dropped because it
//! does not repeat (see the README); the traced run places the
//! delayed-ACK stall in `net.self_us`.

use std::time::Instant;

use envy_core::{EnvyStore, Memory};
use envy_server::shard::Request;
use envy_server::{ServeConfig, ShardPlan};
use envy_sim::rng::Rng;
use envy_workload::{AnalyticTpca, TpcaScale, Transaction};

use crate::layers::{self, CoreSpans, Layers, StoreMem};
use crate::served;
use crate::util::{Args, Outcome};
use crate::ycsb;

pub const SHARDS: u32 = 2;
/// Each shard is `ServeConfig::scaled`'s array: 8 banks of 64 segments
/// × 2 048 pages × 256 B (32 MiB), state only, 64-bit bus, 80 %
/// utilization, SRAM buffer of one segment (512 KiB).
pub fn serve_config() -> ServeConfig {
    ServeConfig::scaled(SHARDS)
}

/// The per-shard start state: prefilled and churned to steady-state
/// cleaning with uniform account overwrites.
pub fn start_state() -> Vec<EnvyStore> {
    let config = serve_config().store;
    let mut base = EnvyStore::new(config.clone()).expect("valid config");
    base.prefill().expect("prefill fits");
    envy_bench::churn_to_steady_state_for(false, &mut base, &envy_bench::timed_driver(&config));
    (0..SHARDS).map(|_| base.fork()).collect()
}

/// The TPC-A database laid over the whole sharded address space.
pub fn driver(plan: &ShardPlan) -> AnalyticTpca {
    AnalyticTpca::new(TpcaScale::fit_bytes(plan.total_bytes()))
}

/// A transaction's accesses as wire requests, in issue order.
pub fn requests(driver: &AnalyticTpca, txn: &Transaction) -> Vec<Request> {
    let mut out = Vec::with_capacity(48);
    driver.for_each_access(txn, |a| {
        let len = a.len.min(8);
        out.push(if a.write {
            Request::Write {
                addr: a.addr,
                bytes: txn.delta.to_le_bytes()[..len].to_vec(),
            }
        } else {
            Request::Read {
                addr: a.addr,
                len: len as u32,
            }
        });
    });
    out
}

/// Transactions at the head of the stream replayed at the three
/// served-path boundaries in a traced run (over TCP each one waits out
/// the delayed-ACK stall, ~44 ms).
pub const PEEL_TXNS: usize = 60;
/// Transactions of the in-process core pass in a traced run.
const CORE_TXNS: usize = 20_000;

/// Issue the stream's reads and writes to `read_at`/`write_at` on each
/// shard's clock, as `shard::apply` does; returns the pass's host
/// nanoseconds. With `SPANS` every call is timed into `spans`.
fn core_pass<const SPANS: bool>(
    stores: &mut [EnvyStore],
    plan: &ShardPlan,
    reqs: &[Vec<Request>],
    spans: &mut CoreSpans,
) -> Result<u64, String> {
    let t = Instant::now();
    let mut buf = [0u8; 8];
    for req in reqs.iter().flatten() {
        let (s, local) = served::route(plan, req);
        let mut mem = StoreMem::<true, SPANS>::new(&mut stores[s as usize], spans);
        match &local {
            Request::Read { addr, len } => mem.read(*addr, &mut buf[..*len as usize]),
            Request::Write { addr, bytes } => mem.write(*addr, bytes),
            other => unreachable!("the TPC-A stream carries no {other:?}"),
        }
        .map_err(|e| e.to_string())?;
    }
    Ok(t.elapsed().as_nanos() as u64)
}

/// The transactions' record accesses as KV operations: for the account,
/// teller and branch of each, a get and a put of its 8-byte balance, on
/// one KV shard (the `ycsb-a-inproc` array) holding those records.
fn kv_ops(txns: &[Transaction]) -> (EnvyStore, Vec<Request>) {
    let ops: Vec<Request> = txns
        .iter()
        .flat_map(|t| {
            [(0u64, t.account), (1, t.teller), (2, t.branch)].map(|(kind, id)| {
                let key = kind << 40 | id;
                [
                    Request::KvGet { shard: 0, key },
                    Request::KvPut {
                        shard: 0,
                        key,
                        txn: 0,
                        value: t.delta.to_le_bytes().to_vec(),
                    },
                ]
            })
        })
        .flatten()
        .collect();
    let mut store = EnvyStore::new(ycsb::store_config()).expect("valid config");
    store.prefill().expect("prefill fits");
    let mut keys: Vec<u64> = ops
        .iter()
        .filter_map(|r| match r {
            Request::KvGet { key, .. } => Some(*key),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let load = Request::KvPut {
            shard: 0,
            key,
            txn: 0,
            value: 0i64.to_le_bytes().to_vec(),
        };
        envy_server::shard::apply(&mut store, &load).expect("load a record");
    }
    (store, ops)
}

/// Price the KV layer and the served path on the head of a TPC-A
/// stream: the KV split on the transactions' record accesses, and the
/// three-boundary replay of their requests from forks of `start`.
pub fn price_served_path(
    l: &mut Layers,
    start: &[EnvyStore],
    config: &ServeConfig,
    driver: &AnalyticTpca,
    head: &[Transaction],
) -> Result<(), String> {
    let (kv_store, ops) = kv_ops(head);
    let mut split = layers::kv_split(&mut [kv_store], &ops, true)?;
    l.kv(&mut split);
    let reqs: Vec<Vec<Request>> = head.iter().map(|t| requests(driver, t)).collect();
    let mut peeled = layers::peel(start, config, std::slice::from_ref(&reqs))?;
    l.boundaries(&mut peeled);
    l.proto(&reqs.concat(), &peeled.replies);
    Ok(())
}

/// The traced run: an in-process core pass without and with spans around
/// every `read_at`/`write_at` call, then the KV layer and the served
/// path priced on the head of the same stream.
pub fn trace(args: &Args) -> Outcome {
    let start = start_state();
    let plan = ShardPlan::new(SHARDS, start[0].size());
    let driver = driver(&plan);
    let scale = driver.layout().scale;
    let mut out = Outcome::default();
    let generate = |n: usize| {
        let mut rng = Rng::seed_from(args.seed);
        (0..n)
            .map(|_| Transaction::generate(scale, &mut rng))
            .collect::<Vec<_>>()
    };
    let mut l = Layers {
        gen_ns: layers::per_item_ns(CORE_TXNS, || {
            for t in generate(CORE_TXNS) {
                std::hint::black_box(requests(&driver, &t));
            }
        }),
        ..Layers::default()
    };
    let txns = generate(CORE_TXNS);
    let reqs: Vec<Vec<Request>> = txns.iter().map(|t| requests(&driver, t)).collect();
    let forks = || start.iter().map(EnvyStore::fork).collect::<Vec<_>>();
    let mut spans = CoreSpans::default();
    let plain = core_pass::<false>(&mut forks(), &plan, &reqs, &mut spans);
    let mut stores = forks();
    let spanned = core_pass::<true>(&mut stores, &plan, &reqs, &mut spans);
    match (plain, spanned) {
        (Ok(plain), Ok(spanned)) => {
            l.overhead = layers::overhead(spanned, plain);
            l.core(&mut spans);
            l.controller(&layers::merged(&stores), CORE_TXNS as u64);
        }
        (Err(e), _) | (_, Err(e)) => out.errors.push(format!("core pass: {e}")),
    }
    out.attempted = 2 * CORE_TXNS as u64;
    let result = price_served_path(&mut l, &start, &serve_config(), &driver, &txns[..PEEL_TXNS]);
    out.check("served-path replay", result);
    l.emit(&mut out);
    out
}
