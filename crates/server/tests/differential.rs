//! Differential correctness: the sharded front end must behave exactly
//! like one monolithic `EnvyStore` per shard slice.
//!
//! A single submitter pushes a seeded random request mix through a
//! `ShardedStore` (N = 1, 2, 8). Because shard queues are FIFO and a
//! worker executes its queue in admission order on the shard's own
//! simulated clock, replaying each shard's request subsequence against
//! a monolithic store forked from the same baseline must produce
//! byte-identical contents, an identical simulated clock, and identical
//! controller statistics — the determinism anchor of §6's
//! multiple-controller organization.

use envy_core::EnvyStore;
use envy_server::shard::apply;
use envy_server::{Reply, Request, ServeConfig, ShardedStore, SubmitError};
use envy_sim::Rng;
use std::sync::mpsc;

/// Generate the seeded global request mix: per-request shard uniform,
/// local address/length within the slice, ~45 % writes, occasional
/// flushes.
fn workload(seed: u64, shards: u32, shard_bytes: u64, count: usize) -> Vec<Request> {
    let mut rng = Rng::seed_from(seed);
    let mut reqs = Vec::with_capacity(count);
    for i in 0..count {
        let shard = rng.below(shards as u64);
        let base = shard * shard_bytes;
        if i % 64 == 63 {
            reqs.push(Request::Flush {
                shard: shard as u32,
            });
            continue;
        }
        let len = 1 + rng.below(24);
        let addr = base + rng.below(shard_bytes - len);
        if rng.chance(0.45) {
            let fill = rng.below(256) as u8;
            reqs.push(Request::Write {
                addr,
                bytes: vec![fill; len as usize],
            });
        } else {
            reqs.push(Request::Read {
                addr,
                len: len as u32,
            });
        }
    }
    reqs
}

/// Run one N-shard differential round; returns the number of reads
/// whose pipelined completions were checked against the model.
fn run_round(shards: u32, seed: u64) -> u64 {
    let config = ServeConfig::small(shards);

    // Baseline → N served forks + N replay forks, all byte-identical.
    let mut baseline = EnvyStore::new(config.store.clone()).unwrap();
    baseline.prefill().unwrap();
    let served_stores: Vec<EnvyStore> = (0..shards).map(|_| baseline.fork()).collect();
    let mut replay_stores: Vec<EnvyStore> = (0..shards).map(|_| baseline.fork()).collect();

    let store = ShardedStore::launch_from(served_stores, &config);
    let plan = *store.plan();
    let shard_bytes = plan.shard_bytes();
    let reqs = workload(seed, shards, shard_bytes, 2_000);

    // A byte model of the global space, updated in submission order —
    // valid per shard because shard queues are FIFO and the submitter
    // is single-threaded. Seeded from a scratch fork so the replay
    // stores' statistics stay untouched (untimed reads count too).
    let total = plan.total_bytes() as usize;
    let mut model = vec![0u8; total];
    {
        let mut scratch = baseline.fork();
        let mut slice = vec![0u8; shard_bytes as usize];
        scratch.read(0, &mut slice).unwrap();
        for i in 0..shards as usize {
            let base = i * shard_bytes as usize;
            model[base..base + shard_bytes as usize].copy_from_slice(&slice);
        }
    }

    let handle = store.handle();
    let (tx, rx) = mpsc::channel();
    let mut expected = std::collections::HashMap::new();
    let mut checked_reads = 0u64;
    for req in &reqs {
        // Keep the model in submission order; reads snapshot it below.
        if let Request::Write { addr, bytes } = req {
            let a = *addr as usize;
            model[a..a + bytes.len()].copy_from_slice(bytes);
        }
        let id = loop {
            match handle.submit(req.clone(), None, &tx) {
                Ok(id) => break id,
                Err(SubmitError::Busy(b)) => std::thread::sleep(b.retry_after),
                Err(SubmitError::Rejected(e)) => panic!("rejected: {e}"),
            }
        };
        if let Request::Read { addr, len } = req {
            let a = *addr as usize;
            expected.insert(id, model[a..a + *len as usize].to_vec());
        }
    }

    // Drain all completions; every read must match its snapshot.
    for _ in 0..reqs.len() {
        let resp = rx.recv().expect("completion must arrive");
        if let Some(want) = expected.remove(&resp.id) {
            match resp.result.expect("read must succeed") {
                Reply::Data(got) => {
                    assert_eq!(got, want, "shard {} read diverged", resp.shard);
                    checked_reads += 1;
                }
                other => panic!("read completed as {other:?}"),
            }
        } else {
            resp.result.expect("write/flush must succeed");
        }
    }
    assert!(expected.is_empty());
    let outcome = store.shutdown();
    assert_eq!(outcome.total_served(), reqs.len() as u64);

    // Replay each shard's subsequence against its monolithic twin.
    for (i, replay) in replay_stores.iter_mut().enumerate() {
        let base = i as u64 * shard_bytes;
        for req in &reqs {
            let local = match req {
                Request::Read { addr, len } => {
                    if *addr / shard_bytes != i as u64 {
                        continue;
                    }
                    Request::Read {
                        addr: addr - base,
                        len: *len,
                    }
                }
                Request::Write { addr, bytes } => {
                    if *addr / shard_bytes != i as u64 {
                        continue;
                    }
                    Request::Write {
                        addr: addr - base,
                        bytes: bytes.clone(),
                    }
                }
                Request::TxnWrite { addr, bytes, txn } => {
                    if *addr / shard_bytes != i as u64 {
                        continue;
                    }
                    Request::TxnWrite {
                        addr: addr - base,
                        bytes: bytes.clone(),
                        txn: *txn,
                    }
                }
                Request::Flush { shard }
                | Request::Ping { shard }
                | Request::TxnBegin { shard }
                | Request::TxnCommit { shard, .. }
                | Request::TxnAbort { shard, .. }
                | Request::KvGet { shard, .. }
                | Request::KvPut { shard, .. }
                | Request::KvDelete { shard, .. }
                | Request::KvScan { shard, .. } => {
                    if *shard != i as u32 {
                        continue;
                    }
                    req.clone()
                }
            };
            apply(replay, &local).expect("replay op must succeed");
        }
        let served = &outcome.shards[i].store;
        // Same simulated clock, same statistics (down to latency
        // histograms), same bytes.
        assert_eq!(
            served.now(),
            replay.now(),
            "shard {i} simulated clock diverged (N={shards})"
        );
        assert_eq!(
            served.stats(),
            replay.stats(),
            "shard {i} stats diverged (N={shards})"
        );
    }

    // Byte-identical read-back: served shards vs monolithic replays vs
    // the submission-order model.
    let mut outcome = outcome;
    for (i, replay) in replay_stores.iter_mut().enumerate() {
        let base = i * shard_bytes as usize;
        let mut got = vec![0u8; shard_bytes as usize];
        let mut want = vec![0u8; shard_bytes as usize];
        outcome.shards[i].store.read(0, &mut got).unwrap();
        replay.read(0, &mut want).unwrap();
        assert_eq!(got, want, "shard {i} contents diverged (N={shards})");
        assert_eq!(
            got,
            model[base..base + shard_bytes as usize],
            "shard {i} contents diverged from the model (N={shards})"
        );
    }
    checked_reads
}

#[test]
fn one_shard_matches_monolithic() {
    assert!(run_round(1, 11) > 100);
}

#[test]
fn two_shards_match_monolithic_slices() {
    assert!(run_round(2, 22) > 100);
}

#[test]
fn eight_shards_match_monolithic_slices() {
    assert!(run_round(8, 88) > 100);
}
