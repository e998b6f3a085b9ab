//! The concurrent in-shard read path: inline execution, its digest
//! anchor against the monolithic store, and the `Busy` backpressure
//! retry contract.

use envy_core::EnvyStore;
use envy_server::{run_inproc, run_monolithic, LoadSpec, ReadPath, ServeConfig, ShardedStore};
use std::time::Duration;

/// FNV-1a over a byte slice: the stable, dependency-free digest used by
/// the behavior-neutrality goldens.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn contents_digest(store: &mut EnvyStore) -> u64 {
    let mut buf = vec![0u8; store.size() as usize];
    store.read(0, &mut buf).unwrap();
    fnv1a(&buf)
}

#[test]
fn inline_reads_complete_off_the_writer() {
    let store =
        ShardedStore::launch(ServeConfig::small(2).with_read_path(ReadPath::Inline)).unwrap();
    let spec = LoadSpec::closed(2, 32).read_mostly(0.95);
    let report = run_inproc(&store.handle(), &spec);
    let outcome = store.shutdown();
    assert_eq!(report.completed_txns, 64);
    assert_eq!(report.errors, 0);
    assert!(outcome.total_reads_offloaded() > 0, "reads must offload");
    // Every access completed exactly once: writer completions plus
    // offloaded reads account for all of them.
    assert_eq!(
        report.completed_ops,
        outcome.total_served() + outcome.total_reads_offloaded()
    );
}

/// The digest anchor: a 1-shard front end with inline reads runs the
/// read-heavy mix; its final contents must be byte-identical to the
/// monolithic single-threaded store replaying the same spec. Writes all
/// funnel through the single writer in submission order, so offloading
/// reads must not perturb a single byte.
#[test]
fn inline_shard_matches_monolithic_digest() {
    let config = ServeConfig::small(1).with_read_path(ReadPath::Inline);
    let mut baseline = EnvyStore::new(config.store.clone()).unwrap();
    baseline.prefill().unwrap();
    let mut mono = baseline.fork();
    let front = ShardedStore::launch_from(vec![baseline.fork()], &config);
    let spec = LoadSpec::closed(1, 200).with_seed(0x1D1E).read_mostly(0.95);
    run_inproc(&front.handle(), &spec);
    let mut outcome = front.shutdown();
    run_monolithic(&mut mono, &spec);
    assert_eq!(
        contents_digest(&mut outcome.shards[0].store),
        contents_digest(&mut mono)
    );
}

/// Backpressure: a tiny queue with a slow worker must reject with
/// `Busy { retry_after }`, and the loadgen's hinted-backoff retry loop
/// must still complete every transaction (no request lost, no error).
#[test]
fn busy_retries_complete_all_transactions() {
    let config = ServeConfig::small(1)
        .with_queue_capacity(2)
        .with_service_delay(Duration::from_micros(200));
    let store = ShardedStore::launch(config).unwrap();
    let spec = LoadSpec::closed(4, 10);
    let report = run_inproc(&store.handle(), &spec);
    let outcome = store.shutdown();
    assert!(
        report.busy_retries > 0,
        "a 2-deep queue under 4 pipelined clients must reject"
    );
    assert_eq!(report.completed_txns, 40, "retries must finish every txn");
    assert_eq!(report.errors, 0);
    assert_eq!(report.timeouts, 0);
    assert_eq!(report.completed_ops, outcome.total_served());
}
