//! `tpca-engine`: the paper's TPC-A in process on one thread.
//!
//! The scaled 256 MB array at 80 % utilization, churned to steady-state
//! cleaning, is driven open-loop in simulated time above its saturation
//! rate, so `sim_tps` is the Figure 13 plateau. A run repeats whole
//! rounds; each round forks the same start state and replays the same
//! seeded transaction stream, so every round lands on the same simulated
//! result and the host-time figures pool many rounds.

use std::time::Instant;

use envy_core::{EnvyError, EnvyStore};
use envy_server::ServeConfig;
use envy_sim::dist::Exponential;
use envy_sim::rng::Rng;
use envy_sim::time::Ns;
use envy_workload::{AnalyticTpca, Transaction};

use crate::checks;
use crate::layers::{self, Access, CoreSpans, Layers};
use crate::tpcatcp;
use crate::util::{self, Args, Outcome, Samples, SetupTimes, Windows};

/// Offered rate in simulated transactions per second: above the scaled
/// array's ~64–72 kTPS plateau, so the run measures saturation.
pub const OFFERED_TPS: f64 = 100_000.0;
/// Transactions per round that warm the timing queue before measuring.
const WARMUP_TXNS: usize = 20_000;
/// Measured transactions per round.
const ROUND_TXNS: usize = 200_000;
/// Transactions per host-time window (20 windows per round).
const WINDOW_TXNS: usize = 11_000;

/// One round's transactions with their simulated arrival times.
pub fn stream(driver: &AnalyticTpca, seed: u64) -> Vec<(Ns, Transaction)> {
    let scale = driver.layout().scale;
    let arrivals = Exponential::with_rate_per_sec(OFFERED_TPS);
    let mut rng = Rng::seed_from(seed);
    let mut at = Ns::ZERO;
    (0..WARMUP_TXNS + ROUND_TXNS)
        .map(|_| {
            at += arrivals.sample(&mut rng);
            (at, Transaction::generate(scale, &mut rng))
        })
        .collect()
}

/// What the benchmark issued: host-bus words read and written, and
/// payload bytes written.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Issued {
    pub reads: u64,
    pub writes: u64,
    pub payload: u64,
}

impl Issued {
    fn since(&self, earlier: &Issued) -> Issued {
        Issued {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            payload: self.payload - earlier.payload,
        }
    }
}

/// Execute one transaction from its arrival time; returns the simulated
/// completion time. Each access moves at most 8 bytes (the 64-bit host
/// bus), the same as `AnalyticTpca::run_transaction_timed`. With `SPANS`
/// every `read_at`/`write_at` call is timed into `spans`.
#[inline]
pub fn run_txn<const SPANS: bool>(
    store: &mut EnvyStore,
    driver: &AnalyticTpca,
    arrival: Ns,
    txn: &Transaction,
    issued: &mut Issued,
    spans: &mut CoreSpans,
) -> Result<Ns, EnvyError> {
    let mut t = arrival;
    let mut word = [0u8; 8];
    let mut result = Ok(());
    let page = store.config().geometry.page_bytes() as u64;
    let bus = store.config().word_bytes as u64;
    driver.for_each_access(txn, |a| {
        if result.is_err() {
            return;
        }
        let len = a.len.min(8);
        let n = util::words(a.addr, len as u64, page, bus);
        let access = if a.write {
            issued.writes += n;
            issued.payload += len as u64;
            Access::Write(&word[..len])
        } else {
            issued.reads += n;
            Access::Read(&mut word[..len])
        };
        match layers::access_at::<SPANS>(store, t, a.addr, access, spans) {
            Ok(done) => t = done,
            Err(e) => result = Err(e),
        }
    });
    result.map(|()| t)
}

/// The simulated outcome of one round (identical for every round of a
/// run).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSim {
    pub sim_tps: f64,
    pub write_amp: f64,
    pub issued: Issued,
}

/// Build the start state.
pub fn start_state() -> (EnvyStore, AnalyticTpca) {
    envy_bench::timed_system_for(false, 0.8)
}

/// Simulated figures over the measured part of a round, from a store
/// forked at the start state.
pub fn round_sim(
    store: &EnvyStore,
    warm_clock: Ns,
    warm_stats: &envy_core::EnvyStats,
    measured: &Issued,
) -> RoundSim {
    let s = store.stats();
    let programmed = util::programmed_pages(s) - util::programmed_pages(warm_stats);
    let page = store.config().geometry.page_bytes() as f64;
    RoundSim {
        sim_tps: ROUND_TXNS as f64 / (store.now() - warm_clock).as_secs_f64(),
        write_amp: programmed as f64 * page / (measured.payload as f64),
        issued: *measured,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut setups = SetupTimes::default();
    let (base, driver) = setups.build(start_state);
    let txns = stream(&driver, args.seed);
    let mut out = Outcome::default();
    let mut windows = Windows::default();
    let mut lat = Samples::with_capacity(WINDOW_TXNS);
    let mut first: Option<RoundSim> = None;
    let mut no_spans = CoreSpans::default();
    let deadline = Instant::now() + args.duration();
    let mut last_store = None;
    while first.is_none() || Instant::now() < deadline {
        if first.is_some() {
            // Another timed build for `setup_s`, between rounds so that no
            // window spans it; the last round's store goes first, so the
            // process holds no more than the base and one build.
            drop(last_store.take());
            drop(setups.build(start_state));
        }
        let mut store = base.fork();
        let mut issued = Issued::default();
        let mut warm = None;
        let mut window_start = Instant::now();
        for (i, (arrival, txn)) in txns.iter().enumerate() {
            if i == WARMUP_TXNS {
                warm = Some((store.now(), store.stats().clone(), issued));
            }
            let t0 = Instant::now();
            let done = run_txn::<false>(
                &mut store,
                &driver,
                *arrival,
                txn,
                &mut issued,
                &mut no_spans,
            );
            lat.push(t0.elapsed());
            out.attempted += 1;
            if let Err(e) = done {
                out.failed += 1;
                out.errors.push(format!("transaction {i}: {e}"));
            }
            if lat.len() == WINDOW_TXNS {
                windows.add(WINDOW_TXNS, window_start.elapsed().as_secs_f64(), &mut lat);
                lat.clear();
                window_start = Instant::now();
            }
        }
        let (warm_clock, warm_stats, warm_issued) = warm.expect("round longer than warm-up");
        let sim = round_sim(&store, warm_clock, &warm_stats, &issued.since(&warm_issued));
        out.check(
            "word accesses counted by the store",
            checks::access_counts(issued.reads, issued.writes, store.stats()),
        );
        match &first {
            None => first = Some(sim),
            Some(f) if *f != sim => out.errors.push(format!(
                "rounds from one start state diverged: {f:?} vs {sim:?}"
            )),
            Some(_) => {}
        }
        last_store = Some(store);
    }
    let sim = first.expect("at least one round");
    let store = last_store.expect("at least one round");
    out.check("store invariants", store.check_invariants());
    out.check(
        "offered rate",
        checks::within_offered(sim.sim_tps, OFFERED_TPS),
    );
    let rounds = out.attempted / txns.len() as u64;
    let n_windows = windows.len();
    let [ops, p50, p90, p99, p999] = windows.sustained();
    out.metric("setup_s", setups.median(), "s");
    out.metric("ops_per_s", ops, "1/s");
    out.metric("p50_us", p50, "us");
    out.metric("p90_us", p90, "us");
    out.metric("sim_tps", sim.sim_tps, "1/s");
    out.metric("write_amp", sim.write_amp, "ratio");
    out.metric("peak_rss_mb", util::peak_rss_mb(), "MiB");
    println!(
        "tpca-engine {rounds} rounds of {} transactions over {} accounts, {n_windows} windows; \
         p99_us {p99:.3} p999_us {p999:.3}",
        txns.len(),
        driver.layout().scale.accounts()
    );
    out
}

/// The traced run: one round without spans and one with a span around
/// every `read_at`/`write_at` call; the KV layer and the served path
/// priced on the head of the same stream.
pub fn trace(args: &Args) -> Outcome {
    let (base, driver) = start_state();
    let mut out = Outcome::default();
    let mut l = Layers {
        gen_ns: layers::per_item_ns(WARMUP_TXNS + ROUND_TXNS, || {
            std::hint::black_box(stream(&driver, args.seed));
        }),
        ..Layers::default()
    };
    let txns = stream(&driver, args.seed);

    let mut lat = Samples::with_capacity(txns.len());
    let mut spans = CoreSpans::default();
    let mut store = base.fork();
    let mut issued = Issued::default();
    let t = Instant::now();
    for (arrival, txn) in &txns {
        let t0 = Instant::now();
        let done = run_txn::<false>(&mut store, &driver, *arrival, txn, &mut issued, &mut spans);
        lat.push(t0.elapsed());
        out.check("transaction", done.map(drop).map_err(|e| e.to_string()));
    }
    let plain_ns = t.elapsed().as_nanos() as u64;

    let mut store = base.fork();
    let t = Instant::now();
    for (arrival, txn) in &txns {
        let done = run_txn::<true>(&mut store, &driver, *arrival, txn, &mut issued, &mut spans);
        out.check("transaction", done.map(drop).map_err(|e| e.to_string()));
    }
    l.overhead = layers::overhead(t.elapsed().as_nanos() as u64, plain_ns);
    l.core(&mut spans);
    l.controller(store.stats(), txns.len() as u64);
    out.attempted = 2 * txns.len() as u64;

    let head: Vec<Transaction> = txns[..tpcatcp::PEEL_TXNS].iter().map(|(_, t)| *t).collect();
    let mut config = ServeConfig::scaled(1);
    config.store = base.config().clone();
    let result = tpcatcp::price_served_path(&mut l, &[base], &config, &driver, &head);
    out.check("served-path replay", result);
    // The engine's own client is in process: its tail is the
    // transaction latency of the round without spans.
    l.p99_us = lat.quantile(0.99) / 1e3;
    l.p999_us = lat.quantile(0.999) / 1e3;
    l.emit(&mut out);
    out
}
