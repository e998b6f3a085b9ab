//! Open- and closed-loop multi-client load generation.
//!
//! Each client thread drives a skewed TPC-A-style transaction mix
//! (reusing [`envy_workload`]'s analytic driver) against the in-process
//! [`ShardHandle`] ([`run_inproc`]), a socket [`Client`]
//! ([`run_socket`]) or a monolithic store ([`run_monolithic`]). One
//! copy of the client protocol runs all three behind a private
//! `Transport` seam, so the determinism anchors compare transports, not
//! separate implementations. Transactions pick
//! a shard uniformly and run the full three-index search +
//! read-modify-write access list of one TPC-A transaction against that
//! shard's slice; account skew follows the `hot_weight` /
//! `hot_fraction` rule (a `hot_weight` fraction of transactions land in
//! the first `hot_fraction` of accounts).
//!
//! * **Closed loop** — each client keeps one transaction in flight:
//!   accesses pipeline within the transaction, the client awaits all
//!   completions, records the latency, and starts the next. Throughput
//!   is completion-limited.
//! * **Open loop** — transaction *starts* are paced to an offered rate,
//!   and latency is measured from the **scheduled** start, so queueing
//!   delay from a saturated server counts against it (coordinated-
//!   omission correction). A client still bounds itself to one
//!   transaction's accesses outstanding.
//!
//! [`Busy`](crate::shard::Busy) rejections are retried after the hinted
//! backoff and counted in [`LoadReport::busy_retries`] — backpressure is
//! visible in the report, never silently absorbed.

use crate::net::Client;
use crate::proto::WireOutcome;
use crate::shard::{
    apply, Reply, Request, Response, ServeError, ShardHandle, ShardPlan, SubmitError,
};
use envy_core::EnvyStore;
use envy_sim::rng::Rng;
use envy_sim::stats::Histogram;
use envy_sim::time::Ns;
use envy_workload::tpca::{AnalyticTpca, TpcaScale, TraceAccess, Transaction};
use envy_workload::ycsb::{YcsbConfig, YcsbOp, YcsbStream};
use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How transaction starts are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// One transaction in flight per client; next starts on completion.
    Closed,
    /// Transaction starts paced to an aggregate offered rate
    /// (transactions per second across all clients).
    Open {
        /// Offered aggregate rate, transactions per second.
        rate_tps: u64,
    },
}

/// A load-generation run description.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Concurrent client threads (or connections).
    pub clients: u32,
    /// Transactions per client; 0 means "until `duration` elapses".
    pub txns_per_client: u64,
    /// Wall-clock stop condition (checked between transactions).
    pub duration: Option<Duration>,
    /// Open or closed loop.
    pub mode: LoadMode,
    /// Base seed; each client derives an independent stream.
    pub seed: u64,
    /// Fraction of the account range that is "hot".
    pub hot_fraction: f64,
    /// Probability a transaction draws its account from the hot range.
    pub hot_weight: f64,
    /// Per-request deadline passed to the server, if any.
    pub deadline: Option<Duration>,
    /// `Some(p)` switches every client to the read-heavy record mix:
    /// skew-drawn 8-byte record accesses where each access is a read
    /// with probability `p` and a write otherwise (e.g. `0.95` for the
    /// 95/5 serving mix). `None` keeps the TPC-A transaction shape.
    pub read_fraction: Option<f64>,
    /// `Some(a)` runs every transaction **atomically**: the access list
    /// is bracketed by `TxnBegin` / `TxnCommit` on its shard, writes go
    /// through `TxnWrite`, each transaction appends a history record,
    /// and a seeded `a` fraction of transactions deliberately `TxnAbort`
    /// instead of committing (exercising rollback under load). `None`
    /// keeps the non-atomic per-access shape.
    pub abort_fraction: Option<f64>,
    /// `Some(config)` switches every client to a YCSB key-value mix
    /// over the `envy-kv` wire operations instead of the TPC-A address
    /// mixes. Keys route to shards by `key % shards`; each "transaction"
    /// is one YCSB operation. Combines with
    /// [`atomic`](LoadSpec::atomic): every operation is then bracketed
    /// by `TxnBegin`/`TxnCommit`, updates run as read-modify-write
    /// inside the transaction, and a seeded fraction roll back.
    pub ycsb: Option<YcsbConfig>,
}

impl LoadSpec {
    /// A closed-loop spec with the default 10 %-hot / 90 %-weight skew.
    pub fn closed(clients: u32, txns_per_client: u64) -> LoadSpec {
        LoadSpec {
            clients: clients.max(1),
            txns_per_client,
            duration: None,
            mode: LoadMode::Closed,
            seed: 0x5eed,
            hot_fraction: 0.1,
            hot_weight: 0.9,
            deadline: None,
            read_fraction: None,
            abort_fraction: None,
            ycsb: None,
        }
    }

    /// Switch to open-loop pacing at an aggregate rate (builder-style).
    #[must_use]
    pub fn open(mut self, rate_tps: u64) -> LoadSpec {
        self.mode = LoadMode::Open {
            rate_tps: rate_tps.max(1),
        };
        self
    }

    /// Set the wall-clock stop condition (builder-style).
    #[must_use]
    pub fn with_duration(mut self, d: Duration) -> LoadSpec {
        self.duration = Some(d);
        self
    }

    /// Set the base seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> LoadSpec {
        self.seed = seed;
        self
    }

    /// Set the per-request deadline (builder-style).
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> LoadSpec {
        self.deadline = Some(d);
        self
    }

    /// Switch to the read-heavy record mix with the given read
    /// probability (builder-style); `0.95` is the 95/5 serving mix.
    #[must_use]
    pub fn read_mostly(mut self, read_fraction: f64) -> LoadSpec {
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction is a probability"
        );
        self.read_fraction = Some(read_fraction);
        self
    }

    /// Run every transaction atomically (builder-style): bracketed by
    /// `TxnBegin`/`TxnCommit`, with a seeded `abort_fraction` of
    /// transactions rolling back via `TxnAbort` instead.
    #[must_use]
    pub fn atomic(mut self, abort_fraction: f64) -> LoadSpec {
        assert!(
            (0.0..=1.0).contains(&abort_fraction),
            "abort fraction is a probability"
        );
        self.abort_fraction = Some(abort_fraction);
        self
    }

    /// Switch every client to a YCSB key-value mix (builder-style).
    /// Takes precedence over [`read_mostly`](LoadSpec::read_mostly).
    #[must_use]
    pub fn with_ycsb(mut self, config: YcsbConfig) -> LoadSpec {
        self.ycsb = Some(config);
        self
    }
}

/// The deterministic YCSB load phase: one standalone `KvPut` per
/// initial record, keys `0..records` in order, routed by
/// `key % shards`. Both sides of the determinism anchor run exactly
/// this sequence — the monolithic reference through
/// [`apply`], the served run over its connection —
/// so the stores enter the measured phase byte-identical.
pub fn ycsb_load_requests(config: &YcsbConfig, shards: u32) -> Vec<Request> {
    let shards = shards.max(1) as u64;
    (0..config.records)
        .map(|key| Request::KvPut {
            shard: (key % shards) as u32,
            key,
            txn: 0,
            value: config.value_for(key, 0),
        })
        .collect()
}

/// What a load run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Transactions fully completed (committed, in atomic mode).
    pub completed_txns: u64,
    /// Transactions rolled back via `TxnAbort` (deliberate seeded
    /// aborts, plus any forced by in-transaction timeouts or errors).
    pub aborted_txns: u64,
    /// `TxnBegin` attempts refused because every transaction slot on
    /// the shard was occupied, retried after a jittered backoff.
    pub txn_conflicts: u64,
    /// Transactional writes refused with `TXN_CONFLICT` (the page was
    /// in another open transaction's write set). Each refusal forces
    /// the whole transaction to abort and retry.
    pub txn_conflict_refusals: u64,
    /// Whole transactions aborted and re-run after a conflict refusal —
    /// reported separately from the refusals themselves (one retry can
    /// follow several refused writes in the same attempt).
    pub txn_conflict_retries: u64,
    /// Individual accesses completed successfully.
    pub completed_ops: u64,
    /// `Busy` rejections retried.
    pub busy_retries: u64,
    /// Accesses that expired past their deadline.
    pub timeouts: u64,
    /// Accesses that failed with any other typed error.
    pub errors: u64,
    /// Wall-clock duration of the run (max across clients).
    pub wall: Duration,
    /// Wall-clock transaction latency (closed: from first submit; open:
    /// from scheduled start).
    pub txn_latency: Histogram,
}

impl LoadReport {
    /// Fold another client's report into this one (latencies merge,
    /// counters add, wall takes the max).
    pub fn merge(&mut self, other: &LoadReport) {
        self.completed_txns += other.completed_txns;
        self.aborted_txns += other.aborted_txns;
        self.txn_conflicts += other.txn_conflicts;
        self.txn_conflict_refusals += other.txn_conflict_refusals;
        self.txn_conflict_retries += other.txn_conflict_retries;
        self.completed_ops += other.completed_ops;
        self.busy_retries += other.busy_retries;
        self.timeouts += other.timeouts;
        self.errors += other.errors;
        self.wall = self.wall.max(other.wall);
        self.txn_latency.merge(&other.txn_latency);
    }

    /// Completed transactions per wall-clock second.
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed_txns as f64 / secs
        }
    }
}

/// The transaction shape a stream generates: full TPC-A when the
/// minimum database layout fits the shard slice, otherwise a synthetic
/// miniature with the same read-modify-write access pattern.
enum Mix {
    /// Three index searches + three record RMWs per transaction.
    Tpca(Box<AnalyticTpca>, TpcaScale),
    /// Three (read, write) record pairs at skew-drawn slots — the TPC-A
    /// account/teller/branch shape without the index B-Trees, for slices
    /// too small to hold the minimum database.
    Synthetic {
        /// 8-byte record slots available in the slice.
        slots: u64,
    },
    /// Skew-drawn 8-byte record accesses with a fixed read probability
    /// per access ([`LoadSpec::read_fraction`]) — the read-heavy
    /// serving mix the concurrent read path is built for.
    ReadMostly {
        /// 8-byte record slots available in the slice.
        slots: u64,
        /// Probability that an access is a read.
        read_fraction: f64,
    },
    /// One YCSB key-value operation per "transaction" over the KV wire
    /// ops ([`LoadSpec::ycsb`]). Keys route to shards by `key % shards`,
    /// so each shard's KV index holds the keys congruent to its id and
    /// a workload-E scan walks one shard's slice of the key space.
    Ycsb(Box<YcsbStream>),
}

/// Per-client deterministic transaction stream over one shard plan.
struct TxnStream {
    rng: Rng,
    mix: Mix,
    plan: ShardPlan,
    hot_fraction: f64,
    hot_weight: f64,
    /// `Some(a)`: bracket every transaction with begin/commit and
    /// deliberately abort an `a` fraction.
    abort_fraction: Option<f64>,
    /// Sequence number into this client's history ring (atomic mode).
    history_seq: u64,
}

const SYNTH_RECORD: u64 = 8;
/// One TPC-A history record: (account, teller, branch, delta) packed.
const HISTORY_RECORD: u64 = 16;
/// Placeholder transaction id in generated `TxnWrite`/`TxnCommit`/
/// `TxnAbort` requests; the driver patches in the id the shard's
/// `TxnStarted` reply assigned before submitting them.
pub const TXN_PATCH: u64 = u64::MAX;

impl TxnStream {
    fn new(spec: &LoadSpec, plan: ShardPlan, client: u32) -> TxnStream {
        let seed = spec
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1));
        let scale = TpcaScale::fit_bytes(plan.shard_bytes());
        let tpca = AnalyticTpca::new(scale);
        let fits = tpca.layout().total_bytes <= plan.shard_bytes();
        let mix = if let Some(ycsb) = &spec.ycsb {
            Mix::Ycsb(Box::new(YcsbStream::new(ycsb, client, spec.clients.max(1))))
        } else if let Some(read_fraction) = spec.read_fraction {
            Mix::ReadMostly {
                slots: (plan.shard_bytes() / SYNTH_RECORD).max(1),
                read_fraction,
            }
        } else if fits {
            Mix::Tpca(Box::new(tpca), scale)
        } else {
            Mix::Synthetic {
                slots: (plan.shard_bytes() / SYNTH_RECORD).max(1),
            }
        };
        TxnStream {
            rng: Rng::seed_from(seed),
            mix,
            plan,
            hot_fraction: spec.hot_fraction,
            hot_weight: spec.hot_weight,
            abort_fraction: spec.abort_fraction,
            history_seq: 0,
        }
    }

    /// Draw a key in `0..keys` with the hot-range skew.
    fn skewed_key(&mut self, keys: u64) -> u64 {
        if self.hot_weight > 0.0 && self.rng.chance(self.hot_weight) {
            let hot = ((keys as f64 * self.hot_fraction) as u64).max(1);
            self.rng.below(hot)
        } else {
            self.rng.below(keys)
        }
    }

    /// Draw the next transaction's global-address request list.
    fn next_requests(&mut self, out: &mut Vec<Request>) {
        out.clear();
        if let Mix::Ycsb(stream) = &mut self.mix {
            let shards = self.plan.shards() as u64;
            let op = stream.next_op(&mut self.rng);
            let atomic = self.abort_fraction.is_some();
            let shard = match op {
                YcsbOp::Read { key } => {
                    let shard = (key % shards) as u32;
                    out.push(Request::KvGet { shard, key });
                    shard
                }
                YcsbOp::Update { key } => {
                    let shard = (key % shards) as u32;
                    let value = stream.config().value_for(key, stream.version());
                    if atomic {
                        // Read-modify-write inside the transaction: the
                        // read observes the committed value, the write
                        // lands in the transaction's write set so the
                        // seeded abort below takes it back.
                        out.push(Request::KvGet { shard, key });
                        out.push(Request::KvPut {
                            shard,
                            key,
                            txn: TXN_PATCH,
                            value,
                        });
                    } else {
                        out.push(Request::KvPut {
                            shard,
                            key,
                            txn: 0,
                            value,
                        });
                    }
                    shard
                }
                YcsbOp::Insert { key } => {
                    let shard = (key % shards) as u32;
                    let value = stream.config().value_for(key, stream.version());
                    out.push(Request::KvPut {
                        shard,
                        key,
                        txn: if atomic { TXN_PATCH } else { 0 },
                        value,
                    });
                    shard
                }
                YcsbOp::Scan { start, limit } => {
                    let shard = (start % shards) as u32;
                    out.push(Request::KvScan {
                        shard,
                        start,
                        limit,
                    });
                    shard
                }
            };
            if let Some(abort) = self.abort_fraction {
                // Atomic mode brackets every operation — reads and
                // scans included, so the driver's begin/commit protocol
                // holds uniformly across the mix.
                out.insert(0, Request::TxnBegin { shard });
                out.push(if self.rng.chance(abort) {
                    Request::TxnAbort {
                        shard,
                        txn: TXN_PATCH,
                    }
                } else {
                    Request::TxnCommit {
                        shard,
                        txn: TXN_PATCH,
                    }
                });
            }
            return;
        }
        let shard = self.rng.below(self.plan.shards() as u64) as u32;
        let base = self.plan.base_of(shard);
        match &self.mix {
            Mix::Tpca(_, scale) => {
                let account = self.skewed_key(scale.accounts());
                let teller = account / 10_000;
                let branch = teller / 10;
                let delta = (self.rng.below(2_000) as i64) - 1_000;
                let txn = Transaction {
                    account,
                    teller,
                    branch,
                    delta,
                };
                let fill = account as u8;
                let Mix::Tpca(tpca, _) = &self.mix else {
                    unreachable!()
                };
                tpca.for_each_access(&txn, |a: TraceAccess| {
                    out.push(if a.write {
                        Request::Write {
                            addr: base + a.addr,
                            bytes: vec![fill; a.len],
                        }
                    } else {
                        Request::Read {
                            addr: base + a.addr,
                            len: a.len as u32,
                        }
                    });
                });
            }
            Mix::ReadMostly {
                slots,
                read_fraction,
            } => {
                let (slots, rf) = (*slots, *read_fraction);
                // Six accesses per transaction, matching the TPC-A
                // access count so throughput stays comparable per txn.
                for _ in 0..6 {
                    let key = self.skewed_key(slots);
                    let addr = base + key * SYNTH_RECORD;
                    out.push(if self.rng.chance(rf) {
                        Request::Read {
                            addr,
                            len: SYNTH_RECORD as u32,
                        }
                    } else {
                        Request::Write {
                            addr,
                            bytes: vec![key as u8; SYNTH_RECORD as usize],
                        }
                    });
                }
            }
            Mix::Ycsb(_) => unreachable!("ycsb streams return above"),
            Mix::Synthetic { slots } => {
                let slots = *slots;
                let account = self.skewed_key(slots);
                // Tellers and branches concentrate 10× and 100× like the
                // TPC-A hierarchy, folded back into the slot range.
                for key in [account, (account / 10) % slots, (account / 100) % slots] {
                    let addr = base + key * SYNTH_RECORD;
                    out.push(Request::Read {
                        addr,
                        len: SYNTH_RECORD as u32,
                    });
                    out.push(Request::Write {
                        addr,
                        bytes: vec![key as u8; SYNTH_RECORD as usize],
                    });
                }
            }
        }
        if let Some(abort) = self.abort_fraction {
            // Atomic mode: the same access list, run as one transaction.
            // Writes go through TxnWrite so a crash (or the seeded
            // abort below) takes all of them back together.
            for req in out.iter_mut() {
                if let Request::Write { addr, bytes } = req {
                    *req = Request::TxnWrite {
                        addr: *addr,
                        bytes: std::mem::take(bytes),
                        txn: TXN_PATCH,
                    };
                }
            }
            // The TPC-A history append: one record per transaction,
            // ring-addressed into the slack past the database layout
            // (address math only — the layout itself is untouched, so
            // non-atomic runs are byte-for-byte unaffected).
            if let Mix::Tpca(tpca, _) = &self.mix {
                let used = tpca.layout().total_bytes;
                let slots = (self.plan.shard_bytes() - used) / HISTORY_RECORD;
                if slots > 0 {
                    let slot = self.history_seq % slots;
                    self.history_seq += 1;
                    out.push(Request::TxnWrite {
                        addr: base + used + slot * HISTORY_RECORD,
                        bytes: vec![(self.history_seq % 251) as u8; HISTORY_RECORD as usize],
                        txn: TXN_PATCH,
                    });
                }
            }
            out.insert(0, Request::TxnBegin { shard });
            out.push(if self.rng.chance(abort) {
                Request::TxnAbort {
                    shard,
                    txn: TXN_PATCH,
                }
            } else {
                Request::TxnCommit {
                    shard,
                    txn: TXN_PATCH,
                }
            });
        }
    }
}

/// Substitute the shard-assigned transaction id for [`TXN_PATCH`] in a
/// generated request.
fn patch_txn(req: &Request, txn: u64) -> Request {
    match req.clone() {
        Request::TxnWrite { addr, bytes, .. } => Request::TxnWrite { addr, bytes, txn },
        Request::TxnCommit { shard, .. } => Request::TxnCommit { shard, txn },
        Request::TxnAbort { shard, .. } => Request::TxnAbort { shard, txn },
        Request::KvPut {
            shard,
            key,
            value,
            txn: TXN_PATCH,
        } => Request::KvPut {
            shard,
            key,
            txn,
            value,
        },
        Request::KvDelete {
            shard,
            key,
            txn: TXN_PATCH,
        } => Request::KvDelete { shard, key, txn },
        other => other,
    }
}

/// Shared pacing/termination bookkeeping for one client thread.
struct ClientLoop {
    report: LoadReport,
    end: Option<Instant>,
    txns_target: u64,
    interval: Option<Duration>,
    next_start: Instant,
    started: Instant,
}

impl ClientLoop {
    fn new(spec: &LoadSpec, started: Instant) -> ClientLoop {
        let interval = match spec.mode {
            LoadMode::Closed => None,
            LoadMode::Open { rate_tps } => Some(Duration::from_secs_f64(
                spec.clients as f64 / rate_tps as f64,
            )),
        };
        ClientLoop {
            report: LoadReport::default(),
            end: spec.duration.map(|d| started + d),
            txns_target: spec.txns_per_client,
            interval,
            next_start: started,
            started,
        }
    }

    /// Wait for the next scheduled start (open loop) and decide whether
    /// to run another transaction. Returns the latency origin.
    fn next_txn(&mut self) -> Option<Instant> {
        // Aborted transactions count toward the per-client target —
        // "run N transactions" bounds work, not commit luck.
        let done = self.report.completed_txns + self.report.aborted_txns;
        if self.txns_target > 0 && done >= self.txns_target {
            return None;
        }
        if let Some(end) = self.end {
            if Instant::now() >= end {
                return None;
            }
        }
        match self.interval {
            None => Some(Instant::now()),
            Some(gap) => {
                let scheduled = self.next_start;
                self.next_start += gap;
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                Some(scheduled)
            }
        }
    }

    fn finish(mut self) -> LoadReport {
        self.report.wall = self.started.elapsed();
        self.report
    }
}

/// Drive a load run against an in-process [`ShardHandle`].
///
/// Spawns `spec.clients` threads, each with its own deterministic
/// transaction stream, and merges their reports.
pub fn run_inproc(handle: &ShardHandle, spec: &LoadSpec) -> LoadReport {
    let started = Instant::now();
    let mut total = LoadReport::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..spec.clients)
            .map(|c| {
                let (tx, rx) = mpsc::channel();
                let t = Inproc { handle, tx, rx };
                scope.spawn(move || drive(t, spec, *handle.plan(), c, started))
            })
            .collect();
        for w in workers {
            total.merge(&w.join().expect("load client panicked"));
        }
    });
    total.wall = started.elapsed();
    total
}

/// Replay the workload a single in-process client would submit, applied
/// synchronously to a monolithic store — the single-controller
/// reference of the determinism anchor (a one-shard [`ShardedStore`]
/// run with the same spec must land on exactly this store's simulated
/// clock and controller statistics).
///
/// The transaction stream is regenerated from the spec's seed, not
/// recorded, so only a single-submitter order is reproducible: the spec
/// must use one client, a transaction count (not a duration), and no
/// deadline. Open-loop pacing is ignored.
///
/// # Panics
///
/// If the spec uses more than one client, no transaction count, or a
/// deadline — none of those orders are reproducible synchronously.
///
/// [`ShardedStore`]: crate::shard::ShardedStore
pub fn run_monolithic(store: &mut EnvyStore, spec: &LoadSpec) -> LoadReport {
    assert_eq!(
        spec.clients, 1,
        "the monolithic reference is single-submitter"
    );
    assert!(
        spec.txns_per_client > 0,
        "the monolithic reference needs a transaction count, not a duration"
    );
    assert!(
        spec.deadline.is_none(),
        "deadline expiry depends on wall-clock timing and is not replayable"
    );
    let spec = LoadSpec {
        duration: None,
        mode: LoadMode::Closed,
        ..spec.clone()
    };
    let plan = ShardPlan::new(1, store.size());
    drive(store, &spec, plan, 0, Instant::now())
}

/// Drive a load run over sockets: one [`Client`] connection per client
/// thread, built by `connect`. The caller supplies the server's
/// [`ShardPlan`] (shard count and slice size), which the wire protocol
/// does not carry.
///
/// # Errors
///
/// The first connection error; established clients that later fail stop
/// individually and their partial counts are merged.
pub fn run_socket<F>(connect: F, plan: ShardPlan, spec: &LoadSpec) -> io::Result<LoadReport>
where
    F: Fn() -> io::Result<Client> + Sync,
{
    let started = Instant::now();
    let mut clients = Vec::with_capacity(spec.clients as usize);
    for _ in 0..spec.clients {
        let mut client = connect()?;
        // Corked: pipelined submits batch into one buffer that the next
        // recv() flushes, so an N-op batch costs one write, not N.
        client.set_corked(true)?;
        clients.push(client);
    }
    let mut total = LoadReport::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| scope.spawn(move || drive(client, spec, plan, c as u32, started)))
            .collect();
        for w in workers {
            total.merge(&w.join().expect("socket load client panicked"));
        }
    });
    total.wall = started.elapsed();
    Ok(total)
}

/// How a load client reaches the store: the one seam between the client
/// protocol below and the three ways of running it.
trait Transport {
    /// Pipeline `reqs` as one batch and return one result per request,
    /// in request order. `Busy` refusals are retried after the hinted
    /// sleep and counted in `report.busy_retries`. `None` means the
    /// server or the connection is gone and the client should stop.
    fn pipeline(
        &mut self,
        reqs: &[Request],
        deadline: Option<Duration>,
        report: &mut LoadReport,
    ) -> Option<Vec<Result<Reply, ServeError>>>;
}

/// In process: `Busy` arrives at submit time; completions arrive on the
/// client's own channel, reused across batches.
struct Inproc<'a> {
    handle: &'a ShardHandle,
    tx: mpsc::Sender<Response>,
    rx: mpsc::Receiver<Response>,
}

impl Transport for Inproc<'_> {
    fn pipeline(
        &mut self,
        reqs: &[Request],
        deadline: Option<Duration>,
        report: &mut LoadReport,
    ) -> Option<Vec<Result<Reply, ServeError>>> {
        let mut results: Vec<Option<Result<Reply, ServeError>>> = vec![None; reqs.len()];
        let mut ids = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            loop {
                match self.handle.submit(req.clone(), deadline, &self.tx) {
                    Ok(id) => {
                        ids.push((id, i));
                        break;
                    }
                    Err(SubmitError::Busy(b)) => {
                        report.busy_retries += 1;
                        std::thread::sleep(b.retry_after);
                    }
                    Err(SubmitError::Rejected(ServeError::ShuttingDown)) => return None,
                    Err(SubmitError::Rejected(e)) => {
                        results[i] = Some(Err(e));
                        break;
                    }
                }
            }
        }
        for _ in 0..ids.len() {
            let resp = self.rx.recv().ok()?;
            if let Some(&(_, i)) = ids.iter().find(|(id, _)| *id == resp.id) {
                results[i] = Some(resp.result);
            }
        }
        results.into_iter().collect()
    }
}

/// Over a socket: `Busy` arrives as a response and is resubmitted under
/// its original id.
impl Transport for Client {
    fn pipeline(
        &mut self,
        reqs: &[Request],
        deadline: Option<Duration>,
        report: &mut LoadReport,
    ) -> Option<Vec<Result<Reply, ServeError>>> {
        let mut results: Vec<Option<Result<Reply, ServeError>>> = vec![None; reqs.len()];
        let mut ids = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            ids.push((self.submit(req.clone(), deadline).ok()?, i));
        }
        let mut pending = reqs.len();
        while pending > 0 {
            let resp = self.recv().ok()?;
            let Some(&(id, i)) = ids.iter().find(|(id, _)| *id == resp.id) else {
                continue;
            };
            match resp.outcome {
                WireOutcome::Busy(b) => {
                    report.busy_retries += 1;
                    std::thread::sleep(b.retry_after);
                    self.submit_with_id(id, reqs[i].clone(), deadline).ok()?;
                }
                WireOutcome::Err(ServeError::ShuttingDown) | WireOutcome::ShutdownAck => {
                    return None
                }
                WireOutcome::Reply(reply) => {
                    results[i] = Some(Ok(reply));
                    pending -= 1;
                }
                WireOutcome::Err(e) => {
                    results[i] = Some(Err(e));
                    pending -= 1;
                }
            }
        }
        results.into_iter().collect()
    }
}

/// Synchronously against one monolithic store, in request order.
impl Transport for &mut EnvyStore {
    fn pipeline(
        &mut self,
        reqs: &[Request],
        _deadline: Option<Duration>,
        _report: &mut LoadReport,
    ) -> Option<Vec<Result<Reply, ServeError>>> {
        Some(reqs.iter().map(|req| apply(self, req)).collect())
    }
}

/// Send one request and await its result.
fn call<T: Transport>(
    t: &mut T,
    req: Request,
    report: &mut LoadReport,
) -> Option<Result<Reply, ServeError>> {
    t.pipeline(&[req], None, report)?.pop()
}

/// One client: draw transactions from its stream and run each through
/// `t` until the spec's count or duration is reached, or the server
/// goes away.
fn drive<T: Transport>(
    mut t: T,
    spec: &LoadSpec,
    plan: ShardPlan,
    client: u32,
    started: Instant,
) -> LoadReport {
    let mut stream = TxnStream::new(spec, plan, client);
    let mut lp = ClientLoop::new(spec, started);
    let mut reqs = Vec::new();
    let mut backoff = Backoff::new(spec.seed ^ 0xB0FF ^ u64::from(client));
    while let Some(t0) = lp.next_txn() {
        stream.next_requests(&mut reqs);
        let alive = if spec.abort_fraction.is_some() {
            txn(&mut t, spec, &reqs, &mut lp.report, &mut backoff)
        } else {
            plain_txn(&mut t, spec, &reqs, &mut lp.report)
        };
        if alive.is_none() {
            break;
        }
        lp.report
            .txn_latency
            .record(Ns::from_nanos(t0.elapsed().as_nanos() as u64));
    }
    lp.finish()
}

/// Run a non-atomic transaction: pipeline every access, count each
/// outcome. `None` means the server is gone.
fn plain_txn<T: Transport>(
    t: &mut T,
    spec: &LoadSpec,
    reqs: &[Request],
    report: &mut LoadReport,
) -> Option<()> {
    for result in t.pipeline(reqs, spec.deadline, report)? {
        match result {
            Ok(_) => report.completed_ops += 1,
            Err(ServeError::DeadlineExceeded) => report.timeouts += 1,
            Err(_) => report.errors += 1,
        }
    }
    report.completed_txns += 1;
    Some(())
}

/// Base delay before retrying a refused transactional request (a
/// `TxnBegin` that found every slot taken, or a transaction aborted on
/// a write-set conflict).
const TXN_RETRY_BASE: Duration = Duration::from_micros(200);

/// Transactions a client retries after conflict-forced aborts before
/// counting the transaction as an error and moving on.
const TXN_RETRY_CAP: u32 = 32;

/// Seeded, jittered backoff for transactional retries. Conflicts are
/// abort decisions: the losers must not retry in lockstep, or they
/// collide again on the very same pages. Each pause draws uniformly
/// from [0.5×, 1.5×) of an exponentially growing base (capped), and a
/// success resets the growth. When the server supplied a `retry_after`
/// hint it floors the base — the hint is honored, never undercut.
struct Backoff {
    rng: Rng,
    streak: u32,
}

impl Backoff {
    fn new(seed: u64) -> Backoff {
        Backoff {
            rng: Rng::seed_from(seed),
            streak: 0,
        }
    }

    /// Sleep one jittered delay and grow the streak.
    fn pause(&mut self, hint: Option<Duration>) {
        let mut base = TXN_RETRY_BASE.max(hint.unwrap_or(Duration::ZERO));
        base = base.saturating_mul(1u32 << self.streak.min(4));
        let nanos = (base.as_nanos() as u64).max(1);
        let jittered = nanos / 2 + self.rng.below(nanos);
        self.streak = self.streak.saturating_add(1);
        std::thread::sleep(Duration::from_nanos(jittered));
    }

    /// A retried operation succeeded: fall back to the base delay.
    fn reset(&mut self) {
        self.streak = 0;
    }
}

/// How one attempt of an atomic transaction ended.
enum TxnAttempt {
    /// Committed, deliberately aborted, or failed on a non-conflict
    /// error — either way the transaction is finished.
    Resolved,
    /// A write hit another open transaction's write set: the attempt
    /// was aborted whole and should be retried after a backoff.
    Conflicted,
}

/// Run one atomic transaction: begin (retrying slot-full refusals with
/// jittered backoff), pipeline the body under the assigned id, then
/// commit — or abort, when the stream said so or any body access
/// failed. A write-set conflict aborts the attempt and retries the
/// whole transaction, up to [`TXN_RETRY_CAP`] times. Begin and the
/// commit/abort run without the per-request deadline: a transaction,
/// once opened, must be resolved.
///
/// `None` means the server is gone.
fn txn<T: Transport>(
    t: &mut T,
    spec: &LoadSpec,
    reqs: &[Request],
    report: &mut LoadReport,
    backoff: &mut Backoff,
) -> Option<()> {
    for _ in 0..TXN_RETRY_CAP {
        match txn_once(t, spec, reqs, report, backoff)? {
            TxnAttempt::Resolved => return Some(()),
            TxnAttempt::Conflicted => {
                report.txn_conflict_retries += 1;
                backoff.pause(None);
            }
        }
    }
    report.errors += 1;
    Some(())
}

fn txn_once<T: Transport>(
    t: &mut T,
    spec: &LoadSpec,
    reqs: &[Request],
    report: &mut LoadReport,
    backoff: &mut Backoff,
) -> Option<TxnAttempt> {
    let (begin, rest) = reqs.split_first().expect("atomic txn has a begin");
    let (tail, body) = rest.split_last().expect("atomic txn has a commit/abort");
    let txn = loop {
        match call(t, begin.clone(), report)? {
            Ok(Reply::TxnStarted { txn }) => {
                report.completed_ops += 1;
                backoff.reset();
                break txn;
            }
            Ok(other) => unreachable!("begin answered {other:?}"),
            Err(ServeError::TxnBusy) => {
                report.txn_conflicts += 1;
                backoff.pause(None);
            }
            Err(_) => {
                report.errors += 1;
                return Some(TxnAttempt::Resolved);
            }
        }
    };
    let body: Vec<Request> = body.iter().map(|req| patch_txn(req, txn)).collect();
    let mut clean = true;
    let mut conflicted = false;
    for result in t.pipeline(&body, spec.deadline, report)? {
        match result {
            Ok(_) => report.completed_ops += 1,
            Err(ServeError::DeadlineExceeded) => {
                report.timeouts += 1;
                clean = false;
            }
            Err(ServeError::TxnConflict) => {
                report.txn_conflict_refusals += 1;
                clean = false;
                conflicted = true;
            }
            Err(_) => {
                report.errors += 1;
                clean = false;
            }
        }
    }
    let tail = if clean {
        patch_txn(tail, txn)
    } else {
        // A transaction with a failed access must not commit partially
        // acknowledged state; roll the whole thing back.
        let (Request::TxnCommit { shard, .. } | Request::TxnAbort { shard, .. }) = tail else {
            unreachable!("atomic txn tail is commit/abort")
        };
        Request::TxnAbort { shard: *shard, txn }
    };
    match call(t, tail, report)? {
        Ok(Reply::Committed { .. }) => {
            report.completed_txns += 1;
            report.completed_ops += 1;
        }
        Ok(Reply::Aborted { .. }) => {
            // A conflict-forced abort is bookkeeping for the retry, not
            // a resolved transaction; only deliberate (or error-forced)
            // aborts count.
            if !conflicted {
                report.aborted_txns += 1;
            }
            report.completed_ops += 1;
        }
        Ok(other) => unreachable!("commit/abort answered {other:?}"),
        Err(_) => report.errors += 1,
    }
    Some(if conflicted {
        TxnAttempt::Conflicted
    } else {
        TxnAttempt::Resolved
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ServeConfig, ShardedStore};

    #[test]
    fn txn_stream_is_deterministic_and_in_range() {
        let spec = LoadSpec::closed(2, 4);
        let plan = ShardPlan::new(4, 1 << 20);
        let mut a = TxnStream::new(&spec, plan, 1);
        let mut b = TxnStream::new(&spec, plan, 1);
        let mut other = TxnStream::new(&spec, plan, 2);
        let (mut ra, mut rb, mut rc) = (Vec::new(), Vec::new(), Vec::new());
        let mut differs = false;
        for _ in 0..32 {
            a.next_requests(&mut ra);
            b.next_requests(&mut rb);
            other.next_requests(&mut rc);
            assert_eq!(ra, rb, "same client stream must repeat exactly");
            differs |= ra != rc;
            for req in &ra {
                let (addr, len) = match req {
                    Request::Read { addr, len } => (*addr, *len as u64),
                    Request::Write { addr, bytes } => (*addr, bytes.len() as u64),
                    _ => unreachable!("tpca issues only reads and writes"),
                };
                plan.locate(addr, len).expect("access must route cleanly");
            }
        }
        assert!(differs, "distinct clients must get distinct streams");
    }

    #[test]
    fn closed_loop_inproc_completes_every_txn() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let spec = LoadSpec::closed(2, 8);
        let report = run_inproc(&store.handle(), &spec);
        let outcome = store.shutdown();
        assert_eq!(report.completed_txns, 16);
        assert_eq!(report.errors, 0);
        assert_eq!(report.timeouts, 0);
        assert!(report.completed_ops > 0);
        assert_eq!(report.completed_ops, outcome.total_served());
        assert_eq!(report.txn_latency.count(), 16);
        assert!(report.throughput_tps() > 0.0);
    }

    #[test]
    fn monolithic_reference_matches_single_client_run() {
        let config = ServeConfig::small(1);
        let mut baseline = EnvyStore::new(config.store.clone()).unwrap();
        baseline.prefill().unwrap();
        let mut mono = baseline.fork();
        let front = ShardedStore::launch_from(vec![baseline.fork()], &config);
        let spec = LoadSpec::closed(1, 12).with_seed(7);
        let report = run_inproc(&front.handle(), &spec);
        let outcome = front.shutdown();
        let mono_report = run_monolithic(&mut mono, &spec);
        assert_eq!(report.completed_txns, mono_report.completed_txns);
        assert_eq!(report.completed_ops, mono_report.completed_ops);
        assert_eq!(outcome.shards[0].store.now(), mono.now());
        assert_eq!(outcome.shards[0].store.stats(), mono.stats());
    }

    #[test]
    fn atomic_stream_brackets_every_txn() {
        let spec = LoadSpec::closed(1, 4).atomic(0.5).with_seed(3);
        let plan = ShardPlan::new(2, 1 << 20);
        let mut stream = TxnStream::new(&spec, plan, 0);
        let mut reqs = Vec::new();
        let (mut commits, mut aborts) = (0u32, 0u32);
        for _ in 0..64 {
            stream.next_requests(&mut reqs);
            let Some(Request::TxnBegin { shard }) = reqs.first().cloned() else {
                panic!("atomic txn must start with TxnBegin: {reqs:?}");
            };
            match reqs.last() {
                Some(Request::TxnCommit { shard: s, txn }) => {
                    assert_eq!((*s, *txn), (shard, TXN_PATCH));
                    commits += 1;
                }
                Some(Request::TxnAbort { shard: s, txn }) => {
                    assert_eq!((*s, *txn), (shard, TXN_PATCH));
                    aborts += 1;
                }
                other => panic!("atomic txn must end with commit/abort: {other:?}"),
            }
            // No plain writes remain, and every body access stays on
            // the begin's shard.
            for req in &reqs[1..reqs.len() - 1] {
                match req {
                    Request::Read { addr, len } => {
                        assert_eq!(plan.locate(*addr, *len as u64).unwrap().0, shard);
                    }
                    Request::TxnWrite { addr, bytes, txn } => {
                        assert_eq!(*txn, TXN_PATCH);
                        assert_eq!(plan.locate(*addr, bytes.len() as u64).unwrap().0, shard);
                    }
                    other => panic!("unexpected body request {other:?}"),
                }
            }
        }
        assert!(commits > 0 && aborts > 0, "0.5 must draw both outcomes");
    }

    #[test]
    fn atomic_closed_loop_commits_and_aborts() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let spec = LoadSpec::closed(2, 12).atomic(0.3).with_seed(17);
        let report = run_inproc(&store.handle(), &spec);
        let outcome = store.shutdown();
        assert_eq!(report.completed_txns + report.aborted_txns, 24);
        assert!(report.aborted_txns > 0, "0.3 abort draw over 24 txns");
        assert_eq!(report.errors, 0);
        assert_eq!(report.timeouts, 0);
        // Every access the loadgen counted was served — plus the
        // TxnBusy-answered begin attempts and TxnConflict-refused
        // writes, which the shard serves as typed errors — and no shard
        // is left with an open transaction.
        assert_eq!(
            report.completed_ops + report.txn_conflicts + report.txn_conflict_refusals,
            outcome.total_served()
        );
        for shard in &outcome.shards {
            assert!(shard.store.engine().open_txns().is_empty());
        }
        let commits: u64 = outcome
            .shards
            .iter()
            .map(|s| s.store.stats().txn_commits.get())
            .sum();
        let aborts: u64 = outcome
            .shards
            .iter()
            .map(|s| s.store.stats().txn_aborts.get())
            .sum();
        assert_eq!(commits, report.completed_txns);
        assert_eq!(aborts, report.aborted_txns);
    }

    #[test]
    fn atomic_monolithic_reference_matches_single_client_run() {
        let config = ServeConfig::small(1);
        let mut baseline = EnvyStore::new(config.store.clone()).unwrap();
        baseline.prefill().unwrap();
        let mut mono = baseline.fork();
        let front = ShardedStore::launch_from(vec![baseline.fork()], &config);
        let spec = LoadSpec::closed(1, 12).with_seed(7).atomic(0.25);
        let report = run_inproc(&front.handle(), &spec);
        let outcome = front.shutdown();
        let mono_report = run_monolithic(&mut mono, &spec);
        assert_eq!(report.completed_txns, mono_report.completed_txns);
        assert_eq!(report.aborted_txns, mono_report.aborted_txns);
        assert!(mono_report.aborted_txns > 0, "0.25 abort draw over 12 txns");
        assert_eq!(report.completed_ops, mono_report.completed_ops);
        // The served store and the synchronous replay agree on the
        // simulated clock and every statistic — commit journaling and
        // rollback included.
        assert_eq!(outcome.shards[0].store.now(), mono.now());
        assert_eq!(outcome.shards[0].store.stats(), mono.stats());
    }

    #[test]
    fn ycsb_stream_is_deterministic_and_kv_shaped() {
        use envy_workload::ycsb::YcsbMix;
        let config = YcsbConfig::standard(YcsbMix::A, 500);
        let spec = LoadSpec::closed(2, 4).with_seed(21).with_ycsb(config);
        let plan = ShardPlan::new(4, 1 << 20);
        let mut a = TxnStream::new(&spec, plan, 1);
        let mut b = TxnStream::new(&spec, plan, 1);
        let mut other = TxnStream::new(&spec, plan, 0);
        let (mut ra, mut rb, mut rc) = (Vec::new(), Vec::new(), Vec::new());
        let mut differs = false;
        let (mut gets, mut puts) = (0u32, 0u32);
        for _ in 0..64 {
            a.next_requests(&mut ra);
            b.next_requests(&mut rb);
            other.next_requests(&mut rc);
            assert_eq!(ra, rb, "same client stream must repeat exactly");
            differs |= ra != rc;
            for req in &ra {
                match req {
                    Request::KvGet { shard, key } => {
                        assert_eq!(*shard as u64, key % 4);
                        gets += 1;
                    }
                    Request::KvPut {
                        shard, key, txn, ..
                    } => {
                        assert_eq!(*shard as u64, key % 4);
                        assert_eq!(*txn, 0, "non-atomic puts are standalone");
                        puts += 1;
                    }
                    other => panic!("mix A issues only gets and puts: {other:?}"),
                }
            }
        }
        assert!(differs, "distinct clients must get distinct streams");
        assert!(gets > 0 && puts > 0, "mix A draws both reads and updates");
    }

    #[test]
    fn ycsb_atomic_stream_brackets_every_op() {
        use envy_workload::ycsb::YcsbMix;
        let config = YcsbConfig::standard(YcsbMix::A, 500);
        let spec = LoadSpec::closed(1, 4)
            .with_seed(5)
            .with_ycsb(config)
            .atomic(0.5);
        let plan = ShardPlan::new(2, 1 << 20);
        let mut stream = TxnStream::new(&spec, plan, 0);
        let mut reqs = Vec::new();
        let (mut commits, mut aborts, mut rmws) = (0u32, 0u32, 0u32);
        for _ in 0..64 {
            stream.next_requests(&mut reqs);
            let Some(Request::TxnBegin { shard }) = reqs.first().cloned() else {
                panic!("atomic ycsb op must start with TxnBegin: {reqs:?}");
            };
            match reqs.last() {
                Some(Request::TxnCommit { shard: s, txn }) => {
                    assert_eq!((*s, *txn), (shard, TXN_PATCH));
                    commits += 1;
                }
                Some(Request::TxnAbort { shard: s, txn }) => {
                    assert_eq!((*s, *txn), (shard, TXN_PATCH));
                    aborts += 1;
                }
                other => panic!("atomic ycsb op must end with commit/abort: {other:?}"),
            }
            let body = &reqs[1..reqs.len() - 1];
            for req in body {
                match req {
                    Request::KvGet { shard: s, .. } => assert_eq!(*s, shard),
                    Request::KvPut { shard: s, txn, .. } => {
                        assert_eq!((*s, *txn), (shard, TXN_PATCH));
                    }
                    other => panic!("unexpected ycsb body request {other:?}"),
                }
            }
            // Updates run as read-modify-write inside the transaction.
            if body.len() == 2 {
                assert!(matches!(body[0], Request::KvGet { .. }));
                assert!(matches!(body[1], Request::KvPut { .. }));
                rmws += 1;
            }
        }
        assert!(commits > 0 && aborts > 0, "0.5 must draw both outcomes");
        assert!(rmws > 0, "mix A must draw updates");
    }

    #[test]
    fn ycsb_closed_loop_serves_a_loaded_store() {
        use envy_workload::ycsb::YcsbMix;
        let config = YcsbConfig::standard(YcsbMix::B, 64);
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let handle = store.handle();
        for req in ycsb_load_requests(&config, 2) {
            handle.call(req).unwrap();
        }
        let spec = LoadSpec::closed(2, 16).with_seed(9).with_ycsb(config);
        let report = run_inproc(&handle, &spec);
        store.shutdown();
        assert_eq!(report.completed_txns, 32);
        assert_eq!(report.errors, 0);
        assert_eq!(report.timeouts, 0);
    }

    #[test]
    fn ycsb_monolithic_reference_matches_single_client_run() {
        use envy_workload::ycsb::YcsbMix;
        // Workload D inserts as well as reads, so this anchors gets,
        // puts, and index growth — plus the atomic bracket.
        let kv = YcsbConfig::standard(YcsbMix::D, 64);
        let config = ServeConfig::small(1);
        let mut baseline = EnvyStore::new(config.store.clone()).unwrap();
        baseline.prefill().unwrap();
        let mut mono = baseline.fork();
        let front = ShardedStore::launch_from(vec![baseline.fork()], &config);
        let handle = front.handle();
        let load = ycsb_load_requests(&kv, 1);
        for req in &load {
            handle.call(req.clone()).unwrap();
        }
        for req in &load {
            apply(&mut mono, req).unwrap();
        }
        let spec = LoadSpec::closed(1, 24)
            .with_seed(7)
            .with_ycsb(kv)
            .atomic(0.25);
        let report = run_inproc(&handle, &spec);
        let outcome = front.shutdown();
        let mono_report = run_monolithic(&mut mono, &spec);
        assert_eq!(report.completed_txns, mono_report.completed_txns);
        assert_eq!(report.aborted_txns, mono_report.aborted_txns);
        assert!(mono_report.aborted_txns > 0, "0.25 abort draw over 24 ops");
        assert_eq!(report.completed_ops, mono_report.completed_ops);
        assert_eq!(outcome.shards[0].store.now(), mono.now());
        assert_eq!(outcome.shards[0].store.stats(), mono.stats());
    }

    #[test]
    fn open_loop_paces_scheduled_starts() {
        let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
        // 1 client at 200 tps → 5 ms gap; 4 txns ≥ 15 ms of pacing.
        let spec = LoadSpec::closed(1, 4).open(200);
        let t0 = Instant::now();
        let report = run_inproc(&store.handle(), &spec);
        store.shutdown();
        assert_eq!(report.completed_txns, 4);
        assert!(
            t0.elapsed() >= Duration::from_millis(15),
            "open loop must pace starts, ran in {:?}",
            t0.elapsed()
        );
    }
}
