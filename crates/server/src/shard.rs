//! The sharded in-process serving core.
//!
//! A [`ShardedStore`] statically partitions the logical word address
//! space across N independent [`EnvyStore`] instances — one per worker
//! thread, shared-nothing, modeling §6's multiple-controller
//! organization. Clients talk to it through a cheap, cloneable
//! [`ShardHandle`]:
//!
//! * **Bounded admission**: each shard has a bounded MPSC request queue.
//!   A full queue rejects the request with [`Busy`] carrying a
//!   `retry_after` hint — submission never blocks silently.
//! * **Batched dispatch**: a worker drains up to `batch_max` queued
//!   requests per wakeup and executes them back-to-back, amortizing
//!   wakeup cost exactly like a device-queue doorbell.
//! * **Typed completions**: every admitted request produces exactly one
//!   [`Response`] on the completion channel supplied at submit time,
//!   even across graceful shutdown.
//! * **Deadlines**: a request whose deadline has passed when the worker
//!   picks it up completes with [`ServeError::DeadlineExceeded`] instead
//!   of executing.
//!
//! Within a shard, requests execute in admission order on the shard's
//! own simulated clock (`now = store.now()`, back-to-back), so a shard's
//! simulated-time metrics depend only on the request subsequence it
//! received — the determinism anchor the differential tests pin.

use envy_core::{EnvyConfig, EnvyError, EnvyStats, EnvyStore, ReadView, TraceEvent, TxnMemory};
use envy_sim::stats::TimeSeries;
use envy_sim::time::Ns;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Columns of the per-shard queue-depth [`TimeSeries`] sampled at each
/// dispatch: queue depth at dispatch (including the drained batch), the
/// drained batch size, and cumulative completions.
pub const DEPTH_COLUMNS: &[&str] = &["depth", "batch", "served"];

/// Fallback per-request service estimate before the first measurement.
const EST_INIT_NS: u64 = 2_000;
/// Bounds on the [`Busy::retry_after`] hint.
const RETRY_MIN: Duration = Duration::from_micros(1);
const RETRY_MAX: Duration = Duration::from_millis(100);

// ---------------------------------------------------------------------
// Requests, replies, errors
// ---------------------------------------------------------------------

/// One serving request against the global sharded address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read `len` bytes at global address `addr`.
    Read {
        /// Global byte address.
        addr: u64,
        /// Bytes to read.
        len: u32,
    },
    /// Write bytes at global address `addr`.
    Write {
        /// Global byte address.
        addr: u64,
        /// Payload.
        bytes: Vec<u8>,
    },
    /// Drain the target shard's write buffer to Flash. Routed by `shard`
    /// (a flush is per-controller, not per-address).
    Flush {
        /// Shard to flush.
        shard: u32,
    },
    /// Liveness probe; completes without touching the store.
    Ping {
        /// Shard to bounce the probe off.
        shard: u32,
    },
    /// Open a transaction on one shard. Up to the configured number of
    /// transaction slots may be open concurrently per controller
    /// (default 1, the paper's §6 single hardware transaction), each
    /// isolated by its per-page write set. Replies
    /// [`Reply::TxnStarted`] with the id every subsequent transactional
    /// request must carry.
    TxnBegin {
        /// Shard to open the transaction on.
        shard: u32,
    },
    /// Write bytes at global address `addr` under the open transaction
    /// `txn`. Routed by address like [`Request::Write`]; the target
    /// shard must be the one that started `txn`, or the request fails
    /// with [`ServeError::NoSuchTxn`].
    TxnWrite {
        /// Global byte address.
        addr: u64,
        /// Payload.
        bytes: Vec<u8>,
        /// The transaction id from [`Reply::TxnStarted`].
        txn: u64,
    },
    /// Commit the open transaction: all of its writes become durable
    /// atomically (see `docs/TRANSACTIONS.md`).
    TxnCommit {
        /// Shard that owns the transaction.
        shard: u32,
        /// The transaction id.
        txn: u64,
    },
    /// Abort the open transaction: every page it touched reverts to its
    /// pre-transaction image.
    TxnAbort {
        /// Shard that owns the transaction.
        shard: u32,
        /// The transaction id.
        txn: u64,
    },
    /// Look up a key in the target shard's KV region (see
    /// `docs/KV.md`). Routed by `shard`: the key space is partitioned
    /// by the client (key → shard), not by byte address.
    KvGet {
        /// Shard whose KV region holds the key.
        shard: u32,
        /// The key.
        key: u64,
    },
    /// Insert or replace a key in the target shard's KV region.
    KvPut {
        /// Shard whose KV region holds the key.
        shard: u32,
        /// The key.
        key: u64,
        /// Open transaction to run under (`0` = standalone: the put is
        /// its own atomic unit). A nonzero id must come from
        /// [`Reply::TxnStarted`] on the same shard.
        txn: u64,
        /// The value (at most [`envy_kv::MAX_VALUE`] bytes).
        value: Vec<u8>,
    },
    /// Delete a key from the target shard's KV region.
    KvDelete {
        /// Shard whose KV region holds the key.
        shard: u32,
        /// The key.
        key: u64,
        /// Open transaction to run under (`0` = standalone).
        txn: u64,
    },
    /// Ordered range read: up to `limit` records with key ≥ `start`,
    /// ascending, from the target shard's KV region. `limit` is capped
    /// at [`KV_SCAN_LIMIT`] server-side so a reply always fits a wire
    /// frame.
    KvScan {
        /// Shard whose KV region to scan.
        shard: u32,
        /// First key of the range (inclusive).
        start: u64,
        /// Maximum records to return.
        limit: u32,
    },
}

/// A successful completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Read data.
    Data(Vec<u8>),
    /// Write completed; `latency` is the simulated access latency.
    Done {
        /// Simulated latency of the write.
        latency: Ns,
    },
    /// The shard's write buffer was drained.
    Flushed,
    /// Ping answer.
    Pong,
    /// A transaction opened; carry this id in every
    /// [`Request::TxnWrite`] / commit / abort for it.
    TxnStarted {
        /// The new transaction's id.
        txn: u64,
    },
    /// The transaction committed — all of its writes are durable.
    Committed {
        /// The committed transaction's id.
        txn: u64,
    },
    /// The transaction rolled back — none of its writes survive.
    Aborted {
        /// The aborted transaction's id.
        txn: u64,
    },
    /// Answer to [`Request::KvGet`]: the value, or `None` on a miss.
    KvValue(Option<Vec<u8>>),
    /// Answer to [`Request::KvPut`]: the record is stored (durably so
    /// only once the owning transaction — or the standalone op — has
    /// committed through the journal).
    KvPutDone,
    /// Answer to [`Request::KvDelete`].
    KvDeleted {
        /// Whether the key existed before the delete.
        existed: bool,
    },
    /// Answer to [`Request::KvScan`]: `(key, value)` records in
    /// ascending key order.
    KvRange(Vec<(u64, Vec<u8>)>),
}

/// A typed serving failure (always delivered as a completion or a
/// submit-time rejection — requests never disappear).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request's deadline passed before a worker dispatched it.
    DeadlineExceeded,
    /// The byte range spans two shard slices; a request must be served
    /// by exactly one controller.
    CrossesShard {
        /// Offending global address.
        addr: u64,
        /// Access length.
        len: u64,
    },
    /// The address falls outside the global logical array.
    OutOfBounds {
        /// Offending global address.
        addr: u64,
        /// Global logical size in bytes.
        size: u64,
    },
    /// Every transaction slot on the target shard is occupied; commit
    /// or abort one first. Carries no id: transaction ids are
    /// capability-like (knowing one is enough to write under it), so a
    /// refusal never leaks a foreign transaction's id.
    TxnBusy,
    /// The transaction id is not open on the target shard (never
    /// started there, already committed, or already aborted).
    NoSuchTxn {
        /// The offending id.
        txn: u64,
    },
    /// The page is in another open transaction's write set. An abort
    /// decision, not a busy-wait: retry the whole transaction (or the
    /// plain write) after backing off. Carries no id — see
    /// [`ServeError::TxnBusy`] on why refusals never name the holder.
    TxnConflict,
    /// The front end is shutting down and no longer admits requests.
    ShuttingDown,
    /// The shard's controller failed the operation.
    Store(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before dispatch"),
            ServeError::CrossesShard { addr, len } => {
                write!(f, "range {addr:#x}+{len} crosses a shard boundary")
            }
            ServeError::OutOfBounds { addr, size } => {
                write!(f, "address {addr:#x} outside sharded array of {size} bytes")
            }
            ServeError::ShuttingDown => write!(f, "front end is shutting down"),
            ServeError::TxnBusy => {
                write!(f, "all transaction slots on this shard are occupied")
            }
            ServeError::NoSuchTxn { txn } => {
                write!(f, "no open transaction {txn} on this shard")
            }
            ServeError::TxnConflict => {
                write!(f, "page is in another open transaction's write set")
            }
            ServeError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Explicit backpressure: the target shard's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// The saturated shard.
    pub shard: u32,
    /// Suggested wait before retrying: the shard's estimated per-request
    /// service time times its queue depth, clamped to sane bounds.
    pub retry_after: Duration,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue full — retry after the hint. The request was **not**
    /// admitted and will produce no completion.
    Busy(Busy),
    /// Rejected outright (bad range, shutdown); no completion follows.
    Rejected(ServeError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy(b) => {
                write!(f, "shard {} busy, retry after {:?}", b.shard, b.retry_after)
            }
            SubmitError::Rejected(e) => write!(f, "rejected: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A typed completion, delivered on the channel supplied at submit time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The id returned by [`ShardHandle::submit`].
    pub id: u64,
    /// The shard that served the request.
    pub shard: u32,
    /// Outcome.
    pub result: Result<Reply, ServeError>,
}

// ---------------------------------------------------------------------
// Sharding function
// ---------------------------------------------------------------------

/// The static sharding function: shard `i` owns the contiguous slice
/// `[i * shard_bytes, (i + 1) * shard_bytes)` of the global logical
/// byte-address space. Slices are whole numbers of pages (a shard's
/// logical array), so a word access can only cross a shard boundary by
/// actually spanning two slices — which is rejected, never split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: u32,
    shard_bytes: u64,
}

impl ShardPlan {
    /// A plan of `shards` slices of `shard_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(shards: u32, shard_bytes: u64) -> ShardPlan {
        assert!(shards > 0, "at least one shard");
        assert!(shard_bytes > 0, "shards must be non-empty");
        ShardPlan {
            shards,
            shard_bytes,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Bytes per shard slice.
    pub fn shard_bytes(&self) -> u64 {
        self.shard_bytes
    }

    /// Total logical bytes across all shards.
    pub fn total_bytes(&self) -> u64 {
        self.shard_bytes * self.shards as u64
    }

    /// Base global address of a shard's slice.
    pub fn base_of(&self, shard: u32) -> u64 {
        self.shard_bytes * shard as u64
    }

    /// Route a byte range: `(shard, local address)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::OutOfBounds`] if the range exceeds the global
    /// array, [`ServeError::CrossesShard`] if it spans two slices.
    pub fn locate(&self, addr: u64, len: u64) -> Result<(u32, u64), ServeError> {
        let size = self.total_bytes();
        if addr >= size || len > size - addr {
            return Err(ServeError::OutOfBounds { addr, size });
        }
        let shard = addr / self.shard_bytes;
        let last = addr + len.saturating_sub(1);
        if last / self.shard_bytes != shard {
            return Err(ServeError::CrossesShard { addr, len });
        }
        Ok((shard as u32, addr - shard * self.shard_bytes))
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// How read-only requests are executed.
///
/// Writes, flushes and all background machinery (timing replay,
/// cleaning, wear leveling) always run on the shard's single writer
/// thread; this knob only moves reads off it. The inline path uses the
/// store's lock-free [`ReadView`] — optimistic seqlock copies validated
/// against the writer's epoch — so it bypasses the simulated latency
/// model and the controller's read statistics entirely. See
/// `docs/CONCURRENCY.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPath {
    /// Legacy single-threaded path: reads queue behind writes on the
    /// shard worker and replay the timing model. Bit-for-bit identical
    /// to the pre-concurrency front end — the differential anchor.
    #[default]
    Timed,
    /// Reads execute immediately on the *submitting* thread via the
    /// shard's [`ReadView`]; only mutations are queued. Cheapest path:
    /// no queue hop, no wakeup — reads scale with client threads.
    Inline,
}

/// Configuration of a [`ShardedStore`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shards (worker threads / independent controllers).
    pub shards: u32,
    /// Per-shard store configuration (every shard is identical).
    pub store: EnvyConfig,
    /// Bounded per-shard queue capacity; a full queue returns
    /// [`Busy`].
    pub queue_capacity: usize,
    /// Maximum requests drained per dispatch.
    pub batch_max: usize,
    /// Prefill each shard at the configured utilization before serving.
    pub prefill: bool,
    /// Enable controller tracing (including serve enqueue / dispatch /
    /// complete events) with this ring capacity.
    pub trace_capacity: Option<usize>,
    /// Wall-clock window of the per-shard queue-depth time series.
    pub depth_window: Duration,
    /// Rows retained per shard in the queue-depth series.
    pub depth_rows: usize,
    /// Artificial per-request service delay (wall clock) — a pacing and
    /// test knob modeling a slower device; `None` in production.
    pub service_delay: Option<Duration>,
    /// How read-only requests are executed (see [`ReadPath`]).
    pub read_path: ReadPath,
}

impl ServeConfig {
    /// A small functional configuration (the `small_test` store per
    /// shard) — unit tests, examples, smoke runs.
    pub fn small(shards: u32) -> ServeConfig {
        ServeConfig {
            shards,
            store: EnvyConfig::small_test(),
            queue_capacity: 256,
            batch_max: 32,
            prefill: true,
            trace_capacity: None,
            depth_window: Duration::from_millis(10),
            depth_rows: 1_024,
            service_delay: None,
            read_path: ReadPath::Timed,
        }
    }

    /// A scaled serving configuration: each shard is a scaled-down
    /// timing array (8 banks, 64 segments of 2 048 × 256-byte pages,
    /// state-only payload) with a 64-bit host bus — the per-controller
    /// building block of the §6 multi-controller organization.
    pub fn scaled(shards: u32) -> ServeConfig {
        let mut store = EnvyConfig::scaled(8, 64, 2_048, 256).with_store_data(false);
        store.word_bytes = 8;
        // Keep erase work per reclaimed page equal to the paper's
        // 50 ms / 65 536 (same scaling rule as the bench harness).
        store.timings.erase = Ns::from_nanos(50_000_000u64 * 2_048 / 65_536);
        ServeConfig {
            shards,
            store: store.with_utilization(0.8),
            queue_capacity: 1_024,
            batch_max: 64,
            prefill: true,
            trace_capacity: None,
            depth_window: Duration::from_millis(10),
            depth_rows: 4_096,
            service_delay: None,
            read_path: ReadPath::Timed,
        }
    }

    /// Set the bounded queue capacity (builder-style).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Set the dispatch batch bound (builder-style).
    #[must_use]
    pub fn with_batch_max(mut self, batch: usize) -> ServeConfig {
        self.batch_max = batch;
        self
    }

    /// Set the artificial per-request service delay (builder-style).
    #[must_use]
    pub fn with_service_delay(mut self, delay: Duration) -> ServeConfig {
        self.service_delay = Some(delay);
        self
    }

    /// Set the read execution path (builder-style).
    #[must_use]
    pub fn with_read_path(mut self, path: ReadPath) -> ServeConfig {
        self.read_path = path;
        self
    }

    /// Set the number of concurrent transaction slots per shard
    /// (builder-style). The default of 1 is the paper-faithful
    /// configuration; raising it lets several transactions interleave
    /// on one controller, isolated by per-page write sets.
    #[must_use]
    pub fn with_txn_slots(mut self, slots: u32) -> ServeConfig {
        self.store.txn_slots = slots;
        self
    }
}

// ---------------------------------------------------------------------
// Jobs and worker state
// ---------------------------------------------------------------------

struct Job {
    id: u64,
    req: Request,
    deadline: Option<Instant>,
    reply: Sender<Response>,
    /// Rung after the completion is posted, so a parked event loop
    /// wakes without polling the channel (see
    /// [`ShardHandle::submit_with_notify`]).
    notify: Option<Arc<crate::evloop::Waker>>,
}

struct ShardLink {
    tx: SyncSender<Job>,
    depth: Arc<AtomicUsize>,
    est_ns: Arc<AtomicU64>,
}

/// Counters shared between the inline read path and shutdown reporting.
#[derive(Debug, Default)]
struct ReadCounters {
    /// Reads completed off the writer thread.
    offloaded: AtomicU64,
    /// Optimistic-read retries (epoch conflicts) across those reads.
    retries: AtomicU64,
}

/// Per-shard inline-read machinery (absent under [`ReadPath::Timed`]).
struct ShardReaders {
    /// Lock-free view of the shard's store, for inline execution.
    view: ReadView,
    counters: ReadCounters,
}

/// Execute one shard-local read via a lock-free view and deliver its
/// completion on the submitting thread.
fn view_read(
    view: &ReadView,
    counters: &ReadCounters,
    shard: u32,
    id: u64,
    addr: u64,
    len: u32,
    reply: &Sender<Response>,
) {
    let mut buf = vec![0u8; len as usize];
    let result = match view.read(addr, &mut buf) {
        Ok(r) => {
            counters.retries.fetch_add(r, Ordering::Relaxed);
            Ok(Reply::Data(buf))
        }
        Err(EnvyError::OutOfBounds { addr, .. }) => Err(ServeError::OutOfBounds {
            addr,
            size: view.size(),
        }),
        Err(e) => Err(ServeError::Store(e.to_string())),
    };
    counters.offloaded.fetch_add(1, Ordering::Relaxed);
    let _ = reply.send(Response { id, shard, result });
}

/// Shared close flag: set once by [`ShardedStore::shutdown`]; checked by
/// submitters (reject new work) and workers (exit once drained).
type Closed = Arc<AtomicBool>;

/// What one shard worker hands back at shutdown.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: u32,
    /// The shard's store (final contents, stats, simulated clock).
    pub store: EnvyStore,
    /// Completions posted (including typed failures).
    pub served: u64,
    /// Requests that expired before dispatch.
    pub timed_out: u64,
    /// Dispatch batches drained.
    pub batches: u64,
    /// Largest batch drained in one dispatch.
    pub max_batch: u32,
    /// Queue-depth samples over wall-clock time.
    pub depth_series: TimeSeries,
    /// Reads served inline, off the writer thread; 0 under
    /// [`ReadPath::Timed`]. These bypass the timing
    /// model, so they are *not* in the store's `host_reads`.
    pub reads_offloaded: u64,
    /// Optimistic-read retries (seqlock conflicts) across those reads.
    pub read_retries: u64,
}

/// Everything a [`ShardedStore::shutdown`] returns: per-shard outcomes,
/// in shard order.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-shard worker outcomes.
    pub shards: Vec<ShardOutcome>,
}

impl ServeOutcome {
    /// Aggregate controller statistics across all shards (see
    /// [`EnvyStats::merge`]).
    pub fn aggregate_stats(&self) -> EnvyStats {
        let mut all = EnvyStats::default();
        for s in &self.shards {
            all.merge(s.store.stats());
        }
        all
    }

    /// The slowest shard's simulated clock — the fleet's simulated
    /// makespan for its share of the workload.
    pub fn max_sim_time(&self) -> Ns {
        self.shards
            .iter()
            .map(|s| s.store.now())
            .max()
            .unwrap_or(Ns::ZERO)
    }

    /// Total completions posted across shards.
    pub fn total_served(&self) -> u64 {
        self.shards.iter().map(|s| s.served).sum()
    }

    /// Total deadline expiries across shards.
    pub fn total_timed_out(&self) -> u64 {
        self.shards.iter().map(|s| s.timed_out).sum()
    }

    /// Total reads served off the writer threads across shards.
    pub fn total_reads_offloaded(&self) -> u64 {
        self.shards.iter().map(|s| s.reads_offloaded).sum()
    }

    /// Total optimistic-read retries across shards.
    pub fn total_read_retries(&self) -> u64 {
        self.shards.iter().map(|s| s.read_retries).sum()
    }
}

// ---------------------------------------------------------------------
// The sharded store
// ---------------------------------------------------------------------

/// A cheap, cloneable submission handle to a [`ShardedStore`].
///
/// Handles may outlive the store: once [`ShardedStore::shutdown`]
/// begins, every submission through any clone is rejected with
/// [`ServeError::ShuttingDown`].
#[derive(Clone)]
pub struct ShardHandle {
    plan: ShardPlan,
    links: Arc<Vec<ShardLink>>,
    next_id: Arc<AtomicU64>,
    closed: Closed,
    /// One entry per shard under [`ReadPath::Inline`].
    readers: Option<Arc<Vec<ShardReaders>>>,
}

impl fmt::Debug for ShardHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardHandle")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

/// The sharded serving front end: owns the worker threads; see the
/// [module docs](self) for the contract.
#[derive(Debug)]
pub struct ShardedStore {
    handle: ShardHandle,
    workers: Vec<JoinHandle<ShardOutcome>>,
}

impl ShardedStore {
    /// Build and launch: one prefilled store per shard (forked from a
    /// single baseline so every shard starts byte-identical), one worker
    /// thread per shard.
    ///
    /// # Errors
    ///
    /// [`EnvyError`] if the per-shard configuration is invalid or the
    /// prefill fails.
    pub fn launch(config: ServeConfig) -> Result<ShardedStore, EnvyError> {
        let mut baseline = EnvyStore::new(config.store.clone())?;
        if config.prefill {
            baseline.prefill()?;
        }
        let stores = (0..config.shards).map(|_| baseline.fork()).collect();
        Ok(ShardedStore::launch_from(stores, &config))
    }

    /// Launch over caller-built stores (e.g. forks of a churned
    /// steady-state baseline). All stores must have the same logical
    /// size; `config.shards` is ignored in favor of `stores.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `stores` is empty or the stores disagree on size.
    pub fn launch_from(stores: Vec<EnvyStore>, config: &ServeConfig) -> ShardedStore {
        assert!(!stores.is_empty(), "at least one shard store");
        let shard_bytes = stores[0].size();
        assert!(
            stores.iter().all(|s| s.size() == shard_bytes),
            "every shard must own an identical slice"
        );
        let plan = ShardPlan::new(stores.len() as u32, shard_bytes);
        let closed: Closed = Arc::new(AtomicBool::new(false));
        let inline = config.read_path == ReadPath::Inline;
        let mut links = Vec::with_capacity(stores.len());
        let mut workers = Vec::with_capacity(stores.len());
        let mut shard_readers = Vec::with_capacity(stores.len());
        for (i, mut store) in stores.into_iter().enumerate() {
            if let Some(capacity) = config.trace_capacity {
                store.enable_trace(capacity);
            }
            // Caller-built stores (forks of a shared baseline) carry the
            // baseline's slot table; the serve config is authoritative.
            store.set_txn_slots(config.store.txn_slots);
            // Disjoint id residues per shard: shard i issues ids
            // i+1, i+1+N, ... so a transaction id can never match on
            // the wrong shard (a misrouted TxnWrite is refused with
            // NoSuchTxn instead of silently joining a foreign
            // transaction). A single shard degenerates to 1, 2, 3, ...
            // — identical to a monolithic store, which the digest
            // anchors rely on.
            store.seed_txn_ids(i as u64 + 1, plan.shards() as u64);
            if inline {
                shard_readers.push(ShardReaders {
                    view: store.read_view(),
                    counters: ReadCounters::default(),
                });
            }
            let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_capacity);
            let depth = Arc::new(AtomicUsize::new(0));
            let est_ns = Arc::new(AtomicU64::new(EST_INIT_NS));
            let w = Worker {
                shard: i as u32,
                store,
                rx,
                closed: Arc::clone(&closed),
                depth: Arc::clone(&depth),
                est_ns: Arc::clone(&est_ns),
                batch_max: config.batch_max.max(1),
                service_delay: config.service_delay,
                depth_window: Ns::from_nanos(config.depth_window.as_nanos().max(1) as u64),
                depth_rows: config.depth_rows.max(1),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("envy-shard-{i}"))
                    .spawn(move || w.run())
                    .expect("spawn shard worker"),
            );
            links.push(ShardLink { tx, depth, est_ns });
        }
        let readers = inline.then(|| Arc::new(shard_readers));
        ShardedStore {
            handle: ShardHandle {
                plan,
                links: Arc::new(links),
                next_id: Arc::new(AtomicU64::new(0)),
                closed,
                readers,
            },
            workers,
        }
    }

    /// The sharding function.
    pub fn plan(&self) -> &ShardPlan {
        &self.handle.plan
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ShardHandle {
        self.handle.clone()
    }

    /// Graceful shutdown: stop admitting (every [`ShardHandle`] clone
    /// now rejects with [`ServeError::ShuttingDown`]), let every worker
    /// drain its queue — every already-admitted request still completes
    /// — then join and return the per-shard outcomes.
    pub fn shutdown(self) -> ServeOutcome {
        self.handle.closed.store(true, Ordering::SeqCst);
        let readers = self.handle.readers.clone();
        drop(self.handle);
        let mut shards: Vec<ShardOutcome> = self
            .workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect();
        if let Some(readers) = readers {
            for (s, r) in shards.iter_mut().zip(readers.iter()) {
                s.reads_offloaded = r.counters.offloaded.load(Ordering::Relaxed);
                s.read_retries = r.counters.retries.load(Ordering::Relaxed);
            }
        }
        ServeOutcome { shards }
    }
}

impl ShardHandle {
    /// The sharding function.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Current depth of a shard's queue (an instantaneous upper bound).
    pub fn queue_depth(&self, shard: u32) -> usize {
        self.links[shard as usize].depth.load(Ordering::Relaxed)
    }

    /// Route a request to its shard without submitting it.
    ///
    /// # Errors
    ///
    /// The same range errors as [`ShardPlan::locate`].
    pub fn route(&self, req: &Request) -> Result<u32, ServeError> {
        match *req {
            Request::Read { addr, len } => self.plan.locate(addr, len as u64).map(|(s, _)| s),
            Request::Write { addr, ref bytes }
            | Request::TxnWrite {
                addr, ref bytes, ..
            } => self.plan.locate(addr, bytes.len() as u64).map(|(s, _)| s),
            Request::Flush { shard }
            | Request::Ping { shard }
            | Request::TxnBegin { shard }
            | Request::TxnCommit { shard, .. }
            | Request::TxnAbort { shard, .. }
            | Request::KvGet { shard, .. }
            | Request::KvPut { shard, .. }
            | Request::KvDelete { shard, .. }
            | Request::KvScan { shard, .. } => {
                if shard < self.plan.shards() {
                    Ok(shard)
                } else {
                    Err(ServeError::OutOfBounds {
                        addr: self.plan.total_bytes(),
                        size: self.plan.total_bytes(),
                    })
                }
            }
        }
    }

    /// Submit a request. On admission the request id is returned and
    /// exactly one [`Response`] with that id will arrive on `reply`.
    /// On [`SubmitError`] nothing was admitted and no completion will
    /// follow — the caller owns the retry.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the shard queue is full,
    /// [`SubmitError::Rejected`] for range errors or shutdown.
    pub fn submit(
        &self,
        req: Request,
        deadline: Option<Duration>,
        reply: &Sender<Response>,
    ) -> Result<u64, SubmitError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.submit_with_id(id, req, deadline, reply)?;
        Ok(id)
    }

    /// [`submit`](ShardHandle::submit) with a caller-chosen request id —
    /// the wire layer echoes each client's own ids so completions can be
    /// matched without a translation table. Ids need only be unique per
    /// completion channel.
    ///
    /// # Errors
    ///
    /// As [`submit`](ShardHandle::submit).
    pub fn submit_with_id(
        &self,
        id: u64,
        req: Request,
        deadline: Option<Duration>,
        reply: &Sender<Response>,
    ) -> Result<(), SubmitError> {
        self.submit_with_notify(id, req, deadline, reply, None)
    }

    /// [`submit_with_id`](ShardHandle::submit_with_id) with a
    /// completion wakeup: after the completion is posted to `reply`,
    /// the given [`Waker`](crate::evloop::Waker) is rung so an event
    /// loop parked in `epoll_wait`/`poll` observes it without polling
    /// the channel. Inline reads (see [`ReadPath::Inline`]) complete
    /// synchronously on the calling thread before this returns, so no
    /// wake is issued for them.
    ///
    /// # Errors
    ///
    /// As [`submit`](ShardHandle::submit).
    pub fn submit_with_notify(
        &self,
        id: u64,
        req: Request,
        deadline: Option<Duration>,
        reply: &Sender<Response>,
        notify: Option<&Arc<crate::evloop::Waker>>,
    ) -> Result<(), SubmitError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(SubmitError::Rejected(ServeError::ShuttingDown));
        }
        let shard = self.route(&req).map_err(SubmitError::Rejected)?;
        let link = &self.links[shard as usize];
        let local = match req {
            Request::Read { addr, len } => Request::Read {
                addr: addr - self.plan.base_of(shard),
                len,
            },
            Request::Write { addr, bytes } => Request::Write {
                addr: addr - self.plan.base_of(shard),
                bytes,
            },
            Request::TxnWrite { addr, bytes, txn } => Request::TxnWrite {
                addr: addr - self.plan.base_of(shard),
                bytes,
                txn,
            },
            other => other,
        };
        // Inline read path: reads execute on this (submitting) thread
        // and never queue behind mutations.
        if let (Some(readers), Request::Read { addr, len }) = (&self.readers, &local) {
            let sr = &readers[shard as usize];
            view_read(&sr.view, &sr.counters, shard, id, *addr, *len, reply);
            return Ok(());
        }
        let job = Job {
            id,
            req: local,
            deadline: deadline.map(|d| Instant::now() + d),
            reply: reply.clone(),
            notify: notify.cloned(),
        };
        // Count before sending so the worker's decrement can never race
        // the gauge below zero; a rejected send takes the count back.
        link.depth.fetch_add(1, Ordering::Relaxed);
        match link.tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(e) => {
                link.depth.fetch_sub(1, Ordering::Relaxed);
                match e {
                    TrySendError::Full(_) => Err(SubmitError::Busy(Busy {
                        shard,
                        retry_after: self.retry_hint(shard),
                    })),
                    TrySendError::Disconnected(_) => {
                        Err(SubmitError::Rejected(ServeError::ShuttingDown))
                    }
                }
            }
        }
    }

    /// Blocking convenience: submit with no deadline, retrying through
    /// [`Busy`] backpressure (sleeping each `retry_after`), and wait for
    /// the completion.
    ///
    /// # Errors
    ///
    /// The completion's [`ServeError`], or [`ServeError::ShuttingDown`]
    /// if the front end stops before answering.
    pub fn call(&self, req: Request) -> Result<Reply, ServeError> {
        let (tx, rx) = mpsc::channel();
        loop {
            match self.submit(req.clone(), None, &tx) {
                Ok(_) => break,
                // Not admitted; back off for the hinted interval and retry.
                Err(SubmitError::Busy(b)) => std::thread::sleep(b.retry_after),
                Err(SubmitError::Rejected(e)) => return Err(e),
            }
        }
        match rx.recv() {
            Ok(resp) => resp.result,
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// The backpressure hint for a shard: estimated per-request service
    /// time times the current queue depth, clamped to
    /// `[1 µs, 100 ms]`.
    fn retry_hint(&self, shard: u32) -> Duration {
        let link = &self.links[shard as usize];
        let est = link.est_ns.load(Ordering::Relaxed).max(1);
        let depth = link.depth.load(Ordering::Relaxed).max(1) as u64;
        Duration::from_nanos(est.saturating_mul(depth)).clamp(RETRY_MIN, RETRY_MAX)
    }
}

// ---------------------------------------------------------------------
// Request execution (shared with the differential tests)
// ---------------------------------------------------------------------

/// Execute one shard-local request against a store, exactly as a shard
/// worker does: timed accesses issued back-to-back on the shard's own
/// simulated clock. Public so differential tests can replay a shard's
/// request subsequence against a monolithic store and demand identical
/// bytes, clocks, and statistics.
///
/// # Errors
///
/// Typed [`ServeError`]s; the store itself is left consistent.
pub fn apply(store: &mut EnvyStore, req: &Request) -> Result<Reply, ServeError> {
    match req {
        Request::Read { addr, len } => {
            let mut buf = vec![0u8; *len as usize];
            store
                .read_at(store.now(), *addr, &mut buf)
                .map_err(map_store_err(store))?;
            Ok(Reply::Data(buf))
        }
        Request::Write { addr, bytes } => {
            let access = store
                .write_at(store.now(), *addr, bytes)
                .map_err(map_store_err(store))?;
            Ok(Reply::Done {
                latency: access.latency,
            })
        }
        Request::Flush { .. } => {
            store.flush_all().map_err(map_store_err(store))?;
            Ok(Reply::Flushed)
        }
        Request::Ping { .. } => Ok(Reply::Pong),
        Request::TxnBegin { .. } => {
            let txn = store.txn_begin().map_err(map_store_err(store))?;
            Ok(Reply::TxnStarted { txn })
        }
        Request::TxnWrite { addr, bytes, txn } => {
            // The store checks ownership itself: an unknown id (foreign
            // shard or already closed) is NoSuchTxn before any bytes
            // move, and a page in another open transaction's write set
            // is a conflict refusal.
            let access = store
                .txn_write_at(store.now(), *txn, *addr, bytes)
                .map_err(map_store_err(store))?;
            Ok(Reply::Done {
                latency: access.latency,
            })
        }
        Request::TxnCommit { txn, .. } => {
            store.txn_commit(*txn).map_err(map_store_err(store))?;
            Ok(Reply::Committed { txn: *txn })
        }
        Request::TxnAbort { txn, .. } => {
            store.txn_abort(*txn).map_err(map_store_err(store))?;
            Ok(Reply::Aborted { txn: *txn })
        }
        Request::KvGet { key, .. } => {
            let size = store.size();
            let kv = kv_open(store)?;
            let value = kv.get(store, *key).map_err(map_kv_err(size))?;
            Ok(Reply::KvValue(value))
        }
        Request::KvPut {
            key, txn, value, ..
        } => {
            let size = store.size();
            let mut kv = kv_open(store)?;
            if *txn == 0 {
                kv.put(store, *key, value).map_err(map_kv_err(size))?;
            } else {
                // All index and record writes of this put join the
                // transaction's write set: they revert together on
                // abort and conflict like any other transactional page.
                let mut mem = TxnMemory::new(store, *txn);
                kv.put(&mut mem, *key, value).map_err(map_kv_err(size))?;
            }
            Ok(Reply::KvPutDone)
        }
        Request::KvDelete { key, txn, .. } => {
            let size = store.size();
            let mut kv = kv_open(store)?;
            let existed = if *txn == 0 {
                kv.delete(store, *key).map_err(map_kv_err(size))?
            } else {
                let mut mem = TxnMemory::new(store, *txn);
                kv.delete(&mut mem, *key).map_err(map_kv_err(size))?
            };
            Ok(Reply::KvDeleted { existed })
        }
        Request::KvScan { start, limit, .. } => {
            let size = store.size();
            let kv = kv_open(store)?;
            let limit = (*limit).min(KV_SCAN_LIMIT) as usize;
            let items = kv.scan(store, *start, limit).map_err(map_kv_err(size))?;
            Ok(Reply::KvRange(items))
        }
    }
}

/// Server-side cap on [`Request::KvScan`] result counts: 128 records of
/// [`envy_kv::MAX_VALUE`] bytes is ~526 KiB of reply body, safely under
/// the wire protocol's 1 MiB frame limit.
pub const KV_SCAN_LIMIT: u32 = 128;

/// Open the shard's KV region (the whole logical array, region base 0),
/// creating it on first touch. Erased Flash reads back as `0xFF`, so a
/// fresh shard can never alias the magic and the create is reached on
/// exactly the first KV request — deterministically, in both the worker
/// and the monolithic-replay execution paths.
fn kv_open(store: &mut EnvyStore) -> Result<envy_kv::KvStore, ServeError> {
    let size = store.size();
    match envy_kv::KvStore::open(store, 0) {
        Ok(kv) => Ok(kv),
        Err(envy_kv::KvError::BadMagic) => {
            envy_kv::KvStore::create(store, 0, size).map_err(map_kv_err(size))
        }
        Err(e) => Err(map_kv_err(size)(e)),
    }
}

fn map_kv_err(size: u64) -> impl Fn(envy_kv::KvError) -> ServeError {
    move |e| match e {
        // Transaction machinery surfaces through the memory layer when
        // the KV store runs over TxnMemory; route those to the same
        // typed refusals the raw transactional ops use.
        envy_kv::KvError::Memory(EnvyError::OutOfBounds { addr, .. }) => {
            ServeError::OutOfBounds { addr, size }
        }
        envy_kv::KvError::Memory(EnvyError::TxnSlotsFull { .. }) => ServeError::TxnBusy,
        envy_kv::KvError::Memory(EnvyError::NoSuchTxn { txn }) => ServeError::NoSuchTxn { txn },
        envy_kv::KvError::Memory(EnvyError::TxnConflict { .. }) => ServeError::TxnConflict,
        other => ServeError::Store(other.to_string()),
    }
}

fn map_store_err(store: &EnvyStore) -> impl Fn(EnvyError) -> ServeError + '_ {
    let size = store.size();
    move |e| match e {
        EnvyError::OutOfBounds { addr, .. } => ServeError::OutOfBounds { addr, size },
        EnvyError::TxnSlotsFull { .. } => ServeError::TxnBusy,
        EnvyError::NoSuchTxn { txn } => ServeError::NoSuchTxn { txn },
        // The holder's id stops here: it is controller-side diagnostic
        // state, never echoed to a peer that does not own it.
        EnvyError::TxnConflict { .. } => ServeError::TxnConflict,
        other => ServeError::Store(other.to_string()),
    }
}

struct Worker {
    shard: u32,
    store: EnvyStore,
    rx: Receiver<Job>,
    closed: Closed,
    depth: Arc<AtomicUsize>,
    est_ns: Arc<AtomicU64>,
    batch_max: usize,
    service_delay: Option<Duration>,
    depth_window: Ns,
    depth_rows: usize,
}

impl Worker {
    fn run(mut self) -> ShardOutcome {
        let started = Instant::now();
        let mut series = TimeSeries::new(self.depth_window, DEPTH_COLUMNS, self.depth_rows);
        let mut batch: Vec<Job> = Vec::with_capacity(self.batch_max);
        let mut served = 0u64;
        let mut timed_out = 0u64;
        let mut batches = 0u64;
        let mut max_batch = 0u32;
        // Exit either when every sender is gone (the queue yields all
        // remaining jobs before reporting disconnect) or when the close
        // flag is up and the queue has gone empty — both guarantee the
        // drain: every admitted request still completes.
        loop {
            let first = match self.rx.recv_timeout(Duration::from_millis(10)) {
                Ok(job) => job,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if !self.closed.load(Ordering::SeqCst) {
                        continue;
                    }
                    match self.rx.try_recv() {
                        Ok(job) => job,
                        Err(_) => break,
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            batch.push(first);
            while batch.len() < self.batch_max {
                match self.rx.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
            let n = batch.len();
            self.depth.fetch_sub(n, Ordering::Relaxed);
            batches += 1;
            max_batch = max_batch.max(n as u32);
            let wall = Ns::from_nanos(started.elapsed().as_nanos() as u64);
            if series.due(wall) {
                series.record(
                    wall,
                    vec![
                        (self.depth.load(Ordering::Relaxed) + n) as f64,
                        n as f64,
                        served as f64,
                    ],
                );
            }
            let t0 = Instant::now();
            self.trace_batch(&batch);
            // One wake per distinct event loop per batch (not per job):
            // wakes coalesce, so ringing after the batch is enough.
            let mut wakers: Vec<Arc<crate::evloop::Waker>> = Vec::new();
            for job in batch.drain(..) {
                let result = if job.deadline.is_some_and(|d| Instant::now() > d) {
                    timed_out += 1;
                    Err(ServeError::DeadlineExceeded)
                } else {
                    if let Some(delay) = self.service_delay {
                        std::thread::sleep(delay);
                    }
                    apply(&mut self.store, &job.req)
                };
                self.trace_complete(job.id);
                served += 1;
                // A dropped completion receiver (dead client) must not
                // take the worker down with it.
                let _ = job.reply.send(Response {
                    id: job.id,
                    shard: self.shard,
                    result,
                });
                if let Some(w) = job.notify {
                    if !wakers.iter().any(|k| Arc::ptr_eq(k, &w)) {
                        wakers.push(w);
                    }
                }
            }
            for w in wakers {
                w.wake();
            }
            let per_op = (t0.elapsed().as_nanos() as u64 / n as u64).max(1);
            // EWMA (3 old + 1 new) / 4, kept in integers.
            let old = self.est_ns.load(Ordering::Relaxed);
            self.est_ns
                .store((old.saturating_mul(3) + per_op) / 4, Ordering::Relaxed);
        }
        ShardOutcome {
            shard: self.shard,
            store: self.store,
            served,
            timed_out,
            batches,
            max_batch,
            depth_series: series,
            // Patched from the shared counters at shutdown under the
            // inline read path.
            reads_offloaded: 0,
            read_retries: 0,
        }
    }

    /// Emit admission + dispatch trace events for a drained batch
    /// (no-ops unless tracing was enabled; stamped with the shard's
    /// simulated clock, like every controller event).
    fn trace_batch(&mut self, batch: &[Job]) {
        if !self.store.trace().is_enabled() {
            return;
        }
        let now = self.store.now();
        let shard = self.shard;
        let trace = self.store.engine_mut().trace_mut();
        trace.set_now(now);
        for job in batch {
            trace.push(TraceEvent::ServeEnqueue { shard, seq: job.id });
        }
        trace.push(TraceEvent::ServeDispatch {
            shard,
            batch: batch.len() as u32,
        });
    }

    fn trace_complete(&mut self, id: u64) {
        if !self.store.trace().is_enabled() {
            return;
        }
        let now = self.store.now();
        let shard = self.shard;
        let trace = self.store.engine_mut().trace_mut();
        trace.set_now(now);
        trace.push(TraceEvent::ServeComplete { shard, seq: id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_locates_and_rejects() {
        let plan = ShardPlan::new(4, 1_000);
        assert_eq!(plan.total_bytes(), 4_000);
        assert_eq!(plan.locate(0, 8).unwrap(), (0, 0));
        assert_eq!(plan.locate(2_500, 8).unwrap(), (2, 500));
        assert_eq!(plan.locate(999, 1).unwrap(), (0, 999));
        assert!(matches!(
            plan.locate(996, 8),
            Err(ServeError::CrossesShard { .. })
        ));
        assert!(matches!(
            plan.locate(4_000, 1),
            Err(ServeError::OutOfBounds { .. })
        ));
        assert!(matches!(
            plan.locate(3_999, 2),
            Err(ServeError::OutOfBounds { .. })
        ));
        // Zero-length accesses route without crossing.
        assert_eq!(plan.locate(1_000, 0).unwrap(), (1, 0));
    }

    #[test]
    fn roundtrip_through_two_shards() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        let base = h.plan().shard_bytes();
        h.call(Request::Write {
            addr: 64,
            bytes: b"shard-zero".to_vec(),
        })
        .unwrap();
        h.call(Request::Write {
            addr: base + 64,
            bytes: b"shard-one!".to_vec(),
        })
        .unwrap();
        match h.call(Request::Read { addr: 64, len: 10 }).unwrap() {
            Reply::Data(d) => assert_eq!(d, b"shard-zero"),
            other => panic!("unexpected {other:?}"),
        }
        match h
            .call(Request::Read {
                addr: base + 64,
                len: 10,
            })
            .unwrap()
        {
            Reply::Data(d) => assert_eq!(d, b"shard-one!"),
            other => panic!("unexpected {other:?}"),
        }
        let outcome = store.shutdown();
        assert_eq!(outcome.total_served(), 4);
        // Writes landed on different controllers (host_writes counts
        // word-granularity accesses, so just assert presence).
        assert!(outcome.shards[0].store.stats().host_writes.get() > 0);
        assert!(outcome.shards[1].store.stats().host_writes.get() > 0);
    }

    #[test]
    fn kv_roundtrip_through_shards() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        // First KV touch auto-creates each shard's KV region.
        h.call(Request::KvPut {
            shard: 0,
            key: 7,
            txn: 0,
            value: b"zero".to_vec(),
        })
        .unwrap();
        h.call(Request::KvPut {
            shard: 1,
            key: 7,
            txn: 0,
            value: b"one".to_vec(),
        })
        .unwrap();
        // Same key, independent per-shard keyspaces.
        match h.call(Request::KvGet { shard: 0, key: 7 }).unwrap() {
            Reply::KvValue(Some(v)) => assert_eq!(v, b"zero"),
            other => panic!("unexpected {other:?}"),
        }
        match h.call(Request::KvGet { shard: 1, key: 7 }).unwrap() {
            Reply::KvValue(Some(v)) => assert_eq!(v, b"one"),
            other => panic!("unexpected {other:?}"),
        }
        match h.call(Request::KvGet { shard: 0, key: 8 }).unwrap() {
            Reply::KvValue(None) => {}
            other => panic!("unexpected {other:?}"),
        }
        match h
            .call(Request::KvDelete {
                shard: 0,
                key: 7,
                txn: 0,
            })
            .unwrap()
        {
            Reply::KvDeleted { existed } => assert!(existed),
            other => panic!("unexpected {other:?}"),
        }
        match h
            .call(Request::KvScan {
                shard: 1,
                start: 0,
                limit: 10,
            })
            .unwrap()
        {
            Reply::KvRange(items) => assert_eq!(items, vec![(7, b"one".to_vec())]),
            other => panic!("unexpected {other:?}"),
        }
        // Out-of-range shard is a typed refusal, same as the other
        // shard-addressed ops.
        let err = h.call(Request::KvGet { shard: 9, key: 1 }).unwrap_err();
        assert!(matches!(err, ServeError::OutOfBounds { .. }));
        store.shutdown();
    }

    #[test]
    fn kv_txn_commit_and_abort() {
        let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
        let h = store.handle();
        h.call(Request::KvPut {
            shard: 0,
            key: 1,
            txn: 0,
            value: b"base".to_vec(),
        })
        .unwrap();
        // Abort path: the replacement and the insert both vanish.
        let txn = match h.call(Request::TxnBegin { shard: 0 }).unwrap() {
            Reply::TxnStarted { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        h.call(Request::KvPut {
            shard: 0,
            key: 1,
            txn,
            value: b"spec".to_vec(),
        })
        .unwrap();
        h.call(Request::KvPut {
            shard: 0,
            key: 2,
            txn,
            value: b"new".to_vec(),
        })
        .unwrap();
        h.call(Request::TxnAbort { shard: 0, txn }).unwrap();
        match h.call(Request::KvGet { shard: 0, key: 1 }).unwrap() {
            Reply::KvValue(Some(v)) => assert_eq!(v, b"base"),
            other => panic!("unexpected {other:?}"),
        }
        match h.call(Request::KvGet { shard: 0, key: 2 }).unwrap() {
            Reply::KvValue(None) => {}
            other => panic!("unexpected {other:?}"),
        }
        // Commit path: the delete survives.
        let txn = match h.call(Request::TxnBegin { shard: 0 }).unwrap() {
            Reply::TxnStarted { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        match h
            .call(Request::KvDelete {
                shard: 0,
                key: 1,
                txn,
            })
            .unwrap()
        {
            Reply::KvDeleted { existed } => assert!(existed),
            other => panic!("unexpected {other:?}"),
        }
        h.call(Request::TxnCommit { shard: 0, txn }).unwrap();
        match h.call(Request::KvGet { shard: 0, key: 1 }).unwrap() {
            Reply::KvValue(None) => {}
            other => panic!("unexpected {other:?}"),
        }
        // A KV write under a dead transaction is the usual typed error.
        let err = h
            .call(Request::KvPut {
                shard: 0,
                key: 3,
                txn,
                value: b"x".to_vec(),
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::NoSuchTxn { .. }));
        store.shutdown();
    }

    #[test]
    fn kv_scan_limit_is_clamped() {
        let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
        let h = store.handle();
        for key in 0..200u64 {
            h.call(Request::KvPut {
                shard: 0,
                key,
                txn: 0,
                value: vec![key as u8; 16],
            })
            .unwrap();
        }
        match h
            .call(Request::KvScan {
                shard: 0,
                start: 0,
                limit: u32::MAX,
            })
            .unwrap()
        {
            Reply::KvRange(items) => {
                assert_eq!(items.len(), KV_SCAN_LIMIT as usize);
                assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
            }
            other => panic!("unexpected {other:?}"),
        }
        store.shutdown();
    }

    #[test]
    fn cross_shard_request_is_rejected_typed() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        let base = h.plan().shard_bytes();
        let err = h
            .call(Request::Write {
                addr: base - 4,
                bytes: vec![0u8; 8],
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::CrossesShard { .. }));
        store.shutdown();
    }

    #[test]
    fn pipelined_submissions_complete_out_of_band() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        let (tx, rx) = mpsc::channel();
        let mut ids = Vec::new();
        for i in 0..64u64 {
            let req = Request::Write {
                addr: i * 256,
                bytes: vec![i as u8; 8],
            };
            loop {
                match h.submit(req.clone(), None, &tx) {
                    Ok(id) => {
                        ids.push(id);
                        break;
                    }
                    Err(SubmitError::Busy(b)) => std::thread::sleep(b.retry_after),
                    Err(SubmitError::Rejected(e)) => panic!("rejected: {e}"),
                }
            }
        }
        let mut got: Vec<u64> = (0..64).map(|_| rx.recv().unwrap().id).collect();
        got.sort_unstable();
        ids.sort_unstable();
        assert_eq!(got, ids);
        let outcome = store.shutdown();
        assert_eq!(outcome.total_served(), 64);
        assert!(outcome.aggregate_stats().host_writes.get() >= 64);
    }

    #[test]
    fn serve_trace_events_recorded() {
        let mut cfg = ServeConfig::small(1);
        cfg.trace_capacity = Some(4_096);
        let store = ShardedStore::launch(cfg).unwrap();
        let h = store.handle();
        for i in 0..8u64 {
            h.call(Request::Write {
                addr: i * 256,
                bytes: vec![1u8; 4],
            })
            .unwrap();
        }
        let outcome = store.shutdown();
        let evs: Vec<TraceEvent> = outcome.shards[0]
            .store
            .trace()
            .records()
            .map(|r| r.event)
            .collect();
        assert!(evs
            .iter()
            .any(|e| matches!(e, TraceEvent::ServeEnqueue { .. })));
        assert!(evs
            .iter()
            .any(|e| matches!(e, TraceEvent::ServeDispatch { .. })));
        assert!(evs
            .iter()
            .any(|e| matches!(e, TraceEvent::ServeComplete { .. })));
    }

    #[test]
    fn retry_hint_is_clamped() {
        let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
        let h = store.handle();
        let hint = h.retry_hint(0);
        assert!(hint >= RETRY_MIN && hint <= RETRY_MAX);
        store.shutdown();
    }

    fn read_bytes(h: &ShardHandle, addr: u64, len: u32) -> Vec<u8> {
        match h.call(Request::Read { addr, len }).unwrap() {
            Reply::Data(d) => d,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn txn_commit_roundtrip_across_shards() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        let base = h.plan().shard_bytes();
        // Independent transactions on each shard. Ids are globally
        // unique (each shard draws from a disjoint residue class), so
        // concurrent transactions can never alias across shards.
        let t0 = match h.call(Request::TxnBegin { shard: 0 }).unwrap() {
            Reply::TxnStarted { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        let t1 = match h.call(Request::TxnBegin { shard: 1 }).unwrap() {
            Reply::TxnStarted { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        assert_ne!(t0, t1, "transaction ids must be unique across shards");
        // A write that routes to shard 1 but carries shard 0's id must
        // be refused — it must not join shard 1's open transaction.
        match h
            .call(Request::TxnWrite {
                addr: base + 128,
                bytes: vec![0xAB; 4],
                txn: t0,
            })
            .unwrap_err()
        {
            ServeError::NoSuchTxn { txn } => assert_eq!(txn, t0),
            other => panic!("unexpected {other:?}"),
        }
        h.call(Request::TxnWrite {
            addr: 64,
            bytes: b"zero".to_vec(),
            txn: t0,
        })
        .unwrap();
        h.call(Request::TxnWrite {
            addr: base + 64,
            bytes: b"one!".to_vec(),
            txn: t1,
        })
        .unwrap();
        assert!(matches!(
            h.call(Request::TxnCommit { shard: 0, txn: t0 }).unwrap(),
            Reply::Committed { .. }
        ));
        assert!(matches!(
            h.call(Request::TxnAbort { shard: 1, txn: t1 }).unwrap(),
            Reply::Aborted { .. }
        ));
        assert_eq!(read_bytes(&h, 64, 4), b"zero");
        // Shard 1's write rolled back to the prefill contents.
        assert_ne!(read_bytes(&h, base + 64, 4), b"one!");
        store.shutdown();
    }

    #[test]
    fn txn_ownership_errors_are_typed() {
        let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
        let h = store.handle();
        let txn = match h.call(Request::TxnBegin { shard: 0 }).unwrap() {
            Reply::TxnStarted { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        // A second begin on the same shard is refused — and the refusal
        // does not leak the holder's id (ids are capability-like).
        assert!(matches!(
            h.call(Request::TxnBegin { shard: 0 }).unwrap_err(),
            ServeError::TxnBusy
        ));
        // A write under the wrong id never reaches the store.
        match h
            .call(Request::TxnWrite {
                addr: 0,
                bytes: vec![1u8; 4],
                txn: txn + 1,
            })
            .unwrap_err()
        {
            ServeError::NoSuchTxn { txn: t } => assert_eq!(t, txn + 1),
            other => panic!("unexpected {other:?}"),
        }
        // Commit under the wrong id likewise.
        assert!(matches!(
            h.call(Request::TxnCommit {
                shard: 0,
                txn: txn + 1
            })
            .unwrap_err(),
            ServeError::NoSuchTxn { .. }
        ));
        // The real commit still succeeds after the failed attempts.
        h.call(Request::TxnWrite {
            addr: 128,
            bytes: b"kept".to_vec(),
            txn,
        })
        .unwrap();
        h.call(Request::TxnCommit { shard: 0, txn }).unwrap();
        assert_eq!(read_bytes(&h, 128, 4), b"kept");
        // Nothing is open any more.
        assert!(matches!(
            h.call(Request::TxnAbort { shard: 0, txn }).unwrap_err(),
            ServeError::NoSuchTxn { .. }
        ));
        store.shutdown();
    }

    #[test]
    fn concurrent_txn_slots_isolate_write_sets() {
        let store = ShardedStore::launch(ServeConfig::small(1).with_txn_slots(2)).unwrap();
        let h = store.handle();
        let begin =
            |h: &crate::shard::ShardHandle| match h.call(Request::TxnBegin { shard: 0 }).unwrap() {
                Reply::TxnStarted { txn } => txn,
                other => panic!("unexpected {other:?}"),
            };
        let t0 = begin(&h);
        let t1 = begin(&h);
        assert_ne!(t0, t1);
        // Both slots taken: a third begin is refused without an id.
        assert!(matches!(
            h.call(Request::TxnBegin { shard: 0 }).unwrap_err(),
            ServeError::TxnBusy
        ));
        h.call(Request::TxnWrite {
            addr: 0,
            bytes: b"zero".to_vec(),
            txn: t0,
        })
        .unwrap();
        // t1 hitting t0's page is a typed conflict, with no foreign id.
        assert!(matches!(
            h.call(Request::TxnWrite {
                addr: 0,
                bytes: b"one!".to_vec(),
                txn: t1,
            })
            .unwrap_err(),
            ServeError::TxnConflict
        ));
        // A plain write to that page is refused the same way (the old
        // behavior silently joined it to the open transaction).
        assert!(matches!(
            h.call(Request::Write {
                addr: 0,
                bytes: b"plny".to_vec(),
            })
            .unwrap_err(),
            ServeError::TxnConflict
        ));
        // t1 writes its own page; both resolve independently.
        h.call(Request::TxnWrite {
            addr: 512,
            bytes: b"one!".to_vec(),
            txn: t1,
        })
        .unwrap();
        h.call(Request::TxnAbort { shard: 0, txn: t0 }).unwrap();
        h.call(Request::TxnCommit { shard: 0, txn: t1 }).unwrap();
        assert_ne!(read_bytes(&h, 0, 4), b"zero", "t0 rolled back");
        assert_eq!(read_bytes(&h, 512, 4), b"one!", "t1 committed");
        store.shutdown();
    }

    #[test]
    fn txn_requests_route_like_their_kin() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        // TxnWrite routes by address like Write.
        assert_eq!(
            h.route(&Request::TxnWrite {
                addr: h.plan().shard_bytes() + 8,
                bytes: vec![0u8; 4],
                txn: 1,
            })
            .unwrap(),
            1
        );
        // Shard-addressed ops validate the shard index.
        assert!(matches!(
            h.route(&Request::TxnBegin { shard: 9 }).unwrap_err(),
            ServeError::OutOfBounds { .. }
        ));
        assert!(matches!(
            h.route(&Request::TxnCommit { shard: 9, txn: 1 })
                .unwrap_err(),
            ServeError::OutOfBounds { .. }
        ));
        store.shutdown();
    }
}
