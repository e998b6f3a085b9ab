//! The traced run: per-layer figures measured from outside each layer.
//!
//! Spans are taken in this crate around calls into public entry points,
//! never inside the program. The served path is peeled by replaying one
//! seeded operation stream from forks of the same start state at three
//! boundaries (`Client` over TCP, `ShardHandle` in process, `shard::apply`
//! on the bare store); a layer's self time is the difference between the
//! boundary above it and the one below.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

use envy_core::{EnvyError, EnvyStats, EnvyStore, Memory};
use envy_server::proto::{self, WireBody, WireOutcome, WireRequest, WireResponse};
use envy_server::shard::{Reply, Request};
use envy_server::{ServeConfig, ShardPlan, ShardedStore};
use envy_sim::time::Ns;

use crate::served;
use crate::util::{self, Outcome, Samples};

/// Every per-layer metric, in output order. Every traced run fills every
/// field, pricing a layer on the workload's own stream where the measured
/// path does not pass through it.
#[derive(Debug, Default)]
pub struct Layers {
    pub gen_ns: f64,
    pub read_at_ns: f64,
    pub write_at_ns: f64,
    pub write_at_p99_ns: f64,
    pub clean_cost: f64,
    pub flushes_per_kop: f64,
    pub write_hit_ratio: f64,
    pub erases_per_kop: f64,
    pub sim_clean_share: f64,
    pub sim_suspend_share: f64,
    pub kv_get_us: f64,
    pub kv_put_us: f64,
    pub kv_words_per_op: f64,
    pub kv_store_share: f64,
    pub apply_us: f64,
    pub shard_self_us: f64,
    pub net_self_us: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub overhead: f64,
}

impl Layers {
    pub fn emit(&self, out: &mut Outcome) {
        for (name, value, unit) in [
            ("workload.gen_ns", self.gen_ns, "ns"),
            ("core.read_at_ns", self.read_at_ns, "ns"),
            ("core.write_at_ns", self.write_at_ns, "ns"),
            ("core.write_at_p99_ns", self.write_at_p99_ns, "ns"),
            ("core.clean_cost", self.clean_cost, "ratio"),
            ("core.flushes_per_kop", self.flushes_per_kop, "1/kop"),
            ("sram.write_hit_ratio", self.write_hit_ratio, "ratio"),
            ("flash.erases_per_kop", self.erases_per_kop, "1/kop"),
            ("core.sim_clean_share", self.sim_clean_share, "ratio"),
            ("core.sim_suspend_share", self.sim_suspend_share, "ratio"),
            ("kv.get_us", self.kv_get_us, "us"),
            ("kv.put_us", self.kv_put_us, "us"),
            ("kv.words_per_op", self.kv_words_per_op, "count"),
            ("kv.store_share", self.kv_store_share, "ratio"),
            ("shard.apply_us", self.apply_us, "us"),
            ("shard.self_us", self.shard_self_us, "us"),
            ("net.self_us", self.net_self_us, "us"),
            ("proto.encode_ns", self.encode_ns, "ns"),
            ("proto.decode_ns", self.decode_ns, "ns"),
            ("p99_us", self.p99_us, "us"),
            ("p999_us", self.p999_us, "us"),
            ("trace.overhead", self.overhead, "ratio"),
        ] {
            out.metric(name, value, unit);
        }
    }

    /// Controller counts over `ops` operations: cleaning cost, flushes
    /// and erases per thousand operations, SRAM write-hit ratio, and the
    /// shares of simulated busy time spent cleaning and suspended.
    pub fn controller(&mut self, stats: &EnvyStats, ops: u64) {
        let kop = ops as f64 / 1e3;
        let page_writes =
            stats.sram_write_hits.get() + stats.cow_ops.get() + stats.fresh_allocs.get();
        let busy = stats.busy_time().as_nanos() as f64;
        self.clean_cost = stats.cleaning_cost();
        self.flushes_per_kop = stats.pages_flushed.get() as f64 / kop;
        self.erases_per_kop = stats.erases.get() as f64 / kop;
        self.write_hit_ratio = ratio(stats.sram_write_hits.get() as f64, page_writes as f64);
        self.sim_clean_share = ratio(stats.time_clean.as_nanos() as f64, busy);
        self.sim_suspend_share = ratio(stats.time_suspend.as_nanos() as f64, busy);
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Merged controller statistics of several shards.
pub fn merged(stores: &[EnvyStore]) -> EnvyStats {
    let mut all = EnvyStats::default();
    for s in stores {
        all.merge(s.stats());
    }
    all
}

/// Mean host nanoseconds per item of `f` over `n` items.
pub fn per_item_ns(n: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Per-operation host latency at each boundary of the served path.
pub struct Peeled {
    pub wire: Samples,
    pub front: Samples,
    pub apply: Samples,
    /// The replies of the apply pass, in stream order.
    pub replies: Vec<Reply>,
}

/// Replay `conns` (per connection: operations, each a batch of requests
/// sent together) at the three boundaries, each from fresh forks of
/// `start`. Connections run concurrently over TCP and through the
/// `ShardHandle`; the bare-store pass interleaves them round-robin.
pub fn peel(
    start: &[EnvyStore],
    config: &ServeConfig,
    conns: &[Vec<Vec<Request>>],
) -> Result<Peeled, String> {
    let forks = || start.iter().map(EnvyStore::fork).collect::<Vec<_>>();

    let mut srv = served::launch(forks(), config, conns.len());
    let wire = std::thread::scope(|scope| {
        let handles: Vec<_> = srv
            .clients
            .iter_mut()
            .zip(conns)
            .map(|(client, ops)| {
                scope.spawn(move || -> Result<Samples, String> {
                    let mut lat = Samples::with_capacity(ops.len());
                    for batch in ops {
                        let t = Instant::now();
                        served::call_batch(client, batch)?;
                        lat.push(t.elapsed());
                    }
                    Ok(lat)
                })
            })
            .collect();
        collect(handles)
    });
    served::stop(srv);
    let wire = wire?;

    let front_end = ShardedStore::launch_from(forks(), config);
    let handle = front_end.handle();
    let front = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .map(|ops| {
                let handle = handle.clone();
                scope.spawn(move || -> Result<Samples, String> {
                    let mut lat = Samples::with_capacity(ops.len());
                    let (tx, rx) = mpsc::channel();
                    for batch in ops {
                        let t = Instant::now();
                        for req in batch {
                            handle
                                .submit(req.clone(), None, &tx)
                                .map_err(|e| e.to_string())?;
                        }
                        for _ in batch {
                            let resp = rx.recv().map_err(|e| e.to_string())?;
                            resp.result.map_err(|e| e.to_string())?;
                        }
                        lat.push(t.elapsed());
                    }
                    Ok(lat)
                })
            })
            .collect();
        collect(handles)
    });
    drop(handle);
    front_end.shutdown();
    let front = front?;

    let plan = ShardPlan::new(start.len() as u32, start[0].size());
    let mut stores = forks();
    let mut apply = Samples::default();
    let mut replies = Vec::new();
    let longest = conns.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for ops in conns {
            let Some(batch) = ops.get(i) else { continue };
            let t = Instant::now();
            for req in batch {
                replies.push(served::apply(&plan, &mut stores, req)?);
            }
            apply.push(t.elapsed());
        }
    }
    Ok(Peeled {
        wire,
        front,
        apply,
        replies,
    })
}

fn collect(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<Samples, String>>>,
) -> Result<Samples, String> {
    let mut all = Samples::default();
    for h in handles {
        all.extend(h.join().expect("replay thread")?);
    }
    Ok(all)
}

impl Layers {
    /// Boundary figures: shard apply time, the front end's and the
    /// network's self time (medians), and the client-observed tail.
    pub fn boundaries(&mut self, p: &mut Peeled) {
        let (wire, front, apply) = (
            p.wire.quantile(0.5) / 1e3,
            p.front.quantile(0.5) / 1e3,
            p.apply.quantile(0.5) / 1e3,
        );
        self.apply_us = apply;
        self.shard_self_us = front - apply;
        self.net_self_us = wire - front;
        self.p99_us = p.wire.quantile(0.99) / 1e3;
        self.p999_us = p.wire.quantile(0.999) / 1e3;
    }

    /// Mean encode and decode time per frame over the stream's own
    /// request frames and the response frames answering them.
    pub fn proto(&mut self, requests: &[Request], replies: &[Reply]) {
        let reqs: Vec<WireRequest> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| WireRequest {
                id: i as u64,
                deadline_us: 0,
                body: WireBody::Req(r.clone()),
            })
            .collect();
        let resps: Vec<WireResponse> = replies
            .iter()
            .enumerate()
            .map(|(i, r)| WireResponse {
                id: i as u64,
                shard: 0,
                outcome: WireOutcome::Reply(r.clone()),
            })
            .collect();
        let frames = reqs.len() + resps.len();
        let mut req_frames = Vec::with_capacity(reqs.len());
        let mut resp_frames = Vec::with_capacity(resps.len());
        self.encode_ns = per_item_ns(frames, || {
            req_frames.extend(reqs.iter().map(proto::encode_request));
            resp_frames.extend(resps.iter().map(proto::encode_response));
        });
        self.decode_ns = per_item_ns(frames, || {
            for f in &req_frames {
                black_box(proto::decode_request(f).expect("own frame decodes"));
            }
            for f in &resp_frames {
                black_box(proto::decode_response(f).expect("own frame decodes"));
            }
        });
    }
}

/// Per-call host-time spans around store reads and writes.
#[derive(Default)]
pub struct CoreSpans {
    pub reads: Samples,
    pub writes: Samples,
}

impl CoreSpans {
    /// Run one store call; with `on`, time it into the read or write
    /// spans.
    #[inline(always)]
    pub fn time<R>(&mut self, on: bool, write: bool, call: impl FnOnce() -> R) -> R {
        if !on {
            return call();
        }
        let t = Instant::now();
        let r = call();
        let d = t.elapsed();
        if write {
            self.writes.push(d);
        } else {
            self.reads.push(d);
        }
        r
    }

    /// Host nanoseconds inside all timed calls.
    pub fn total_ns(&self) -> u64 {
        self.reads.sum_ns() + self.writes.sum_ns()
    }
}

/// One bus access: the buffer a read fills or the bytes a write stores.
pub enum Access<'b> {
    Read(&'b mut [u8]),
    Write(&'b [u8]),
}

/// One access through the store's timed path at simulated time `at`;
/// returns its completion time. With `SPANS` the `read_at`/`write_at`
/// call is timed into `spans`.
#[inline(always)]
pub fn access_at<const SPANS: bool>(
    store: &mut EnvyStore,
    at: Ns,
    addr: u64,
    access: Access<'_>,
    spans: &mut CoreSpans,
) -> Result<Ns, EnvyError> {
    match access {
        Access::Read(buf) => spans.time(SPANS, false, || store.read_at(at, addr, buf)),
        Access::Write(bytes) => spans.time(SPANS, true, || store.write_at(at, addr, bytes)),
    }
    .map(|done| done.completed)
}

/// A `Memory` over one store. With `TIMED` every access goes through
/// [`access_at`] at the store's own clock, as `shard::apply` issues raw
/// reads and writes; without, it takes the untimed path, as the shard
/// worker runs KV operations. With `SPANS` every store call is timed into
/// `spans` and its bus words are counted.
pub struct StoreMem<'a, const TIMED: bool, const SPANS: bool> {
    pub store: &'a mut EnvyStore,
    pub spans: &'a mut CoreSpans,
    pub words: u64,
    page_bytes: u64,
    word_bytes: u64,
}

impl<'a, const TIMED: bool, const SPANS: bool> StoreMem<'a, TIMED, SPANS> {
    pub fn new(store: &'a mut EnvyStore, spans: &'a mut CoreSpans) -> Self {
        let c = store.config();
        let (page_bytes, word_bytes) = (c.geometry.page_bytes() as u64, c.word_bytes as u64);
        StoreMem {
            store,
            spans,
            words: 0,
            page_bytes,
            word_bytes,
        }
    }

    fn count(&mut self, addr: u64, len: usize) {
        if SPANS {
            self.words += util::words(addr, len as u64, self.page_bytes, self.word_bytes);
        }
    }
}

impl<const TIMED: bool, const SPANS: bool> Memory for StoreMem<'_, TIMED, SPANS> {
    fn size(&self) -> u64 {
        self.store.size()
    }

    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EnvyError> {
        self.count(addr, buf.len());
        if TIMED {
            let now = self.store.now();
            access_at::<SPANS>(self.store, now, addr, Access::Read(buf), self.spans).map(drop)
        } else {
            self.spans.time(SPANS, false, || self.store.read(addr, buf))
        }
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), EnvyError> {
        self.count(addr, bytes.len());
        if TIMED {
            let now = self.store.now();
            access_at::<SPANS>(self.store, now, addr, Access::Write(bytes), self.spans).map(drop)
        } else {
            self.spans
                .time(SPANS, true, || self.store.write(addr, bytes))
        }
    }
}

/// Run KV requests on shard stores the way the shard worker does (the
/// region opened per request, untimed store path), with or without spans.
/// With spans, every store call is timed and its bus words counted.
pub fn kv_split(stores: &mut [EnvyStore], ops: &[Request], spans: bool) -> Result<KvSplit, String> {
    let plan = ShardPlan::new(stores.len() as u32, stores[0].size());
    let mut split = KvSplit::default();
    let start = Instant::now();
    for req in ops {
        let (s, _) = served::route(&plan, req);
        let store = &mut stores[s as usize];
        let t = Instant::now();
        if spans {
            let mut mem = StoreMem::<false, true>::new(store, &mut split.store);
            crate::ycsb::kv_apply(&mut mem, req)?;
            split.words += mem.words;
        } else {
            crate::ycsb::kv_apply(store, req)?;
        }
        match req {
            Request::KvGet { .. } => split.get.push(t.elapsed()),
            _ => split.put.push(t.elapsed()),
        }
    }
    split.total_ns = start.elapsed().as_nanos() as u64;
    split.ops = ops.len() as u64;
    Ok(split)
}

/// What [`kv_split`] measured.
#[derive(Default)]
pub struct KvSplit {
    pub get: Samples,
    pub put: Samples,
    pub ops: u64,
    pub words: u64,
    /// Spans around the store calls inside the KV operations.
    pub store: CoreSpans,
    pub total_ns: u64,
}

impl Layers {
    /// KV figures from a spanned [`kv_split`] pass.
    pub fn kv(&mut self, spanned: &mut KvSplit) {
        self.kv_get_us = spanned.get.quantile(0.5) / 1e3;
        self.kv_put_us = spanned.put.quantile(0.5) / 1e3;
        self.kv_words_per_op = spanned.words as f64 / spanned.ops.max(1) as f64;
        let kv_ns: u64 = spanned.get.sum_ns() + spanned.put.sum_ns();
        self.kv_store_share = ratio(spanned.store.total_ns() as f64, kv_ns as f64);
    }

    /// Core access-path figures from per-call spans.
    pub fn core(&mut self, spans: &mut CoreSpans) {
        self.read_at_ns = spans.reads.quantile(0.5);
        self.write_at_ns = spans.writes.quantile(0.5);
        self.write_at_p99_ns = spans.writes.quantile(0.99);
    }
}

/// Tracing overhead: a pass with in-line spans against the same pass
/// without them, as a share of the latter.
pub fn overhead(spanned_ns: u64, plain_ns: u64) -> f64 {
    ratio(spanned_ns as f64, plain_ns as f64) - 1.0
}
