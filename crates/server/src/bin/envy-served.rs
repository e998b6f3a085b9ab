//! `envy-served` — the sharded eNVy serving daemon.
//!
//! Binds a TCP or Unix socket, launches a [`ShardedStore`], and serves
//! the binary protocol until a wire `SHUTDOWN`, an optional
//! `--duration-secs` expiry, or a fatal listener error. Exits 0 after a
//! graceful drain and prints a per-run summary.

use envy_server::{serve_with, Listener, NetConfig, NetDriver, ServeConfig, ShardedStore};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
envy-served: serve a sharded eNVy store over a socket

USAGE:
    envy-served [OPTIONS]

OPTIONS:
    --tcp ADDR          listen on a TCP address (default 127.0.0.1:7033)
    --unix PATH         listen on a Unix-domain socket instead
    --shards N          number of shards / worker threads (default 4)
    --txn-slots N       concurrent transactions per shard (default 1)
    --scale small|scaled   per-shard store configuration (default small)
    --queue N           per-shard bounded queue capacity
    --batch N           max requests drained per dispatch
    --trace N           enable controller tracing with an N-event ring
    --duration-secs S   shut down automatically after S seconds
    --net-driver D      event-loop backend: epoll|poll (default epoll)
    --idle-timeout-ms T reap connections silent for more than T ms
    --help              print this help
";

struct Args {
    tcp: String,
    unix: Option<String>,
    shards: u32,
    txn_slots: Option<u32>,
    scale: String,
    queue: Option<usize>,
    batch: Option<usize>,
    trace: Option<usize>,
    duration_secs: Option<u64>,
    net_driver: NetDriver,
    idle_timeout_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: "127.0.0.1:7033".into(),
        unix: None,
        shards: 4,
        txn_slots: None,
        scale: "small".into(),
        queue: None,
        batch: None,
        trace: None,
        duration_secs: None,
        net_driver: NetDriver::default(),
        idle_timeout_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--tcp" => args.tcp = value("--tcp")?,
            "--unix" => args.unix = Some(value("--unix")?),
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--txn-slots" => {
                args.txn_slots = Some(
                    value("--txn-slots")?
                        .parse()
                        .map_err(|e| format!("--txn-slots: {e}"))?,
                );
            }
            "--scale" => args.scale = value("--scale")?,
            "--queue" => {
                args.queue = Some(
                    value("--queue")?
                        .parse()
                        .map_err(|e| format!("--queue: {e}"))?,
                );
            }
            "--batch" => {
                args.batch = Some(
                    value("--batch")?
                        .parse()
                        .map_err(|e| format!("--batch: {e}"))?,
                );
            }
            "--trace" => {
                args.trace = Some(
                    value("--trace")?
                        .parse()
                        .map_err(|e| format!("--trace: {e}"))?,
                );
            }
            "--duration-secs" => {
                args.duration_secs = Some(
                    value("--duration-secs")?
                        .parse()
                        .map_err(|e| format!("--duration-secs: {e}"))?,
                );
            }
            "--net-driver" => {
                let v = value("--net-driver")?;
                args.net_driver = NetDriver::parse(&v)
                    .ok_or_else(|| format!("--net-driver: unknown driver {v} (use epoll|poll)"))?;
            }
            "--idle-timeout-ms" => {
                args.idle_timeout_ms = Some(
                    value("--idle-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--idle-timeout-ms: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if args.txn_slots == Some(0) {
        return Err("--txn-slots must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("envy-served: {msg}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut config = match args.scale.as_str() {
        "small" => ServeConfig::small(args.shards),
        "scaled" => ServeConfig::scaled(args.shards),
        other => {
            eprintln!("envy-served: unknown --scale {other} (use small|scaled)");
            return ExitCode::FAILURE;
        }
    };
    if let Some(slots) = args.txn_slots {
        config = config.with_txn_slots(slots);
    }
    if let Some(q) = args.queue {
        config.queue_capacity = q.max(1);
    }
    if let Some(b) = args.batch {
        config.batch_max = b.max(1);
    }
    config.trace_capacity = args.trace;

    let store = match ShardedStore::launch(config) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("envy-served: launch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = *store.plan();

    let listener = match &args.unix {
        Some(path) => Listener::bind_unix(path),
        None => Listener::bind_tcp(&args.tcp),
    };
    let listener = match listener {
        Ok(l) => l,
        Err(e) => {
            eprintln!("envy-served: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let net = NetConfig {
        driver: args.net_driver,
        idle_timeout: args.idle_timeout_ms.map(Duration::from_millis),
    };
    let handle = match serve_with(listener, store, net) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("envy-served: serve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "envy-served listening on {} ({} shards x {} bytes, {} driver)",
        handle.addr(),
        plan.shards(),
        plan.shard_bytes(),
        args.net_driver.name(),
    );

    let summary = match args.duration_secs {
        Some(secs) => {
            // Safety net for unattended runs: request shutdown once the
            // budget elapses, whether or not a SHUTDOWN frame arrived.
            std::thread::sleep(Duration::from_secs(secs));
            handle.shutdown()
        }
        None => handle.wait(),
    };

    let stats = summary.outcome.aggregate_stats();
    println!(
        "envy-served: {} connections, {} requests admitted, {} served \
         ({} timed out), sim makespan {}",
        summary.connections,
        summary.requests,
        summary.outcome.total_served(),
        summary.outcome.total_timed_out(),
        summary.outcome.max_sim_time(),
    );
    println!(
        "envy-served: fleet {} reads, {} writes, cleaning cost {:.3}",
        stats.host_reads.get(),
        stats.host_writes.get(),
        stats.cleaning_cost()
    );
    ExitCode::SUCCESS
}
