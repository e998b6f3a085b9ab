//! Serving plumbing for the traced runs: start `envy-served`'s
//! default front end (epoll driver, timed read path) on loopback, drive
//! it through `envy_server::Client`, and take the stores back.

use envy_core::EnvyStore;
use envy_server::proto::WireOutcome;
use envy_server::shard::{self, Reply, Request};
use envy_server::{serve, Client, Listener, ServeConfig, ServerHandle, ShardPlan, ShardedStore};

/// A running server with its connected clients.
pub struct Served {
    pub server: ServerHandle,
    pub clients: Vec<Client>,
}

/// Launch the stores behind a loopback TCP listener and connect `conns`
/// clients. Clients are corked, so each batch of requests leaves in one
/// write: an uncorked `Client` writes a frame's length prefix and body
/// separately, and without `TCP_NODELAY` the body then waits for the
/// server's delayed ACK (~40 ms) on every request.
pub fn launch(stores: Vec<EnvyStore>, config: &ServeConfig, conns: usize) -> Served {
    let front = ShardedStore::launch_from(stores, config);
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind a loopback port");
    let server = serve(listener, front).expect("serve");
    let clients = (0..conns)
        .map(|_| {
            let mut c = Client::connect_tcp(server.addr()).expect("connect");
            c.set_corked(true).expect("cork");
            c
        })
        .collect();
    Served { server, clients }
}

/// Close the clients, shut the server down, and return the shard stores
/// in shard order.
pub fn stop(served: Served) -> Vec<EnvyStore> {
    drop(served.clients);
    let summary = served.server.shutdown();
    summary
        .outcome
        .shards
        .into_iter()
        .map(|s| s.store)
        .collect()
}

/// The shard a request runs on and its shard-local form: byte-addressed
/// requests are translated through the plan, KV requests name their
/// shard.
pub fn route(plan: &ShardPlan, req: &Request) -> (u32, Request) {
    match req {
        Request::Read { addr, len } => {
            let (s, a) = plan.locate(*addr, *len as u64).expect("request in range");
            (s, Request::Read { addr: a, len: *len })
        }
        Request::Write { addr, bytes } => {
            let (s, a) = plan
                .locate(*addr, bytes.len() as u64)
                .expect("request in range");
            (
                s,
                Request::Write {
                    addr: a,
                    bytes: bytes.clone(),
                },
            )
        }
        Request::KvGet { shard, .. } | Request::KvPut { shard, .. } => (*shard, req.clone()),
        other => panic!("the benchmark streams carry no {other:?}"),
    }
}

/// Apply one global request to per-shard stores, as a shard worker does.
pub fn apply(plan: &ShardPlan, stores: &mut [EnvyStore], req: &Request) -> Result<Reply, String> {
    let (s, local) = route(plan, req);
    shard::apply(&mut stores[s as usize], &local).map_err(|e| e.to_string())
}

/// Send a batch from a corked client (one write) and wait for every
/// response; replies come back in request order.
pub fn call_batch(client: &mut Client, batch: &[Request]) -> Result<Vec<Reply>, String> {
    let mut first = None;
    for req in batch {
        let id = client
            .submit(req.clone(), None)
            .map_err(|e| e.to_string())?;
        first.get_or_insert(id);
    }
    let first = first.unwrap_or(0);
    let mut replies: Vec<Option<Reply>> = vec![None; batch.len()];
    for _ in 0..batch.len() {
        let resp = client.recv().map_err(|e| e.to_string())?;
        let i = resp
            .id
            .checked_sub(first)
            .map(|i| i as usize)
            .filter(|&i| i < batch.len() && replies[i].is_none())
            .ok_or("response to an unknown id")?;
        match resp.outcome {
            WireOutcome::Reply(r) => replies[i] = Some(r),
            WireOutcome::Err(e) => return Err(e.to_string()),
            other => return Err(format!("unexpected outcome {other:?}")),
        }
    }
    Ok(replies
        .into_iter()
        .map(|r| r.expect("every id answered once"))
        .collect())
}
