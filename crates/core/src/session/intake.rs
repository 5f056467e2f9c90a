//! The session intake: one textual Stethoscope receiving the streams of
//! one query (§4.2) or of several servers (§3.2). The stream ends on
//! protocol state, on UDP and the chaos link alike (DESIGN.md §8).

use std::collections::HashSet;
use std::error::Error;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stetho_engine::{Catalog, ExecOptions, Interpreter, ProfilerConfig, UdpSink};
use stetho_mal::Plan;
use stetho_obsv::Registry;
use stetho_profiler::udp::{StreamItem, StreamReceiver, StreamRecvError};
use stetho_profiler::{ProfilerEmitter, TextualStethoscope};

use crate::session::SessionError;

/// A launched query: its name (the prefix of its errors) and its thread.
pub(super) type Query = (
    String,
    JoinHandle<Result<usize, Box<dyn Error + Send + Sync>>>,
);

/// Launch one query in its own thread: run `plan` profiled to `emitter`
/// (in parallel when `workers > 1`), then mark end of trace. The emitter
/// drops with the thread, which closes an in-memory link.
pub(super) fn launch(
    name: &str,
    plan: Plan,
    catalog: Arc<Catalog>,
    emitter: ProfilerEmitter,
    workers: usize,
    metrics: Option<Arc<Registry>>,
) -> Result<Query, SessionError> {
    let thread = std::thread::Builder::new()
        .name(format!("mserver-{name}"))
        .spawn(move || {
            let sink = UdpSink::new(emitter);
            let mut opts = if workers > 1 {
                ExecOptions::parallel(workers, ProfilerConfig::to_sink(sink.clone()))
            } else {
                ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone()))
            };
            opts.metrics = metrics;
            let out = Interpreter::new(catalog).execute(&plan, &opts)?;
            sink.emitter().send_end_of_trace()?;
            Ok(out.result.map_or(0, |r| r.rows()))
        })?;
    Ok((name.to_string(), thread))
}

/// Hand every item of `rx` to `on_item` until every source delivered its
/// end-of-trace, or every query thread finished and a poll brought
/// nothing. Then join the queries, stop `steth` (which first delivers
/// what reached its inlet) and read until the ring closes. Returns each
/// query's result rows in launch order and the sources whose
/// end-of-trace arrived; a failed query returns its own error, prefixed
/// with its name.
pub(super) fn receive(
    steth: &mut TextualStethoscope,
    rx: &StreamReceiver,
    queries: Vec<Query>,
    mut on_item: impl FnMut(StreamItem) -> Result<(), SessionError>,
) -> Result<(Vec<usize>, HashSet<SocketAddr>), SessionError> {
    let mut ended = HashSet::new();
    let mut take = |item: StreamItem, ended: &mut HashSet<SocketAddr>| {
        if let StreamItem::EndOfTrace { source } = &item {
            ended.insert(*source);
        }
        on_item(item)
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    while ended.len() < queries.len() {
        if Instant::now() > deadline {
            return Err(SessionError::new("session timed out"));
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(item) => take(item, &mut ended)?,
            Err(StreamRecvError::Timeout) if queries.iter().all(|(_, q)| q.is_finished()) => break,
            Err(StreamRecvError::Timeout) => {}
            Err(StreamRecvError::Closed) => break,
        }
    }
    // Join every query before looking at any result.
    let mut rows = Vec::with_capacity(queries.len());
    for (name, q) in queries {
        let result = q.join().unwrap_or(Err("query thread panicked".into()));
        rows.push(result.map_err(|e| SessionError::new(format!("{name}: {e}"))));
    }
    let rows = rows.into_iter().collect::<Result<_, _>>()?;
    steth.stop();
    while let Ok(item) = rx.try_recv() {
        take(item, &mut ended)?;
    }
    Ok((rows, ended))
}
