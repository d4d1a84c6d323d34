//! The closed-loop load generator: one thread and one keep-alive
//! [`Client`] per simulated crawler; every request waits for its reply.
//!
//! Each client records what it sent (session seeds and request scripts)
//! and a hash of every estimate body, so the run's outputs can be checked
//! afterwards against an in-process replay without holding the bodies.

use cgte_serve::client::Client;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Hash of a response body, as recorded by clients and recomputed by the
/// replay.
pub fn body_hash(body: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// The sampler and defaults every session of the benchmark opens with.
pub fn open_body(graph: &str, seed: u64) -> String {
    format!("{{\"graph\":\"{graph}\",\"sampler\":\"rw\",\"seed\":{seed}}}")
}

/// One request of a session script, as issued.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `POST /sessions/{id}/ingest {"steps": n}`.
    Ingest(usize),
    /// `GET /sessions/{id}/estimate[?ci=level&reps=r]` and its body hash.
    Estimate {
        /// Bootstrap CI parameters, if requested.
        ci: Option<(f64, usize)>,
        /// Hash of the returned body.
        hash: u64,
    },
}

/// One session as the generator drove it.
#[derive(Debug, Clone)]
pub struct SessionLog {
    /// Server-assigned id (part of every estimate body).
    pub id: String,
    /// Walk seed.
    pub seed: u64,
    /// Requests in order.
    pub ops: Vec<Op>,
}

/// The request mix of a crawl-style client.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Registry name of the graph.
    pub graph: String,
    /// Walk steps per ingest.
    pub steps: usize,
    /// An estimate follows every `estimate_every`-th ingest.
    pub estimate_every: usize,
    /// Bootstrap CI on the estimates.
    pub ci: Option<(f64, usize)>,
    /// Samples after which a session is closed and a fresh one opened.
    pub session_len: usize,
}

/// The shared start of a measured window: clients wait on `start`, then
/// run for `window`.
pub struct Gate<'a> {
    /// Released when every client and the sampler are ready.
    pub start: &'a Barrier,
    /// How long clients keep sending.
    pub window: Duration,
}

/// Which requests the latency percentiles are taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Ingest requests.
    Ingest,
    /// Estimate requests.
    Estimate,
}

/// What one client saw.
#[derive(Default)]
pub struct ClientLog {
    /// Latencies (ms) of the requests of the measured class.
    pub latencies: Vec<f64>,
    /// Requests sent in the measured window, every kind.
    pub requests: u64,
    /// Requests answered with a non-200 status or lost in transport.
    pub failed: u64,
    /// Summed latency of every successful request, ms.
    pub total_ms: f64,
    /// Sessions driven (crawl-style clients).
    pub sessions: Vec<SessionLog>,
    /// Poll clients: per session id, count of bodies per body hash.
    pub polled: HashMap<String, HashMap<u64, u64>>,
}

impl ClientLog {
    /// Sends one request and accounts it. Returns the body and latency
    /// (ms) of a 200 answer; anything else counts as failed.
    fn send(
        &mut self,
        c: &mut Client,
        method: &str,
        path: &str,
        body: &str,
    ) -> Option<(String, f64)> {
        self.requests += 1;
        let t0 = Instant::now();
        match c.request(method, path, body) {
            Ok((200, body)) => {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                self.total_ms += ms;
                Some((body, ms))
            }
            _ => {
                self.failed += 1;
                None
            }
        }
    }
}

/// The `"session"` member of an open response.
pub fn session_id(body: &str) -> Option<String> {
    let rest = body.split("\"session\":\"").nth(1)?;
    Some(rest.split('"').next()?.to_string())
}

/// Opens a session; returns its id.
pub fn open_session(c: &mut Client, graph: &str, seed: u64) -> Result<String, String> {
    let (status, body) = c
        .request("POST", "/sessions", &open_body(graph, seed))
        .map_err(|e| format!("open session: {e}"))?;
    if status != 200 {
        return Err(format!("open session answered {status}: {body}"));
    }
    session_id(&body).ok_or_else(|| format!("no session id in {body}"))
}

/// Seed of the `k`-th session of client `client`. Kept below 2^53: the
/// server reads JSON numbers as `f64`.
pub fn session_seed(seed: u64, client: usize, k: usize) -> u64 {
    crate::inputs::mix(seed, ((client as u64) << 32) | k as u64) >> 11
}

/// Drives crawl-style sessions until `deadline`: ingest `mix.steps`, an
/// estimate after every `mix.estimate_every`-th ingest, and a fresh
/// session (close, open) at `mix.session_len` samples. `first` is the
/// session opened during setup.
pub fn crawl_client(
    mut c: Client,
    mix: &Mix,
    class: Class,
    seed: u64,
    client: usize,
    first: SessionLog,
    gate: &Gate,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut session = first;
    let mut samples = 0usize;
    let mut ingests = 0usize;
    let mut k = 1;
    let estimate_path = |id: &str| match mix.ci {
        Some((level, reps)) => format!("/sessions/{id}/estimate?ci={level}&reps={reps}"),
        None => format!("/sessions/{id}/estimate"),
    };
    let steps_body = format!("{{\"steps\":{}}}", mix.steps);
    gate.start.wait();
    let deadline = Instant::now() + gate.window;
    while Instant::now() < deadline {
        if samples >= mix.session_len {
            let next = SessionLog {
                id: String::new(),
                seed: session_seed(seed, client, k),
                ops: Vec::new(),
            };
            k += 1;
            let old = std::mem::replace(&mut session, next);
            let closed = log.send(&mut c, "DELETE", &format!("/sessions/{}", old.id), "");
            log.sessions.push(old);
            let opened = log.send(
                &mut c,
                "POST",
                "/sessions",
                &open_body(&mix.graph, session.seed),
            );
            match (closed, opened.and_then(|(body, _)| session_id(&body))) {
                (Some(_), Some(id)) => session.id = id,
                _ => break,
            }
            samples = 0;
            ingests = 0;
        }
        let ingest = format!("/sessions/{}/ingest", session.id);
        let Some((_, ms)) = log.send(&mut c, "POST", &ingest, &steps_body) else {
            break;
        };
        if class == Class::Ingest {
            log.latencies.push(ms);
        }
        session.ops.push(Op::Ingest(mix.steps));
        samples += mix.steps;
        ingests += 1;
        if ingests.is_multiple_of(mix.estimate_every) {
            let Some((body, ms)) = log.send(&mut c, "GET", &estimate_path(&session.id), "") else {
                break;
            };
            if class == Class::Estimate {
                log.latencies.push(ms);
            }
            session.ops.push(Op::Estimate {
                ci: mix.ci,
                hash: body_hash(&body),
            });
        }
    }
    log.sessions.push(session);
    log
}

/// Polls `GET /sessions/{id}/estimate` round-robin over `ids` until
/// `deadline`, tallying the distinct bodies per session (a body equal to
/// the session's first one is counted without hashing it again).
pub fn poll_client(mut c: Client, ids: &[String], offset: usize, gate: &Gate) -> ClientLog {
    let mut log = ClientLog::default();
    let mut first: Vec<Option<(String, u64)>> = vec![None; ids.len()];
    let mut same = vec![0u64; ids.len()];
    let paths: Vec<String> = ids
        .iter()
        .map(|id| format!("/sessions/{id}/estimate"))
        .collect();
    gate.start.wait();
    let deadline = Instant::now() + gate.window;
    let mut i = offset;
    while Instant::now() < deadline {
        let s = i % ids.len();
        i += 1;
        let Some((body, ms)) = log.send(&mut c, "GET", &paths[s], "") else {
            break;
        };
        log.latencies.push(ms);
        match &first[s] {
            Some((b, _)) if *b == body => same[s] += 1,
            Some(_) => {
                *log.polled
                    .entry(ids[s].clone())
                    .or_default()
                    .entry(body_hash(&body))
                    .or_insert(0) += 1
            }
            None => {
                let h = body_hash(&body);
                first[s] = Some((body, h));
                same[s] += 1;
            }
        }
    }
    for (s, f) in first.into_iter().enumerate() {
        if let Some((_, h)) = f {
            *log.polled
                .entry(ids[s].clone())
                .or_default()
                .entry(h)
                .or_insert(0) += same[s];
        }
    }
    log
}

/// A read timeout long enough for the slowest request of any workload,
/// short enough that a wedged server cannot hang the run.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Connects a client with [`READ_TIMEOUT`].
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    let c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(c)
}
