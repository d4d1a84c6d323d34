//! The workloads' end-to-end runs (tracing off): set up, measure a
//! closed loop against the real `cgte` binary, check every output.

use crate::check;
use crate::inputs::{stage_graph, GraphInput, GraphKind};
use crate::load::{self, Class, ClientLog, Mix, SessionLog};
use crate::report::{json_list, median, quantile, quote, tail, Metrics, Outcome};
use crate::sys::{self, Server};
use crate::Args;
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Percentiles tried for `tail_ms`, highest first: the first with at least
/// ten samples beyond it is used. p99 was dropped: on a host shared with
/// other tenants it spread by 24% between runs of the same code, against
/// 9% for the median.
const TAILS: &[f64] = &[0.9, 0.5];

/// How many times each run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// The workloads, with the reason each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve_crawl",
        "write path: RW ingests on the 1M-node Chung-Lu graph, so walk and observation push dominate and HTTP is a small share",
    ),
    (
        "serve_ci",
        "heavy read path: bootstrap-CI estimates on the heavy-tailed Epinions stand-in, the costliest request, over a changing prefix",
    ),
    (
        "serve_poll",
        "light read path: plain estimates of pre-filled sessions, so transport, framing and dispatch take a large share",
    ),
];

/// A serve workload's shape.
pub struct ServeShape {
    /// The graph served.
    pub graph: GraphKind,
    /// Crawl-style mix, or `None` for the poll workload.
    pub mix: Option<Mix>,
    /// Which requests the percentiles cover.
    pub class: Class,
    /// Poll workload: sessions pre-filled during setup, and their length.
    pub poll_sessions: usize,
    /// Poll workload: walk steps each session is pre-filled with.
    pub prefill: usize,
}

/// The shape of serve workload `name` (`tiny` for smoke tests).
pub fn serve_shape(name: &str, tiny: bool) -> Option<ServeShape> {
    let crawl = |graph: &str, steps, estimate_every, ci, session_len| Mix {
        graph: graph.to_string(),
        steps,
        estimate_every,
        ci,
        session_len,
    };
    Some(match name {
        "serve_crawl" => ServeShape {
            graph: GraphKind::ChungLu,
            mix: Some(crawl("chunglu", 200, 5, None, 20_000)),
            class: Class::Ingest,
            poll_sessions: 0,
            prefill: 0,
        },
        "serve_ci" => ServeShape {
            graph: GraphKind::Epinions,
            mix: Some(crawl(
                "epinions",
                10,
                1,
                Some((0.95, if tiny { 5 } else { 20 })),
                100,
            )),
            class: Class::Estimate,
            poll_sessions: 0,
            prefill: 0,
        },
        "serve_poll" => ServeShape {
            graph: GraphKind::Epinions,
            mix: None,
            class: Class::Estimate,
            poll_sessions: 8,
            prefill: if tiny { 1000 } else { 5000 },
        },
        _ => return None,
    })
}

/// A booted server with its workload state opened.
pub struct Booted {
    /// The server.
    pub server: Server,
    /// Crawl clients' first sessions (one per client).
    pub first: Vec<SessionLog>,
    /// Poll workload: session id → seed.
    pub polled: HashMap<String, u64>,
}

/// Spawns `cgte serve` and opens the workload's sessions (for the poll
/// workload, also pre-fills them). The graph load and the index build
/// happen on the first session open.
pub fn boot(
    a: &Args,
    shape: &ServeShape,
    g: &GraphInput,
    store: &std::path::Path,
) -> Result<Booted, String> {
    let server = Server::spawn(&a.cgte, store, a.threads)?;
    let mut c = load::connect(server.addr)?;
    let mut first = Vec::new();
    let mut polled = HashMap::new();
    if let Some(m) = &shape.mix {
        for client in 0..a.threads {
            let seed = load::session_seed(a.seed, client, 0);
            first.push(SessionLog {
                id: load::open_session(&mut c, &m.graph, seed)?,
                seed,
                ops: Vec::new(),
            });
        }
    }
    for k in 0..shape.poll_sessions {
        let seed = load::session_seed(a.seed, usize::MAX >> 32, k);
        let id = load::open_session(&mut c, &g.name, seed)?;
        let (status, body) = c
            .request(
                "POST",
                &format!("/sessions/{id}/ingest"),
                &format!("{{\"steps\":{}}}", shape.prefill),
            )
            .map_err(|e| format!("prefill: {e}"))?;
        if status != 200 {
            return Err(format!("prefill answered {status}: {body}"));
        }
        polled.insert(id, seed);
    }
    Ok(Booted {
        server,
        first,
        polled,
    })
}

/// Boots [`SETUP_REPEATS`] times, keeping the last server. Returns it with
/// the setup times in seconds.
pub fn boot_repeatedly(
    a: &Args,
    shape: &ServeShape,
    g: &GraphInput,
) -> Result<(Booted, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let booted = boot(a, shape, g, &a.store())?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() == SETUP_REPEATS {
            return Ok((booted, times));
        }
        booted.server.shutdown();
    }
}

/// The measured closed loop: what the clients saw plus the window's wall
/// and CPU costs.
pub struct Window {
    /// Per-client logs.
    pub logs: Vec<ClientLog>,
    /// Wall seconds from the start barrier to the last reply.
    pub wall_s: f64,
    /// Server CPU seconds in the window.
    pub server_cpu_s: f64,
    /// Load generator CPU seconds in the window.
    pub client_cpu_s: f64,
}

impl Window {
    /// Requests sent.
    pub fn requests(&self) -> u64 {
        self.logs.iter().map(|l| l.requests).sum()
    }

    /// Sorted latencies of the measured class.
    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .logs
            .iter()
            .flat_map(|l| l.latencies.iter().copied())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Runs the workload's clients against a booted server for `window`.
pub fn measure(
    a: &Args,
    shape: &ServeShape,
    booted: &Booted,
    window: Duration,
) -> Result<Window, String> {
    let pid = booted.server.pid();
    let clients = a.threads;
    let start = Barrier::new(clients + 1);
    let gate = load::Gate {
        start: &start,
        window,
    };
    let mut conns = Vec::new();
    for _ in 0..clients {
        conns.push(load::connect(booted.server.addr)?);
    }
    let ids: Vec<String> = {
        let mut v: Vec<String> = booted.polled.keys().cloned().collect();
        v.sort();
        v
    };
    let (logs, wall_s, server_cpu_s, client_cpu_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let (gate, ids) = (&gate, &ids);
                scope.spawn(move || match &shape.mix {
                    Some(m) => load::crawl_client(
                        c,
                        m,
                        shape.class,
                        a.seed,
                        i,
                        booted.first[i].clone(),
                        gate,
                    ),
                    None => load::poll_client(c, ids, i * ids.len() / clients, gate),
                })
            })
            .collect();
        let cpu0 = sys::cpu_secs(pid).unwrap_or(0.0);
        let self0 = sys::self_cpu_secs();
        start.wait();
        let t0 = Instant::now();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let wall = t0.elapsed().as_secs_f64();
        let cpu1 = sys::cpu_secs(pid).unwrap_or(0.0);
        (logs, wall, cpu1 - cpu0, sys::self_cpu_secs() - self0)
    });
    Ok(Window {
        logs,
        wall_s,
        server_cpu_s,
        client_cpu_s,
    })
}

/// Checks the window's outputs; returns the number of wrong bodies.
pub fn check_window(
    a: &Args,
    shape: &ServeShape,
    booted_polled: &HashMap<String, u64>,
    g: &GraphInput,
    w: &Window,
) -> Result<u64, String> {
    let lg = check::load(&a.store(), &g.name)?;
    if shape.mix.is_some() {
        let sessions: Vec<SessionLog> = w
            .logs
            .iter()
            .flat_map(|l| l.sessions.iter().cloned())
            .collect();
        check::replay_sessions(&lg, &sessions, a.threads)
    } else {
        check::check_polled(&lg, booted_polled, shape.prefill, &w.logs)
    }
}

/// A serve workload's end-to-end run.
pub fn serve_run(a: &Args, name: &str) -> Result<Outcome, String> {
    let shape = serve_shape(name, a.tiny).expect("serve workload");
    let g = stage_graph(shape.graph, a.tiny, &a.inputs(), &a.store())?;
    let (booted, setups) = boot_repeatedly(a, &shape, &g)?;
    let w = measure(a, &shape, &booted, Duration::from_secs_f64(a.seconds))?;
    let rss_mb = sys::peak_rss_mb(booted.server.pid()).unwrap_or(0.0);
    let Booted { server, polled, .. } = booted;
    server.shutdown();
    let wrong = check_window(a, &shape, &polled, &g, &w)?;

    let requests = w.requests();
    let lat = w.sorted_latencies();
    let (tail_q, tail_ms) = tail(&lat, TAILS)
        .ok_or_else(|| format!("only {} latency samples in the window", lat.len()))?;
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("req_per_s", requests as f64 / w.wall_s);
    m.set("cpu_us_per_req", w.server_cpu_s * 1e6 / requests as f64);
    m.set("p50_ms", quantile(&lat, 0.5));
    m.set("tail_ms", tail_ms);
    m.set("run_s", w.wall_s);
    m.set("cpu_s", w.server_cpu_s);
    m.set("rss_mb", rss_mb);
    let mut o = Outcome {
        attempted: requests,
        failed: w.logs.iter().map(|l| l.failed).sum::<u64>() + wrong,
        metrics: m,
        details: Vec::new(),
    };
    o.detail("graph", g.json());
    o.detail(
        "latency",
        format!(
            "{{\"class\":{},\"samples\":{},\"tail_quantile\":{tail_q}}}",
            quote(match shape.class {
                Class::Ingest => "ingest",
                Class::Estimate => "estimate",
            }),
            lat.len()
        ),
    );
    o.detail("setup_s", json_list(&setups));
    o.detail("wrong_bodies", wrong.to_string());
    o.detail(
        "client_cpu_us_per_req",
        (w.client_cpu_s * 1e6 / requests as f64).to_string(),
    );
    Ok(o)
}
