//! The traced run: the workload's generated inputs replayed in-process
//! through each layer's public functions, under spans, plus a short
//! untraced window against the real server for the request-path numbers
//! only a running server has (handler time from `/metrics`, client time).
//!
//! Layers a workload never calls are still measured by small fixed
//! probes; the report line names those metrics under `"probes"`.

use crate::check;
use crate::inputs::{mix, stage_graph, working_set_bytes, GraphInput};
use crate::load::{self, body_hash, Op, SessionLog};
use crate::report::{median, num, quote, Metrics, Outcome};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, Booted, ServeShape};
use crate::Args;
use cgte_core::bootstrap::{bootstrap_induced, bootstrap_star};
use cgte_core::category_size::{induced_size, star_size};
use cgte_core::{estimate_stream_into, StarSizeOptions, StreamEstimate};
use cgte_graph::store::Loader;
use cgte_sampling::{
    InducedSample, NodeSampler, ObservationContext, ObservationStream, StarSample, WalkStats,
};
use cgte_scenarios::artifact::RunDir;
use cgte_scenarios::{JobKind, ResourceCache, RunOptions, Scale};
use cgte_serve::registry::{build_index_parallel, LoadedGraph};
use cgte_serve::session::{build_sampler, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall time each replay pass aims for; the traced pass replays exactly
/// what the first untraced pass did.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
/// Spans inside the server's handler, summed for the unattributed share.
const HANDLER_LAYERS: &[&str] = &[
    "sampling.walk",
    "sampling.push",
    "serve.estimate_json",
    "sampling.materialize",
    "core.bootstrap",
];

/// Times `f` `reps` times; returns the median in ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// `graph.*` and `registry.*`: mapped load and index build of every graph
/// in `paths` (summed), medians of three.
fn graph_layers(paths: &[PathBuf], threads: usize, m: &mut Metrics) -> Result<(), String> {
    let mut bundles = Vec::new();
    for p in paths {
        bundles.push(
            Loader::open(p)
                .mmap(true)
                .load_bundle()
                .map_err(|e| format!("load {p:?}: {e}"))?,
        );
    }
    let load_ms = median_ms(3, || {
        for p in paths {
            let b = Loader::open(p).mmap(true).load_bundle();
            std::hint::black_box(b.map(|b| b.graph.num_edges()).ok());
        }
    });
    let parts: Vec<_> = bundles
        .iter()
        .map(|b| b.partition.clone().ok_or("graph without a main partition"))
        .collect::<Result<_, _>>()?;
    let index_ms = median_ms(3, || {
        for (b, p) in bundles.iter().zip(&parts) {
            std::hint::black_box(build_index_parallel(&b.graph, p, threads));
        }
    });
    let bytes: usize = bundles
        .iter()
        .zip(&parts)
        .map(|(b, p)| working_set_bytes(&b.graph, p))
        .sum();
    m.set("graph.load_ms", load_ms);
    m.set("registry.index_build_ms", index_ms);
    m.set("graph.working_set_mb", bytes as f64 / (1 << 20) as f64);
    Ok(())
}

/// Counts the replay makes at the layer boundaries.
#[derive(Default)]
struct Counts {
    steps: u64,
    rejections: u64,
    pushed: u64,
    ci: u64,
    induced_edges: u64,
    rep_edges: u64,
    reps: u64,
    /// Replayed requests of the measured window (prefill excluded).
    requests: u64,
    /// Plain estimate bodies that differ from what the server returned.
    wrong: u64,
}

/// Replays session scripts through the layers: walk
/// (`try_sample_into_stats`), push (`ObservationStream::ingest_sampler`),
/// estimate (`estimate_stream_into`), encode (`Session::estimate_json`),
/// materialize (`StarSample`/`InducedSample::observe_with_weights`),
/// bootstrap (`bootstrap_star`/`bootstrap_induced`), HTTP parse and write.
/// A session's first op is treated as setup (not a window request) when
/// `first_is_setup`. Stops after `limit` sessions.
fn replay(
    lg: &Arc<LoadedGraph>,
    sessions: &[SessionLog],
    first_is_setup: bool,
    t: &mut Tracer,
    limit: Option<usize>,
    budget: Duration,
) -> Result<(Counts, usize), String> {
    let g = &lg.graph;
    let p = &lg.partitions[0].1;
    let index = lg.index(0, 1);
    let ctx = ObservationContext::with_index(g, p, &index);
    let (sampler, design) = build_sampler(g, p, "rw", None, 0, 1).map_err(|e| e.msg)?;
    let population = g.num_nodes() as f64;
    let opts = StarSizeOptions::default();
    let mut est = StreamEstimate::new(p.num_categories());
    let mut c = Counts::default();
    let started = Instant::now();
    let mut done = 0;
    for log in sessions {
        if limit.map_or(started.elapsed() >= budget && done > 0, |n| done >= n) {
            break;
        }
        done += 1;
        let mut session = Session::open(
            log.id.clone(),
            Arc::clone(lg),
            &check::spec(&lg.name, log.seed),
            1,
        )
        .map_err(|e| e.msg)?;
        let mut rng = StdRng::seed_from_u64(log.seed);
        let mut stream = ObservationStream::new(p.num_categories());
        let mut nodes = Vec::new();
        for (i, op) in log.ops.iter().enumerate() {
            let window = !(first_is_setup && i == 0);
            if window {
                t.next_request();
                c.requests += 1;
            } else {
                t.outside_requests();
            }
            let request = t.begin("serve.request");
            let raw = match op {
                Op::Ingest(steps) => format!(
                    "POST /sessions/{}/ingest HTTP/1.1\r\nHost: cgte\r\nContent-Length: {}\r\n\r\n{{\"steps\":{steps}}}",
                    log.id,
                    format!("{{\"steps\":{steps}}}").len()
                ),
                Op::Estimate { .. } => format!(
                    "GET /sessions/{}/estimate HTTP/1.1\r\nHost: cgte\r\nContent-Length: 0\r\n\r\n",
                    log.id
                ),
            };
            let s = t.begin("serve.http_parse");
            let parsed =
                cgte_serve::http::read_request_limited(&mut Cursor::new(raw.as_bytes()), 1 << 20);
            t.end(s);
            if !matches!(parsed, Ok(Some(_))) {
                return Err(format!("replayed request did not parse: {raw:?}"));
            }
            let body = match *op {
                Op::Ingest(steps) => {
                    let mut stats = WalkStats::default();
                    nodes.clear();
                    let s = t.begin("sampling.walk");
                    sampler
                        .try_sample_into_stats(g, steps, &mut rng, &mut nodes, &mut stats)
                        .map_err(|e| e.to_string())?;
                    t.end(s);
                    let s = t.begin("sampling.push");
                    stream.ingest_sampler(&ctx, &nodes, &sampler, design);
                    t.end(s);
                    c.steps += stats.steps as u64;
                    c.rejections += stats.rejections as u64;
                    c.pushed += nodes.len() as u64;
                    format!(
                        "{{\"session\":\"{}\",\"ingested\":{},\"len\":{}}}",
                        log.id,
                        nodes.len(),
                        stream.len()
                    )
                }
                Op::Estimate { ci, hash } => {
                    let s = t.begin("core.estimate");
                    estimate_stream_into(
                        stream.star(),
                        stream.induced(),
                        population,
                        &opts,
                        true,
                        &mut est,
                    );
                    t.end(s);
                    let s = t.begin("serve.estimate_json");
                    let body = session.estimate_json(None);
                    t.end(s);
                    match ci {
                        None => c.wrong += u64::from(body_hash(&body) != hash),
                        Some((level, reps)) => {
                            bootstrap_layers(g, p, &stream, log.seed, (level, reps), t, &mut c)
                        }
                    }
                    body
                }
            };
            let s = t.begin("serve.http_write");
            let mut out = Vec::with_capacity(body.len() + 128);
            cgte_serve::http::write_response(
                &mut out,
                &cgte_serve::http::Response::json(body),
                true,
            )
            .map_err(|e| e.to_string())?;
            t.end(s);
            t.end(request);
            if let Op::Ingest(_) = op {
                // Keeps the session (used only to encode) in step with the
                // replayed stream; outside every span.
                session.ingest_nodes(&nodes).map_err(|e| e.msg)?;
            }
        }
    }
    Ok((c, done))
}

/// The CI path of `Session::estimate_json(Some((level, reps)))`, split
/// into its materialize and bootstrap layers, with the same resampling
/// stream.
fn bootstrap_layers(
    g: &cgte_graph::Graph,
    p: &cgte_graph::Partition,
    stream: &ObservationStream,
    seed: u64,
    (level, reps): (f64, usize),
    t: &mut Tracer,
    c: &mut Counts,
) {
    let population = g.num_nodes() as f64;
    let log = stream.log();
    let s = t.begin("sampling.materialize");
    let nodes: Vec<u32> = log.iter().map(|&(v, _)| v).collect();
    let weights: Vec<f64> = log.iter().map(|&(_, w)| w).collect();
    let star = StarSample::observe_with_weights(g, p, &nodes, weights.clone());
    let ind = InducedSample::observe_with_weights(g, p, &nodes, weights);
    t.end(s);
    c.ci += 1;
    c.induced_edges += ind.edges().len() as u64;
    let mut rng = StdRng::seed_from_u64(
        seed ^ (log.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ reps as u64,
    );
    let opts = StarSizeOptions::default();
    let edges = Cell::new(0u64);
    let s = t.begin("core.bootstrap");
    for cat in 0..p.num_categories() as u32 {
        std::hint::black_box(bootstrap_star(&star, reps, level, &mut rng, |s| {
            star_size(s, cat, population, &opts)
        }));
        std::hint::black_box(bootstrap_induced(&ind, reps, level, &mut rng, |s| {
            edges.set(edges.get() + s.edges().len() as u64);
            induced_size(s, cat, population)
        }));
    }
    t.end(s);
    c.rep_edges += edges.get();
    c.reps += (reps * p.num_categories()) as u64;
}

/// Replays `sessions` three times — untraced, traced, untraced — and
/// returns the traced pass's tracer and counts plus the overhead (%) of
/// the traced pass over the mean untraced one.
fn replay_passes(
    lg: &Arc<LoadedGraph>,
    sessions: &[SessionLog],
    first_is_setup: bool,
) -> Result<(Tracer, Counts, f64), String> {
    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    let (_, n) = replay(lg, sessions, first_is_setup, &mut off, None, REPLAY_BUDGET)?;
    let plain_a = t0.elapsed().as_secs_f64();
    let mut on = Tracer::new(true);
    let t0 = Instant::now();
    let (counts, _) = replay(
        lg,
        sessions,
        first_is_setup,
        &mut on,
        Some(n),
        REPLAY_BUDGET,
    )?;
    let traced = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    replay(
        lg,
        sessions,
        first_is_setup,
        &mut off,
        Some(n),
        REPLAY_BUDGET,
    )?;
    let plain = (plain_a + t0.elapsed().as_secs_f64()) / 2.0;
    Ok((on, counts, (traced - plain) / plain * 100.0))
}

/// Per-endpoint handler time sums and counts from a `/metrics` scrape.
fn handler_totals(
    c: &mut cgte_serve::client::Client,
) -> Result<HashMap<String, (f64, f64)>, String> {
    let (_, text) = c
        .request("GET", "/metrics", "")
        .map_err(|e| e.to_string())?;
    let mut out: HashMap<String, (f64, f64)> = HashMap::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("cgte_serve_request_duration_seconds_") else {
            continue;
        };
        let (kind, rest) = rest.split_once('{').unwrap_or(("", ""));
        let endpoint = rest.split('"').nth(1).unwrap_or("").to_string();
        let value: f64 = rest
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        if matches!(endpoint.as_str(), "metrics" | "healthz") {
            continue;
        }
        let e = out.entry(endpoint).or_default();
        match kind {
            "sum" => e.0 += value,
            "count" => e.1 += value,
            _ => {}
        }
    }
    Ok(out)
}

/// The live window's request-path numbers.
struct Live {
    window: workloads::Window,
    handler_us: f64,
    per_endpoint: String,
    client_mean_us: f64,
}

/// Boots once and runs a short untraced window, scraping `/metrics`
/// around it.
fn live_window(
    a: &Args,
    shape: &ServeShape,
    g: &GraphInput,
    store: &Path,
) -> Result<(Live, Booted), String> {
    let booted = workloads::boot(a, shape, g, store)?;
    let mut scrape = load::connect(booted.server.addr)?;
    let before = handler_totals(&mut scrape)?;
    let window = workloads::measure(
        a,
        shape,
        &booted,
        Duration::from_secs_f64(a.seconds.min(4.0)),
    )?;
    let after = handler_totals(&mut scrape)?;
    let mut sum = 0.0;
    let mut count = 0.0;
    let mut per = Vec::new();
    for (ep, &(s1, c1)) in &after {
        let (s0, c0) = before.get(ep).copied().unwrap_or_default();
        if c1 > c0 {
            sum += s1 - s0;
            count += c1 - c0;
            per.push(format!(
                "{}:{}",
                quote(ep),
                num((s1 - s0) / (c1 - c0) * 1e6)
            ));
        }
    }
    let requests = window.requests() as f64;
    let client_ms: f64 = window.logs.iter().map(|l| l.total_ms).sum();
    Ok((
        Live {
            handler_us: sum / count.max(1.0) * 1e6,
            per_endpoint: format!("{{{}}}", per.join(",")),
            client_mean_us: client_ms * 1e3 / requests.max(1.0),
            window,
        },
        booted,
    ))
}

/// Fills the per-request and sampling metrics from a traced replay.
fn replay_metrics(t: &Tracer, c: &Counts, m: &mut Metrics) {
    let tot = t.totals();
    let get = |n: &str| tot.get(n).copied().unwrap_or_default();
    let per = |x: u64, d: u64| if d == 0 { 0.0 } else { x as f64 / d as f64 };
    m.set(
        "sampling.walk_ns_per_step",
        per(get("sampling.walk").total_ns, c.steps),
    );
    m.set("sampling.walk_steps", c.steps as f64);
    m.set("sampling.walk_rejections", c.rejections as f64);
    m.set(
        "sampling.push_ns_per_sample",
        per(get("sampling.push").total_ns, c.pushed),
    );
    m.set(
        "sampling.materialize_ms",
        get("sampling.materialize").mean(1e6),
    );
    m.set("sampling.induced_edges", per(c.induced_edges, c.ci));
    m.set("sampling.induced_edges_per_rep", per(c.rep_edges, c.reps));
    m.set("core.bootstrap_ms", get("core.bootstrap").mean(1e6));
    m.set("core.estimate_us", get("core.estimate").mean(1e3));
    m.set(
        "serve.encode_us",
        get("serve.estimate_json").mean(1e3) - get("core.estimate").mean(1e3),
    );
    m.set("serve.http_parse_us", get("serve.http_parse").mean(1e3));
    m.set("serve.http_write_us", get("serve.http_write").mean(1e3));
}

/// Handler-internal layer time per window request of a traced replay, µs.
fn handler_layers_us(t: &Tracer, c: &Counts) -> f64 {
    let ns: u64 = t
        .spans()
        .iter()
        .filter(|s| s.request != 0 && HANDLER_LAYERS.contains(&s.name))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    ns as f64 / 1e3 / c.requests.max(1) as f64
}

/// A small crawl-and-CI script used as the off-path probe of the serve
/// layers on graphs whose workload never calls them.
fn probe_script(seed: u64) -> Vec<SessionLog> {
    let mut ops = Vec::new();
    for _ in 0..5 {
        ops.push(Op::Ingest(100));
        ops.push(Op::Estimate {
            ci: Some((0.95, 20)),
            hash: 0,
        });
    }
    vec![SessionLog {
        id: "s0".into(),
        seed,
        ops,
    }]
}

/// Where the span file of this run goes (next to, not inside, the run's
/// scratch directory, which is removed at the end).
fn spans_path(a: &Args) -> PathBuf {
    let dir = a.inputs().with_file_name("spans");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{}-{}.jsonl", a.workload, a.seed))
}

/// The traced run of a serve workload.
pub fn serve_trace(a: &Args, name: &str) -> Result<Outcome, String> {
    let shape = workloads::serve_shape(name, a.tiny).expect("serve workload");
    let g = stage_graph(shape.graph, a.tiny, &a.inputs(), &a.store())?;
    let mut m = Metrics::default();
    graph_layers(std::slice::from_ref(&g.path), a.threads, &mut m)?;

    let (live, booted) = live_window(a, &shape, &g, &a.store())?;
    let Booted { server, polled, .. } = booted;
    server.shutdown();
    let wrong_live = workloads::check_window(a, &shape, &polled, &g, &live.window)?;

    // The script to replay: the window's own sessions, or for the poll
    // workload each session's pre-fill followed by its share of polls.
    let lg = check::load(&a.store(), &g.name)?;
    let (sessions, first_is_setup) = match &shape.mix {
        Some(_) => (
            live.window
                .logs
                .iter()
                .flat_map(|l| l.sessions.iter().cloned())
                .collect(),
            false,
        ),
        None => (
            poll_scripts(&lg, &polled, shape.prefill, live.window.requests())?,
            true,
        ),
    };
    let (t, counts, overhead) = replay_passes(&lg, &sessions, first_is_setup)?;
    replay_metrics(&t, &counts, &mut m);
    let mut probes = Vec::new();
    if counts.ci == 0 {
        let (pt, pc, _) = replay_passes(&lg, &probe_script(mix(a.seed, 5) >> 11), false)?;
        let mut pm = Metrics::default();
        replay_metrics(&pt, &pc, &mut pm);
        for k in [
            "sampling.materialize_ms",
            "sampling.induced_edges",
            "sampling.induced_edges_per_rep",
            "core.bootstrap_ms",
        ] {
            m.set(k, pm.0[k]);
            probes.push(k);
        }
    }
    let (jobs, wrong_jobs) = scenario_probe(a, &mut m)?;
    probes.extend([
        "eval.experiment_s",
        "eval.samples_observed",
        "scenarios.plan_ms",
        "scenarios.artifact_ms",
        "scenarios.idle_s",
    ]);

    let requests = live.window.requests();
    m.set("serve.handler_us", live.handler_us);
    m.set(
        "serve.outside_handler_us",
        live.client_mean_us - live.handler_us,
    );
    m.set(
        "serve.client_cpu_us_per_req",
        live.window.client_cpu_s * 1e6 / requests.max(1) as f64,
    );
    m.set("trace.overhead_pct", overhead);
    let attributed = handler_layers_us(&t, &counts) + (live.client_mean_us - live.handler_us);
    m.set(
        "trace.unattributed_pct",
        (live.client_mean_us - attributed) / live.client_mean_us * 100.0,
    );
    let _ = t.write_jsonl(&spans_path(a));

    let mut o = Outcome {
        attempted: requests + counts.requests + jobs,
        failed: live.window.logs.iter().map(|l| l.failed).sum::<u64>()
            + wrong_live
            + counts.wrong
            + wrong_jobs,
        metrics: m,
        details: Vec::new(),
    };
    o.detail("graph", g.json());
    o.detail("handler_us_by_endpoint", live.per_endpoint);
    o.detail("client_mean_us", num(live.client_mean_us));
    o.detail("replayed_requests", counts.requests.to_string());
    o.detail("span_totals", totals_json(&t));
    o.detail(
        "probes",
        format!(
            "[{}]",
            probes
                .iter()
                .map(|p| quote(p))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    Ok(o)
}

/// Poll scripts: each pre-filled session's fill, then its share of the
/// window's polls (capped; the replay budget bounds the pass anyway).
fn poll_scripts(
    lg: &Arc<LoadedGraph>,
    polled: &HashMap<String, u64>,
    prefill: usize,
    polls: u64,
) -> Result<Vec<SessionLog>, String> {
    let per = (polls as usize / polled.len().max(1)).clamp(1, 5000);
    let mut ids: Vec<_> = polled.iter().collect();
    ids.sort();
    let mut out = Vec::new();
    for (id, &seed) in ids {
        let mut s = Session::open(id.clone(), Arc::clone(lg), &check::spec(&lg.name, seed), 1)
            .map_err(|e| e.msg)?;
        s.ingest_steps(prefill).map_err(|e| e.msg)?;
        let hash = body_hash(&s.estimate_json(None));
        let mut ops = vec![Op::Ingest(prefill)];
        ops.extend(std::iter::repeat_n(Op::Estimate { ci: None, hash }, per));
        out.push(SessionLog {
            id: id.clone(),
            seed,
            ops,
        });
    }
    Ok(out)
}

/// Span totals as a JSON object: count, total and self time (ms).
fn totals_json(t: &Tracer) -> String {
    let parts: Vec<String> = t
        .totals()
        .iter()
        .map(|(name, x)| {
            format!(
                "{}:{{\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                quote(name),
                x.count,
                num(x.total_ns as f64 / 1e6),
                num(x.self_ns as f64 / 1e6)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Result of the in-process fig4 replay.
struct Fig4Replay {
    tracer: Tracer,
    /// Experiment jobs run.
    jobs: u64,
    /// Samples the jobs observed (largest prefix × replications).
    samples: u64,
    /// Job id → artifact hash, from the replay's own manifest.
    hashes: HashMap<String, String>,
}

/// Plans fig4 at quick scale (`scenarios.plan`), runs every job on
/// `cache` (`eval.experiment` around each experiment job) and records
/// artifacts into `out` (`scenarios.artifact`).
fn fig4_replay(a: &Args, cache: &Path, out: &Path) -> Result<Fig4Replay, String> {
    let scale = Scale::Quick;
    let src = cgte_scenarios::builtin_scenario("fig4").ok_or("no builtin fig4 scenario")?;
    let opts = RunOptions {
        scale,
        seed: None,
        threads: a.threads,
        quiet: true,
        cache_dir: Some(cache.to_path_buf()),
        mmap: true,
        out_dir: Some(out.to_path_buf()),
        ..RunOptions::default()
    };
    let mut t = Tracer::new(true);
    t.next_request();
    let s = t.begin("scenarios.plan");
    let plan = cgte_scenarios::parse_scn(src)
        .and_then(|doc| cgte_scenarios::resolve_scenario(&doc, scale, opts.seed))
        .and_then(|sc| cgte_scenarios::build_plan(&sc))
        .map_err(|e| e.to_string())?;
    t.end(s);
    let cache = ResourceCache::with_disk(cache).mmap(true);
    let mut dir = RunDir::open(out, &plan.scenario.name, src, &opts).map_err(|e| e.to_string())?;
    let (mut jobs, mut samples) = (0, 0);
    for job in &plan.jobs {
        t.next_request();
        let JobKind::Experiment { exp, .. } = &job.kind else {
            cgte_scenarios::runner::execute_job(job, &plan, &cache, &opts)
                .map_err(|e| e.to_string())?;
            continue;
        };
        let s = t.begin("eval.experiment");
        let output = cgte_scenarios::runner::execute_job(job, &plan, &cache, &opts)
            .map_err(|e| e.to_string())?;
        t.end(s);
        let s = t.begin("scenarios.artifact");
        dir.record(&job.id, &output).map_err(|e| e.to_string())?;
        t.end(s);
        jobs += 1;
        samples += (exp.sizes.iter().max().copied().unwrap_or(0) * exp.replications) as u64;
    }
    Ok(Fig4Replay {
        tracer: t,
        jobs,
        samples,
        hashes: check::manifest_hashes(&out.join("manifest.json"))?,
    })
}

/// `(job id, ms)` of the `run/` jobs in `cgte run`'s job lines, e.g.
/// `[5/16] run/texas/s[uis] (1121 ms, cache 0b/4l/3h)`.
fn job_times(stderr: &str) -> Vec<(String, f64)> {
    stderr
        .lines()
        .filter_map(|l| {
            let (_, rest) = l.split_once("] ")?;
            let (id, tail) = rest.split_once(" (")?;
            let ms: f64 = tail.split(" ms").next()?.parse().ok()?;
            id.starts_with("run/").then(|| (id.to_string(), ms))
        })
        .collect()
}

/// The eval and scenario layers, which no serve workload calls: fig4 at
/// quick scale, once as a live `cgte run` (for `scenarios.idle_s`: its
/// wall time × threads minus the summed job times of its job lines) and
/// once replayed in-process under spans on the cache the live run filled.
/// The replay's job hashes must equal the live run's. Returns the jobs
/// checked and how many differ.
fn scenario_probe(a: &Args, m: &mut Metrics) -> Result<(u64, u64), String> {
    let cache = a.work.join("probe-cache");
    let live_out = a.work.join("probe-live");
    let args: Vec<String> = [
        "run",
        "--builtin",
        "fig4",
        "--quick",
        "--threads",
        &a.threads.to_string(),
        "--cache-dir",
        &cache.to_string_lossy(),
        "--out",
        &live_out.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let live = sys::run_cgte(&a.cgte, &args, Duration::from_secs(60))?;
    let r = fig4_replay(a, &cache, &a.work.join("probe-out"))?;
    let live_hashes = check::manifest_hashes(&live_out.join("manifest.json"))?;
    let tot = r.tracer.totals();
    let get = |n: &str| tot.get(n).copied().unwrap_or_default();
    let busy_ms: f64 = job_times(&live.stderr).iter().map(|(_, ms)| ms).sum();
    m.set("eval.experiment_s", get("eval.experiment").mean(1e9));
    m.set(
        "eval.samples_observed",
        r.samples as f64 / r.jobs.max(1) as f64,
    );
    m.set("scenarios.plan_ms", get("scenarios.plan").mean(1e6));
    m.set("scenarios.artifact_ms", get("scenarios.artifact").mean(1e6));
    m.set(
        "scenarios.idle_s",
        live.wall_s * a.threads as f64 - busy_ms / 1e3,
    );
    Ok((
        live_hashes.len() as u64,
        check::manifest_mismatches(&live_hashes, &r.hashes),
    ))
}
