//! Output checks: every estimate body the server returned must be
//! byte-identical to an in-process replay of the same session script
//! through `Session::open` / `ingest_steps` / `estimate_json`.

use crate::load::{body_hash, ClientLog, Op, SessionLog};
use cgte_serve::registry::{LoadedGraph, Registry};
use cgte_serve::session::{Session, SessionSpec};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// The spec the server resolves from [`crate::load::open_body`].
pub fn spec(graph: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        graph: graph.to_string(),
        partition: None,
        sampler: "rw".to_string(),
        design: None,
        seed,
        burn_in: 0,
        thinning: 1,
    }
}

/// Loads `graph` from `store` the way the server's registry does.
pub fn load(store: &Path, graph: &str) -> Result<Arc<LoadedGraph>, String> {
    Registry::new(store).get(graph).map_err(|e| e.msg)
}

/// Replays one session script; returns the number of estimate bodies whose
/// hash differs from the replay's.
pub fn replay_session(lg: &Arc<LoadedGraph>, log: &SessionLog) -> Result<u64, String> {
    let mut s = Session::open(log.id.clone(), Arc::clone(lg), &spec(&lg.name, log.seed), 1)
        .map_err(|e| e.msg)?;
    let mut wrong = 0;
    for op in &log.ops {
        match *op {
            Op::Ingest(steps) => {
                s.ingest_steps(steps).map_err(|e| e.msg)?;
            }
            Op::Estimate { ci, hash } => {
                if body_hash(&s.estimate_json(ci)) != hash {
                    wrong += 1;
                }
            }
        }
    }
    Ok(wrong)
}

/// Replays every session over `threads` workers; returns the number of
/// mismatching estimate bodies.
pub fn replay_sessions(
    lg: &Arc<LoadedGraph>,
    sessions: &[SessionLog],
    threads: usize,
) -> Result<u64, String> {
    let threads = threads.clamp(1, sessions.len().max(1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    sessions
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|log| replay_session(lg, log))
                        .sum::<Result<u64, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "replay thread panicked".to_string())?)
            .sum()
    })
}

/// Checks polled bodies: each session's expected body is its replay after
/// one ingest of `prefill` steps. Returns the number of wrong bodies.
pub fn check_polled(
    lg: &Arc<LoadedGraph>,
    seeds: &HashMap<String, u64>,
    prefill: usize,
    logs: &[ClientLog],
) -> Result<u64, String> {
    let mut wrong = 0;
    for (id, &seed) in seeds {
        let mut s = Session::open(id.clone(), Arc::clone(lg), &spec(&lg.name, seed), 1)
            .map_err(|e| e.msg)?;
        s.ingest_steps(prefill).map_err(|e| e.msg)?;
        let expected = body_hash(&s.estimate_json(None));
        for log in logs {
            if let Some(counts) = log.polled.get(id) {
                wrong += counts
                    .iter()
                    .filter(|&(&h, _)| h != expected)
                    .map(|(_, &n)| n)
                    .sum::<u64>();
            }
        }
    }
    Ok(wrong)
}

/// Job id → artifact hash, from a scenario run's `manifest.json`.
pub fn manifest_hashes(path: &Path) -> Result<HashMap<String, String>, String> {
    use cgte_scenarios::artifact::{parse_json, Json};
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("bad manifest {path:?}: {e}"))?;
    let Some(Json::Arr(done)) = doc.get("done") else {
        return Err(format!("manifest {path:?} has no \"done\" list"));
    };
    let mut out = HashMap::new();
    for job in done {
        if let (Some(Json::Str(id)), Some(Json::Str(hash))) = (job.get("id"), job.get("hash")) {
            out.insert(id.clone(), hash.clone());
        }
    }
    Ok(out)
}

/// Jobs of `warm` that are missing from or differ from `reference`, plus
/// reference jobs `warm` lacks.
pub fn manifest_mismatches(
    reference: &HashMap<String, String>,
    warm: &HashMap<String, String>,
) -> u64 {
    let differing = warm
        .iter()
        .filter(|(id, h)| reference.get(*id) != Some(*h))
        .count();
    let missing = reference
        .keys()
        .filter(|id| !warm.contains_key(*id))
        .count();
    (differing + missing) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{build_graph, GraphKind};

    #[test]
    fn replay_rejects_a_body_with_one_altered_digit() {
        let dir = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
        let g = build_graph(GraphKind::Epinions, 5, true, &dir).unwrap();
        let lg = load(&dir, &g.name).unwrap();
        // The body a server would return for this script.
        let mut served =
            Session::open("s7".into(), Arc::clone(&lg), &spec(&g.name, 11), 1).unwrap();
        served.ingest_steps(300).unwrap();
        let body = served.estimate_json(Some((0.95, 5)));
        let script = |body: &str| SessionLog {
            id: "s7".into(),
            seed: 11,
            ops: vec![
                Op::Ingest(300),
                Op::Estimate {
                    ci: Some((0.95, 5)),
                    hash: body_hash(body),
                },
            ],
        };
        assert_eq!(replay_session(&lg, &script(&body)).unwrap(), 0);
        // Alter the last digit of the body.
        let pos = body.rfind(|c: char| c.is_ascii_digit()).unwrap();
        let mut altered = body.clone().into_bytes();
        altered[pos] = if altered[pos] == b'9' {
            b'8'
        } else {
            altered[pos] + 1
        };
        let altered = String::from_utf8(altered).unwrap();
        assert_eq!(replay_session(&lg, &script(&altered)).unwrap(), 1);
        assert_eq!(
            replay_sessions(&lg, &[script(&body), script(&altered), script(&body)], 2).unwrap(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_mismatches_count_changed_and_missing_jobs() {
        let m = |pairs: &[(&str, &str)]| -> HashMap<String, String> {
            pairs
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        let reference = m(&[("a", "1"), ("b", "2"), ("c", "3")]);
        assert_eq!(manifest_mismatches(&reference, &reference), 0);
        assert_eq!(
            manifest_mismatches(&reference, &m(&[("a", "1"), ("b", "9")])),
            2
        );
    }
}
