//! `perfbench` — end-to-end and per-layer benchmark of the `cgte` binary.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --cgte PATH/TO/cgte --work DIR [--size full|tiny]
//! ```
//!
//! With `--trace 0` it drives the release `cgte` binary as a child process
//! (`cgte serve`) and prints the end-to-end metrics; with
//! `--trace 1` it replays the same generated inputs in-process through
//! each layer's public functions under spans and prints the per-layer
//! metrics. The next-to-last stdout line is a report (host and input
//! fingerprint, seed, why the workload was chosen, details); the last is
//! the result: `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/README.md`.

mod check;
mod inputs;
mod layers;
mod load;
mod report;
mod sys;
mod trace;
mod workloads;

use report::{quote, Outcome, Table, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed kept out of development runs, for checking later claims.
pub const HOLDOUT_SEED: u64 = 8_675_309;

/// Parsed command line.
#[derive(Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `cgte` binary.
    pub cgte: PathBuf,
    /// Scratch directory of this run (removed at the end).
    pub work: PathBuf,
    /// Smoke-test sizes.
    pub tiny: bool,
    /// Worker threads, clients and connections (= cores).
    pub threads: usize,
}

impl Args {
    /// The `.cgteg` store directory of serve workloads.
    pub fn store(&self) -> PathBuf {
        self.work.join("store")
    }

    /// Generated graphs kept across the runs of one checkout.
    pub fn inputs(&self) -> PathBuf {
        self.work
            .parent()
            .map_or_else(|| PathBuf::from("inputs"), |p| p.join("inputs"))
    }

    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut get = std::collections::HashMap::new();
        let mut it = argv.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            get.insert(key.to_string(), v.clone());
        }
        let req = |k: &str| get.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
        let num = |k: &str| -> Result<f64, String> {
            req(k)?.parse().map_err(|e| format!("bad --{k}: {e}"))
        };
        let workload = req("workload")?;
        if !workloads::WORKLOADS.iter().any(|(n, _)| *n == workload) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seconds = num("seconds")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed: req("seed")?
                .parse()
                .map_err(|e| format!("bad --seed: {e}"))?,
            seconds,
            trace: match req("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            },
            cgte: req("cgte")?.into(),
            work: req("work")?.into(),
            tiny: match get.get("size").map(String::as_str) {
                None | Some("full") => false,
                Some("tiny") => true,
                Some(other) => return Err(format!("--size must be full or tiny, got {other:?}")),
            },
            threads: sys::nproc(),
        })
    }
}

fn run(a: &Args) -> Result<(Outcome, Table), String> {
    let outcome = if a.trace {
        layers::serve_trace(a, &a.workload)?
    } else {
        workloads::serve_run(a, &a.workload)?
    };
    Ok((outcome, if a.trace { PER_LAYER } else { END_TO_END }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.work) {
        eprintln!("perfbench: cannot create {:?}: {e}", a.work);
        return ExitCode::FAILURE;
    }
    let result = run(&a);
    let _ = std::fs::remove_dir_all(&a.work);
    let (o, table) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload);
            return ExitCode::FAILURE;
        }
    };
    let why = workloads::WORKLOADS
        .iter()
        .find(|(n, _)| *n == a.workload)
        .map_or("", |(_, w)| w);
    let mut report = format!(
        "{{\"report\":{{\"workload\":{},\"why\":{},\"seed\":{},\"holdout_seed\":{HOLDOUT_SEED},\"seconds\":{},\"trace\":{},\"threads\":{},\"host\":{}",
        quote(&a.workload),
        quote(why),
        a.seed,
        a.seconds,
        a.trace,
        a.threads,
        sys::host_json(),
    );
    for (k, v) in &o.details {
        report.push_str(&format!(",{}:{v}", quote(k)));
    }
    report.push_str("}}");
    match report::result_line(&o, table) {
        Ok(line) => {
            println!("{report}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
