//! `cgte estimate --ci` pinned end to end: for a fixed graph and seed the
//! per-category bootstrap lines on stderr must stay exactly these, for the
//! star and the induced size estimator. The expected lines were produced
//! by the materialized bootstrap (a `StarSample`/`InducedSample` rebuilt
//! per replicate); the record-column kernel must reproduce them, down to
//! the sign of a zero estimate.

use std::process::Command;

const STAR_RW_WEIGHTED: &str = "\
bootstrap 90% percentile CIs for category sizes (40 replicates):
  |C0|: mean 2.53, sd 2.03, ci [0.00, 6.36] (27 defined replicates)
  |C1|: mean 50.45, sd 9.78, ci [35.97, 69.36] (40 defined replicates)
  |C2|: undefined on every replicate
  |C3|: undefined on every replicate
  |C4|: undefined on every replicate
  |C5|: mean 17.16, sd 4.62, ci [11.14, 24.19] (40 defined replicates)
  |C6|: mean 73.46, sd 14.63, ci [49.60, 93.31] (40 defined replicates)
  |C7|: mean 167.62, sd 18.26, ci [137.79, 193.43] (40 defined replicates)
  |C8|: mean 293.07, sd 21.35, ci [262.22, 335.78] (40 defined replicates)
  |C9|: mean 1152.88, sd 32.34, ci [1093.39, 1198.22] (40 defined replicates)
";

const INDUCED_MHRW_UNIFORM: &str = "\
bootstrap 90% percentile CIs for category sizes (40 replicates):
  |C0|: mean -0.00, sd 0.00, ci [-0.00, -0.00] (40 defined replicates)
  |C1|: mean -0.00, sd 0.00, ci [-0.00, -0.00] (40 defined replicates)
  |C2|: mean -0.00, sd 0.00, ci [-0.00, -0.00] (40 defined replicates)
  |C3|: mean 23.35, sd 10.98, ci [5.95, 41.65] (40 defined replicates)
  |C4|: mean 5.36, sd 4.82, ci [-0.00, 11.90] (40 defined replicates)
  |C5|: mean 171.95, sd 32.25, ci [130.90, 226.10] (40 defined replicates)
  |C6|: mean 103.08, sd 20.23, ci [71.40, 130.90] (40 defined replicates)
  |C7|: mean 116.17, sd 27.38, ci [77.35, 166.60] (40 defined replicates)
  |C8|: mean 505.16, sd 46.90, ci [440.30, 595.00] (40 defined replicates)
  |C9|: mean 878.81, sd 52.08, ci [797.30, 969.85] (40 defined replicates)
";

fn cgte(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cgte"))
        .args(args)
        .output()
        .expect("cannot run cgte");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "cgte {args:?} failed: {stderr}");
    stderr
}

/// The stderr block from the `bootstrap …` header on.
fn ci_lines(stderr: &str) -> &str {
    let at = stderr.find("bootstrap ").expect("no bootstrap header");
    &stderr[at..]
}

#[test]
fn estimate_ci_lines_are_pinned_for_a_fixed_seed() {
    let dir = std::env::temp_dir().join(format!("cgte-cli-ci-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |f: &str| -> String { dir.join(f).to_string_lossy().into_owned() };
    let (g, c) = (path("g.txt"), path("c.txt"));
    cgte(&[
        "generate", "planted", "--k", "4", "--alpha", "0.3", "--scale", "50", "--seed", "11",
        "--graph", &g, "--cats", &c,
    ]);
    let out = path("est.csv");
    for (sampler, design, sizes, want) in [
        ("rw", "weighted", "star", STAR_RW_WEIGHTED),
        ("mhrw", "uniform", "induced", INDUCED_MHRW_UNIFORM),
    ] {
        let stderr = cgte(&[
            "estimate",
            "--graph",
            &g,
            "--cats",
            &c,
            "--sampler",
            sampler,
            "--n",
            "300",
            "--design",
            design,
            "--sizes",
            sizes,
            "--seed",
            "5",
            "--ci",
            "0.9",
            "--boot",
            "40",
            "--format",
            "csv",
            "--out",
            &out,
        ]);
        assert_eq!(ci_lines(&stderr), want, "{sampler}/{design}/{sizes}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
