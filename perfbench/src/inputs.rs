//! Generated inputs: the graphs each workload serves, written as `.cgteg`
//! bundles into a store directory, and the seeds every script derives
//! from the run's `--seed`.

use cgte_graph::algorithms::{label_propagation, top_k_partition};
use cgte_graph::generators::{par_chung_lu, powerlaw_weights, scale_to_mean};
use cgte_graph::store::{graph_sections, partition_section, Container, Section};
use cgte_graph::{Graph, Partition};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// SplitMix64 finalizer: derives independent seeds from `(seed, salt)`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which graph a serve workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Chung–Lu power-law graph (exponent 2.5, mean degree 10) — the
    /// recipe of `cgte bench`'s headline graph; 1M nodes at full size.
    ChungLu,
    /// The heavy-tailed Epinions stand-in (~73k nodes at full size).
    Epinions,
}

impl GraphKind {
    /// Registry name (file stem) of the graph.
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::ChungLu => "chunglu",
            GraphKind::Epinions => "epinions",
        }
    }
}

/// A generated graph stored in the workload's store directory.
pub struct GraphInput {
    /// Registry name (file stem).
    pub name: String,
    /// The `.cgteg` path.
    pub path: PathBuf,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Category count of the `main` partition.
    pub categories: usize,
    /// CSR offsets + neighbor array + partition labels, in bytes.
    pub working_set_bytes: usize,
}

impl GraphInput {
    /// The input fingerprint as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"name\":{},\"nodes\":{},\"edges\":{},\"categories\":{},\"working_set_bytes\":{}}}",
            crate::report::quote(&self.name),
            self.nodes,
            self.edges,
            self.categories,
            self.working_set_bytes
        )
    }
}

/// CSR + partition bytes a walk over `g` touches.
pub fn working_set_bytes(g: &Graph, p: &Partition) -> usize {
    std::mem::size_of_val(g.csr_offsets())
        + std::mem::size_of_val(g.csr_neighbors())
        + std::mem::size_of_val(p.assignments())
}

/// Seed of the served graphs. It is fixed, so that the spread between
/// runs measures the code rather than the graph draw; each run's `--seed`
/// drives the sessions' walks instead.
pub const GRAPH_SEED: u64 = 20_121_005;

/// Puts the graph of `kind` into `store` as `<name>.cgteg`, building it
/// on first use into `inputs` (shared by the runs of one checkout) and
/// linking it from there afterwards.
pub fn stage_graph(
    kind: GraphKind,
    tiny: bool,
    inputs: &Path,
    store: &Path,
) -> Result<GraphInput, String> {
    let name = kind.name();
    let cached = inputs.join(format!(
        "{name}-{GRAPH_SEED}{}.cgteg",
        if tiny { "-tiny" } else { "" }
    ));
    if !cached.exists() {
        // Build under a unique name, then rename: concurrent runs never
        // see a half-written file.
        let tmp = inputs.join(format!(
            "tmp-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let built = build_graph(kind, GRAPH_SEED, tiny, &tmp)?;
        std::fs::rename(&built.path, &cached)
            .map_err(|e| format!("cannot move {cached:?}: {e}"))?;
        let _ = std::fs::remove_dir_all(&tmp);
    }
    std::fs::create_dir_all(store).map_err(|e| format!("cannot create {store:?}: {e}"))?;
    let path = store.join(format!("{name}.cgteg"));
    // The server only maps the file read-only, so a link serves as well as
    // a copy.
    std::fs::hard_link(&cached, &path)
        .or_else(|_| std::fs::copy(&cached, &path).map(|_| ()))
        .map_err(|e| format!("cannot stage {cached:?}: {e}"))?;
    let b = cgte_graph::store::Loader::open(&path)
        .mmap(true)
        .load_bundle()
        .map_err(|e| format!("cannot load {path:?}: {e}"))?;
    let p = b.partition.ok_or("staged graph has no main partition")?;
    Ok(GraphInput {
        name: name.to_string(),
        nodes: b.graph.num_nodes(),
        edges: b.graph.num_edges(),
        categories: p.num_categories(),
        working_set_bytes: working_set_bytes(&b.graph, &p),
        path,
    })
}

/// Builds the graph of `kind` from `seed` and writes it with its 51-way
/// `main` partition into `store`. `tiny` shrinks it for smoke tests.
///
/// The partition is the 50 largest label-propagation communities plus a
/// rest category, after one sweep: the headline recipe's 50 sweeps cost
/// 7 s per million nodes and collapse the Chung–Lu graph into one giant
/// community, while one sweep keeps 51 sizeable categories on both graphs.
pub fn build_graph(
    kind: GraphKind,
    seed: u64,
    tiny: bool,
    store: &Path,
) -> Result<GraphInput, String> {
    let g = match kind {
        GraphKind::ChungLu => {
            let n = if tiny { 20_000 } else { 1_000_000 };
            let mut w = powerlaw_weights(
                n,
                2.5,
                2.0,
                (n as f64).sqrt(),
                &mut StdRng::seed_from_u64(seed),
            );
            scale_to_mean(&mut w, 10.0);
            par_chung_lu(&w, seed, 0)
        }
        GraphKind::Epinions => cgte_datasets::standin(
            cgte_datasets::StandinKind::Epinions,
            if tiny { 8 } else { 1 },
            &mut StdRng::seed_from_u64(seed),
        ),
    };
    let labels = label_propagation(&g, 1, &mut StdRng::seed_from_u64(mix(seed, 0x5E7E)));
    let p = top_k_partition(&labels, 50);
    let name = kind.name();
    std::fs::create_dir_all(store).map_err(|e| format!("cannot create {store:?}: {e}"))?;
    let path = store.join(format!("{name}.cgteg"));
    let mut c = Container::new();
    c.push(Section::string("meta.kind", "graph"));
    for s in graph_sections(&g) {
        c.push(s);
    }
    c.push(partition_section("main", &p));
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?,
    );
    c.write_to(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    Ok(GraphInput {
        name: name.to_string(),
        path,
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        categories: p.num_categories(),
        working_set_bytes: working_set_bytes(&g, &p),
    })
}
