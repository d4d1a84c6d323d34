//! Bootstrap variance and confidence intervals (§5.3.2, the paper's \[9\]).
//!
//! The paper recommends choosing between size estimators by their variance,
//! "estimated, e.g., using bootstrapping". Observations are resampled with
//! replacement at the record level, and every entry point runs the same
//! loop: per replicate it draws `n` record indices into one reused buffer
//! and hands them to an estimator.
//!
//! - [`ResampleRecords`] evaluates the star and induced size estimators
//!   directly over those indices, from per-record columns built once, so
//!   nothing is materialized per replicate. This is the serving path.
//! - [`bootstrap_star`] / [`bootstrap_induced`] materialize each replicate
//!   with `subsample` (induced edges re-derived from the recorded ones, no
//!   graph access) for arbitrary estimators over the sample types.
//!
//! Both draw the same index stream, and the size estimators over
//! [`ResampleRecords`] sum in the same order as
//! [`star_size`](crate::category_size::star_size) /
//! [`induced_size`](crate::category_size::induced_size) over a subsample,
//! so their summaries are bit-identical.

use crate::category_size::StarSizeOptions;
use cgte_graph::{CategoryId, NodeId};
use cgte_sampling::{DesignKind, InducedSample, ObservationContext, StarSample};
use rand::Rng;

/// Summary of a bootstrap distribution of an estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapSummary {
    /// Number of replicates on which the estimator was defined.
    pub replicates: usize,
    /// Mean of the defined replicate estimates.
    pub mean: f64,
    /// Sample standard deviation of the replicate estimates.
    pub std_dev: f64,
    /// Percentile confidence interval (lower, upper).
    pub ci: (f64, f64),
    /// The confidence level the interval was computed at.
    pub level: f64,
}

fn summarize(estimates: &mut [f64], level: f64) -> Option<BootstrapSummary> {
    if estimates.is_empty() {
        return None;
    }
    estimates.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
    let n = estimates.len();
    let mean = estimates.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    let tail = (1.0 - level) / 2.0;
    let lo_idx = ((n as f64 - 1.0) * tail).round() as usize;
    let hi_idx = ((n as f64 - 1.0) * (1.0 - tail)).round() as usize;
    Some(BootstrapSummary {
        replicates: n,
        mean,
        std_dev: var.sqrt(),
        ci: (estimates[lo_idx], estimates[hi_idx]),
        level,
    })
}

/// The buffers of [`resample`]: one replicate's indices and the defined
/// estimates. [`ResampleRecords`] keeps one across calls.
#[derive(Debug, Clone, Default)]
struct Buffers {
    idx: Vec<u32>,
    estimates: Vec<f64>,
}

/// The resampling loop every bootstrap in this module runs.
///
/// For each of `reps` replicates, draws `n` indices with
/// `gen_range(0..n as u32)` into the reused index buffer and applies
/// `estimator` to them; replicates where the estimator is undefined
/// (`None`) are dropped. Returns `None` if `n == 0` or `reps == 0` (both
/// without drawing), or if the estimator was undefined on every replicate.
///
/// # Panics
/// Panics if `level` is not in `(0, 1)`.
fn resample<R, F>(
    buf: &mut Buffers,
    n: usize,
    reps: usize,
    level: f64,
    rng: &mut R,
    mut estimator: F,
) -> Option<BootstrapSummary>
where
    R: Rng + ?Sized,
    F: FnMut(&[u32]) -> Option<f64>,
{
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must be in (0,1)"
    );
    if n == 0 || reps == 0 {
        return None;
    }
    buf.estimates.clear();
    for _ in 0..reps {
        buf.idx.clear();
        buf.idx.extend((0..n).map(|_| rng.gen_range(0..n as u32)));
        if let Some(e) = estimator(&buf.idx) {
            buf.estimates.push(e);
        }
    }
    summarize(&mut buf.estimates, level)
}

/// Bootstraps an estimator over a [`StarSample`], materializing each
/// replicate with [`StarSample::subsample`].
///
/// Runs `reps` record-level resamples and applies `estimator` to each;
/// replicates where it is undefined (`None`) are dropped. Returns `None` if the sample is empty,
/// `reps == 0`, or the estimator was undefined on every replicate.
///
/// # Panics
/// Panics if `level` is not in `(0, 1)`.
pub fn bootstrap_star<R, F>(
    sample: &StarSample,
    reps: usize,
    level: f64,
    rng: &mut R,
    estimator: F,
) -> Option<BootstrapSummary>
where
    R: Rng + ?Sized,
    F: Fn(&StarSample) -> Option<f64>,
{
    resample(
        &mut Buffers::default(),
        sample.len(),
        reps,
        level,
        rng,
        |idx| estimator(&sample.subsample(idx)),
    )
}

/// Bootstraps an estimator over an [`InducedSample`]; see [`bootstrap_star`].
///
/// # Panics
/// Panics if `level` is not in `(0, 1)`.
pub fn bootstrap_induced<R, F>(
    sample: &InducedSample,
    reps: usize,
    level: f64,
    rng: &mut R,
    estimator: F,
) -> Option<BootstrapSummary>
where
    R: Rng + ?Sized,
    F: Fn(&InducedSample) -> Option<f64>,
{
    resample(
        &mut Buffers::default(),
        sample.len(),
        reps,
        level,
        rng,
        |idx| estimator(&sample.subsample(idx)),
    )
}

/// Per-record columns of an observation, built once, over which the size
/// estimators run for any resample of record indices.
///
/// Holds each record's category, `1/w`, `deg/w` (degrees converted
/// `as u32` then `as f64`, as the sample types store them) and a borrowed
/// neighbor-category histogram. A replicate is just an index slice in a
/// buffer reused across calls, so nothing is materialized per replicate.
/// Results are bit-identical to [`bootstrap_star`] / [`bootstrap_induced`]
/// with [`star_size`](crate::category_size::star_size) /
/// [`induced_size`](crate::category_size::induced_size) on the same RNG
/// stream.
#[derive(Debug, Clone)]
pub struct ResampleRecords<'a> {
    cols: Columns<'a>,
    buf: Buffers,
    /// The star estimator's `|E_{s,c}| / w(s)` per record, for one `c`.
    nbr_weight: Vec<f64>,
}

#[derive(Debug, Clone)]
struct Columns<'a> {
    categories: Vec<CategoryId>,
    weights: Vec<f64>,
    /// `1 / w(s)`.
    inv_weight: Vec<f64>,
    /// `deg(s) / w(s)`.
    deg_weight: Vec<f64>,
    neighbors: Vec<&'a [(CategoryId, u32)]>,
}

impl<'a> ResampleRecords<'a> {
    fn from_columns(
        categories: Vec<CategoryId>,
        degrees: impl Iterator<Item = u32>,
        weights: Vec<f64>,
        neighbors: Vec<&'a [(CategoryId, u32)]>,
    ) -> Self {
        let inv_weight = weights.iter().map(|&w| 1.0 / w).collect();
        let deg_weight = degrees.zip(&weights).map(|(d, &w)| d as f64 / w).collect();
        ResampleRecords {
            cols: Columns {
                categories,
                weights,
                inv_weight,
                deg_weight,
                neighbors,
            },
            buf: Buffers::default(),
            nbr_weight: Vec::new(),
        }
    }

    /// Columns for a streaming observation's `(node, weight)` push log
    /// (e.g. [`cgte_sampling::ObservationStream::log`]), reading
    /// categories, degrees and neighbor histograms from `ctx`. Under
    /// [`DesignKind::Uniform`] every weight is 1, whatever the log holds.
    pub fn from_log(
        ctx: &'a ObservationContext<'_>,
        log: &[(NodeId, f64)],
        design: DesignKind,
    ) -> Self {
        let (g, p) = (ctx.graph(), ctx.partition());
        let weights = match design {
            DesignKind::Uniform => vec![1.0; log.len()],
            DesignKind::Weighted => log.iter().map(|&(_, w)| w).collect(),
        };
        Self::from_columns(
            log.iter().map(|&(v, _)| p.category_of(v)).collect(),
            log.iter().map(|&(v, _)| g.degree(v) as u32),
            weights,
            log.iter()
                .map(|&(v, _)| ctx.neighbor_categories(v))
                .collect(),
        )
    }

    /// Columns for a materialized star observation (its induced view has
    /// the same categories and weights, so this serves both estimators).
    pub fn from_star(sample: &'a StarSample) -> Self {
        Self::from_columns(
            sample.categories().to_vec(),
            sample.degrees().iter().copied(),
            sample.weights().to_vec(),
            (0..sample.len())
                .map(|i| sample.neighbor_categories(i))
                .collect(),
        )
    }

    fn len(&self) -> usize {
        self.cols.categories.len()
    }

    /// Bootstraps the star size estimator of category `c` (Eq. (5)/(12));
    /// identical to [`bootstrap_star`] with
    /// [`star_size`](crate::category_size::star_size).
    ///
    /// # Panics
    /// Panics if `level` is not in `(0, 1)`.
    #[allow(clippy::too_many_arguments)]
    pub fn bootstrap_star_size<R: Rng + ?Sized>(
        &mut self,
        c: CategoryId,
        population: f64,
        opts: &StarSizeOptions,
        reps: usize,
        level: f64,
        rng: &mut R,
    ) -> Option<BootstrapSummary> {
        let ResampleRecords {
            cols,
            buf,
            nbr_weight,
        } = self;
        nbr_weight.clear();
        nbr_weight.extend(cols.neighbors.iter().zip(&cols.weights).map(|(hist, &w)| {
            let cnt = hist
                .binary_search_by_key(&c, |&(cat, _)| cat)
                .map(|pos| hist[pos].1)
                .unwrap_or(0);
            cnt as f64 / w
        }));
        resample(buf, nbr_weight.len(), reps, level, rng, |idx| {
            cols.star_size_at(idx, c, nbr_weight, population, opts)
        })
    }

    /// Bootstraps the induced size estimator of category `c`
    /// (Eq. (4)/(11)); identical to [`bootstrap_induced`] with
    /// [`induced_size`](crate::category_size::induced_size).
    ///
    /// # Panics
    /// Panics if `level` is not in `(0, 1)`.
    pub fn bootstrap_induced_size<R: Rng + ?Sized>(
        &mut self,
        c: CategoryId,
        population: f64,
        reps: usize,
        level: f64,
        rng: &mut R,
    ) -> Option<BootstrapSummary> {
        let n = self.len();
        let cols = &self.cols;
        resample(&mut self.buf, n, reps, level, rng, |idx| {
            cols.induced_size_at(idx, c, population)
        })
    }
}

impl Columns<'_> {
    /// `star_size` over the resample `idx`: the sums of `relative_volume`,
    /// `mean_degree` and `mean_degree_in` fused into one pass, each
    /// accumulated from `0.0` in index order exactly as they are there.
    fn star_size_at(
        &self,
        idx: &[u32],
        c: CategoryId,
        nbr_weight: &[f64],
        population: f64,
        opts: &StarSizeOptions,
    ) -> Option<f64> {
        let mut nbr = 0.0; // Σ |E_{s,c}|/w
        let mut deg = 0.0; // Σ deg/w
        let mut inv = 0.0; // Σ 1/w
        let mut deg_in = 0.0; // Σ_{S_c} deg/w
        let mut inv_in = 0.0; // Σ_{S_c} 1/w
        for &i in idx {
            let i = i as usize;
            nbr += nbr_weight[i];
            deg += self.deg_weight[i];
            inv += self.inv_weight[i];
            if self.categories[i] == c {
                deg_in += self.deg_weight[i];
                inv_in += self.inv_weight[i];
            }
        }
        if deg == 0.0 || inv == 0.0 {
            return None;
        }
        let f_vol = nbr / deg;
        let k_v = deg / inv;
        let k_a = if opts.model_based_mean_degree {
            k_v
        } else {
            if inv_in == 0.0 {
                return None;
            }
            deg_in / inv_in
        };
        if k_a == 0.0 {
            return None;
        }
        Some(population * f_vol * k_v / k_a)
    }

    /// `induced_size` over the resample `idx`, with its two `.sum()`s
    /// (whose empty value fixes the sign of a zero estimate).
    fn induced_size_at(&self, idx: &[u32], c: CategoryId, population: f64) -> Option<f64> {
        let num: f64 = idx
            .iter()
            .filter(|&&i| self.categories[i as usize] == c)
            .map(|&i| self.inv_weight[i as usize])
            .sum();
        let den: f64 = idx.iter().map(|&i| self.inv_weight[i as usize]).sum();
        Some(population * num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category_size::{induced_size, star_size, StarSizeOptions};
    use cgte_graph::generators::{planted_partition, PlantedConfig};
    use cgte_sampling::{NodeSampler, UniformIndependence};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (cgte_graph::Graph, cgte_graph::Partition, StdRng) {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = PlantedConfig {
            category_sizes: vec![100, 300],
            k: 6,
            alpha: 0.3,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        (pg.graph, pg.partition, rng)
    }

    /// [`setup`]'s graph with a third, empty category declared.
    fn with_empty_category(p: &cgte_graph::Partition) -> cgte_graph::Partition {
        let assignment = (0..p.num_nodes())
            .map(|v| p.category_of(v as NodeId))
            .collect();
        cgte_graph::Partition::from_assignments(assignment, 3).unwrap()
    }

    #[test]
    fn ci_brackets_truth_most_of_the_time() {
        let (g, p, mut rng) = setup();
        let nodes = UniformIndependence.sample(&g, 800, &mut rng);
        let s = cgte_sampling::StarSample::observe(&g, &p, &nodes);
        let sum = bootstrap_star(&s, 200, 0.95, &mut rng, |s| {
            star_size(s, 0, 400.0, &StarSizeOptions::default())
        })
        .unwrap();
        assert!(sum.replicates > 150);
        assert!(sum.std_dev > 0.0);
        assert!(
            sum.ci.0 <= 100.0 + 3.0 * sum.std_dev && sum.ci.1 >= 100.0 - 3.0 * sum.std_dev,
            "CI {:?} too far from truth 100",
            sum.ci
        );
        assert!(sum.ci.0 <= sum.mean && sum.mean <= sum.ci.1);
    }

    #[test]
    fn induced_bootstrap_runs() {
        let (g, p, mut rng) = setup();
        let nodes = UniformIndependence.sample(&g, 400, &mut rng);
        let s = cgte_sampling::InducedSample::observe(&g, &p, &nodes);
        let sum = bootstrap_induced(&s, 100, 0.9, &mut rng, |s| induced_size(s, 1, 400.0)).unwrap();
        assert_eq!(sum.level, 0.9);
        assert!((sum.mean - 300.0).abs() < 60.0, "mean {}", sum.mean);
    }

    #[test]
    fn empty_sample_or_zero_reps_is_none() {
        let (g, p, mut rng) = setup();
        let s = cgte_sampling::StarSample::observe(&g, &p, &[]);
        assert!(bootstrap_star(&s, 10, 0.95, &mut rng, |_| Some(1.0)).is_none());
        let nodes = UniformIndependence.sample(&g, 10, &mut rng);
        let s = cgte_sampling::StarSample::observe(&g, &p, &nodes);
        assert!(bootstrap_star(&s, 0, 0.95, &mut rng, |_| Some(1.0)).is_none());
    }

    #[test]
    fn all_undefined_replicates_is_none() {
        let (g, p, mut rng) = setup();
        let nodes = UniformIndependence.sample(&g, 10, &mut rng);
        let s = cgte_sampling::StarSample::observe(&g, &p, &nodes);
        assert!(bootstrap_star(&s, 50, 0.95, &mut rng, |_| None).is_none());
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn invalid_level_panics() {
        let (g, p, mut rng) = setup();
        let nodes = UniformIndependence.sample(&g, 10, &mut rng);
        let s = cgte_sampling::StarSample::observe(&g, &p, &nodes);
        let _ = bootstrap_star(&s, 10, 1.5, &mut rng, |_| Some(1.0));
    }

    /// A summary's fields as raw bits, so `-0.0` and `0.0` differ.
    fn bits(s: &Option<BootstrapSummary>) -> Option<(usize, [u64; 5])> {
        s.as_ref().map(|s| {
            let f = [s.mean, s.std_dev, s.ci.0, s.ci.1, s.level];
            (s.replicates, f.map(f64::to_bits))
        })
    }

    #[test]
    fn resample_records_match_the_materialized_wrappers() {
        let (g, p, mut rng) = setup();
        let p = with_empty_category(&p);
        let walk = cgte_sampling::RandomWalk::new();
        for n in [1, 60, 500] {
            let nodes = walk.sample(&g, n, &mut rng);
            let weighted = StarSample::observe_sampler(&g, &p, &nodes, &walk);
            for star in [weighted.with_unit_weights(), weighted] {
                let induced = star.to_induced(&g, &p);
                let mut records = ResampleRecords::from_star(&star);
                for opts in [
                    StarSizeOptions::default(),
                    StarSizeOptions {
                        model_based_mean_degree: true,
                    },
                ] {
                    for reps in [1, 25] {
                        let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
                        for c in 0..3 {
                            // Category 2 holds no node: star undefined,
                            // induced a signed zero.
                            let want = bootstrap_star(&star, reps, 0.9, &mut a, |s| {
                                star_size(s, c, 400.0, &opts)
                            });
                            let got =
                                records.bootstrap_star_size(c, 400.0, &opts, reps, 0.9, &mut b);
                            assert_eq!(bits(&got), bits(&want), "star n={n} c={c}");
                            let want = bootstrap_induced(&induced, reps, 0.9, &mut a, |s| {
                                induced_size(s, c, 400.0)
                            });
                            let got = records.bootstrap_induced_size(c, 400.0, reps, 0.9, &mut b);
                            assert_eq!(bits(&got), bits(&want), "induced n={n} c={c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn records_from_log_match_records_from_star() {
        let (g, p, mut rng) = setup();
        let walk = cgte_sampling::RandomWalk::new();
        let nodes = walk.sample(&g, 200, &mut rng);
        let star = StarSample::observe_sampler(&g, &p, &nodes, &walk);
        let log: Vec<(NodeId, f64)> = nodes
            .iter()
            .copied()
            .zip(star.weights().iter().copied())
            .collect();
        let ctx = ObservationContext::new(&g, &p);
        let unit = star.with_unit_weights();
        for (design, sample) in [(DesignKind::Weighted, &star), (DesignKind::Uniform, &unit)] {
            let mut from_log = ResampleRecords::from_log(&ctx, &log, design);
            let mut from_star = ResampleRecords::from_star(sample);
            assert_eq!(from_log.len(), 200);
            let (mut a, mut b) = (StdRng::seed_from_u64(4), StdRng::seed_from_u64(4));
            for c in 0..2 {
                let opts = StarSizeOptions::default();
                assert_eq!(
                    bits(&from_log.bootstrap_star_size(c, 400.0, &opts, 30, 0.95, &mut a)),
                    bits(&from_star.bootstrap_star_size(c, 400.0, &opts, 30, 0.95, &mut b)),
                );
                assert_eq!(
                    bits(&from_log.bootstrap_induced_size(c, 400.0, 30, 0.95, &mut a)),
                    bits(&from_star.bootstrap_induced_size(c, 400.0, 30, 0.95, &mut b)),
                );
            }
        }
    }

    #[test]
    fn empty_records_draw_nothing() {
        let (g, p, mut rng) = setup();
        let ctx = ObservationContext::new(&g, &p);
        let mut records = ResampleRecords::from_log(&ctx, &[], DesignKind::Weighted);
        assert_eq!(records.len(), 0);
        let before = rng.clone().gen::<u64>();
        let opts = StarSizeOptions::default();
        assert!(records
            .bootstrap_star_size(0, 1.0, &opts, 10, 0.9, &mut rng)
            .is_none());
        assert!(records
            .bootstrap_induced_size(0, 1.0, 10, 0.9, &mut rng)
            .is_none());
        assert_eq!(
            rng.gen::<u64>(),
            before,
            "an empty bootstrap consumed draws"
        );
    }

    #[test]
    fn constant_estimator_has_zero_variance() {
        let (g, p, mut rng) = setup();
        let nodes = UniformIndependence.sample(&g, 20, &mut rng);
        let s = cgte_sampling::StarSample::observe(&g, &p, &nodes);
        let sum = bootstrap_star(&s, 30, 0.95, &mut rng, |_| Some(7.0)).unwrap();
        assert_eq!(sum.mean, 7.0);
        assert_eq!(sum.std_dev, 0.0);
        assert_eq!(sum.ci, (7.0, 7.0));
    }
}
