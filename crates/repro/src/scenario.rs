//! Canonical reproduction scenarios and the shared experiment context.

use osn_graph::components::{self, Component};
use osn_graph::NodeId;
use osn_sim::{simulate, SimConfig, SimOutput};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use sybil_features::dataset::GroundTruth;

/// Which scale to reproduce at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// ~1k accounts; seconds. Shapes hold loosely.
    Tiny,
    /// ~8k accounts; the default for local runs and CI.
    Small,
    /// ~103k accounts; the scaled-down-Renren headline run.
    Paper,
    /// 1M accounts from the synthetic scale generator
    /// (`osn_sim::scale`), not the behavioural simulator. Only the
    /// `serve` experiment runs at this scale: the workload exists to
    /// exercise the serving engine's million-account path, and the
    /// figure/table experiments assume simulator-shaped ground truth.
    Xl,
}

impl Scale {
    /// The simulation configuration for this scale, or `None` for
    /// [`Scale::Xl`], whose dataset comes from the scale generator
    /// rather than the simulator (see [`Ctx::build`]).
    pub fn config(self, seed: u64) -> Option<SimConfig> {
        match self {
            Scale::Tiny => Some(SimConfig::tiny(seed)),
            Scale::Small => Some(SimConfig::small(seed)),
            Scale::Paper => Some(SimConfig::paper(seed)),
            Scale::Xl => None,
        }
    }

    /// Parse from CLI text.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            "xl" => Some(Scale::Xl),
            _ => None,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scale::Tiny => write!(f, "tiny"),
            Scale::Small => write!(f, "small"),
            Scale::Paper => write!(f, "paper"),
            Scale::Xl => write!(f, "xl"),
        }
    }
}

/// Shared context: one simulation run plus cached derived structures every
/// experiment needs.
pub struct Ctx {
    /// The simulated dataset.
    pub out: SimOutput,
    /// Scale used.
    pub scale: Scale,
    /// Seed used.
    pub seed: u64,
    /// All Sybil node ids.
    pub sybils: Vec<NodeId>,
    /// All normal node ids.
    pub normals: Vec<NodeId>,
    /// Connected components of the Sybil-induced subgraph, largest first,
    /// singletons excluded (§3.3's "Sybils with at least one Sybil edge").
    pub sybil_components: Vec<Component>,
    /// The first ground-truth sample drawn and its `per_class`: the sample
    /// is a pure function of `out`, `seed` and `per_class`, and most
    /// experiments start from it (see `fig1::ground_truth_sample`).
    pub(crate) sample: OnceLock<(usize, GroundTruth)>,
}

impl Ctx {
    /// Run the simulation for `scale`/`seed` and precompute shared data.
    /// [`Scale::Xl`] has no simulator configuration; its dataset comes
    /// from the synthetic scale generator at one million accounts.
    pub fn build(scale: Scale, seed: u64) -> Ctx {
        let out = match scale.config(seed) {
            Some(cfg) => simulate(cfg),
            None => osn_sim::scale::generate(&osn_sim::scale::ScaleConfig::at(1_000_000, seed)),
        };
        Self::from_output(out, scale, seed)
    }

    /// Wrap an existing simulation output.
    pub fn from_output(out: SimOutput, scale: Scale, seed: u64) -> Ctx {
        let sybils = out.sybil_ids();
        let normals = out.normal_ids();
        let is_sybil = |n: NodeId| out.is_sybil(n);
        let mut comps = components::components_of_subset(&out.graph, is_sybil);
        comps.retain(|c| c.len() > 1);
        Ctx {
            out,
            scale,
            seed,
            sybils,
            normals,
            sybil_components: comps,
            sample: OnceLock::new(),
        }
    }

    /// The giant Sybil component, if any Sybil edges exist.
    pub fn giant_component(&self) -> Option<&Component> {
        self.sybil_components.first()
    }
}

#[cfg(test)]
impl Ctx {
    /// The context of `scale`/`seed`, built once per test binary and
    /// shared by every unit test that asks for it. Sharing is sound only
    /// because a shared `Ctx` is read-only to its callers: the one state
    /// it gains after it is built is its ground-truth sample memo, which
    /// no caller can observe (the `reach_shape` integration test
    /// `ground_truth_sample_memo_is_invisible` pins that). Different keys
    /// build in parallel; callers of one key wait for its single build.
    pub(crate) fn shared(scale: Scale, seed: u64) -> &'static Ctx {
        use std::sync::{Mutex, PoisonError};
        type Cells = Vec<((Scale, u64), &'static OnceLock<Ctx>)>;
        static CELLS: Mutex<Cells> = Mutex::new(Vec::new());
        let cell = {
            let mut cells = CELLS.lock().unwrap_or_else(PoisonError::into_inner);
            match cells.iter().find(|(key, _)| *key == (scale, seed)) {
                Some(&(_, cell)) => cell,
                None => {
                    let cell: &'static OnceLock<Ctx> = Box::leak(Box::default());
                    cells.push(((scale, seed), cell));
                    cell
                }
            }
        };
        cell.get_or_init(|| Ctx::build(scale, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_roundtrip() {
        for s in [Scale::Tiny, Scale::Small, Scale::Paper, Scale::Xl] {
            assert_eq!(Scale::parse(&s.to_string()), Some(s));
        }
        assert_eq!(Scale::parse("nope"), None);
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        // Only the simulated scales have a simulator configuration.
        assert!(Scale::Xl.config(1).is_none());
        assert!(Scale::Tiny.config(1).is_some());
    }

    #[test]
    fn ctx_partitions_population() {
        let ctx = Ctx::build(Scale::Tiny, 5);
        assert_eq!(ctx.sybils.len() + ctx.normals.len(), ctx.out.accounts.len());
        // Components exclude singletons.
        for c in &ctx.sybil_components {
            assert!(c.len() >= 2);
            for &n in &c.nodes {
                assert!(ctx.out.is_sybil(n));
            }
        }
        // Largest first.
        for w in ctx.sybil_components.windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
    }
}
