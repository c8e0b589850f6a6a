//! §3.1 experiment — do community-based Sybil defenses work on realistic
//! topology?
//!
//! Every defense is evaluated twice: on the **wild** simulated graph
//! (Sybils created by snowball-sampling tools, integrated into the social
//! fabric) and on the **injected-cluster** synthetic graph the original
//! papers validated against (tight Sybil region, few attack edges). The
//! paper's claim is the contrast: high Sybil acceptance in the wild, low
//! on the synthetic graph.

use crate::runspec::RunSpec;
use crate::scenario::Ctx;
use crate::table::Table;
use osn_graph::{par, NodeId, TemporalGraph};
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use sybil_defense::common::injected_cluster_graph;
use sybil_defense::{
    evaluate_defense, ConductanceRanking, DefenseEvaluation, SumUp, SybilDefense, SybilGuard,
    SybilInfer, SybilLimit,
};

/// One defense's two evaluations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DefenseRow {
    /// Defense name.
    pub name: String,
    /// Acceptance/rejection rates on the wild simulated graph.
    pub wild: DefenseEvaluation,
    /// Rates on the injected-cluster synthetic graph.
    pub injected: DefenseEvaluation,
}

/// Result of the defenses experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Defenses {
    /// One row per defense.
    pub rows: Vec<DefenseRow>,
}

fn pick_active<R: Rng + RngExt + ?Sized>(
    g: &TemporalGraph,
    candidates: &[NodeId],
    min_degree: usize,
    count: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&n| g.degree(n) >= min_degree)
        .collect();
    pool.shuffle(rng);
    pool.truncate(count);
    pool
}

/// The five defenses, in the paper's (and the table's) order.
#[derive(Clone, Copy)]
enum Defense {
    SybilGuard,
    SybilLimit,
    SybilInfer,
    ConductanceRanking,
    SumUp,
}

const DEFENSES: [Defense; 5] = [
    Defense::SybilGuard,
    Defense::SybilLimit,
    Defense::SybilInfer,
    Defense::ConductanceRanking,
    Defense::SumUp,
];

const WILD: usize = 0;
const INJECTED: usize = 1;

/// The ten (defense, graph) evaluations, longest first so that the short
/// ones fill in around the long ones. Measured at `small`/seed 3, one
/// thread (medians of seven runs): SybilLimit on the wild graph ≈ 0.14 s;
/// SumUp, SybilInfer and SybilGuard there 0.027, 0.024 and 0.021 s;
/// SybilLimit on the injected graph ≈ 0.019 s; ConductanceRanking there
/// ≈ 0.009 s; the rest ≤ 0.003 s each.
const LONGEST_FIRST: [(Defense, usize); 10] = [
    (Defense::SybilLimit, WILD),
    (Defense::SumUp, WILD),
    (Defense::SybilInfer, WILD),
    (Defense::SybilGuard, WILD),
    (Defense::SybilLimit, INJECTED),
    (Defense::ConductanceRanking, INJECTED),
    (Defense::SybilInfer, INJECTED),
    (Defense::SybilGuard, INJECTED),
    (Defense::SumUp, INJECTED),
    (Defense::ConductanceRanking, WILD),
];

impl Defense {
    fn name(self) -> &'static str {
        match self {
            Defense::SybilGuard => "SybilGuard",
            Defense::SybilLimit => "SybilLimit",
            Defense::SybilInfer => "SybilInfer",
            Defense::ConductanceRanking => "ConductanceRanking",
            Defense::SumUp => "SumUp",
        }
    }
}

/// One graph of the experiment with its verifier, its suspect samples and
/// the defense parameters that differ between the two graphs.
struct Setting<'g> {
    g: &'g TemporalGraph,
    verifier: NodeId,
    sybils: Vec<NodeId>,
    honest: Vec<NodeId>,
    /// SybilGuard's route length (`None`: the protocol's own).
    route_len: Option<usize>,
    /// ConductanceRanking's smallest community.
    min_community: usize,
    /// The seeds of SybilGuard, SybilLimit and SybilInfer.
    seeds: [u64; 3],
}

impl Setting<'_> {
    /// Build `defense` on this graph and evaluate it. Every defense seeds
    /// its own RNG, so evaluations share no state and may run in any
    /// order, on any thread.
    fn evaluate(&self, defense: Defense, vote_budget: usize) -> DefenseEvaluation {
        let judge = |d: &dyn SybilDefense| {
            evaluate_defense(d, self.g, self.verifier, &self.sybils, &self.honest)
        };
        match defense {
            Defense::SybilGuard => judge(&SybilGuard::new(self.g, self.route_len, self.seeds[0])),
            Defense::SybilLimit => judge(&SybilLimit::new(self.g, self.seeds[1])),
            Defense::SybilInfer => judge(&SybilInfer::new(self.g, self.seeds[2])),
            Defense::ConductanceRanking => {
                let mut ranking = ConductanceRanking::new();
                ranking.min_community = self.min_community;
                judge(&ranking)
            }
            // SumUp's guarantee is aggregate (votes accepted per attack
            // edge), so it is evaluated as batch vote collection rather
            // than per-suspect.
            Defense::SumUp => {
                let mut votes = SumUp::new(vote_budget).collector(self.g, self.verifier);
                let mut count =
                    |voters: &[NodeId]| votes.collect_votes(voters).iter().filter(|&&a| a).count();
                DefenseEvaluation {
                    sybils_accepted: count(&self.sybils),
                    sybils_total: self.sybils.len(),
                    honest_rejected: self.honest.len() - count(&self.honest),
                    honest_total: self.honest.len(),
                }
            }
        }
    }
}

/// Run every defense on both graphs, with the suspect count per class
/// taken from the run's [`RunSpec::suspects`]. The suspects and the
/// injected graph are drawn first; the ten evaluations then run as
/// independent tasks on [`par::map_tasks`], and the rows are assembled in
/// the paper's order.
pub fn run(ctx: &Ctx, spec: &RunSpec) -> Defenses {
    let suspects = spec.suspects();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xDEF);
    // --- wild graph setup -------------------------------------------------
    let g = &ctx.out.graph;
    let wild_sybils = pick_active(g, &ctx.sybils, 5, suspects, &mut rng);
    let wild_honest = pick_active(g, &ctx.normals, 5, suspects, &mut rng);
    // Verifier: an honest user of solid but not extreme degree.
    let mut by_deg: Vec<NodeId> = ctx
        .normals
        .iter()
        .copied()
        .filter(|&n| g.degree(n) >= 10)
        .collect();
    by_deg.sort_by_key(|&n| g.degree(n));
    let wild = Setting {
        g,
        verifier: by_deg[by_deg.len() / 2],
        sybils: wild_sybils,
        honest: wild_honest,
        route_len: None,
        min_community: (ctx.normals.len() / 40).max(16),
        seeds: [ctx.seed ^ 1, ctx.seed ^ 3, ctx.seed ^ 5],
    };

    // --- injected-cluster setup -------------------------------------------
    let (inj, first_sybil) =
        injected_cluster_graph(3000, 300, 12, &mut StdRng::seed_from_u64(ctx.seed ^ 0x1213));
    let inj_sybil_ids: Vec<NodeId> = (0..300u32).map(|i| NodeId(first_sybil.0 + i)).collect();
    let inj_honest_ids: Vec<NodeId> = (0..3000u32).map(NodeId).collect();
    let injected = Setting {
        g: &inj,
        verifier: NodeId(0),
        sybils: pick_active(&inj, &inj_sybil_ids, 1, suspects, &mut rng),
        honest: pick_active(&inj, &inj_honest_ids, 3, suspects, &mut rng),
        // A route length that stays mostly inside the honest region (the
        // protocol's own small-w regime).
        route_len: Some(60),
        min_community: 75, // 3000 honest / 40
        seeds: [ctx.seed ^ 2, ctx.seed ^ 4, ctx.seed ^ 6],
    };

    let settings = [&wild, &injected];
    let evals = par::map_tasks(LONGEST_FIRST.len(), |task| {
        let (defense, graph) = LONGEST_FIRST[task];
        settings[graph].evaluate(defense, suspects * 2)
    });
    let mut grid = [[DefenseEvaluation::default(); 2]; DEFENSES.len()];
    for (&(defense, graph), eval) in LONGEST_FIRST.iter().zip(evals) {
        grid[defense as usize][graph] = eval;
    }
    let rows = DEFENSES
        .iter()
        .zip(grid)
        .map(|(defense, [wild, injected])| DefenseRow {
            name: defense.name().to_string(),
            wild,
            injected,
        })
        .collect();
    Defenses { rows }
}

impl Defenses {
    /// Mean Sybil acceptance across defenses on the wild graph.
    pub fn mean_wild_acceptance(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.wild.sybil_acceptance_rate())
            .sum::<f64>()
            / self.rows.len().max(1) as f64
    }

    /// Mean Sybil acceptance across defenses on the injected graph.
    pub fn mean_injected_acceptance(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.injected.sybil_acceptance_rate())
            .sum::<f64>()
            / self.rows.len().max(1) as f64
    }

    /// Render the comparison table.
    pub fn render(&self) -> String {
        let pct = |x: f64| format!("{:.0}%", 100.0 * x);
        let mut t = Table::new([
            "Defense",
            "Wild: Sybils accepted",
            "Wild: honest rejected",
            "Injected: Sybils accepted",
            "Injected: honest rejected",
        ]);
        for r in &self.rows {
            t.add_row([
                r.name.clone(),
                pct(r.wild.sybil_acceptance_rate()),
                pct(r.wild.honest_rejection_rate()),
                pct(r.injected.sybil_acceptance_rate()),
                pct(r.injected.honest_rejection_rate()),
            ]);
        }
        let mut out =
            String::from("Defense evaluation — wild topology vs injected clusters (§3.1)\n\n");
        out.push_str(&t.render());
        out.push_str(&format!(
            "\nmean Sybil acceptance: wild {:.0}% vs injected {:.0}% — \
             integrated Sybils defeat community-based detection\n",
            100.0 * self.mean_wild_acceptance(),
            100.0 * self.mean_injected_acceptance()
        ));
        out.push_str(
            "note: a defense also fails by rejecting honest users wholesale \
             (conductance ranking finds no community valley in the wild graph, \
             so its 'community' shrinks to the verifier's neighborhood)\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn wild_topology_defeats_defenses() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let d = run(ctx, &RunSpec::builder().scale(Scale::Tiny).build());
        assert_eq!(d.rows.len(), 5);
        assert!(
            d.mean_wild_acceptance() > d.mean_injected_acceptance() + 0.15,
            "wild {} vs injected {}",
            d.mean_wild_acceptance(),
            d.mean_injected_acceptance()
        );
        assert!(d.render().contains("SybilGuard"));
        // Every verdict count, byte for byte (`repro --scale tiny --seed 11
        // defenses` writes this file).
        assert_eq!(
            serde_json::to_string_pretty(&d).expect("counts serialize"),
            include_str!("../tests/golden/defenses_tiny_seed11.json"),
            "§3.1 verdicts moved"
        );
    }

    /// Run `body` with `RENREN_THREADS` pinned, restoring the prior value
    /// even if `body` panics. Env vars are process-global, so tests
    /// touching them share one lock (a panicking test poisons it: the
    /// guard protects no data, so it is taken anyway).
    fn with_threads_env(threads: &str, body: impl FnOnce()) {
        use std::sync::{Mutex, PoisonError};
        struct Restore(Option<String>);
        impl Drop for Restore {
            fn drop(&mut self) {
                match self.0.take() {
                    Some(v) => std::env::set_var(par::THREADS_ENV, v),
                    None => std::env::remove_var(par::THREADS_ENV),
                }
            }
        }
        static ENV_LOCK: Mutex<()> = Mutex::new(());
        let _guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let _restore = Restore(std::env::var(par::THREADS_ENV).ok());
        std::env::set_var(par::THREADS_ENV, threads);
        body();
    }

    #[test]
    fn verdicts_do_not_depend_on_the_thread_count() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let spec = RunSpec::builder().scale(Scale::Tiny).build();
        // At 3 threads there are more workers than long tasks.
        for threads in ["1", "2", "3"] {
            with_threads_env(threads, || {
                assert_eq!(
                    serde_json::to_string_pretty(&run(ctx, &spec)).expect("counts serialize"),
                    include_str!("../tests/golden/defenses_tiny_seed11.json"),
                    "§3.1 verdicts moved at RENREN_THREADS={threads}"
                );
            });
        }
    }
}
