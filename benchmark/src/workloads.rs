//! The four workloads: how each input is made from the seed, what one
//! job does, and the bytes its report must equal.
//!
//! Every job is "consume a request log, produce a report whose bytes are
//! checked". The program under test receives only the generated input:
//! no crate under `crates/` knows it is being benchmarked.

use crate::procfs;
use osn_sim::scale::{generate, ScaleConfig};
use osn_sim::stream::EpochBatches;
use osn_sim::{simulate, SimConfig, SimOutput};
use std::path::{Path, PathBuf};
use std::time::Instant;
use sybil_core::realtime::RealtimeConfig;
use sybil_core::ThresholdClassifier;
use sybil_repro::{Ctx, RunSpec, Scale};
use sybil_serve::fault::FaultKind;
use sybil_serve::{ServeConfig, ServeError, ServeSession};
use sybil_store::StorePlane;

/// Threads the crates' parallel maps may use, and shards of every
/// end-to-end serve job. Fixed — not derived from `nproc` — so numbers
/// from different boxes describe the same job.
pub const THREADS: usize = 2;

/// Barrier cadence of every serve job, in simulated hours.
pub const EPOCH_HOURS: u64 = 48;

/// Accounts in the synthetic scale stream.
///
/// The paper's service ran at Renren scale and the repo's own sweep goes
/// to 5M accounts, but one benchmark run has to set up several times and
/// repeat its job often enough for a steady median inside a fixed
/// measuring time; 250k accounts (1.87M events, ≈1 s per job, ≈2.4 s for
/// the durable job) is the largest size that leaves the durable workload
/// its eight repetitions.
const SCALE_ACCOUNTS: usize = 250_000;
/// `--quick` size: a smoke test of the harness, not a measurement.
const QUICK_SCALE_ACCOUNTS: usize = 20_000;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Scan-bound serving: the synthetic scale stream, few checks per event.
    Scan,
    /// Check-bound serving: the behavioural simulator's log.
    Checks,
    /// The scan stream served through a `StorePlane`, killed and restarted.
    Durable,
    /// The offline reproduction: every figure and table on the simulated graph.
    PaperBatch,
}

impl Workload {
    /// Every workload with its `BENCHMARK.json` name.
    pub const ALL: [(&'static str, Workload); 4] = [
        ("scan_250k", Workload::Scan),
        ("checks_sim", Workload::Checks),
        ("durable_250k", Workload::Durable),
        ("paper_batch", Workload::PaperBatch),
    ];

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// The `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is in ALL")
    }

    /// The workload's input and detector for `seed`.
    pub fn input(self, seed: u64, quick: bool) -> (SimOutput, RealtimeConfig) {
        match self {
            Workload::Scan | Workload::Durable => scale_input(seed, quick),
            Workload::Checks | Workload::PaperBatch => sim_input(seed, quick),
        }
    }
}

fn adaptive(max_out_ratio: f64, min_freq: f64) -> RealtimeConfig {
    RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio,
            min_freq,
            max_cc: f64::INFINITY,
        },
        adaptive: true,
        ..RealtimeConfig::default()
    }
}

/// The scan stream and its detector. `scale_sweep`'s rule with the
/// frequency threshold lowered from 5 to 4: at 250k accounts the original
/// flags a single account, and a report with one detection checks little.
/// At 4 the stream yields ≈170 detections and still under one check per
/// thousand events, which is what makes the workload scan-bound.
fn scale_input(seed: u64, quick: bool) -> (SimOutput, RealtimeConfig) {
    let accounts = if quick {
        QUICK_SCALE_ACCOUNTS
    } else {
        SCALE_ACCOUNTS
    };
    (
        generate(&ScaleConfig::at(accounts, seed)),
        adaptive(0.4, 4.0),
    )
}

/// The behavioural simulation at its `small` scale (8k normal accounts,
/// 250 Sybils, ≈550k events) with `serve_throughput`'s detector: most of
/// a job's time goes to per-check feature work, and two shards really are
/// faster than one.
fn sim_input(seed: u64, quick: bool) -> (SimOutput, RealtimeConfig) {
    let cfg = if quick {
        SimConfig::tiny(seed)
    } else {
        SimConfig::small(seed)
    };
    (simulate(cfg), adaptive(0.5, 15.0))
}

/// Events and epochs in `out`'s merged stream, by draining it the way the
/// coordinator does.
pub fn drain_stream(out: &SimOutput) -> (usize, u64) {
    let mut batches = EpochBatches::new(&out.log, EPOCH_HOURS * 3600);
    let (mut events, mut epochs) = (0, 0);
    while let Some((batch, _)) = batches.next_epoch() {
        events += batch.len();
        epochs += 1;
    }
    (events, epochs)
}

/// A serve workload, set up: the log, the engine configuration, and the
/// sequential replay's report as the reference bytes.
pub struct ServeInput {
    /// The generated request log (and ground truth).
    pub out: SimOutput,
    /// Detector configuration shared by replay and serve.
    pub detect: RealtimeConfig,
    /// Merged stream events in the log.
    pub events: usize,
    /// Epochs the stream splits into.
    pub epochs: u64,
    /// `serde_json::to_string(&replay(&out, &detect))`.
    pub reference: String,
}

impl ServeInput {
    /// The engine configuration at `shards` shards.
    pub fn cfg(&self, shards: usize) -> ServeConfig {
        ServeConfig {
            shards,
            epoch_hours: EPOCH_HOURS,
            detect: self.detect,
            rotate_floor: 0,
        }
    }

    /// The `scan` / `checks` job: one plain session.
    pub fn plain_job(&self) -> Result<String, String> {
        report_bytes(ServeSession::new(self.cfg(THREADS)).run(&self.out))
    }

    /// One untraced, timed job: [`durable_job`](Self::durable_job) in a
    /// fresh directory (removed after the clock stops) or
    /// [`plain_job`](Self::plain_job).
    pub fn job(&self, durable: bool, scratch: &mut ScratchDirs) -> TimedJob {
        if !durable {
            return timed_job(|| self.plain_job());
        }
        let dir = scratch.fresh();
        let job = timed_job(|| self.durable_job(&dir));
        scratch.remove(&dir);
        job
    }

    /// The epoch the `durable` job's first leg is killed at.
    pub fn kill_epoch(&self) -> u64 {
        self.epochs * 3 / 4
    }

    /// The `durable` job: serve through a fresh store in `dir` until the
    /// armed kill fires, reopen the store, and serve to completion. The
    /// first leg must fail with exactly `FaultKind::Crash`.
    pub fn durable_job(&self, dir: &Path) -> Result<String, String> {
        let mut doomed = open_store(dir)?.kill_at_epoch(self.kill_epoch());
        expect_crash(
            ServeSession::new(self.cfg(THREADS))
                .store(&mut doomed)
                .run(&self.out),
        )?;
        drop(doomed);
        let mut revived = open_store(dir)?;
        report_bytes(
            ServeSession::new(self.cfg(THREADS))
                .store(&mut revived)
                .run(&self.out),
        )
    }
}

/// One job's report and cost, by an outer clock around the whole job —
/// session state allocation and drop included.
pub struct TimedJob {
    /// The report bytes, or why there are none.
    pub report: Result<String, String>,
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds (user + system, all threads).
    pub cpu_s: f64,
}

fn timed_job(job: impl FnOnce() -> Result<String, String>) -> TimedJob {
    let cpu0 = procfs::cpu_seconds();
    let t0 = Instant::now();
    let report = job();
    TimedJob {
        report,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: procfs::cpu_seconds() - cpu0,
    }
}

/// Open (or create) the store under `dir`.
pub fn open_store(dir: &Path) -> Result<StorePlane, String> {
    StorePlane::open(dir).map_err(|e| format!("store {}: {e}", dir.display()))
}

/// A finished session's report as the bytes that get compared.
pub fn report_bytes(
    outcome: Result<sybil_serve::ServeOutcome, ServeError>,
) -> Result<String, String> {
    let outcome = outcome.map_err(|e| format!("serve failed: {e}"))?;
    serde_json::to_string(&outcome.report).map_err(|e| e.to_string())
}

/// The killed leg's required ending.
pub fn expect_crash(outcome: Result<sybil_serve::ServeOutcome, ServeError>) -> Result<(), String> {
    match outcome {
        Err(ServeError::Chaos(c)) if c.fault_kind == FaultKind::Crash => Ok(()),
        Err(e) => Err(format!("killed leg failed with {e}, not a crash")),
        Ok(_) => Err("killed leg ran to completion".to_string()),
    }
}

/// Store directories live under `benchmark/out/` (the benchmark may write
/// only inside its checkout), carry the pid so concurrent runs cannot
/// collide, and are removed outside the timed region and on drop.
pub struct ScratchDirs {
    base: PathBuf,
    next: usize,
}

impl ScratchDirs {
    /// An empty scratch area for this process.
    pub fn new() -> ScratchDirs {
        let base = PathBuf::from(format!("benchmark/out/store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        ScratchDirs { base, next: 0 }
    }

    /// A path no job has used yet.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.base.join(format!("job{}", self.next))
    }

    /// Remove a job's directory.
    pub fn remove(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for ScratchDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

/// The `paper_batch` workload, set up: the simulation wrapped in the
/// reproduction harness's context.
pub struct BatchInput {
    /// Simulation plus the derived structures every experiment shares.
    pub ctx: Ctx,
    /// Scale-derived experiment parameters (sample sizes, trial counts).
    pub spec: RunSpec,
    /// Merged stream events in the simulation's log.
    pub events: usize,
}

/// The experiment groups of one `paper_batch` job, in execution order,
/// each paired with the per-layer metric its span feeds.
pub const BATCH_GROUPS: [&str; 7] = [
    "sybil-repro.figs",
    "sybil-repro.table1",
    "sybil-repro.structure",
    "sybil-repro.zoo",
    "sybil-repro.mixing",
    "sybil-repro.reach",
    "sybil-repro.defenses",
];

impl BatchInput {
    /// Wrap a simulation.
    pub fn new(out: SimOutput, seed: u64, quick: bool) -> BatchInput {
        let scale = if quick { Scale::Tiny } else { Scale::Small };
        let (events, _) = drain_stream(&out);
        BatchInput {
            ctx: Ctx::from_output(out, scale, seed),
            spec: RunSpec::builder().scale(scale).seed(seed).build(),
            events,
        }
    }

    /// One experiment group: run it, serialize and render every result
    /// into `report`.
    pub fn run_group(&self, group: &str, report: &mut String) {
        use sybil_repro::*;
        let ctx = &self.ctx;
        let per_class = self.spec.per_class();
        macro_rules! emit {
            ($($result:expr),+ $(,)?) => {{$(
                let r = $result;
                report.push_str(&serde_json::to_string(&r).expect("result serializes"));
                report.push('\n');
                report.push_str(&r.render());
            )+}};
        }
        match group {
            "sybil-repro.figs" => emit!(
                fig1::run(ctx, per_class),
                fig2::run(ctx, per_class),
                fig3::run(ctx, per_class),
                fig4::run(ctx, per_class),
            ),
            "sybil-repro.table1" => emit!(table1::run(ctx, per_class, 5)),
            "sybil-repro.structure" => emit!(
                fig5::run(ctx),
                fig6::run(ctx),
                table2::run(ctx),
                fig7::run(ctx),
                fig8::run(ctx, 1000),
                fig9::run(ctx),
                table3::run(ctx),
            ),
            "sybil-repro.zoo" => emit!(zoo::run(ctx, per_class, 5)),
            "sybil-repro.mixing" => emit!(mixing::run(ctx)),
            "sybil-repro.reach" => emit!(reach::run(ctx, self.spec.reach_trials())),
            "sybil-repro.defenses" => emit!(defenses::run(ctx, &self.spec)),
            other => panic!("no experiment group {other:?}"),
        }
    }

    /// The `paper_batch` job: every group, one report.
    pub fn job(&self) -> TimedJob {
        timed_job(|| {
            let mut report = String::new();
            for group in BATCH_GROUPS {
                self.run_group(group, &mut report);
            }
            Ok(report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for (name, w) in Workload::ALL {
            assert_eq!(Workload::parse(name), Some(w));
            assert_eq!(w.name(), name);
        }
        assert_eq!(Workload::parse("scan_1m"), None);
    }

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        let (a, _) = Workload::Scan.input(5, true);
        let (b, _) = Workload::Durable.input(5, true);
        let (c, _) = Workload::Scan.input(6, true);
        assert_eq!(a.log.records(), b.log.records());
        assert_ne!(a.log.records(), c.log.records());
        assert_eq!(drain_stream(&a), drain_stream(&b));
    }
}
