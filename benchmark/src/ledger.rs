//! The traced run: the per-layer ledger of one workload.
//!
//! Layers are the crates. Everything here is measured from outside, around
//! public calls: an `Instant` around the call, the engine's own
//! `ServeStats` through an injected clock, exact counts through a
//! `sybil_obs::Registry`, and the coordinator's hook times through
//! [`TimedPlane`]. Spans go to `benchmark/out/trace-<workload>.json`.
//!
//! A workload measures the layers its job enters. For a per-layer time it
//! never enters it records an empty span, so the ledger shows the
//! instrument's floor (tens of nanoseconds) where a layer does no work.

use crate::plane::{self, HookSpan, NoopPlane, TimedPlane};
use crate::run::{Outcome, RunArgs};
use crate::spec::Spec;
use crate::stats::paired_overhead_pct;
use crate::trace::Tracer;
use crate::workloads::{
    drain_stream, expect_crash, open_store, report_bytes, BatchInput, ScratchDirs, ServeInput,
    TimedJob, Workload, BATCH_GROUPS, THREADS,
};
use osn_graph::{
    clustering, components, CsrSnapshot, MergeScratch, NodeId, TemporalGraph, Timestamp,
};
use osn_sim::SimOutput;
use std::path::Path;
use sybil_core::realtime::{replay_observed, RealtimeConfig};
use sybil_defense::{
    evaluate_defense, ConductanceRanking, SumUp, SybilDefense, SybilGuard, SybilInfer, SybilLimit,
};
use sybil_features::FeatureExtractor;
use sybil_obs::{MetricValue, Registry};
use sybil_serve::fault::FaultPlane;
use sybil_serve::{ServeError, ServeOutcome, ServeSession, ServeStats};
use sybil_store::format::{decode_checkpoint, encode_checkpoint};

/// The per-layer metric each timed store hook feeds.
const STORE_HOOKS: [(&str, &str); 5] = [
    ("sybil-store.journal_append_s", plane::EPOCH_BEGIN),
    ("sybil-store.commit_s", plane::EPOCH_COMMIT),
    ("sybil-store.checkpoint_s", plane::CHECKPOINT),
    ("sybil-store.resume_load_s", plane::LOAD_RESUME),
    ("sybil-store.run_end_s", plane::RUN_END),
];

/// One traced run in progress.
struct Ledger {
    tracer: Tracer,
    outcome: Outcome,
    /// Repetitions of every measured leg.
    reps: usize,
}

/// The traced run of `args.workload`. `spec` names the per-layer metrics
/// every workload must report.
pub fn traced(args: &RunArgs, spec: &Spec) -> Outcome {
    let mut ledger = Ledger {
        tracer: Tracer::new(args.workload.name()),
        outcome: Outcome::default(),
        // A sixth of the measuring time's seconds, so that a traced run
        // takes about as long as an untraced one.
        reps: if args.quick {
            1
        } else {
            ((args.seconds / 6.0) as usize).max(2)
        },
    };
    let mut scratch = ScratchDirs::new();
    match args.workload {
        Workload::Scan | Workload::Checks => {
            let input = ledger.serve_setup(args);
            ledger.serve_ledger(&input, &mut scratch);
        }
        Workload::Durable => {
            let input = ledger.serve_setup(args);
            ledger.durable_ledger(&input, &mut scratch);
        }
        Workload::PaperBatch => ledger.batch_ledger(args),
    }
    ledger.floor_unentered_layers(spec);
    ledger.write_spans(args.workload);
    ledger.outcome
}

/// A session through a timestamping wrapper.
struct Leg {
    result: Result<ServeOutcome, ServeError>,
    wall_s: f64,
    hooks: Vec<HookSpan>,
}

/// Serve `input` at the end-to-end shard count through a [`TimedPlane`]
/// over `plane`, inside a span named `name` that adopts the hook spans.
fn traced_leg<P: FaultPlane>(
    tr: &mut Tracer,
    name: &str,
    input: &ServeInput,
    plane: &mut P,
    clocked: bool,
) -> Leg {
    let origin = tr.origin();
    let clock = move || origin.elapsed().as_secs_f64();
    let mut timed = TimedPlane::new(plane, origin);
    let (result, wall_s) = tr.span(name, |tr| {
        let session = ServeSession::new(input.cfg(THREADS)).plane(&mut timed);
        let result = match clocked {
            true => session.clock(&clock).run(&input.out),
            false => session.run(&input.out),
        };
        tr.adopt(timed.hooks.iter().copied());
        result
    });
    Leg {
        result,
        wall_s,
        hooks: timed.hooks,
    }
}

impl Ledger {
    /// Time `f` in a span named `name`.
    fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.tracer.span(name, |_| f())
    }

    /// Record by what percentage `with_s` exceeds `without_s`.
    fn put_overhead(&mut self, name: &str, with_s: f64, without_s: f64) {
        self.outcome
            .put(name, (with_s - without_s) / without_s * 100.0);
    }

    /// Input generation and stream pull, the set-up steps every workload
    /// shares, one span each.
    fn input(&mut self, args: &RunArgs) -> (SimOutput, RealtimeConfig, usize, u64) {
        let ((out, detect), generate_s) = self.timed("osn-sim.generate", || {
            args.workload.input(args.seed, args.quick)
        });
        let ((events, epochs), pull_s) = self.timed("osn-sim.stream_pull", || drain_stream(&out));
        let o = &mut self.outcome;
        o.put("osn-sim.generate_s", generate_s);
        o.put("osn-sim.stream_pull_s", pull_s);
        o.put("osn-sim.stream_events", events as f64);
        o.put("osn-sim.stream_epochs", epochs as f64);
        (out, detect, events, epochs)
    }

    /// Set-up of a serve workload; the oracle replay also yields the
    /// exact per-run counts.
    fn serve_setup(&mut self, args: &RunArgs) -> ServeInput {
        let (out, detect, events, epochs) = self.input(args);
        let mut reg = Registry::new();
        let (report, replay_s) = self.timed("sybil-core.replay", || {
            replay_observed(&out, &detect, &mut reg, None)
        });
        self.outcome.put("sybil-core.replay_s", replay_s);
        let logical = reg.snapshot().logical;
        for counter in [
            "checks_run",
            "features_computed",
            "detections",
            "feedback_applied",
        ] {
            let count = match logical.get(counter) {
                Some(MetricValue::Count(n)) => *n as f64,
                other => panic!("replay_observed exports {counter} as a count, got {other:?}"),
            };
            self.outcome.put(&format!("sybil-core.{counter}"), count);
        }
        ServeInput {
            reference: serde_json::to_string(&report).expect("report serializes"),
            out,
            detect,
            events,
            epochs,
        }
    }

    /// `reps` untraced jobs: the baseline the traced job's overhead is
    /// taken against, and the CPU-per-wall ratio of the job as users run
    /// it. Returns the median wall seconds.
    fn untraced_jobs(
        &mut self,
        cpu_over_wall: &str,
        reference: &str,
        mut job: impl FnMut() -> TimedJob,
    ) -> f64 {
        let (mut wall, mut ratio) = (Vec::new(), Vec::new());
        for rep in 0..self.reps {
            let (j, _) = self.tracer.rep_span("untraced.job", rep, |_| job());
            self.outcome.check(&j.report, reference);
            wall.push(j.wall_s);
            ratio.push(j.cpu_s / j.wall_s);
        }
        self.outcome.put_summary(cpu_over_wall, &ratio);
        self.outcome.summarize("untraced.job_s", &wall)
    }

    /// One clocked plain session at `shards` shards, checked.
    fn clocked_run(&mut self, input: &ServeInput, shards: usize, rep: usize) -> (f64, ServeStats) {
        let origin = self.tracer.origin();
        let clock = move || origin.elapsed().as_secs_f64();
        let name = format!("sybil-serve.run_shards{shards}");
        let (result, outer_s) = self.tracer.rep_span(&name, rep, |_| {
            ServeSession::new(input.cfg(shards))
                .clock(&clock)
                .run(&input.out)
        });
        let stats = result.as_ref().map(|o| o.stats.clone()).unwrap_or_default();
        self.outcome.check(&report_bytes(result), &input.reference);
        (outer_s, stats)
    }

    /// The `scan` / `checks` ledger.
    fn serve_ledger(&mut self, input: &ServeInput, scratch: &mut ScratchDirs) {
        let untraced_s = self.untraced_jobs("sybil-serve.cpu_over_wall", &input.reference, || {
            input.job(false, scratch)
        });

        // Plain sessions at 1, 2 and 8 shards with the engine's clock attached.
        let (mut run_s, mut busy_sum) = ([0.0; 3], [0.0; 3]);
        for (i, shards) in [1usize, 2, 8].into_iter().enumerate() {
            let (mut outer, mut busy, mut path, mut coord, mut overhead, mut skew) =
                (vec![], vec![], vec![], vec![], vec![], vec![]);
            for rep in 0..self.reps {
                let (outer_s, stats) = self.clocked_run(input, shards, rep);
                let sum: f64 = stats.shard_busy_s.iter().sum();
                let max = stats.shard_busy_s.iter().copied().fold(0.0, f64::max);
                outer.push(outer_s);
                busy.push(sum);
                path.push(stats.critical_path_s);
                coord.push(stats.wall_s - sum);
                overhead.push(outer_s - stats.wall_s);
                skew.push(max / (sum / shards as f64));
            }
            let o = &mut self.outcome;
            run_s[i] = o.put_summary(&format!("sybil-serve.run_s_shards{shards}"), &outer);
            busy_sum[i] = match shards {
                1 => o.put_summary("sybil-serve.shard_busy_s_shards1", &busy),
                _ => o.put_summary(
                    &format!("sybil-serve.shard_busy_sum_s_shards{shards}"),
                    &busy,
                ),
            };
            if shards == 1 {
                // With one shard the coordinator and the shard take turns
                // on one timeline, so wall minus busy is exactly the
                // coordinator's share.
                o.put_summary("sybil-serve.coordinator_s", &coord);
                o.put_summary("sybil-serve.session_overhead_s", &overhead);
            }
            if shards == 8 {
                // The critical path is a model (coordinator plus slowest
                // shard per epoch), kept as context for the old
                // BENCH_*.json files; nothing gates on it.
                o.put_summary("sybil-serve.critical_path_s_shards8", &path);
                o.put_summary("sybil-serve.busy_skew_shards8", &skew);
            }
        }
        let replay_s = self.outcome.metrics["sybil-core.replay_s"];
        let o = &mut self.outcome;
        o.put(
            "sybil-serve.work_amplification_shards8",
            busy_sum[2] / busy_sum[0],
        );
        o.put("sybil-serve.vs_replay_ratio", run_s[0] / replay_s);

        // The traced job: the end-to-end job with the clock attached and
        // every coordinator hook timestamped over an inert, enabled plane.
        let (mut traced, mut latencies, mut worst) = (vec![], vec![], vec![]);
        let mut hook_s: [Vec<f64>; STORE_HOOKS.len()] = Default::default();
        for rep in 0..self.reps {
            let (leg, job_s) = self.tracer.rep_span("job", rep, |tr| {
                traced_leg(tr, "sybil-serve.session", input, &mut NoopPlane, true)
            });
            self.outcome
                .check(&report_bytes(leg.result), &input.reference);
            traced.push(job_s);
            let per_epoch = plane::epoch_latencies(&leg.hooks);
            worst.push(per_epoch.iter().copied().fold(0.0, f64::max) * 1e3);
            latencies.extend(per_epoch.iter().map(|s| s * 1e3));
            for (samples, (_, hook)) in hook_s.iter_mut().zip(STORE_HOOKS) {
                samples.extend(plane::total(&leg.hooks, hook));
            }
        }
        let o = &mut self.outcome;
        o.put("sybil-serve.epochs", (latencies.len() / self.reps) as f64);
        o.put_summary("sybil-serve.epoch_p50_ms", &latencies);
        o.put_summary("sybil-serve.epoch_max_ms", &worst);
        // An inert plane is never asked to checkpoint; a hook that was
        // not called has no time to report.
        for (samples, (metric, _)) in hook_s.iter().zip(STORE_HOOKS) {
            if !samples.is_empty() {
                o.put_summary(metric, samples);
            }
        }
        let traced_s = o.summarize("traced.job_s", &traced);
        self.put_overhead("trace_overhead_pct", traced_s, untraced_s);

        // Metrics registry on vs off, order alternated within each pair.
        let mut pairs = Vec::new();
        for rep in 0..self.reps {
            let mut legs = [0.0; 2];
            for leg in if rep % 2 == 0 { [0, 1] } else { [1, 0] } {
                let mut reg = Registry::new();
                let name = ["sybil-serve.obs_off", "sybil-serve.obs_on"][leg];
                let (result, s) = self.tracer.rep_span(name, rep, |_| {
                    let session = ServeSession::new(input.cfg(THREADS));
                    match leg {
                        0 => session.run(&input.out),
                        _ => session.metrics(&mut reg).run(&input.out),
                    }
                });
                self.outcome.check(&report_bytes(result), &input.reference);
                legs[leg] = s;
            }
            pairs.push((legs[0], legs[1]));
        }
        self.outcome
            .put_summary("sybil-serve.obs_overhead_pct", &paired_overhead_pct(&pairs));

        let edges = friendship_edges(&input.out);
        self.merge_delta_probe(input.out.accounts.len(), &edges);
    }

    /// The `durable` ledger.
    fn durable_ledger(&mut self, input: &ServeInput, scratch: &mut ScratchDirs) {
        let untraced_s = self.untraced_jobs("sybil-serve.cpu_over_wall", &input.reference, || {
            input.job(true, scratch)
        });
        self.outcome.put("sybil-serve.epochs", input.epochs as f64);

        // The traced job: both legs through the timestamping wrapper.
        let (mut traced, mut killed_s, mut restart_s) = (vec![], vec![], vec![]);
        let mut hook_s: [Vec<f64>; STORE_HOOKS.len()] = Default::default();
        for rep in 0..self.reps {
            let dir = scratch.fresh();
            let mut hooks = Vec::new();
            let mut tail_replayed = 0;
            let (result, job_s) = self.tracer.rep_span("job", rep, |tr| {
                let mut doomed = open_store(&dir)?.kill_at_epoch(input.kill_epoch());
                let killed = traced_leg(tr, "sybil-store.killed_leg", input, &mut doomed, false);
                drop(doomed);
                killed_s.push(killed.wall_s);
                hooks.extend(killed.hooks);
                expect_crash(killed.result)?;
                let mut revived = open_store(&dir)?;
                let restart = traced_leg(tr, "sybil-store.restart_leg", input, &mut revived, false);
                restart_s.push(restart.wall_s);
                hooks.extend(restart.hooks);
                tail_replayed = revived.tail_replayed();
                report_bytes(restart.result)
            });
            self.outcome.check(&result, &input.reference);
            traced.push(job_s);
            for (samples, (_, hook)) in hook_s.iter_mut().zip(STORE_HOOKS) {
                samples.extend(plane::total(&hooks, hook));
            }
            if rep + 1 == self.reps && result.is_ok() {
                self.outcome
                    .put("sybil-store.tail_replay_epochs", tail_replayed as f64);
                self.store_inventory(&dir);
            }
            scratch.remove(&dir);
        }
        let o = &mut self.outcome;
        o.put_summary("sybil-store.killed_leg_s", &killed_s);
        let restart_s = o.put_summary("sybil-store.restart_leg_s", &restart_s);
        for (samples, (metric, _)) in hook_s.iter().zip(STORE_HOOKS) {
            o.put_summary(metric, samples);
        }
        let traced_s = o.summarize("traced.job_s", &traced);
        self.put_overhead("trace_overhead_pct", traced_s, untraced_s);

        // What durability costs an uninterrupted run: plain vs persisted
        // on the same stream, order alternated within each pair. The
        // persisted leg's hooks are timed, which splits its extra time
        // into the store's share and the engine's (digests, checkpoint
        // assembly): the residual.
        let (mut pairs, mut plain, mut residual) = (vec![], vec![], vec![]);
        for rep in 0..self.reps {
            let (mut plain_s, mut persisted_s, mut hooks_s) = (0.0, 0.0, 0.0);
            for leg in if rep % 2 == 0 { [0, 1] } else { [1, 0] } {
                if leg == 0 {
                    let (result, s) = self.tracer.rep_span("sybil-serve.run_shards2", rep, |_| {
                        ServeSession::new(input.cfg(THREADS)).run(&input.out)
                    });
                    self.outcome.check(&report_bytes(result), &input.reference);
                    plain_s = s;
                } else {
                    let dir = scratch.fresh();
                    let (result, s) =
                        self.tracer
                            .rep_span("sybil-store.persisted_run", rep, |tr| {
                                let mut store = open_store(&dir)?;
                                let leg =
                                    traced_leg(tr, "sybil-serve.session", input, &mut store, false);
                                hooks_s = leg.hooks.iter().map(|h| h.2 - h.1).sum();
                                report_bytes(leg.result)
                            });
                    self.outcome.check(&result, &input.reference);
                    persisted_s = s;
                    scratch.remove(&dir);
                }
            }
            pairs.push((plain_s, persisted_s));
            plain.push(plain_s);
            residual.push(persisted_s - plain_s - hooks_s);
        }
        self.outcome.put_summary(
            "sybil-store.durability_overhead_pct",
            &paired_overhead_pct(&pairs),
        );
        let o = &mut self.outcome;
        let plain_s = o.put_summary("sybil-serve.run_s_shards2", &plain);
        o.put_summary("sybil-serve.plane_residual_s", &residual);
        o.put("sybil-store.restart_vs_cold_ratio", restart_s / plain_s);
    }

    /// Bytes and counts a finished durable job left in `dir`, and the
    /// checkpoint codec timed on the newest checkpoint.
    fn store_inventory(&mut self, dir: &Path) {
        let plane = open_store(dir).expect("finished store reopens");
        let checkpoints = plane.store().checkpoints().expect("checkpoint list");
        let o = &mut self.outcome;
        o.put(
            "sybil-store.journal_bytes",
            plane.journal().len_bytes() as f64,
        );
        o.put("sybil-store.checkpoints_written", checkpoints.len() as f64);
        let Some(&newest) = checkpoints.last() else {
            return;
        };
        let cp = plane.store().load(newest).expect("newest checkpoint loads");
        let (bytes, encode_s) =
            self.timed("sybil-store.encode_checkpoint", || encode_checkpoint(&cp));
        let (decoded, decode_s) = self.timed("sybil-store.decode_checkpoint", || {
            decode_checkpoint(&bytes)
        });
        assert!(
            decoded.is_ok_and(|d| d == cp),
            "checkpoint codec round-trips"
        );
        let o = &mut self.outcome;
        o.put("sybil-store.checkpoint_bytes", bytes.len() as f64);
        o.put("sybil-store.encode_checkpoint_s", encode_s);
        o.put("sybil-store.decode_checkpoint_s", decode_s);
    }

    /// The `paper_batch` ledger.
    fn batch_ledger(&mut self, args: &RunArgs) {
        let (out, ..) = self.input(args);
        let (input, _) = self.timed("sybil-repro.ctx", || {
            BatchInput::new(out, args.seed, args.quick)
        });

        // As in the untraced run, the first job's report is the reference.
        let reference = input.job().report.expect("paper_batch jobs cannot fail");
        let untraced_s =
            self.untraced_jobs("sybil-repro.cpu_over_wall", &reference, || input.job());

        // The traced job: one span per experiment group.
        let mut traced = Vec::new();
        let mut group_s: [Vec<f64>; BATCH_GROUPS.len()] = Default::default();
        for rep in 0..self.reps {
            let (report, job_s) = self.tracer.rep_span("job", rep, |tr| {
                let mut report = String::new();
                for (samples, group) in group_s.iter_mut().zip(BATCH_GROUPS) {
                    let ((), s) = tr.span(group, |_| input.run_group(group, &mut report));
                    samples.push(s);
                }
                report
            });
            self.outcome.check(&Ok(report), &reference);
            traced.push(job_s);
        }
        for (samples, group) in group_s.iter().zip(BATCH_GROUPS) {
            self.outcome.put_summary(&format!("{group}_s"), samples);
        }
        let traced_s = self.outcome.summarize("traced.job_s", &traced);
        self.put_overhead("trace_overhead_pct", traced_s, untraced_s);

        // The kernels the experiments stand on, each timed alone on the
        // workload's own graph.
        let out = &input.ctx.out;
        let g = &out.graph;
        let nodes: Vec<NodeId> = g.nodes().collect();
        let (mut freeze, mut sweep, mut comps, mut feats) = (vec![], vec![], vec![], vec![]);
        for _ in 0..self.reps {
            freeze.push(
                self.timed("osn-graph.csr_freeze", || CsrSnapshot::freeze(g))
                    .1,
            );
            let k50 = || clustering::first_k_clustering_all(g, 50);
            sweep.push(self.timed("osn-graph.clustering_sweep", k50).1);
            let sybil_parts = || components::components_of_subset(g, |n| out.is_sybil(n));
            comps.push(self.timed("osn-graph.components", sybil_parts).1);
            let (vectors, s) = self.timed("sybil-features.features_for_all", || {
                FeatureExtractor::new(out).features_for_all(&nodes)
            });
            self.outcome
                .put("sybil-features.vectors", vectors.len() as f64);
            feats.push(s);
        }
        let o = &mut self.outcome;
        o.put_summary("osn-graph.csr_freeze_s", &freeze);
        o.put_summary("osn-graph.clustering_sweep_s", &sweep);
        o.put_summary("osn-graph.components_s", &comps);
        o.put_summary("sybil-features.features_for_all_s", &feats);
        let edges = friendship_edges(out);
        self.merge_delta_probe(out.accounts.len(), &edges);
        self.defense_probes(&input);
    }

    /// The mirror's rotation kernel alone: freeze the older half of the
    /// edges, fold the newer half in with `merge_delta_with`.
    fn merge_delta_probe(&mut self, nodes: usize, edges: &[(NodeId, NodeId, Timestamp)]) {
        let (old, new) = edges.split_at(edges.len() / 2);
        let mut samples = Vec::new();
        for _ in 0..self.reps {
            let mut snap = CsrSnapshot::empty(nodes);
            let mut scratch = MergeScratch::default();
            snap.merge_delta_with(old, &mut scratch);
            let fold = || snap.merge_delta_with(new, &mut scratch);
            samples.push(self.timed("osn-graph.merge_delta", fold).1);
            assert_eq!(snap.num_edges(), edges.len(), "every edge folded in");
        }
        self.outcome
            .put_summary("osn-graph.merge_delta_s", &samples);
    }

    /// Each graph defense alone on the wild graph, with the verifier and
    /// the suspects chosen by `defenses.rs`'s rule (active accounts, a
    /// median-degree honest verifier) but without its random shuffle.
    fn defense_probes(&mut self, input: &BatchInput) {
        let ctx = &input.ctx;
        let g = &ctx.out.graph;
        let suspects = input.spec.suspects();
        let active = |pool: &[NodeId]| -> Vec<NodeId> {
            let busy = pool.iter().copied().filter(|&n| g.degree(n) >= 5);
            busy.take(suspects).collect()
        };
        let (sybils, honest) = (active(&ctx.sybils), active(&ctx.normals));
        let mut by_degree: Vec<NodeId> = ctx.normals.clone();
        by_degree.retain(|&n| g.degree(n) >= 10);
        by_degree.sort_by_key(|&n| g.degree(n));
        let verifier = by_degree[by_degree.len() / 2];

        let mut ranking = ConductanceRanking::new();
        ranking.min_community = (ctx.normals.len() / 40).max(16);
        let guard = SybilGuard::new(g, None, ctx.seed ^ 1);
        let limit = SybilLimit::new(g, ctx.seed ^ 3);
        let infer = SybilInfer::new(g, ctx.seed ^ 5);
        let defenses: [(&str, &dyn SybilDefense); 4] = [
            ("sybil-defense.sybilguard", &guard),
            ("sybil-defense.sybillimit", &limit),
            ("sybil-defense.sybilinfer", &infer),
            ("sybil-defense.conductance", &ranking),
        ];
        for (name, defense) in defenses {
            let verdicts = || evaluate_defense(defense, g, verifier, &sybils, &honest);
            let s = self.timed(name, verdicts).1;
            self.outcome.put(&format!("{name}_s"), s);
        }
        let sumup = SumUp::new(suspects * 2);
        let votes = || {
            let sybil_votes = sumup.collect_votes(g, verifier, &sybils);
            (sybil_votes, sumup.collect_votes(g, verifier, &honest))
        };
        let s = self.timed("sybil-defense.sumup", votes).1;
        self.outcome.put("sybil-defense.sumup_s", s);
    }

    /// Give every declared per-layer metric this workload did not measure
    /// a value: an empty span for a time, zero for a count or a ratio.
    fn floor_unentered_layers(&mut self, spec: &Spec) {
        for decl in &spec.per_layer {
            if self.outcome.metrics.contains_key(&decl.name) {
                continue;
            }
            let mut empty_span_s = || {
                self.tracer
                    .span(&format!("{}.unentered", decl.name), |_| ())
                    .1
            };
            let value = match decl.unit.as_str() {
                "s" => empty_span_s(),
                "ms" => empty_span_s() * 1e3,
                _ => 0.0,
            };
            self.outcome.put(&decl.name, value);
        }
    }

    fn write_spans(&self, workload: Workload) {
        self.tracer.validate().expect("span file invariants");
        let json = serde_json::to_string_pretty(&self.tracer.to_json()).expect("spans serialize");
        crate::write_out(&format!("trace-{}.json", workload.name()), &json)
            .expect("span file written");
    }
}

/// The accepted friendships of `out` in creation order. The scale
/// generator leaves `graph` edge-free above its materialize limit; rebuild
/// it from the log the way the generator does below the limit.
fn friendship_edges(out: &SimOutput) -> Vec<(NodeId, NodeId, Timestamp)> {
    let rebuilt;
    let g = if out.graph.num_edges() > 0 {
        &out.graph
    } else {
        let mut accepts: Vec<(Timestamp, usize)> = out
            .log
            .records()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.outcome.is_accepted())
            .filter_map(|(i, r)| r.outcome.decided_at().map(|t| (t, i)))
            .collect();
        accepts.sort_unstable();
        let mut g = TemporalGraph::with_nodes(out.accounts.len());
        for (t, i) in accepts {
            let r = out.log.get(i);
            let _ = g.add_edge(r.from, r.to, t);
        }
        rebuilt = g;
        &rebuilt
    };
    g.edges().iter().map(|e| (e.a, e.b, e.time)).collect()
}
