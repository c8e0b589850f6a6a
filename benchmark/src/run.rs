//! The untraced run: set up, warm up, repeat the job for the measuring
//! time (setting up again at intervals), check every report, and reduce
//! to the end-to-end metrics.

use crate::procfs;
use crate::workloads::{drain_stream, BatchInput, ScratchDirs, ServeInput, TimedJob, Workload};
use std::collections::BTreeMap;
use std::time::Instant;
use sybil_core::realtime::replay;

/// What a run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Smoke-test sizes and a single repetition.
    pub quick: bool,
}

/// What a run (traced or not) hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs whose report was checked.
    pub attempted: u64,
    /// Jobs that returned an error or the wrong bytes.
    pub failed: u64,
    /// Why the first failed job failed.
    pub first_failure: Option<String>,
    /// Metric values by `BENCHMARK.json` name.
    pub metrics: BTreeMap<String, f64>,
    /// The samples behind each timing, in the order they were taken;
    /// every one is reported as its [`crate::stats::Summary`].
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Outcome {
    /// Count one job: it passes when it returned exactly `reference`.
    pub fn check(&mut self, got: &Result<String, String>, reference: &str) {
        self.attempted += 1;
        let why = match got {
            Ok(bytes) if bytes == reference => return,
            Ok(bytes) => format!(
                "report differs from the reference ({} vs {} bytes)",
                bytes.len(),
                reference.len()
            ),
            Err(e) => e.clone(),
        };
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Record a plain value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Keep `samples` under `name`; returns their median.
    pub fn summarize(&mut self, name: &str, samples: &[f64]) -> f64 {
        self.samples.insert(name.to_string(), samples.to_vec());
        crate::stats::median(samples)
    }

    /// Record a metric as the median of `samples`, summary beside it.
    pub fn put_summary(&mut self, name: &str, samples: &[f64]) -> f64 {
        let median = self.summarize(name, samples);
        self.put(name, median);
        median
    }
}

/// A workload with its input made and its reference bytes known.
pub enum Prepared {
    /// `scan`, `checks`, `durable`.
    Serve(ServeInput),
    /// `paper_batch`; the reference is the warm-up job's report.
    Batch(BatchInput),
}

/// Everything before the first job: generate the input, count its stream,
/// and (serve workloads) run the sequential replay as the oracle.
pub fn setup(args: &RunArgs) -> Prepared {
    let (out, detect) = args.workload.input(args.seed, args.quick);
    if args.workload == Workload::PaperBatch {
        return Prepared::Batch(BatchInput::new(out, args.seed, args.quick));
    }
    let (events, epochs) = drain_stream(&out);
    let reference = serde_json::to_string(&replay(&out, &detect)).expect("report serializes");
    Prepared::Serve(ServeInput {
        out,
        detect,
        events,
        epochs,
        reference,
    })
}

impl Prepared {
    /// Merged stream events in the input's log.
    pub fn events(&self) -> usize {
        match self {
            Prepared::Serve(s) => s.events,
            Prepared::Batch(b) => b.events,
        }
    }

    /// One untraced, timed job of `workload`.
    pub fn job(&self, workload: Workload, scratch: &mut ScratchDirs) -> TimedJob {
        match self {
            Prepared::Serve(s) => s.job(workload == Workload::Durable, scratch),
            Prepared::Batch(b) => b.job(),
        }
    }
}

/// Rounds per run. Each round sets up afresh and then repeats the job,
/// so the set-ups are spread over the whole measuring time like the jobs:
/// this box's speed wanders over tens of seconds, and a `setup_s` taken
/// only in a run's first seconds would sit on one phase of that.
const ROUNDS: usize = 4;

/// Fewest timed jobs, however long each takes.
const MIN_JOBS: usize = 5;

/// The untraced run: `ROUNDS` rounds of one set-up and then jobs, each
/// round ending at its share of the measuring time (set-ups included)
/// and after at least one timed job, the last after `MIN_JOBS` in all.
/// One untimed warm-up job follows the first set-up.
pub fn end_to_end(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let mut scratch = ScratchDirs::new();
    let (rounds, min_jobs) = if args.quick {
        (1, 1)
    } else {
        (ROUNDS, MIN_JOBS)
    };

    let (mut setup_s, mut wall_s, mut cpu_s) = (vec![], vec![], vec![]);
    let mut peak_rss_mib = 0.0;
    let mut prepared: Option<Prepared> = None;
    let mut reference = String::new();
    let started = Instant::now();
    for round in 1..=rounds {
        // Drop the previous input first: two at once would double the
        // peak resident set this run reports.
        drop(prepared.take());
        let t0 = Instant::now();
        let input = prepared.insert(setup(args));
        setup_s.push(t0.elapsed().as_secs_f64());

        if round == 1 {
            // Warm-up: fills the allocator's pages and, for paper_batch,
            // provides the reference every timed job must reproduce.
            let warm = input.job(args.workload, &mut scratch);
            reference = match &*input {
                Prepared::Serve(s) => s.reference.clone(),
                Prepared::Batch(_) => warm.report.clone().unwrap_or_default(),
            };
            outcome.check(&warm.report, &reference);
        }

        let deadline = args.seconds * round as f64 / rounds as f64;
        let round_began_at = wall_s.len();
        while wall_s.len() == round_began_at
            || (round == rounds && wall_s.len() < min_jobs)
            || started.elapsed().as_secs_f64() < deadline
        {
            let job = input.job(args.workload, &mut scratch);
            outcome.check(&job.report, &reference);
            wall_s.push(job.wall_s);
            cpu_s.push(job.cpu_s);
            if wall_s.len() == 1 {
                // What a fresh process needs to take the input in and run
                // the job. Read here and not at exit: the allocator keeps
                // part of what each job frees, so the watermark creeps up
                // with every further job, and how many fit in the
                // measuring time depends on the speed of the box.
                peak_rss_mib = procfs::peak_rss_mib();
            }
        }
    }

    let events = prepared.expect("at least one round").events() as f64;
    outcome.put_summary("setup_s", &setup_s);
    let job_s = outcome.summarize("job_s", &wall_s);
    let job_cpu_s = outcome.summarize("job_cpu_s", &cpu_s);
    outcome.put("events_per_s", events / job_s);
    outcome.put("cpu_s_per_mevent", job_cpu_s / (events / 1e6));
    outcome.put("peak_rss_mib", peak_rss_mib);
    outcome
}
