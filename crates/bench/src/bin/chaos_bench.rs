//! Chaos-engine acceptance bench: write-ahead journal overhead on the
//! serving critical path, plus the crash-recovery smoke.
//!
//! Replays the same adaptive stream through a clocked `ServeSession`
//! (production path, `NoFaults` plane) and the same session with a
//! journal-only [`ChaosPlane`] at the default digest cadence (every
//! epoch write-ahead journaled, per-shard digests every
//! [`DEFAULT_DIGEST_EVERY`](sybil_store::DEFAULT_DIGEST_EVERY)th
//! epoch — the `repro chaos` drill configuration), paired per rep and
//! order-rotated across `REPS` reps (minimum paired overhead is what
//! the gate sees). A third strict-cadence run (digests *every* epoch)
//! is measured and reported but not gated. The acceptance gates:
//!
//! * the journaled run's report is byte-identical to the plain run's;
//! * journaling costs under 5% of the fault-free critical path — the
//!   journal appends to an in-memory store at barrier time, off the
//!   per-event path, so anything above that signals journal work
//!   leaking into the event loop;
//! * a seeded mid-stream shard crash recovers from the journal to a
//!   report byte-identical to the fault-free run's.
//!
//! Writes `BENCH_chaos.json` at the working directory root. Run with
//! `cargo run --release -p sybil-bench --bin chaos_bench`.

use osn_sim::stream::EventStream;
use osn_sim::{simulate, SimConfig};
use std::io::Cursor;
use std::time::Instant;
use sybil_chaos::{
    run_chaos_in_memory, ChaosOutcome, ChaosPlane, FaultSchedule, FaultSpec, FaultSpecKind,
};
use sybil_core::realtime::RealtimeConfig;
use sybil_core::ThresholdClassifier;
use sybil_serve::{ServeConfig, ServeSession};
use sybil_store::{Journal, JournalPlane};

const REPS: usize = 9;
/// Epoch the smoke's shard crash lands in (mid-stream for the small
/// sim's ~15 epochs at 48h).
const CRASH_EPOCH: u64 = 2;
const CRASH_SHARD: usize = 1;

fn main() {
    let out = simulate(SimConfig::small(42));
    let events = EventStream::new(&out.log).total_events();
    eprintln!(
        "chaos_bench: {} accounts, {} merged events",
        out.accounts.len(),
        events
    );

    // Adaptive config: detections, feedback, and audits all live, so the
    // journal carries every record kind.
    let detect = RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio: 0.5,
            min_freq: 15.0,
            max_cc: f64::INFINITY,
        },
        adaptive: true,
        ..RealtimeConfig::default()
    };
    let cfg = ServeConfig {
        shards: 4,
        epoch_hours: 48,
        detect,
        rotate_floor: 0,
    };

    let epoch = Instant::now();
    let clock = move || epoch.elapsed().as_secs_f64();

    // Each rep times all three variants back to back and the overhead
    // is the *per-rep paired* ratio — adjacent legs see the same box
    // conditions, so common-mode noise (CPU-quota throttling, a noisy
    // neighbor) cancels instead of landing on whichever variant ran
    // while the box was busy. The rep order rotates so no variant
    // always gets the post-idle burst-credit slot, and the gate takes
    // the minimum paired overhead across reps: a spurious failure
    // would need every one of the `REPS` reps to be asymmetrically
    // slow on the journaled leg only.
    let mut reps: Vec<(f64, f64, f64)> = Vec::new(); // (off, on, strict) seconds
    let mut last = None;
    for rep in 0..REPS {
        let mut off_s = 0.0;
        let run_off = |off_s: &mut f64| {
            let o = ServeSession::new(cfg)
                .clock(&clock)
                .run(&out)
                .expect("serve failed");
            *off_s = o.stats.critical_path_s;
            o.report
        };
        let mut on_s = 0.0;
        let run_on = |on_s: &mut f64| {
            let journal =
                Journal::create(Cursor::new(Vec::new())).expect("in-memory journal");
            let mut plane =
                ChaosPlane::new(FaultSchedule::journal_only(42), JournalPlane::new(journal));
            let o = ServeSession::new(cfg)
                .clock(&clock)
                .plane(&mut plane)
                .run(&out)
                .expect("serve failed");
            *on_s = o.stats.critical_path_s;
            (o.report, plane.inner().journal().len_bytes())
        };
        let mut strict_s = 0.0;
        // Strict cadence: per-shard digests at every barrier — the
        // upper bound on digest cost, reported but not gated.
        let run_strict = |strict_s: &mut f64| {
            let journal =
                Journal::create(Cursor::new(Vec::new())).expect("in-memory journal");
            let mut strict = ChaosPlane::new(
                FaultSchedule::journal_only(42),
                JournalPlane::with_digest_cadence(journal, 1),
            );
            let o = ServeSession::new(cfg)
                .clock(&clock)
                .plane(&mut strict)
                .run(&out)
                .expect("serve failed");
            *strict_s = o.stats.critical_path_s;
        };
        let pair = match rep % 3 {
            0 => {
                let r_off = run_off(&mut off_s);
                let on = run_on(&mut on_s);
                run_strict(&mut strict_s);
                (r_off, on)
            }
            1 => {
                let on = run_on(&mut on_s);
                run_strict(&mut strict_s);
                let r_off = run_off(&mut off_s);
                (r_off, on)
            }
            _ => {
                run_strict(&mut strict_s);
                let r_off = run_off(&mut off_s);
                let on = run_on(&mut on_s);
                (r_off, on)
            }
        };
        reps.push((off_s, on_s, strict_s));
        last = Some(pair);
    }
    let (r_off, (r_on, journal_bytes)) = last.expect("REPS >= 1");
    let identical = serde_json::to_string(&r_off).expect("report serializes")
        == serde_json::to_string(&r_on).expect("report serializes");
    let paired = |pick: fn(&(f64, f64, f64)) -> f64| {
        reps.iter()
            .map(|r| ((pick(r) - r.0) / r.0 * 100.0).max(0.0))
            .fold(f64::INFINITY, f64::min)
    };
    let overhead_pct = paired(|r| r.1);
    let strict_overhead_pct = paired(|r| r.2);
    let off_best = reps.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    let on_best = reps.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let strict_best = reps.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
    eprintln!(
        "  plain {:.1} ms | journaled {:.1} ms | overhead {overhead_pct:.2}% \
         (strict-digest {strict_overhead_pct:.2}%) | journal {journal_bytes} bytes | \
         identical={identical}",
        off_best * 1e3,
        on_best * 1e3
    );

    // Crash-recovery smoke: kill one shard mid-stream, recover from the
    // write-ahead journal, byte-compare against the fault-free run.
    let schedule = FaultSchedule {
        seed: 42,
        faults: vec![FaultSpec {
            epoch: CRASH_EPOCH,
            shard: CRASH_SHARD,
            kind: FaultSpecKind::Crash,
        }],
    };
    let crash = run_chaos_in_memory(&out, &cfg, schedule, None).expect("chaos run failed");
    let recovered_identical = crash.report.outcome == ChaosOutcome::Identical;
    eprintln!(
        "  crash smoke: epoch {CRASH_EPOCH} shard {CRASH_SHARD} | replayed {} epochs | \
         recovered_identical={recovered_identical}",
        crash.report.epochs_replayed
    );

    let report = serde_json::json!({
        "bench": "chaos",
        "events": events,
        "accounts": out.accounts.len(),
        "reps": REPS,
        "shards": 4,
        "timing": "critical_path (coordinator + slowest shard per epoch); overheads are \
                   the minimum per-rep paired ratio over order-rotated reps; *_ms are \
                   per-variant bests",
        "plain_critical_path_ms": off_best * 1e3,
        "journaled_critical_path_ms": on_best * 1e3,
        "journal_overhead_pct": overhead_pct,
        "strict_digest_critical_path_ms": strict_best * 1e3,
        "strict_digest_overhead_pct": strict_overhead_pct,
        "journal_bytes": journal_bytes,
        "report_identical": identical,
        "crash_epoch": CRASH_EPOCH,
        "crash_shard": CRASH_SHARD,
        "crash_epochs_replayed": crash.report.epochs_replayed,
        "crash_recovered_identical": recovered_identical,
    });
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("{json}");
    assert!(
        identical,
        "acceptance: journaled and plain runs must produce the same report"
    );
    assert!(
        recovered_identical,
        "acceptance: a crashed shard must recover byte-identical from the journal"
    );
    assert!(
        overhead_pct < 5.0,
        "acceptance: journal overhead must stay under 5% ({overhead_pct:.2}%)"
    );
}
