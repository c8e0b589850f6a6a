#!/usr/bin/env bash
# Repo verification: the tier-1 gate from ROADMAP.md plus a zero-warning
# clippy pass, the sybil-lint workspace audit (0 violations, stale
# lint.toml entries included, inside its <5s runtime budget), the §3.1
# defenses thread-identity smoke, the same smoke over the experiments
# that share the ground-truth sample and the reach estimator, the
# serving-engine serve-vs-replay
# equivalence smoke, the metrics bit-identity guard
# (logical section of metrics.json across threads × shards), the chaos
# proptests in release, the kill + warm-restart byte-identity drill, the
# mismatched-store smoke (another run's store is a typed error), and
# one step over the repo's benchmark (benchmark/run.sh): no failed job,
# peak RSS inside the DESIGN.md budget, no resolved observability
# overhead above 5%. Durability overhead, restart latency, the two
# shard-scaling ratios of the scan stream and where a checks_sim job's
# time sits (replay, one shard, the coordinator) are printed, not gated;
# so are the experiment groups of a paper_batch job.
# Run from the workspace root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== lint: cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint: sybil-lint determinism & invariant audit =="
# Release binary (built by the tier-1 step, whose default-members cover
# every crate's binaries) so the <5s budget measures the analysis — one
# lex and one site scan per file, call-graph resolution, the rule table
# — not rustc. A stale lint.toml entry is an S105 violation, so exit 0
# also means `--fix-allowlist` would change nothing (the byte no-op
# itself is asserted in tier-1, crates/sybil-lint/tests/workspace_clean.rs).
lint_bin="$root/target/release/sybil-lint"
python3 - "$lint_bin" <<'PY'
import subprocess, sys, time
rules = len(subprocess.check_output([sys.argv[1], "--list-rules"]).splitlines())
t0 = time.monotonic()
rc = subprocess.call([sys.argv[1], "--workspace"])
dt = time.monotonic() - t0
print(f"lint budget: {rules} rules in {dt:.2f}s (<5s required)")
sys.exit(rc if rc else (0 if dt < 5.0 else 1))
PY

bench_tmp="$(mktemp -d)"
trap 'rm -rf "$bench_tmp"' EXIT

echo "== defenses: RENREN_THREADS=1 vs 2 verdict identity =="
# §3.1's verdict counts must not depend on how suspects are spread over
# workers: one prepared verifier, judged from 1 thread and from 2.
for threads in 1 2; do
    RENREN_THREADS=$threads cargo run -q --release -p sybil-repro --bin repro -- \
        --scale tiny --out "$bench_tmp/defenses_t$threads" defenses >/dev/null
done
cmp "$bench_tmp/defenses_t1/tiny-seed1/defenses.json" \
    "$bench_tmp/defenses_t2/tiny-seed1/defenses.json"
echo "defenses guard: defenses.json identical at RENREN_THREADS=1 and 2"

echo "== sample + reach: RENREN_THREADS=1 vs 2 result identity =="
# The ground-truth sample is extracted on `par` and kept by the context
# for the experiments that follow in the same process; reach draws its
# percolation samples serially. None of it may show in a result.
sample_users="fig1 table1 zoo reach"
for threads in 1 2; do
    # shellcheck disable=SC2086
    RENREN_THREADS=$threads cargo run -q --release -p sybil-repro --bin repro -- \
        --scale tiny --seed 11 --out "$bench_tmp/sample_t$threads" $sample_users >/dev/null
done
for exp in $sample_users; do
    cmp "$bench_tmp/sample_t1/tiny-seed11/$exp.json" "$bench_tmp/sample_t2/tiny-seed11/$exp.json"
done
echo "sample guard: $sample_users JSON identical at RENREN_THREADS=1 and 2"

echo "== serving engine: serve-vs-replay equivalence at 1 and 8 shards =="
# The sharded engine must reproduce the sequential replay byte-for-byte
# regardless of shard count; `repro serve` embeds both byte-comparisons
# (static and adaptive) in its JSON, so assert them at two thread counts.
for threads in 1 8; do
    out_dir="$bench_tmp/serve_t$threads"
    RENREN_THREADS=$threads cargo run -q --release -p sybil-repro --bin repro -- \
        --scale tiny --out "$out_dir" serve >/dev/null
    python3 - "$out_dir/tiny-seed1/serve.json" "$threads" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
ok = r["matches_replay_static"] and r["matches_replay_adaptive"]
print(f"serve guard (RENREN_THREADS={sys.argv[2]}, shards={r['shards']}): "
      f"static≡replay={r['matches_replay_static']}, "
      f"adaptive≡replay={r['matches_replay_adaptive']}")
sys.exit(0 if ok else 1)
PY
done

echo "== observability: logical metrics bit-identity across threads × shards =="
# `repro --metrics` writes metrics.json; its `logical` section is the
# determinism contract — byte-identical across RENREN_THREADS and shard
# counts (`sharded` and `wall` sections are config- and time-dependent).
for threads in 1 8; do
    for shards in 1 8; do
        m_dir="$bench_tmp/metrics_t${threads}_s${shards}"
        RENREN_THREADS=$threads cargo run -q --release -p sybil-repro --bin repro -- \
            --scale tiny --out "$m_dir" --shards "$shards" --metrics "$m_dir" \
            serve >/dev/null
    done
done
python3 - "$bench_tmp" <<'PY'
import json, sys, os
base = sys.argv[1]
configs = [(t, s) for t in (1, 8) for s in (1, 8)]
logical = {}
for t, s in configs:
    path = os.path.join(base, f"metrics_t{t}_s{s}", "metrics.json")
    logical[(t, s)] = json.dumps(json.load(open(path))["logical"], sort_keys=True)
ref = logical[(1, 1)]
ok = all(v == ref for v in logical.values())
n = len(json.loads(ref))
print(f"metrics guard: {n} logical metrics, "
      f"identical across threads×shards {configs}: {ok}")
sys.exit(0 if ok else 1)
PY

echo "== chaos: fault-injection invariant proptests (release) =="
# The headline invariant — any fault schedule yields output
# byte-identical to the fault-free run OR a typed ChaosError, never
# silent divergence — plus the journal round-trip at 1/2/8 shards, and
# the composed form: the same schedules through a StorePlane-backed
# session that is killed and warm-restarted under them.
cargo test -q --release -p sybil-chaos --test chaos_props --test composed

echo "== persistence: kill + warm-restart drill (repro restart) =="
# A seed-derived mid-stream kill must warm-restart from the snapshot
# store + journal tail to a report byte-identical to the uninterrupted
# run — the sybil-store proptest's invariant, on the real repro stream.
r_dir="$bench_tmp/restart_drill"
cargo run -q --release -p sybil-repro --bin repro -- \
    --scale tiny --out "$r_dir" --store "$r_dir/store" restart >/dev/null
python3 - "$r_dir/tiny-seed1/restart.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
ok = r["matches_oracle"] and r["resumed_from"] is not None and r["checkpoints"]
print(f"restart drill: killed at epoch {r['kill_epoch']}, resumed from "
      f"checkpoint {r['resumed_from']} (+{r['tail_replayed']} journal epochs), "
      f"report≡oracle={r['matches_oracle']}")
sys.exit(0 if ok else 1)
PY

echo "== persistence: a store another run wrote is a typed error (mismatched-store smoke) =="
# A store directory is outside input: `repro serve --store` over one that
# a bigger run wrote must stop on the engine's typed journal fault with a
# non-zero exit — no panic, and no report from the sequential fallback.
s_dir="$bench_tmp/mismatched_store"
mkdir -p "$s_dir"
serve_into_store() {
    cargo run -q --release -p sybil-repro --bin repro -- \
        --scale "$1" --seed 3 --shards 2 --out "$s_dir" --store "$s_dir/store" serve
}
serve_into_store small >/dev/null 2>&1
if serve_into_store tiny >/dev/null 2>"$s_dir/stderr.log"; then
    echo "mismatched store: repro exited 0 over another run's store"
    exit 1
fi
if ! grep -q "serve experiment failed: .*journal" "$s_dir/stderr.log" ||
    grep -q "panicked" "$s_dir/stderr.log"; then
    cat "$s_dir/stderr.log"
    echo "mismatched store: expected the typed journal fault on stderr and no panic"
    exit 1
fi
echo "mismatched-store smoke: non-zero exit, '$(grep -o "serving engine failed: .*" "$s_dir/stderr.log")'"

echo "== benchmark: failed jobs, RSS budget, observability overhead (benchmark/run.sh) =="
# The repo's one benchmark, run short. Every job's report bytes are
# checked against the sequential replay's, so `failed` carries serve ≡
# replay, persisted ≡ plain and kill + warm restart ≡ uninterrupted.
# What gates: failed > 0; scan_250k's peak_rss_mib over the DESIGN.md
# budget (256 MiB + 260 B/account + 120 B/event); and an observability
# overhead that is above 5% *resolved* — q1 of the paired on/off deltas,
# not their median, which on this box sits inside ±10% of noise.
# Durability overhead and restart latency are reported with their
# spread and not gated: ROADMAP "Durability that costs what it writes"
# owns them. So are the scan stream's scaling ratios (2 shards on 2
# threads against 1 shard, wall and shard busy time): ROADMAP "Shards
# that scale" states its acceptance in them, and a short run on a box
# whose two vCPUs do not always run side by side cannot gate on them.
# A paper_batch job's experiment groups are reported the same way: where
# the offline reproduction's time sits, for the next change that moves it.
bench_out="$root/benchmark/out"
rm -f "$bench_out"/result-*.json
# A failed job makes run.sh exit non-zero after it has written the
# result; the check below reads `failed`, and a missing result fails it.
for run in "scan_250k --seconds 8 --trace 0" "scan_250k --seconds 8 --trace 1" \
    "checks_sim --seconds 30 --trace 1" "durable_250k --seconds 18 --trace 1" \
    "paper_batch --seconds 8 --trace 1"; do
    # shellcheck disable=SC2086
    benchmark/run.sh --workload $run --seed 42 >/dev/null 2>>"$bench_tmp/benchmark.log" || true
done
python3 - "$bench_out" <<'PY' || { cat "$bench_tmp/benchmark.log"; exit 1; }
import json, sys
load = lambda name: json.load(open(f"{sys.argv[1]}/result-{name}.json"))
scan, checks, durable = load("scan_250k"), load("checks_sim-trace"), load("durable_250k-trace")
scaling, batch = load("scan_250k-trace"), load("paper_batch-trace")
ok = True

for name, r in (("scan_250k", scan), ("scan_250k traced", scaling), ("checks_sim", checks),
                ("durable_250k", durable), ("paper_batch", batch)):
    res = r["result"]
    print(f"benchmark {name}: failed={res['failed']} of attempted={res['attempted']} "
          f"(0 required; every job's report bytes checked)")
    ok &= res["failed"] == 0

m = scan["result"]["metrics"]
accounts = 250_000  # scan_250k: osn_sim::scale::generate at 250k accounts
events = m["events_per_s"]["value"] * scan["summaries"]["job_s"]["median"]
budget_mib = 256 + (260 * accounts + 120 * events) / 2**20
rss = m["peak_rss_mib"]["value"]
print(f"benchmark scan_250k: peak_rss_mib={rss:.0f} MiB (VmHWM after the first timed job), "
      f"budget {budget_mib:.0f} MiB for {accounts} accounts + {events:.0f} events")
ok &= rss <= budget_mib

obs = checks["summaries"]["sybil-serve.obs_overhead_pct"]
print(f"benchmark checks_sim: sybil-serve.obs_overhead_pct q1={obs['q1']:+.1f}% "
      f"(median {obs['median']:+.1f}%, q3 {obs['q3']:+.1f}%, n={obs['n']} on/off pairs; "
      f"q1 <= 5% required)")
ok &= obs["q1"] <= 5.0

spread = lambda s: f"n={s['n']}, q1 {s['q1']:.2f}, q3 {s['q3']:.2f}"
# Where a check-heavy job's time sits, layer by layer: the sequential
# oracle (one span of the run's one set-up, so n=1), one shard's busy
# time, the coordinator.
for layer in ("sybil-core.replay_s", "sybil-serve.shard_busy_s_shards1", "sybil-serve.coordinator_s"):
    v = checks["result"]["metrics"][layer]["value"]
    s = checks["summaries"].get(layer, {"n": 1, "q1": v, "q3": v})
    print(f"benchmark checks_sim: {layer}={v:.3f} s "
          f"(n={s['n']}, q1 {s['q1']:.3f}, q3 {s['q3']:.3f}) — reported, not gated")

for layer in ("reach_s", "figs_s", "zoo_s", "defenses_s", "cpu_over_wall"):
    s = batch["summaries"][f"sybil-repro.{layer}"]
    print(f"benchmark paper_batch: sybil-repro.{layer}={s['median']:.3f} "
          f"(n={s['n']}, q1 {s['q1']:.3f}, q3 {s['q3']:.3f}) — reported, not gated")

ss = scaling["summaries"]
for two, one in (("run_s_shards2", "run_s_shards1"), ("shard_busy_sum_s_shards2", "shard_busy_s_shards1")):
    a, b = ss[f"sybil-serve.{two}"], ss[f"sybil-serve.{one}"]
    print(f"benchmark scan_250k: sybil-serve.{two} ÷ {one} = {a['median'] / b['median']:.2f} "
          f"(median {a['median']:.2f} s, {spread(a)} ÷ median {b['median']:.2f} s, {spread(b)}) — "
          f"reported, not gated: ROADMAP 'Shards that scale' owns it")

dm, ds = durable["result"]["metrics"], durable["summaries"]
owner = "reported, not gated: ROADMAP 'Durability that costs what it writes' owns it"
over = ds["sybil-store.durability_overhead_pct"]
print(f"benchmark durable_250k: sybil-store.durability_overhead_pct median={over['median']:.1f}% "
      f"({spread(over)}; persisted vs plain run, paired) — {owner}")
warm, cold = ds["sybil-store.restart_leg_s"], ds["sybil-serve.run_s_shards2"]
print(f"benchmark durable_250k: sybil-store.restart_vs_cold_ratio="
      f"{dm['sybil-store.restart_vs_cold_ratio']['value']:.2f} "
      f"(restart_leg_s median {warm['median']:.2f} s, {spread(warm)} ÷ "
      f"run_s_shards2 median {cold['median']:.2f} s, {spread(cold)}) — {owner}")
sys.exit(0 if ok else 1)
PY

echo "verify: OK"
