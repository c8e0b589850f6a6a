#!/usr/bin/env bash
# Repo verification: the tier-1 gate from ROADMAP.md plus a zero-warning
# clippy pass, the sybil-lint semantic audit (with its <5s runtime
# budget, --fix-allowlist byte-identity, and SARIF-catalog snapshot
# gates), the thread-count
# bit-identity smoke test (the sanitizer stand-in — see DESIGN.md), the
# §3.1 defenses thread-identity smoke, the
# parallel-substrate bench-regression guard, the serving-engine
# serve-vs-replay equivalence smoke, the metrics bit-identity guard
# (logical section of metrics.json across threads × shards), the
# observability overhead gate (<5% on the serving critical path), and
# the persistence gates (kill + warm-restart byte-identity drill,
# checkpoint overhead <5%, warm restart beating cold replay).
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

echo "== lint: sybil-lint determinism & invariant audit (D + S series) =="
# Release binary (built by the tier-1 step, whose default-members cover
# every crate's binaries) so the <5s budget measures the analysis —
# token rules, call-graph resolution, whole-workspace effect inference
# (S109–S112), and the loop-context cost analysis (S113–S117) — not
# rustc.
lint_bin="$root/target/release/sybil-lint"
python3 - "$lint_bin" <<'PY'
import subprocess, sys, time
t0 = time.monotonic()
rc = subprocess.call([sys.argv[1], "--workspace"])
dt = time.monotonic() - t0
print(f"lint budget: {dt:.2f}s (<5s required)")
sys.exit(rc if rc else (0 if dt < 5.0 else 1))
PY

echo "== lint: zero stale allowlist entries (--fix-allowlist is a no-op) =="
# Every lint.toml entry must match a live finding; a clean tree means
# --fix-allowlist rewrites the file byte-identically.
lint_orig="$(mktemp)"
cp lint.toml "$lint_orig"
"$lint_bin" --workspace --fix-allowlist >/dev/null
if ! cmp -s lint.toml "$lint_orig"; then
    cp "$lint_orig" lint.toml
    rm -f "$lint_orig"
    echo "lint.toml has stale allowlist entries (--fix-allowlist changed it)"
    exit 1
fi
rm -f "$lint_orig"

echo "== lint: SARIF output validates against the committed catalog =="
# `--format sarif` must stay parseable SARIF 2.1.0 whose rule catalog
# (ids, summaries, --explain-sourced fullDescriptions, helpUris) is
# byte-stable; the findings themselves churn with line numbers, so the
# snapshot pins the catalog only. Regen:
#   sybil-lint --workspace --format sarif | python3 -c 'import json,sys; \
#     json.dump(json.load(sys.stdin)["runs"][0]["tool"]["driver"]["rules"], \
#     open("crates/sybil-lint/tests/fixtures/sarif_catalog.json","w"), indent=2)'
"$lint_bin" --workspace --format sarif > "$root/target/verify_ws.sarif"
python3 - "$root/target/verify_ws.sarif" \
    "$root/crates/sybil-lint/tests/fixtures/sarif_catalog.json" <<'PY'
import json, sys
sarif = json.load(open(sys.argv[1]))
assert sarif["version"] == "2.1.0", sarif["version"]
assert "sarif-2.1.0" in sarif["$schema"], sarif["$schema"]
run = sarif["runs"][0]
driver = run["tool"]["driver"]
assert driver["name"] == "sybil-lint", driver["name"]
rules = driver["rules"]
for r in rules:
    missing = [k for k in ("id", "shortDescription", "fullDescription", "helpUri") if k not in r]
    assert not missing, f"rule {r.get('id')} missing {missing}"
snapshot = json.load(open(sys.argv[2]))
if json.dumps(rules, sort_keys=True) != json.dumps(snapshot, sort_keys=True):
    print("SARIF rule catalog drifted from the committed snapshot "
          "(crates/sybil-lint/tests/fixtures/sarif_catalog.json); regen per "
          "the comment in verify.sh if the change is intentional")
    sys.exit(1)
n_sup = sum(1 for res in run.get("results", []) if res.get("suppressions"))
print(f"sarif smoke: {len(rules)} rules in catalog, "
      f"{len(run.get('results', []))} results ({n_sup} suppressed), catalog matches snapshot")
PY

echo "== sanitizer stand-in: RENREN_THREADS=1 vs 8 bit-identity =="
# Miri cannot execute the scoped-thread par:: layer, so race detection
# leans on end-to-end thread-count invariance instead.
cargo run -q --release -p sybil-bench --bin thread_identity

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

echo "== bench-regression guard: perf_snapshot =="
# Run in a temp dir so BENCH_parallel.json never dirties the checkout;
# re-check the acceptance floor from the JSON the bench emits.
(cd "$bench_tmp" && cargo run -q --release -p sybil-bench --bin perf_snapshot \
    --manifest-path "$root/Cargo.toml" >/dev/null)
python3 - "$bench_tmp/BENCH_parallel.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
cc = report["clustering_sweep"]["speedup_vs_serial"]
feat = report["feature_extraction"]["speedup_vs_serial"]
ok = report["bit_identical"] and cc >= 2.0 and feat >= 2.0
print(f"bench guard: clustering {cc:.2f}x, features {feat:.2f}x, "
      f"bit_identical={report['bit_identical']}")
sys.exit(0 if ok else 1)
PY

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

echo "== scale: scale_sweep smoke (20k + 200k accounts) =="
# The CI-sized slice of the million-account sweep: serve must stay
# byte-identical to replay and inside the RSS budget at both smoke
# sizes. The full sweep's output is the committed BENCH_scale.json.
(cd "$bench_tmp" && cargo run -q --release -p sybil-bench --bin scale_sweep \
    --manifest-path "$root/Cargo.toml" -- --smoke >/dev/null)
python3 - "$bench_tmp/BENCH_scale.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
rows = r["rows"]
ok = r["bit_identical"] and all(row["under_budget"] for row in rows)
print(f"scale smoke: {len(rows)} rows, bit_identical={r['bit_identical']}, "
      f"under_budget={all(row['under_budget'] for row in rows)}")
sys.exit(0 if ok else 1)
PY

echo "== scale: committed BENCH_scale.json 5M-account floor =="
# Regression guard on the committed full-sweep record: the 5M row must
# exist, be bit-identical, stay under its RSS budget, and sustain the
# 10M event-scans/sec aggregate floor at 8 shards.
python3 - "$root/BENCH_scale.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
row = next((x for x in r["rows"] if x["accounts"] == 5_000_000), None)
if row is None:
    print("scale guard: committed BENCH_scale.json has no 5M-account row")
    sys.exit(1)
scan8 = row["scan_events_per_sec_8shards"]
ok = row["bit_identical"] and row["under_budget"] and scan8 >= 10_000_000
print(f"scale guard: 5M row scan8={scan8/1e6:.1f}M/s (>=10M required), "
      f"bit_identical={row['bit_identical']}, under_budget={row['under_budget']}")
sys.exit(0 if ok else 1)
PY

echo "== observability: instrumentation overhead gate =="
(cd "$bench_tmp" && cargo run -q --release -p sybil-bench --bin obs_overhead \
    --manifest-path "$root/Cargo.toml" >/dev/null)
python3 - "$bench_tmp/BENCH_obs.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
ok = r["report_identical"] and r["overhead_pct"] < 5.0
print(f"obs guard: overhead {r['overhead_pct']:.2f}% (<5% required), "
      f"report_identical={r['report_identical']}")
sys.exit(0 if ok else 1)
PY

echo "== chaos: fault-injection invariant proptests (release) =="
# The headline invariant — any fault schedule yields output
# byte-identical to the fault-free run OR a typed ChaosError, never
# silent divergence — plus the journal round-trip at 1/2/8 shards, and
# the composed form: the same schedules through a StorePlane-backed
# session that is killed and warm-restarted under them.
cargo test -q --release -p sybil-chaos --test chaos_props --test composed

echo "== chaos: crash-recovery smoke + journal overhead gate =="
# Seeded mid-stream shard crash must recover from the write-ahead
# journal byte-identical to the fault-free replay, and journaling every
# epoch must cost <5% of the fault-free critical path.
(cd "$bench_tmp" && cargo run -q --release -p sybil-bench --bin chaos_bench \
    --manifest-path "$root/Cargo.toml" >/dev/null)
python3 - "$bench_tmp/BENCH_chaos.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
ok = (r["report_identical"] and r["crash_recovered_identical"]
      and r["journal_overhead_pct"] < 5.0)
print(f"chaos guard: journal overhead {r['journal_overhead_pct']:.2f}% "
      f"(<5% required), journaled≡plain={r['report_identical']}, "
      f"crash@epoch{r['crash_epoch']}/shard{r['crash_shard']} replayed "
      f"{r['crash_epochs_replayed']} epochs, "
      f"recovered_identical={r['crash_recovered_identical']}")
sys.exit(0 if ok else 1)
PY

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

echo "== persistence: checkpoint overhead + restart-latency gates =="
# Checkpoint writes (paired against a journal-only plane, so the delta
# is the snapshot cost alone) must stay under 5% of the fault-free
# critical path, persisted runs must report byte-identically to plain,
# and a near-end warm restart must beat the cold replay it replaces.
# One worker thread: tail replay runs its shards one after another while
# a cold replay spreads them over the cores, so on a multi-core box the
# wall-clock comparison is not work against work (the committed
# BENCH_restart.json was recorded on one core; at 2 cores the gate fails
# on this and on earlier commits alike).
(cd "$bench_tmp" && RENREN_THREADS=1 cargo run -q --release -p sybil-bench --bin restart_bench \
    --manifest-path "$root/Cargo.toml" >/dev/null)
python3 - "$bench_tmp/BENCH_restart.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
ok = (r["report_identical"] and r["restart_identical"]
      and r["checkpoint_overhead_pct"] < 5.0
      and r["restart_to_first_verdict_ms"] < r["cold_replay_ms"])
print(f"restart guard: ckpt overhead {r['checkpoint_overhead_pct']:.2f}% "
      f"(<5% required), persisted≡plain={r['report_identical']}, "
      f"kill@epoch{r['kill_epoch']} resumed from {r['restart_resumed_from']} "
      f"(+{r['restart_tail_replayed']} epochs), restart "
      f"{r['restart_to_first_verdict_ms']:.0f}ms vs cold {r['cold_replay_ms']:.0f}ms, "
      f"restart_identical={r['restart_identical']}")
sys.exit(0 if ok else 1)
PY

echo "verify: OK"
