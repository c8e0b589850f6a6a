#!/usr/bin/env bash
# Repo verification: the tier-1 gate from ROADMAP.md plus the vendored
# proptest stub's own tests, a rustfmt-clean tree, a zero-warning clippy
# pass, the sybil-lint workspace audit (0 violations, stale lint.toml
# entries included, inside its <5s budget), every example run to a zero
# exit, the identity matrix (reports, store bytes and logical metrics
# across RENREN_THREADS and shard counts, and serve ≡ replay), the chaos
# proptests in release, a committed `--faults` schedule through `repro
# chaos`, the kill + warm-restart drill, the mismatched-store smoke
# (another run's store is a typed error), and one step over the repo's
# benchmark (benchmark/run.sh): no failed job, peak RSS inside the
# DESIGN.md budget, no resolved observability overhead above 5%. The
# coordinator's stage ledger and the benchmark's layer readings are
# printed, not gated.
# Run from the workspace root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
# One summary line follows the run, summed over its `test result:`
# lines: test runs (one per test binary and per crate's doc-tests; `-q`
# hides which is which), passed, failed, ignored, and the wall seconds.
# It is printed, not gated.
t1_log="$(mktemp)"
trap 'rm -f "$t1_log"' EXIT
t1_start=$SECONDS
cargo test -q 2>&1 | tee "$t1_log"
python3 - "$t1_log" "$((SECONDS - t1_start))" <<'PY'
import re, sys
results = re.findall(r"test result: \w+\. (\d+) passed; (\d+) failed; (\d+) ignored",
                     open(sys.argv[1]).read())
passed, failed, ignored = (sum(int(r[i]) for r in results) for i in range(3))
print(f"tier-1 tests: {len(results)} test runs, {passed} passed, {failed} failed, "
      f"{ignored} ignored in {sys.argv[2]} s")
PY
rm -f "$t1_log"

echo "== vendored proptest: its own tests (the it:: seed mapping included) =="
# Moving tests/x.rs into a tests/it/ binary must not re-seed its
# proptests: the stub drops a leading `it::` before seeding, pinned by
# its unit tests (outside default-members, so not part of tier-1).
cargo test -q -p proptest

echo "== lint: cargo fmt --check =="
# The same command at the same root as `cargo fmt`, so it checks exactly
# the files that one formats: the root package, every workspace member
# and the vendored path dependencies; benchmark/ is a package of its own.
cargo fmt --check

echo "== lint: cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint: sybil-lint determinism & invariant audit =="
# Release binary (built by the tier-1 step, whose default-members cover
# every crate's binaries) so the <5s budget measures the analysis — one
# lex and one site scan per file, call-graph resolution, the rule table
# — not rustc. A stale lint.toml entry is an S105 violation, so exit 0
# also means `--fix-allowlist` would change nothing (the byte no-op
# itself is asserted in tier-1, crates/sybil-lint/tests/it/workspace_clean.rs).
lint_bin="$root/target/release/sybil-lint"
repro="$root/target/release/repro"
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

echo "== examples: every one runs to completion (release) =="
# Each example is a README scenario, and tier-1 only compiles them: run
# each one, and fail on a panic or a non-zero exit. dataset_export writes
# its CSVs into the temporary directory instead of results/.
n_examples=0
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    args=()
    [ "$name" = dataset_export ] && args=("$bench_tmp/dataset")
    if ! cargo run -q --release --example "$name" -- "${args[@]}" \
        >"$bench_tmp/example.log" 2>&1; then
        cat "$bench_tmp/example.log"
        echo "example $name failed"
        exit 1
    fi
    n_examples=$((n_examples + 1))
done
echo "examples: all $n_examples ran to a zero exit"

echo "== identity matrix: reports, store bytes and logical metrics across threads × shards =="
# The determinism contract: no report, store byte or logical metric may
# depend on RENREN_THREADS or the shard count. One row per guard:
#   label | RENREN_THREADS set | --shards set (0: one shard per thread)
#   | repro arguments ({dir}: the run's own --out directory)
#   | outputs under {dir}: a file, or a directory compared recursively,
#     or FILE:KEY (keep only that JSON section) or FILE:-KEY (drop it).
# Each row runs once per (threads, shards) pair; every output of every
# pair must exist and match the first pair's.
matrix=(
    # §3.1's verdicts must not depend on how the ten (defense, graph)
    # evaluations and their suspects are spread over workers; at 3
    # threads there are more workers than long tasks.
    "defenses tiny/1|1 2 3|0|--scale tiny --seed 1 defenses|tiny-seed1/defenses.json"
    # At small/3 the row also runs Table 1 and the zoo (SMO fits split
    # over workers), and its first run is held to the committed goldens
    # below.
    "defenses small/3|1 2 3|0|--scale small --seed 3 defenses table1 zoo|small-seed3/defenses.json small-seed3/table1.json small-seed3/zoo.json"
    # The mirror folds one block range per thread and pulls the next
    # epoch beside its index pass: no checkpoint (.sybs), journal
    # (.sybj) or serve.json byte may show it.
    "serve store|1 2 3|2|--scale small --seed 3 --store {dir}/store serve|store small-seed3/serve.json"
    # The warm restart re-runs the journal tail, each shard digesting
    # itself beside the others; restart.json names its journal's path.
    "restart store|1 2 3|2|--scale small --seed 3 --store {dir}/store restart|store small-seed3/restart.json:-journal_path"
    # The ground-truth sample is extracted on `par` and kept for the
    # experiments after it; reach tallies one percolation sample while
    # drawing the next; mixing's wild spectral gap runs on a worker; the
    # five folds and the full fit share workers differently per count.
    "sample tiny/11|1 2 3|0|--scale tiny --seed 11 fig1 table1 zoo reach mixing|tiny-seed11/fig1.json tiny-seed11/table1.json tiny-seed11/zoo.json tiny-seed11/reach.json tiny-seed11/mixing.json"
    "reach + mixing small/3|1 2 3|0|--scale small --seed 3 reach mixing|small-seed3/reach.json small-seed3/mixing.json"
    # metrics.json's `logical` section is the contract (`sharded` and
    # `wall` depend on the config and the clock).
    "serve metrics tiny/1|1 8|0 1 8|--scale tiny --metrics {dir} serve|metrics.json:logical"
    # For serve ≡ replay (below) at a shard count that is not a power of
    # two (ownership by division, not a mask), over delta chains long
    # enough that link counts decide audits.
    "serve small/3|2|3|--scale small --seed 3 serve|small-seed3/serve.json"
)
json_view() { # FILE KEY|-KEY: only that JSON section, or all but that field
    python3 -c 'import json, sys; r, k = json.load(open(sys.argv[1])), sys.argv[2]
print(json.dumps({x: v for x, v in r.items() if x != k[1:]} if k[0] == "-" else r[k], sort_keys=True))' "$@"
}
identity_row() { # ROW DIR
    local label threads shard_set args outputs t s d o f ref="" runs=0 files=0
    IFS='|' read -r label threads shard_set args outputs <<<"$1"
    for t in $threads; do
        for s in $shard_set; do
            d="$2/t${t}_s$s"
            # shellcheck disable=SC2086
            RENREN_THREADS=$t "$repro" --shards "$s" --out "$d" ${args//\{dir\}/$d} >/dev/null
            runs=$((runs + 1))
            for o in $outputs; do
                f=${o%%:*}
                [ -e "$d/$f" ] || { echo "identity matrix: $label wrote no $f (RENREN_THREADS=$t, --shards $s)"; exit 1; }
                [ "$f" = "$o" ] || { json_view "$d/$f" "${o#*:}" >"$d/$f.view"; f=$f.view; }
                if [ -z "$ref" ]; then files=$((files + $(find "$d/$f" -type f | wc -l)))
                else diff -r "$ref/$f" "$d/$f"; fi
            done
            ref=${ref:-$d}
        done
    done
    echo "identity matrix: $label — $files files ($outputs) identical over $runs runs," \
        "RENREN_THREADS {$threads} × --shards {$shard_set}"
}
for i in "${!matrix[@]}"; do
    identity_row "${matrix[$i]}" "$bench_tmp/matrix/$i"
    [[ ${matrix[$i]} == "defenses small/3|"* ]] && small3="$bench_tmp/matrix/$i/t1_s0/small-seed3"
done
# §3.1's verdicts, Table 1 and the zoo at small/3 against committed
# goldens: the unit tests' tiny/11 goldens reach no hub near degree
# 1,000, and fewer of their SMO fits run to the pass cap.
for exp in defenses table1 zoo; do
    diff "crates/repro/tests/golden/${exp}_small_seed3.json" "$small3/$exp.json"
done
echo "goldens: small/3 defenses, table1 and zoo JSON equal crates/repro/tests/golden/*_small_seed3.json"
# Serve ≡ replay: `repro serve` byte-compares its static and adaptive
# reports against the sequential replay and records both verdicts.
python3 - "$bench_tmp/matrix" <<'PY'
import glob, json, sys
runs = [json.load(open(p)) for p in glob.glob(f"{sys.argv[1]}/**/serve.json", recursive=True)]
bad = [r["shards"] for r in runs if not (r["matches_replay_static"] and r["matches_replay_adaptive"])]
print(f"identity matrix: serve ≡ replay (static and adaptive) in {len(runs) - len(bad)} of "
      f"{len(runs)} serve.json, shards {sorted({r['shards'] for r in runs})}")
sys.exit(1 if bad or not runs else 0)
PY

echo "== serving engine: the coordinator's stage ledger (reported, not gated) =="
# Where a serve epoch's wall time goes, stage by stage, from the engine's
# own spans: the stages partition the epoch loop, so a change that moves
# one (the mirror's index pass, the rotation inside fold) shows here
# first. `index` covers the index pass and the next epoch's pull beside
# it; `pull` keeps only the pulls nothing overlaps (the first epoch,
# skipped and journal-tail epochs). One run on one box: read it as a
# profile, not a gate.
l_dir="$bench_tmp/stage_ledger"
"$repro" --scale small --seed 42 --shards 2 --out "$l_dir" --metrics "$l_dir" serve >/dev/null
python3 - "$l_dir/metrics.json" <<'PY'
import json, sys
wall = json.load(open(sys.argv[1]))["wall"]
for mode in ("static", "adaptive"):
    spans = [(s, wall[f"serve.{mode}.stage.{s}"]) for s in ("pull", "index", "scan", "merge", "fold")]
    epoch = wall[f"serve.{mode}.epoch"]
    print(f"stage ledger ({mode}, small seed 42, 2 shards, {epoch['count']} epochs, "
          f"index = index pass + overlapped next pull, "
          f"{epoch['total_s']:.3f} s): "
          + ", ".join(f"{s} {v['total_s']:.4f} s" for s, v in spans))
PY

echo "== chaos: fault-injection invariant proptests (release) =="
# The headline invariant — any fault schedule yields output
# byte-identical to the fault-free run OR a typed ChaosError, never
# silent divergence — plus the journal round-trip at 1/2/8 shards, and
# the composed form: the same schedules through a StorePlane-backed
# session that is killed and warm-restarted under them.
cargo test -q --release -p sybil-chaos --test it

echo "== chaos: a committed --faults schedule through the CLI (repro chaos) =="
# scripts/chaos-faults.json names one queue clamp, one shard crash and
# one barrier reorder, each at an epoch the tiny stream reaches on 2
# shards: all three must be tallied, the crash rebuilt out of the
# journal, and an identical run's journal must replay cold to the
# digests it committed.
c_dir="$bench_tmp/chaos_faults"
"$repro" --scale tiny --seed 11 --shards 2 --out "$c_dir" --faults scripts/chaos-faults.json chaos >/dev/null
python3 - "$c_dir/tiny-seed11/chaos.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
rep = r["report"]
injected = sum(rep["injected"].values())
identical = rep["outcome"] == "Identical"
ok = injected == 3 and rep["epochs_replayed"] > 0 and (r["journal_replay_verified"] or not identical)
print(f"chaos --faults: injected {injected} ({rep['injected']}), "
      f"epochs_replayed={rep['epochs_replayed']}, outcome={rep['outcome']}, "
      f"journal_replay_verified={r['journal_replay_verified']}")
sys.exit(0 if ok else 1)
PY

echo "== persistence: kill + warm-restart drill (repro restart) =="
# A seed-derived mid-stream kill must warm-restart from the snapshot
# store + journal tail to a report byte-identical to the uninterrupted
# run — the sybil-store proptest's invariant, on the real repro stream.
r_dir="$bench_tmp/restart_drill"
"$repro" --scale tiny --out "$r_dir" --store "$r_dir/store" restart >/dev/null
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
    "$repro" --scale "$1" --seed 3 --shards 2 --out "$s_dir" --store "$s_dir/store" serve
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
# The persisted stream's peak RSS (beside the scan stream's), its
# durability overhead and its restart latency are reported with their
# spread and not gated: ROADMAP item 3 (durability leftovers) owns them.
# So is the engine's share of the durability overhead (the plane
# residual: digests and the checkpoint's hand-off, what the store's own
# hooks do not time). So are the scan stream's scaling ratios (2 shards
# on 2 threads against 1 shard, wall and shard busy time) and the
# check-heavy job's: ROADMAP aim 1 reads them (item 15, one pool for the
# serving run, measured nothing to win there), and a short run on a box
# whose two vCPUs do not always run side by side cannot gate on them.
# A paper_batch job's experiment groups are reported the same way: where
# the offline reproduction's time sits, for the next change that moves it.
bench_out="$root/benchmark/out"
rm -f "$bench_out"/result-*.json
# A failed job makes run.sh exit non-zero after it has written the
# result; the check below reads `failed`, and a missing result fails it.
for run in "scan_250k --seconds 8 --trace 0" "scan_250k --seconds 8 --trace 1" \
    "checks_sim --seconds 30 --trace 1" "durable_250k --seconds 8 --trace 0" \
    "durable_250k --seconds 18 --trace 1" "paper_batch --seconds 8 --trace 1"; do
    # shellcheck disable=SC2086
    benchmark/run.sh --workload $run --seed 42 >/dev/null 2>>"$bench_tmp/benchmark.log" || true
done
python3 - "$bench_out" <<'PY' || { cat "$bench_tmp/benchmark.log"; exit 1; }
import json, sys
load = lambda name: json.load(open(f"{sys.argv[1]}/result-{name}.json"))
scan, checks, durable = load("scan_250k"), load("checks_sim-trace"), load("durable_250k-trace")
scaling, batch = load("scan_250k-trace"), load("paper_batch-trace")
durable_rss = load("durable_250k")
ok = True

for name, r in (("scan_250k", scan), ("scan_250k traced", scaling), ("checks_sim", checks),
                ("durable_250k", durable_rss), ("durable_250k traced", durable),
                ("paper_batch", batch)):
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
# A traced job records no RSS, so the persisted stream's peak comes from
# its own short untraced run: the same stream killed and warm-restarted,
# read beside the plain scan's.
drss = durable_rss["result"]["metrics"]["peak_rss_mib"]["value"]
print(f"benchmark durable_250k: peak_rss_mib={drss:.0f} MiB ({drss - rss:+.0f} MiB over "
      f"scan_250k's) — reported, not gated")

obs = checks["summaries"]["sybil-serve.obs_overhead_pct"]
print(f"benchmark checks_sim: sybil-serve.obs_overhead_pct q1={obs['q1']:+.1f}% "
      f"(median {obs['median']:+.1f}%, q3 {obs['q3']:+.1f}%, n={obs['n']} on/off pairs; "
      f"q1 <= 5% required)")
ok &= obs["q1"] <= 5.0

spread = lambda s: f"n={s['n']}, q1 {s['q1']:.2f}, q3 {s['q3']:.2f}"
# Where a check-heavy job's time sits, layer by layer: the sequential
# oracle (one span of the run's one set-up, so n=1), one shard's busy
# time, the coordinator, two shards' busy time summed.
for layer in ("sybil-core.replay_s", "sybil-serve.shard_busy_s_shards1", "sybil-serve.coordinator_s",
              "sybil-serve.shard_busy_sum_s_shards2"):
    v = checks["result"]["metrics"][layer]["value"]
    s = checks["summaries"].get(layer, {"n": 1, "q1": v, "q3": v})
    print(f"benchmark checks_sim: {layer}={v:.3f} s "
          f"(n={s['n']}, q1 {s['q1']:.3f}, q3 {s['q3']:.3f}) — reported, not gated")
# Whether two shards beat one on the check-heavy job, wall against wall.
a, b = (checks["summaries"][f"sybil-serve.{k}"] for k in ("run_s_shards2", "run_s_shards1"))
print(f"benchmark checks_sim: sybil-serve.run_s_shards2 ÷ run_s_shards1 = "
      f"{a['median'] / b['median']:.2f} (median {a['median']:.3f} s, n={a['n']}, q1 {a['q1']:.3f}, "
      f"q3 {a['q3']:.3f} ÷ median {b['median']:.3f} s, n={b['n']}, q1 {b['q1']:.3f}, q3 {b['q3']:.3f}) — "
      f"reported, not gated")

for layer in ("reach_s", "mixing_s", "figs_s", "table1_s", "zoo_s", "defenses_s", "cpu_over_wall"):
    s = batch["summaries"][f"sybil-repro.{layer}"]
    print(f"benchmark paper_batch: sybil-repro.{layer}={s['median']:.3f} "
          f"(n={s['n']}, q1 {s['q1']:.3f}, q3 {s['q3']:.3f}) — reported, not gated")
# Each defense alone on the wild graph, one span per run (the §3.1
# stage ledger beside the experiment's defenses_s above).
for defense in ("sybilguard", "sybillimit", "sybilinfer", "conductance", "sumup"):
    layer = f"sybil-defense.{defense}_s"
    v = batch["result"]["metrics"][layer]["value"]
    s = batch["summaries"].get(layer, {"n": 1, "q1": v, "q3": v})
    print(f"benchmark paper_batch: {layer}={v:.3f} "
          f"(n={s['n']}, q1 {s['q1']:.3f}, q3 {s['q3']:.3f}) — reported, not gated")

ss = scaling["summaries"]
for two, one in (("run_s_shards2", "run_s_shards1"), ("shard_busy_sum_s_shards2", "shard_busy_s_shards1")):
    a, b = ss[f"sybil-serve.{two}"], ss[f"sybil-serve.{one}"]
    print(f"benchmark scan_250k: sybil-serve.{two} ÷ {one} = {a['median'] / b['median']:.2f} "
          f"(median {a['median']:.2f} s, {spread(a)} ÷ median {b['median']:.2f} s, {spread(b)}) — "
          f"reported, not gated: ROADMAP aim 1 (measured performance) owns it")

dm, ds = durable["result"]["metrics"], durable["summaries"]
owner = "reported, not gated: ROADMAP item 3 (durability leftovers) owns it"
over = ds["sybil-store.durability_overhead_pct"]
print(f"benchmark durable_250k: sybil-store.durability_overhead_pct median={over['median']:.1f}% "
      f"({spread(over)}; persisted vs plain run, paired) — {owner}")
residual = ds["sybil-serve.plane_residual_s"]
print(f"benchmark durable_250k: sybil-serve.plane_residual_s median={residual['median']:.3f} s "
      f"(n={residual['n']}, q1 {residual['q1']:.3f}, q3 {residual['q3']:.3f}; the engine's "
      f"share of that overhead) — {owner}")
warm, cold = ds["sybil-store.restart_leg_s"], ds["sybil-serve.run_s_shards2"]
print(f"benchmark durable_250k: sybil-store.restart_vs_cold_ratio="
      f"{dm['sybil-store.restart_vs_cold_ratio']['value']:.2f} "
      f"(restart_leg_s median {warm['median']:.2f} s, {spread(warm)} ÷ "
      f"run_s_shards2 median {cold['median']:.2f} s, {spread(cold)}) — {owner}")
sys.exit(0 if ok else 1)
PY

echo "verify: OK"
