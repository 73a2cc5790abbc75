#!/usr/bin/env bash
# Repeatability of the benchmark on this machine, by the protocol the
# benchmark is accepted under: two sets of runs on one build, each set
# one run per seed (default 10 seeds) on every workload. For every
# end-to-end metric on every workload it prints each set's median and
# spread (distance between the quartiles as a share of the median) and
# how far the second median lies from the first, in either direction, next
# to the metric's bound from BENCHMARK.json. A spread or a shift beyond the
# bound is a breach: the script exits nonzero and names the metric for
# demotion to a per-layer diagnostic (it is not kept with a looser bound). One
# traced run per workload, twice, checks that the counts repeat exactly
# (recall, a mean summed in hash-map order, to 1e-9).
#
#   benches/e2e/repeat.sh [seeds] [first-seed] > benches/e2e/BASELINE.md
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
cargo build --release --offline --quiet --manifest-path benches/e2e/Cargo.toml
exe="${CARGO_TARGET_DIR:-benches/e2e/target}/release/amcad-e2e"

python3 - "$exe" "${1:-10}" "${2:-1}" <<'PY'
import json, statistics, subprocess, sys

exe, seeds, first = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
spec = json.load(open("BENCHMARK.json"))
seconds = str(spec["run_seconds"])
workloads = [w["name"] for w in spec["workloads"]]

def run(workload, seed, trace):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", trace],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), [l for l in lines if l.startswith("# ")]

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip() or "unknown"
_, header = run(workloads[0], first, "0")
print("# Baseline of `benches/e2e` on the reference machine\n")
print("Written by `benches/e2e/repeat.sh`; regenerate it whenever the benchmark itself changes.\n")
print(f"- commit `{commit}` (the parent of the commit that holds this file)")
print(f"- {header[1][2:]}")
print(f"- seeds {first}..{first + seeds - 1}, two sets of {seeds} runs per workload, `--seconds {seconds}`")
print(f"- sample counts of one run, `{workloads[0]}` seed {first}:")
for line in header[2:]:
    print(f"  - {line[2:]}")

breaches = []
sets = {w: [[run(w, first + i, "0")[0] for i in range(seeds)] for _ in range(2)] for w in workloads}
print("\n## End-to-end metrics: two sets of runs\n")
print("| workload | metric | unit | median 1 | median 2 | spread 1 | spread 2 | shift | bound | |")
print("|---|---|---|---|---|---|---|---|---|---|")
for w in workloads:
    failed = sum(r["failed"] for s in sets[w] for r in s)
    if failed:
        breaches.append(f"{w}: {failed} operations failed")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = ([r["metrics"][name]["value"] for r in s] for s in sets[w])
        ma, mb = statistics.median(a), statistics.median(b)
        # the two sets must agree: a second set better than the first by
        # more than the bound means one of them was disturbed, too
        shift = (mb - ma) / ma
        worst = max(spread(a), spread(b), abs(shift))
        verdict = "BREACH" if worst > bound else "steady" if worst <= bound / 3 else "within bound"
        if worst > bound:
            breaches.append(f"{name} on {w}: spreads {spread(a):.3f} / {spread(b):.3f}, shift {shift:+.3f}, bound {bound}")
        print(f"| {w} | {name} | {m['unit']} | {ma:.6g} | {mb:.6g} | {spread(a):.3f} | {spread(b):.3f} | {shift:+.3f} | {bound} | {verdict} |")

print("\n## Counts that must repeat exactly (traced run, same seed twice)\n")
print("| workload | metric | value | |")
print("|---|---|---|---|")
for w in workloads:
    a, b = run(w, first, "1")[0], run(w, first, "1")[0]
    for m in spec["per_layer"]:
        # recall is a mean summed in hash-map order: equal to rounding, not to the bit
        slack = 1e-9 if m["name"].endswith("recall_at_20") else 0.0
        if m["unit"] not in ("count", "B") and not slack and m["name"] != "engine.batch_dedup_ratio":
            continue
        va, vb = a["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"]
        same = abs(va - vb) <= slack
        if not same:
            breaches.append(f"{m['name']} on {w}: {va} then {vb}")
        print(f"| {w} | {m['name']} | {va:.6g} | {('exact' if not slack else 'to 1e-9') if same else 'DIFFERS'} |")
    va, vb = (s[0]["metrics"]["snapshot_mb"]["value"] for s in sets[w])
    if va != vb:
        breaches.append(f"snapshot_mb on {w}: {va} then {vb}")
    print(f"| {w} | snapshot_mb | {va:.6g} | {'exact' if va == vb else 'DIFFERS'} |")

print("\n## Verdict\n")
if breaches:
    print("Breaches (demote each named metric to a per-layer diagnostic; do not loosen its bound):\n")
    for b in breaches:
        print(f"- {b}")
    sys.exit(1)
print("Every end-to-end metric repeats within its bound on every workload, and every count repeats exactly.")
PY
