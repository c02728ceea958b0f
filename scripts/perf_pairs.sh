#!/usr/bin/env bash
# Alternating parent/change pairs of the BENCHMARK.json benchmark.
#
#   scripts/perf_pairs.sh <parent-checkout> <change-checkout> [pairs=10] [trace] [workload ...]
#
# Each checkout is built once by its own copy of the BENCHMARK.json command
# into its own CARGO_TARGET_DIR, then pair i (seed i) runs every workload on
# both sides, the parent first when i is odd and the change first when it is
# even, for the benchmark's own run_seconds. Named workloads restrict the
# pairs to those (say, 10 pairs of the one a change claims, then fewer of
# the rest in a second call). Prints, per workload and end-to-end metric,
# each side's median [q1, q3], the ratio of the medians and how many pairs
# the change won (ties count for neither); then each invocation's elapsed
# seconds (the timed window plus the harness's untimed checks) and each
# side's total; then every raw run. With `trace`, one `--trace 1`
# invocation per side and workload follows the timed pairs (seed 11, the
# harness default), and the per-layer metrics that differ by more than 5 %
# are printed side by side: where the saving appeared. Run it on a quiet
# machine: nothing else should compile or compute while it times. Raw
# outputs stay in the directory it names at the end.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
pairs=10
trace=0
only=()
for arg in "$@"; do
    case $arg in
    trace) trace=1 ;;
    *[!0-9]*) only+=("$arg") ;;
    *) pairs=$arg ;;
    esac
done
out=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")

# Building a checkout can rewrite its perf_suite/Cargo.lock (the committed
# lock may list a dependency the manifests no longer have), and that
# directory is the benchmark's own: each side's lock is copied aside before
# any build and put back when the script exits, however it exits.
locks=()
for dir in "$parent" "$change"; do
    if [ -f "$dir/perf_suite/Cargo.lock" ]; then
        cp "$dir/perf_suite/Cargo.lock" "$out/Cargo.lock.${#locks[@]}"
        locks+=("$dir/perf_suite/Cargo.lock")
    fi
done
restore_locks() {
    local i
    for i in "${!locks[@]}"; do
        cp "$out/Cargo.lock.$i" "${locks[$i]}"
    done
}
trap restore_locks EXIT

# The benchmark's command, workloads and run length come from the change's
# BENCHMARK.json; a pair means nothing if the parent declares another one.
spec="$change/BENCHMARK.json"
cmp -s "$spec" "$parent/BENCHMARK.json" ||
    echo "warning: the two checkouts' BENCHMARK.json differ; using the change's" >&2
mapfile -t cmd < <(python3 -c 'import json,sys; print(*json.load(open(sys.argv[1]))["command"], sep="\n")' "$spec")
mapfile -t workloads < <(python3 -c 'import json,sys; print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]], sep="\n")' "$spec")
if [ ${#only[@]} -gt 0 ]; then
    for w in "${only[@]}"; do
        if ! printf '%s\n' "${workloads[@]}" | grep -qx -- "$w"; then
            echo "unknown workload $w; BENCHMARK.json has: ${workloads[*]}" >&2
            exit 2
        fi
    done
    workloads=("${only[@]}")
fi
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")

# bench <side> <args...>: the BENCHMARK.json command from that checkout.
bench() {
    local side=$1 dir
    shift
    if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
    (cd "$dir" && CARGO_TARGET_DIR="$out/target-$side" "${cmd[@]}" "$@")
}

# timed <side> <workload> <label> <args...>: one invocation, its output in
# $out/<side>.<workload>.<label>.{txt,err} and its elapsed seconds, start to
# exit, in $out/elapsed.tsv and on stderr.
timed() {
    local side=$1 w=$2 label=$3 t0 secs
    shift 3
    t0=$(date +%s.%N)
    # A run with failed operations exits 1; its JSON still counts.
    bench "$side" --workload "$w" "$@" \
        >"$out/$side.$w.$label.txt" 2>"$out/$side.$w.$label.err" || true
    secs=$(python3 -c 'import sys; print(f"{float(sys.argv[2]) - float(sys.argv[1]):.2f}")' "$t0" "$(date +%s.%N)")
    printf '%s\t%s\t%s\t%s\n' "$side" "$w" "$label" "$secs" >>"$out/elapsed.tsv"
    echo "    $secs s" >&2
}

for side in parent change; do
    echo "building $side ..." >&2
    bench "$side" --print-benchmark-json >/dev/null
done

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for w in "${workloads[@]}"; do
        for side in $order; do
            echo "pair $i/$pairs  $w  $side" >&2
            timed "$side" "$w" "$i" --seed "$i" --seconds "$seconds" --trace 0
        done
    done
done

if [ "$trace" = 1 ]; then
    for w in "${workloads[@]}"; do
        for side in parent change; do
            echo "trace  $w  $side" >&2
            timed "$side" "$w" trace --seed 11 --seconds "$seconds" --trace 1
        done
    done
fi

python3 - "$spec" "$out" "$pairs" "$trace" "${workloads[@]}" <<'EOF'
import json, statistics, sys

bench, out, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
trace = sys.argv[4] == "1"
workloads = sys.argv[5:]

def run(side, workload, i):
    lines = open(f"{out}/{side}.{workload}.{i}.txt").read().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None

def g(v):
    # Six digits for times; byte counts in full, so equality is visible.
    return f"{v:.6g}" if abs(v) < 1e6 else f"{v:.1f}".removesuffix(".0")

def summary(values):
    if len(values) < 2:
        return g(values[0]) if values else "no runs"
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{g(med)} [{g(q1)}, {g(q3)}]"

raw, ops = [], []
print(f"| workload | metric | parent | change | change/parent | change wins of {pairs} |")
print("|---|---|---|---|---|---|")
for w in workloads:
    runs = [(run("parent", w, i), run("change", w, i)) for i in range(1, pairs + 1)]
    for side, col in (("parent", 0), ("change", 1)):
        done = [r[col] for r in runs if r[col]]
        ops.append(f"{w} {side}: {sum(r['failed'] for r in done)} failed of "
                   f"{sum(r['attempted'] for r in done)} operations, "
                   f"{len(runs) - len(done)} runs without a result")
    for m in bench["end_to_end"]:
        name = m["name"]
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in runs if p and c and name in p["metrics"] and name in c["metrics"]]
        ps, cs = [p for p, _ in both], [c for _, c in both]
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in both)
        ties = sum(c == p for p, c in both)
        ratio = (f"{statistics.median(cs) / statistics.median(ps):.3f}"
                 if ps and statistics.median(ps) else "-")
        print(f"| {w} | {name} ({m['unit']}) | {summary(ps)} | {summary(cs)} | {ratio} | "
              f"{wins}" + (f" ({ties} ties)" if ties else "") + " |")
        raw.append(f"{w} {name} parent/change by seed: "
                   + ", ".join(f"{g(p)}/{g(c)}" for p, c in both))
elapsed = {}
for line in open(f"{out}/elapsed.tsv"):
    side, w, label, secs = line.split("\t")
    if label != "trace":
        elapsed.setdefault((side, w), []).append(float(secs))
print()
print("Elapsed seconds per timed invocation (timed window plus the harness's untimed checks):")
print()
print("| workload | parent | change | change/parent |")
print("|---|---|---|---|")
for w in workloads:
    ps, cs = elapsed.get(("parent", w), []), elapsed.get(("change", w), [])
    ratio = (f"{statistics.median(cs) / statistics.median(ps):.3f}"
             if ps and cs and statistics.median(ps) else "-")
    print(f"| {w} | {summary(ps)} | {summary(cs)} | {ratio} |")
for side in ("parent", "change"):
    total = sum(sum(v) for (s, _), v in elapsed.items() if s == side)
    print(f"{side}: {total:.1f} s over {sum(len(v) for (s, _), v in elapsed.items() if s == side)} timed invocations")
print()
print("\n".join(ops + raw))

if trace:
    print()
    print("Per-layer metrics of one traced run a side (seed 11) that differ by more than 5 %:")
    print()
    print("| workload | metric | parent | change | change/parent |")
    print("|---|---|---|---|---|")
    for w in workloads:
        p, c = run("parent", w, "trace"), run("change", w, "trace")
        if not (p and c):
            print(f"| {w} | no traced result on {'parent' if not p else 'change'} | | | |")
            continue
        for m in bench["per_layer"]:
            name = m["name"]
            if name not in p["metrics"] or name not in c["metrics"]:
                continue
            pv, cv = p["metrics"][name]["value"], c["metrics"][name]["value"]
            if abs(cv - pv) <= 0.05 * abs(pv):
                continue
            ratio = f"{cv / pv:.3f}" if pv else "-"
            print(f"| {w} | {name} ({m['unit']}) | {g(pv)} | {g(cv)} | {ratio} |")
EOF
rm -rf "$out/target-parent" "$out/target-change"
echo "raw outputs: $out" >&2
