"""Benchmark a change against a parent revision in alternated pairs.

    python3 bench/record.py --parent REV --pr 21 --pairs flow:1:5 --pairs flow:11:3 \
        --pairs orbit:1:3 --trace flow --claim flow.ops_per_s --tier1

The parent is exported with `git archive REV` into a temporary directory;
the change is this checkout, so each side runs from its own tree.  For
each --pairs WORKLOAD:SEED:COUNT it runs `perfbench/run.py --workload
WORKLOAD --seed SEED` COUNT times per side, alternating: odd pairs run the
parent first, even pairs the change.
Each workload named by --trace gets one `--trace 1` run per side at seed 1.
The result goes to BENCH_<pr>.json at the root of this checkout, in the
layout of the earlier BENCH files: every run, the change/parent ratio of
each pair, medians, quartiles (linear percentiles 25 and 75) and the
count of pairs the change wins.  The file is rewritten after every pair,
so an interrupted recording keeps what it measured.  Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, into):
    """Write the tree of revision rev into the new directory into; return into."""
    os.makedirs(into)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return into


def run_bench(tree, workload, seed, seconds, trace=0):
    """(result, environment) of one perfbench run in tree: its last JSON line and its run line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("run ")), {})
    return json.loads(lines[-1]), env


def percentile(values, q):
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summarize(spec, parent_runs, change_runs):
    """One metric over the pairs made so far, in the BENCH layout."""
    higher = spec["better"] == "higher"
    pm, cm = statistics.median(parent_runs), statistics.median(change_runs)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent_runs, change_runs))
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent_median": pm, "parent_q1_q3": [percentile(parent_runs, 0.25),
                                                  percentile(parent_runs, 0.75)],
            "change_median": cm, "change_q1_q3": [percentile(change_runs, 0.25),
                                                  percentile(change_runs, 0.75)],
            "change_over_parent": cm / pm if pm else None,
            "change_wins": f"{wins}/{len(parent_runs)}",
            "pair_ratios": [c / p if p else None for p, c in zip(parent_runs, change_runs)],
            "parent_runs": parent_runs, "change_runs": change_runs}


def claim_text(workloads, name):
    """A one-line account of the claimed workload.metric over every seed it was run at."""
    workload, metric = name.split(".", 1)
    parts = []
    for key, entry in workloads.items():
        if not key.startswith(workload + "_seed"):
            continue
        m = entry["metrics"][metric]
        q1, q3 = m["parent_q1_q3"]
        above = abs(m["change_median"] - m["parent_median"]) > q3 - q1
        parts.append(f"seed {entry['seed']}: {m['change_wins']} pairs, median "
                     f"x{m['change_over_parent']:.3g} ({m['parent_median']:.4g} -> "
                     f"{m['change_median']:.4g}), difference "
                     f"{'above' if above else 'within'} the parent's interquartile range "
                     f"({q3 - q1:.3g})")
    return f"{metric} on {workload}: " + "; ".join(parts)


def tier1(tree):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tree, capture_output=True, text=True, env=env)
    return proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr[-200:]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--pr", required=True, help="writes BENCH_<pr>.json")
    ap.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD:SEED:COUNT")
    ap.add_argument("--trace", default="", help="comma-separated workloads for one traced run")
    ap.add_argument("--seconds", type=float, help="per run (default: BENCHMARK.json)")
    ap.add_argument("--claim", help="WORKLOAD.METRIC to summarize as the claim")
    ap.add_argument("--description", default="")
    ap.add_argument("--tier1", action="store_true", help="also run the tests in both trees")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    metric_specs = {m["name"]: m for m in spec["end_to_end"]}
    plan = []
    for item in args.pairs:
        workload, seed, count = item.split(":")
        plan.append((workload, int(seed), int(count)))

    out_path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    scratch = tempfile.mkdtemp(prefix="bench-record-")
    try:
        trees = {"parent": export(args.parent, os.path.join(scratch, "parent")), "change": ROOT}
        doc = {"description": args.description, "host": {"cpus": os.cpu_count()},
               "end_to_end": {"command": f"python3 perfbench/run.py --workload W --seed S "
                                         f"({seconds:g} s per run)",
                              "protocol": "alternating pairs: odd pairs run parent first, even "
                                          "pairs change first, each side from its own tree "
                                          f"(parent: git archive {args.parent}). Quartiles are "
                                          "linear percentiles 25 and 75. change_wins counts "
                                          "pairs where the change reads better; pair_ratios "
                                          "are change / parent.",
                              "claim": "", "workloads": {}}}

        def save():
            if args.claim:
                doc["end_to_end"]["claim"] = claim_text(doc["end_to_end"]["workloads"], args.claim)
            with open(out_path, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")

        for workload, seed, count in plan:
            runs = {"parent": [], "change": []}
            entry = doc["end_to_end"]["workloads"][f"{workload}_seed{seed}"] = {"seed": seed}
            for pair in range(1, count + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    result, env = run_bench(trees[side], workload, seed, seconds)
                    runs[side].append(result)
                    doc["host"].update({k: env[k] for k in ("python", "numpy", "scipy", "blas")
                                        if k in env})
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          f"{result['metrics']['ops_per_s']['value']:.1f} ops/s", file=sys.stderr)
                values = {side: {name: [r["metrics"][name]["value"] for r in runs[side]]
                                 for name in runs[side][0]["metrics"]} for side in runs}
                entry.update({
                    "pairs": pair,
                    "correct": all(r["correct"] for side in runs for r in runs[side]),
                    "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                    "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
                    "metrics": {name: summarize(metric_specs[name], values["parent"][name],
                                                values["change"][name])
                                for name in values["parent"]}})
                save()

        traced = [w for w in args.trace.split(",") if w]
        if traced:
            doc["per_layer_trace"] = {
                "command": f"python3 perfbench/run.py --workload W --seed 1 --trace 1 "
                           f"--seconds {seconds:g}",
                "unit_note": "per pass through the workload's round; one run per side; "
                             "metrics that are 0 on both sides omitted"}
            for workload in traced:
                res = {side: run_bench(trees[side], workload, 1, seconds, trace=1)[0]
                       for side in ("parent", "change")}
                metrics = {}
                for name, m in res["parent"]["metrics"].items():
                    p, c = m["value"], res["change"]["metrics"][name]["value"]
                    if p or c:
                        metrics[name] = {"unit": m["unit"], "parent": p, "change": c}
                doc["per_layer_trace"][workload] = {
                    "attempted": {s: res[s]["attempted"] for s in res},
                    "failed": {s: res[s]["failed"] for s in res}, "metrics": metrics}
                save()
        if args.tier1:
            doc["tier1"] = {"command": "OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q",
                            "parent": tier1(trees["parent"]), "change": tier1(trees["change"])}
        save()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
