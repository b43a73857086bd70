"""homlie benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload fingerprint --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all

The run builds the workload's round from --seed, makes one untimed
warm-up call, then repeats the round until --seconds have passed, timing
every call and checking every answer outside the timed region.  The
percentiles are taken over the round's operations, each timed by its
mean over the run's rounds, so that they follow the host's speed as
smoothly as the throughput does.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  --workload all
runs every workload in its own process and prints each one's result.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS/OpenMP thread, fixed before numpy loads: threaded BLAS spins
# under load and makes small matrix calls wildly slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HOMLIE_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3    # set-ups per timed run (this process and two more)


def _fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _load_homlie():
    sys.path.insert(0, SRC)
    import homlie
    import homlie.cli  # noqa: F401  (the flow workload calls homlie.cli.main)
    if os.path.dirname(os.path.abspath(homlie.__file__)) != os.path.join(SRC, "homlie"):
        _fail(f"imported homlie from {homlie.__file__}, not from {SRC}")
    return homlie


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _environment(np, scipy):
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _run_op(op, tracer=None):
    """(seconds, failure) of one timed call and its check.

    failure is None, ("raised", message) or ("wrong", message); both
    kinds count as failed, and only a wrong answer makes the run
    incorrect.  With a tracer, its counters run during the call only.
    """
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter() - t0, ("raised", f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = time.perf_counter() - t0
    try:
        op.check(result)
    except Exception as exc:  # a wrong answer, or a check that cannot read it
        return elapsed, ("wrong", f"{type(exc).__name__}: {exc}")
    return elapsed, None


def _setup(workload, seed, workdir):
    """Import homlie, build the round, make the warm-up call: the set-up."""
    from workloads import WORKLOADS
    ops = WORKLOADS[workload](_load_homlie(), seed, workdir)
    _, warm_failure = _run_op(ops[0])
    return ops, warm_failure


def _measure(ops, seconds, tracer):
    """Repeat the round until the time is up: (times, failures, rounds)."""
    times, failures = [], []
    rounds = 0
    loop_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in ops:
            elapsed, failure = _run_op(op, tracer)
            times.append(elapsed)
            if failure is not None:
                failures.append((op.kind,) + failure)
        rounds += 1
        now = time.perf_counter()
        # start another round only if it would end nearer the deadline
        if now - loop_start + 0.5 * (now - round_start) >= seconds:
            return times, failures, rounds


def _child_setup_seconds(args):
    """Set-up time of a fresh process doing the same set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        _fail(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _op_means(times, ops_per_round):
    """Mean time of each operation of the round over the run's rounds."""
    return [statistics.fmean(times[i::ops_per_round]) for i in range(ops_per_round)]


def _percentile(values, q):
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def run_workload(args):
    load_start = os.getloadavg()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=_work_root())
    try:
        ops, warm_failure = _setup(args.workload, args.seed, workdir)
        setup_own = time.perf_counter() - T_START
        if args.setup_only:
            print(repr(setup_own))
            return 0
        import numpy as np
        import scipy

        tracer = None
        if args.trace:
            from layers import Tracer
            tracer = Tracer()
            tracer.install()
        loop_start = time.perf_counter()
        times, failures, rounds = _measure(ops, args.seconds, tracer)
        loop_seconds = time.perf_counter() - loop_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            metrics = tracer.metrics(rounds)
        else:
            setups = [setup_own] + [_child_setup_seconds(args)
                                    for _ in range(SETUP_REPEATS - 1)]
            means = _op_means(times, len(ops))
            metrics = {
                "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
                "op_p50_ms": {"value": 1e3 * _percentile(means, 0.5), "unit": "ms"},
                "op_p90_ms": {"value": 1e3 * _percentile(means, 0.9), "unit": "ms"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  **_environment(np, scipy), "loadavg_start": load_start,
                  "loadavg_end": os.getloadavg(), "rounds": rounds,
                  "ops_per_round": len(ops), "loop_s": loop_seconds,
                  "op_s_per_round": sum(times) / rounds, "warm_up": ops[0].kind,
                  "kinds": _kind_summary(times, [op.kind for op in ops], rounds)}
        if tracer is None:
            record["setup_s_each"] = setups
        if warm_failure is not None:
            failures.insert(0, ("warm-up " + ops[0].kind,) + warm_failure)
        for kind, how, message in failures[:20]:
            print(f"failed ({how}): {kind}: {message}", file=sys.stderr)
        print("run " + json.dumps(record))
        print(json.dumps({"correct": not any(how == "wrong" for _, how, _ in failures),
                          "attempted": len(times),
                          "failed": len(failures) - (warm_failure is not None),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _kind_summary(times, round_kinds, rounds):
    by_kind = {}
    for t, k in zip(times, round_kinds * rounds):
        by_kind.setdefault(k, []).append(t)
    return {k: {"per_round": len(v) // rounds, "p50_ms": 1e3 * statistics.median(v)}
            for k, v in by_kind.items()}


def _work_root():
    path = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(path, exist_ok=True)
    return path


def run_all(args, names):
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            _fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="orbit, fingerprint, flow, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the measured loop (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    for path in (os.path.join(ROOT, "BENCHMARK.json"), os.path.join(SRC, "homlie", "__init__.py")):
        if not os.path.isfile(path):
            _fail(f"{path} is missing; run from a checkout of the repository")
    spec = _benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    return run_workload(args)

if __name__ == "__main__":
    sys.exit(main())
