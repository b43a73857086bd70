"""Tests of the benchmark itself: its checks, its output and its determinism.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import homlie  # noqa: E402
import homlie.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- the checks catch wrong answers ------------------------------------------

def test_perturbed_rotated_pair_fails():
    rng = np.random.default_rng(5)
    mu = homlie.milnor_bracket(1.0, 1.5, 2.5)
    nu = workloads._rotated(homlie, homlie.milnor_bracket(1.0, 1.5, 2.6), rng)
    op = workloads.Op("rotated_simple", lambda: homlie.invariant_distance(mu, nu),
                      workloads._orbit_check(homlie, mu, nu, 0.0, True), ())
    _, failure = run._run_op(op)
    assert failure is not None and failure[0] == "wrong" and "rotated pair" in failure[1]


def test_wrong_closed_form_fails(monkeypatch):
    mu = homlie.milnor_bracket(1, 2, 3)
    jet = homlie.metric_jet(mu, 2)
    workloads._jet_check(homlie, mu, 2)(jet)
    wrong = workloads.degree2_jet(mu.c, 0, 3)
    key = next(iter(wrong))
    wrong[key] += Fraction(1, 7)
    monkeypatch.setattr(workloads, "degree2_jet", lambda c, q, n: wrong)
    with pytest.raises(CheckFailed, match="closed form"):
        workloads._jet_check(homlie, mu, 2)(jet)
    # the Ricci closed form of the series curvature
    tensors = homlie.curvature_derivatives(jet, 0)
    workloads._series_check(homlie, mu, 0, (1, 2, 3))(tensors)
    with pytest.raises(CheckFailed, match="closed form"):
        workloads._series_check(homlie, mu, 0, (1, 2, 4))(tensors)


def test_non_fraction_coefficient_fails():
    mu = homlie.circle_isotropy3(Fraction(1, 2), 1, Fraction(-3, 2), 2)
    jet = homlie.metric_jet(mu, 3)
    check = workloads._jet_check(homlie, mu, 3)
    check(jet)
    idx = jet.space.size - 1
    jet.g[0, 0, idx] = float(jet.g[0, 0, idx])
    with pytest.raises(CheckFailed, match="not Fractions"):
        check(jet)


def test_flow_check_catches_a_wrong_final_state(tmp_path):
    ops = workloads.build_flow(homlie, 3, str(tmp_path))
    op = ops[0]                        # plain Heisenberg flow
    outcome = op.call()
    op.check(outcome)
    path = next(p for p in tmp_path.iterdir() if p.suffix == ".csv")
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    col = lines[1].split(",").index("c_1_2_0")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-4))
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    with pytest.raises(CheckFailed):
        op.check(outcome)


# -- determinism --------------------------------------------------------------

def _flatten(inputs):
    out = []
    for v in inputs:
        if isinstance(v, np.ndarray):
            out.append((v.dtype.str, v.shape, tuple(v.ravel().tolist())))
        else:
            out.append(v)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_gives_the_same_operation_list(name, tmp_path):
    build = workloads.WORKLOADS[name]
    a, b, c = (build(homlie, seed, str(tmp_path)) for seed in (7, 7, 8))
    assert [op.kind for op in a] == [op.kind for op in b]
    assert [_flatten(op.inputs) for op in a] == [_flatten(op.inputs) for op in b]
    assert [_flatten(op.inputs) for op in a] != [_flatten(op.inputs) for op in c]


# -- output ----------------------------------------------------------------------

def test_percentiles_are_over_each_operations_mean():
    # two rounds of three operations: means 2, 20 and 200
    times = [1.0, 10.0, 100.0, 3.0, 30.0, 300.0]
    means = run._op_means(times, 3)
    assert means == [2.0, 20.0, 200.0]
    assert run._percentile(means, 0.5) == 20.0
    assert run._percentile(means, 0.9) == 20.0 + 0.8 * 180.0


def test_metric_names_match_benchmark_json():
    spec = _spec()
    timed = _bench("--workload", "flow", "--seed", "2", "--seconds", "0.5", "--trace", "0")
    traced = _bench("--workload", "flow", "--seed", "2", "--seconds", "0.5", "--trace", "1")
    assert set(timed) == set(traced) == {"correct", "attempted", "failed", "metrics"}
    assert timed["correct"] and timed["failed"] == 0 and timed["attempted"] >= 1
    assert ({k: v["unit"] for k, v in timed["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec["end_to_end"]})
    assert ({k: v["unit"] for k, v in traced["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec["per_layer"]})
    assert all(v["value"] > 0 for v in timed["metrics"].values())


@pytest.mark.parametrize("name", ["flow", "fingerprint"])
def test_per_layer_counts_repeat(name):
    runs = [_bench("--workload", name, "--seed", "4", "--seconds", "1", "--trace", "1")
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flow",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
