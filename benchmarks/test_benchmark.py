"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads

BENCH = Path(__file__).resolve().parent
SEED = 7


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """Two traced executions of every workload on the same inputs."""
    work = tmp_path_factory.mktemp("bench")
    env = run.prepare(work)
    run.probe(env, 170.0)
    out = {}
    for w in run.WORKLOADS:
        out[w] = [run.execute(w, SEED, work / f"{w}{i}", env, True, 170.0) for i in range(2)]
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(traced_pairs, workload):
    a, b = traced_pairs[workload]
    for r in (a, b):
        assert not r["broken"], r["problems"]
        assert r["failed"] == 0 and r["attempted"] == workloads.operations(workload), r["problems"]
    assert run.trace_counts(a["trace"]) == run.trace_counts(b["trace"])


def test_traced_run_confirms_workload_split(traced_pairs):
    def calls(workload, prefix):
        c = traced_pairs[workload][0]["trace"]["calls"]
        return sum(v for k, v in c.items() if k.startswith(prefix))

    assert calls("edge", "exterior.") == 0
    assert calls("edge", "reporting.") == 0
    assert sum(calls("certify", k) for k in run.TRAJECTORY_FNS) == 0
    layers = traced_pairs["sweep"][0]["trace"]["layer_self_s"]
    assert layers["exterior"] >= 0.7 * sum(layers.values())


def test_vacuous_closure_engine_fails_the_negative_control(tmp_path, monkeypatch):
    sys.path.insert(0, str(run.ROOT / "src"))
    from g2cone import exterior, flow

    # an engine that certifies everything, or derives from flow, must be caught
    monkeypatch.setattr(exterior, "torsion_residual", lambda state, derivs, psi=None: (0.0, 0.0))
    monkeypatch.setattr(exterior, "solve_torsion_free_derivs",
                        lambda state, psi=None: flow.rhs(state))
    inp = workloads.inputs("certify", SEED)
    raw = workloads.run("certify", inp, tmp_path)
    failed, problems = workloads.check("certify", inp, raw, tmp_path)
    assert failed >= workloads.FLIP_SAMPLES
    assert any("flipped" in p for p in problems)


def test_times_scale_to_the_reference_speed():
    runs = [{"setup_s": 0.4 + 0.1 * i, "run_s": 2.0 + i, "rss_mb": 80.0} for i in range(3)]
    # the kernel ran at half speed on average: times halve
    kernel = [1.5 * reference.REFERENCE_S, 2.5 * reference.REFERENCE_S]
    m = run.end_to_end_metrics(runs, kernel)
    assert m["setup_s"]["value"] == pytest.approx(0.25)
    assert m["run_s"]["value"] == pytest.approx(1.5)
    assert m["peak_rss_mb"]["value"] == 80.0


def test_fails_without_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "edge",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / BENCH.name / ".work").exists()
