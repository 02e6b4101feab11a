"""Tests of the benchmark itself: metric tables, seed-0 inputs, counters.

The counter test runs the seed-0 point-source-8 pipeline (solve @256, one
1e5-ray ensemble, estimate) traced twice, about a minute in all.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gjekit import cli, demos  # noqa: E402


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in spans.PER_LAYER]


@pytest.mark.parametrize("label, resolution, genfun, reflector", workloads.DEMOS)
def test_solve_configs_load_as_the_shipped_demos(tmp_path, label, resolution,
                                                 genfun, reflector):
    wl = workloads.SolveDemos(0, str(tmp_path))
    paths = next(d[2] for d in wl.demos if d[0] == label)
    loaded = cli._problem_from_config(cli._load_config(paths["solve"]))
    shipped, _ = demos.demo_problem(label, resolution)
    assert loaded.gf.descriptor() == shipped.gf.descriptor()
    assert loaded.grid.resolution == shipped.grid.resolution
    for attr in ("targets", "masses", "anchor_x"):
        assert np.array_equal(getattr(loaded, attr), getattr(shipped, attr))
    assert loaded.anchor_u == shipped.anchor_u
    assert len(paths["raytrace"]) == (workloads.N_ENSEMBLES if reflector else 0)


def _traced_point_source_pass(work_dir):
    wl = workloads.SolveDemos(0, work_dir)
    label, out, paths, masses = wl.demos[0]
    assert label == "point-source-8"
    wl.demos = [(label, out, dict(paths, raytrace=paths["raytrace"][:1]), masses)]
    rec = spans.SpanRecorder("test")
    rec.install()
    try:
        p = workloads.Pass(rec)
        wl.run_pass(p)
    finally:
        rec.uninstall()
    assert p.failures == []
    metrics = spans.layer_metrics(rec, p.op_s, p.op_s, p.bytes_written)
    return {k: metrics[k] for k in spans.COUNTERS}


def test_traced_counters_repeat_and_match_the_solver_baseline(tmp_path):
    first = _traced_point_source_pass(str(tmp_path / "a"))
    second = _traced_point_source_pass(str(tmp_path / "b"))
    assert first == second
    # point-source-8 @256 baseline: 267 sweeps, 18 rounds, 28,914 oracle calls
    assert first["solver.sweeps"] == 267
    assert first["solver.outer_rounds"] == 18
    assert first["solver.oracle_calls"] == 28_914
    assert first["kernels.piece_mass.calls"] == 28_914
    assert first["optics.rays"] == workloads.N_RAYS


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "check-conditions", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
