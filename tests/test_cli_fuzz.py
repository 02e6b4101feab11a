"""Mutation fuzzer of every file the CLI reads.

Each example takes one small valid file, a solve, check, raytrace or
estimate config or a saved envelope of one generating-function kind,
replaces one JSON node with a bad value or deletes it, and runs the command
that reads it in process.  The command must exit 0, 1 or 2 and never raise;
on exit 2 it prints one line, which names a refused envelope file.
"""

import contextlib
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gjekit import demos
from gjekit.builtins import make_builtin
from gjekit.cli import main
from gjekit.gconvex import Envelope
from gjekit.grids import DomainGrid

BAD_VALUES = (None, 0, -1, 1e308, math.nan, math.inf, -math.inf, "", "x", True,
              [], [1.5], {}, {"x": 1})
DELETE = object()

# refusals of an envelope that loaded: they concern the run, not the file
_AFTER_LOAD = re.compile(r"config error: (no reflector geometry for .*|"
                         r"rays left the region covered by the envelope)\n")


def _tangent_envelope(gf, target_coords, u):
    """Three pieces through the value u at the source chart's center."""
    xbars = gf.target_chart.embed(np.asarray(target_coords, dtype=float))
    x0 = gf.source_chart.embed(np.zeros((1, gf.source_chart.dim)))
    zs = gf.inverse(np.repeat(x0, len(xbars), axis=0), xbars, np.full(len(xbars), u))
    return Envelope(gf, (xbars, zs), DomainGrid(gf.source_chart, 8))


def _demo_envelope(problem_and_heights):
    problem, z_true = problem_and_heights
    return Envelope(problem.gf, (problem.targets[:3], z_true[:3]), problem.grid)


_FOCI = [[0.0, 0.0], [0.2, 0.1], [-0.1, 0.2]]


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """(command choices, file name, document) of each file the fuzzer mutates;
    an envelope is read through the config ``envelope.json`` points at."""
    root = tmp_path_factory.mktemp("fuzz")
    envelopes = {
        "quasilinear": _demo_envelope(demos.classical_ma_problem(8)),
        "point_source": _demo_envelope(demos.point_source_8_problem(16)),
        "parallel_beam": _demo_envelope(demos.parallel_beam_5_problem(16)),
        "minkowski": _tangent_envelope(make_builtin("minkowski"), _FOCI, 1.0),
        "far_field": _tangent_envelope(demos.far_field_genfun(), _FOCI, 0.0),
        "violator": _tangent_envelope(demos.violator_genfun(), _FOCI, 0.0),
        "folded_twist": _tangent_envelope(demos.folded_twist_genfun(), _FOCI, 0.0),
    }
    envelopes["quasilinear"].focus_cell_volume = 0.01
    out = []
    for kind, env in envelopes.items():
        env.save(root / f"{kind}.json")
        out.append((("estimate", "raytrace"), "envelope.json",
                    json.loads((root / f"{kind}.json").read_text())))
    configs = {
        "solve": {"genfun": {"kind": "quasilinear"}, "resolution": 8,
                  "targets": [{"point": [0.4, 0.0], "mass": 2.0},
                              {"point": [-0.4, 0.0], "mass": 2.0}],
                  "anchor": {"x": [0.0, 0.0], "u": 0.0}, "seed": 0},
        "check": {"genfun": {"kind": "far_field", "params": {"cap_deg": 30.0}},
                  "interval": [-0.3, 0.3], "counts": {"n_samples": 8}, "seed": 0},
        "raytrace": {"envelope": str(root / "point_source.json"),
                     "counts": {"n_rays": 200}, "seed": 0},
        "estimate": {"envelope": str(root / "quasilinear.json"),
                     "counts": {"n_sections": 4}, "seed": 0},
    }
    out += [((command,), "config.json", {**cfg, "output_dir": "out"})
            for command, cfg in configs.items()]
    out.append((("solve",), "config.json",
                {"demo": "classical-MA", "resolution": 8, "output_dir": "out"}))
    return out


def _nodes(doc, at=()):
    """The path of every node of a JSON document, the root first."""
    yield at
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, child in items:
        yield from _nodes(child, at + (key,))


def _mutated(doc, at, value):
    if not at:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[at[-1]]
    else:
        parent[at[-1]] = value
    return doc


@contextlib.contextmanager
def _inside(path):
    # a config without output_dir writes to the working directory
    here = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(here)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_files_exit_0_1_or_2_with_one_line(bases, tmp_path_factory, data):
    commands, name, doc = data.draw(st.sampled_from(bases), label="base")
    at = data.draw(st.sampled_from(list(_nodes(doc))), label="node")
    value = data.draw(st.sampled_from(BAD_VALUES + ((DELETE,) if at else ())), label="value")
    command = data.draw(st.sampled_from(commands), label="command")
    work = tmp_path_factory.mktemp("run")
    (work / name).write_text(json.dumps(_mutated(doc, at, value)))
    if name == "envelope.json":
        (work / "config.json").write_text(json.dumps(
            {"envelope": str(work / name), "counts": {"n_sections": 3, "n_rays": 100},
             "output_dir": "out"}))
    err = io.StringIO()
    with _inside(work), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--config", "config.json"])
    err = err.getvalue()
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.count("\n") == 1, err
        if name == "envelope.json":
            assert str(work / name) in err or _AFTER_LOAD.fullmatch(err), err
