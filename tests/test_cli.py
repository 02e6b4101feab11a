import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import numpy as np
import pytest

import gjekit
from gjekit.builtins import make_builtin
from gjekit.cli import _load_config, main
from gjekit.config import DEFAULT_TOLS, Tolerances
from gjekit.demos import classical_ma_problem, paraboloid_envelope
from gjekit.errors import ConfigError
from gjekit.gconvex import Envelope
from gjekit.grids import DomainGrid
from gjekit.optics import ReflectorSurface, trace_ensemble


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_malformed_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--config", str(bad)]) == 2
    capsys.readouterr()
    # the schema lets a config leave out both demo and genfun (raytrace and
    # estimate read neither); check and a custom solve need the genfun block
    no_genfun = _write(tmp_path, {"resolution": 32, "output_dir": str(tmp_path / "out")},
                       "no_genfun.json")
    for command in ("check", "solve"):
        assert main([command, "--config", no_genfun]) == 2
        err = capsys.readouterr().err
        assert err == "config error: this command needs a 'genfun' block\n", err
    unknown = _write(tmp_path, {"genfun": {"kind": "quasilinear"}, "bogus": 1},
                     "unknown.json")
    assert main(["check", "--config", unknown]) == 2


def test_shipped_schema_and_its_error_messages(tmp_path):
    # the schema is checked against its metaschema here, not on every
    # command; a config error reads as jsonschema.validate's own message
    schema = json.loads(resources.files("gjekit").joinpath("schema.json").read_text())
    jsonschema.validators.validator_for(schema).check_schema(schema)
    bad = [{"genfun": {"kind": "quasilinear"}, "bogus": 1},
           {"genfun": {"kind": "quasilinear"}, "seed": "zero"},
           {"demo": "classical-MA", "counts": {"n_samples": -1}}]
    for k, cfg in enumerate(bad):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(cfg, schema)
        with pytest.raises(ConfigError) as got:
            _load_config(_write(tmp_path, cfg, f"bad{k}.json"))
        assert str(got.value) == f"config schema violation: {expected.value.message}"


def test_envelope_schema_is_a_draft_07_schema():
    schema = json.loads(resources.files("gjekit").joinpath("envelope.schema.json").read_text())
    validator = jsonschema.validators.validator_for(schema)
    validator.check_schema(schema)
    assert validator is jsonschema.Draft7Validator


def test_importing_the_commands_leaves_jsonschema_unimported():
    # jsonschema is imported when a file is first read; importing it with
    # the package would add to every command's start-up
    code = ("import sys, gjekit.cli, gjekit.estimates, gjekit.optics; "
            "print('jsonschema' in sys.modules)")
    src = str(pathlib.Path(gjekit.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


def test_check_quasilinear_passes(tmp_path):
    cfg = _write(tmp_path, {
        "genfun": {"kind": "quasilinear"},
        "interval": [-0.5, 0.5],
        "seed": 0,
        "counts": {"n_samples": 96},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["check", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "check_report.json").read_text())
    assert report["reports"]["qqconv"]["constants"]["fitted_M"] == pytest.approx(1.0)
    assert report["provenance"]["version"]
    assert report["provenance"]["config_hash"]


@pytest.mark.parametrize("kind", ["far_field", "violator", "folded_twist"])
def test_check_runs_on_the_config_interval(tmp_path, kind):
    cfg = _write(tmp_path, {"genfun": {"kind": kind}, "interval": [-0.3, 0.3],
                            "counts": {"n_samples": 16},
                            "output_dir": str(tmp_path / "out")})
    main(["check", "--config", cfg])
    report = json.loads((tmp_path / "out" / "check_report.json").read_text())
    assert report["interval"] == [-0.3, 0.3]


_SMALL_TABLE = {"x_nodes": [0.0, 1.0], "y_nodes": [0.0, 1.0], "values": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("kind, params, named", [
    pytest.param("far_field", {"bogus": 1}, "'bogus'", id="far_field-params0"),
    pytest.param("violator", {"bogus": 1}, "'bogus'", id="violator-params1"),
    pytest.param("folded_twist", {"eps": 1.0}, "'eps'", id="folded_twist-params2"),
    pytest.param("quasilinear", {"source_box": [1.0]}, "'source_box' must be a pair",
                 id="quasilinear-params3"),
    pytest.param("quasilinear", {"target_box": [[0.0], [1.0], [2.0]]},
                 "'target_box' must be a pair", id="target_box"),
    pytest.param("point_source", {"tols": {"tie": 0.001}}, "'tols'", id="tols"),
    pytest.param("quasilinear", {"srange": [-1.0, 1.0, -0.5, 0.5]}, "'srange'", id="srange"),
    pytest.param("minkowski", {"source_chart": {"kind": "box"}}, "'source_chart'",
                 id="source_chart"),
    pytest.param("parallel_beam", {"target_chart": [[-1.0, -1.0], [1.0, 1.0]]},
                 "'target_chart'", id="target_chart"),
    pytest.param("parallel_beam", {"surface": _SMALL_TABLE},
                 "surface table needs at least 4 nodes", id="surface_2x2"),
    pytest.param("parallel_beam", {"surface": "zero"}, "surface must be", id="surface_name"),
    pytest.param("quasilinear", {"cost": 3}, "cost must be", id="cost_number"),
])
def test_bad_genfun_params_exit_2(tmp_path, capsys, kind, params, named):
    cfg = _write(tmp_path, {"genfun": {"kind": kind, "params": params},
                            "output_dir": str(tmp_path / "out")})
    assert main(["check", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: malformed parameters for {kind!r}: ")
    assert named in err and err.count("\n") == 1, err


def test_check_twist_violator_fails_with_witness(tmp_path):
    cfg = _write(tmp_path, {
        "genfun": {"kind": "folded_twist"},
        "seed": 0,
        "counts": {"n_samples": 96},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["check", "--config", cfg]) == 1
    report = json.loads((tmp_path / "out" / "check_report.json").read_text())
    assert not report["reports"]["twist"]["passed"]
    assert report["reports"]["twist"]["witness"]


# sha256 of the "reports" and "crosscheck" blocks of check_report.json
# (json.dumps with sorted keys) at seed 0 and n_samples 200, with the exit
# code.  Measured on x86-64 with numpy 2.4.6 and its bundled OpenBLAS
# 0.3.31; the pin holds for that numpy/BLAS, and another BLAS may round
# the Newton solves differently and move a digest without a code change.
_CHECK_PINS = {
    "far_field": (0, "202ed594a553cddd730a0feedcd7aaaff593dc34566ee7499c5901b56ef5de57"),
    "violator": (1, "12d0772158a661f79c2f743bd5cb1777bdfaf553d5416b301263b714c72433f8"),
}


@pytest.mark.parametrize("kind", sorted(_CHECK_PINS))
def test_check_report_is_pinned(tmp_path, kind):
    cfg = _write(tmp_path, {"genfun": {"kind": kind}, "seed": 0,
                            "counts": {"n_samples": 200},
                            "output_dir": str(tmp_path / "out")})
    rc = main(["check", "--config", cfg])
    report = json.loads((tmp_path / "out" / "check_report.json").read_text())
    blocks = json.dumps({"reports": report["reports"], "crosscheck": report["crosscheck"]},
                        sort_keys=True)
    assert (rc, hashlib.sha256(blocks.encode()).hexdigest()) == _CHECK_PINS[kind]


# the violator at the seeds where many Newton row solves exhaust the
# damping, pinned as _CHECK_PINS
_VIOLATOR_PINS = {
    1: (1, "6ef62880a09865abf86feb148d0b169273c89bea946266604281c0a5d80a141d"),
    2: (1, "50964e3b7b38d2a40d35fef7b11058adff70e1628f5e94a4633f3c7788714072"),
}


@pytest.mark.parametrize("seed", sorted(_VIOLATOR_PINS))
def test_violator_check_report_is_pinned_where_the_damping_runs_out(tmp_path, seed):
    cfg = _write(tmp_path, {"genfun": {"kind": "violator"}, "seed": seed,
                            "counts": {"n_samples": 200},
                            "output_dir": str(tmp_path / "out")})
    rc = main(["check", "--config", cfg])
    report = json.loads((tmp_path / "out" / "check_report.json").read_text())
    blocks = json.dumps({"reports": report["reports"], "crosscheck": report["crosscheck"]},
                        sort_keys=True)
    assert (rc, hashlib.sha256(blocks.encode()).hexdigest()) == _VIOLATOR_PINS[seed]


# sha256 of trace_report.json without its provenance block (json.dumps with
# sorted keys), with the exit code: each optics demo solved at resolution 48,
# then 20,000 rays (more than one trace block) at seeds 0-2.  Measured on
# the same platform as _CHECK_PINS.
_TRACE_PINS = {
    ("point-source-8", 0): (0, "a221976dd9c725202e4c985dc3b1854b1eee211e6badade0b4139602c27b7204"),
    ("point-source-8", 1): (0, "9a58d7a0bc074ebc2e9f568ecf677c3532374cc6604207f7fbac4e3e33f9834d"),
    ("point-source-8", 2): (0, "486c85183b53b0ccd51ba2dfe1a095520f9dc94e132e15d1a24f4ab9daa85964"),
    ("parallel-beam-5", 0): (0, "35e706dbe46d45a6c9b692027ac4f752b77a8b0768f719c1fc7073e3d1a03734"),
    ("parallel-beam-5", 1): (0, "7b4359c99e86bf0cce34918314bc77aa9773f0373e1165b016ddcd4bc84aa420"),
    ("parallel-beam-5", 2): (0, "01eb0194c445b935f6e651dcf4f6fffc4857dbf47de11a9b5c7d0e31341887b4"),
}


@pytest.fixture(scope="module")
def solved_optics_demos(tmp_path_factory):
    root = tmp_path_factory.mktemp("optics")
    for label in ("point-source-8", "parallel-beam-5"):
        cfg = _write(root, {"demo": label, "resolution": 48,
                            "output_dir": str(root / label)}, f"{label}.json")
        assert main(["solve", "--config", cfg]) == 0
    return root


@pytest.mark.parametrize("label, seed", sorted(_TRACE_PINS))
def test_trace_report_is_pinned(solved_optics_demos, label, seed):
    root = solved_optics_demos
    cfg = _write(root, {"demo": label, "resolution": 48, "seed": seed,
                        "counts": {"n_rays": 20_000},
                        "output_dir": str(root / label)}, f"{label}-{seed}.json")
    rc = main(["raytrace", "--config", cfg])
    report = json.loads((root / label / "trace_report.json").read_text())
    report.pop("provenance")
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert (rc, digest) == _TRACE_PINS[label, seed]


# sha256 of the per-ray trace CSV (ray, target, miss) at 20,000 rays, one
# seed per reflector: every ray's target and printed miss, not only the
# report's aggregates
_TRACE_CSV_PINS = {
    ("point-source-8", 0): "bd10f1f4f36011e49cab68bba975dc5680b63be55a40399e48d977966ced19e2",
    ("parallel-beam-5", 1): "681cc7f8cab5cd1fc688b7210e119f0aa3bea61c3c0a679877a4e1bbe8a13877",
}


@pytest.mark.parametrize("label, seed", sorted(_TRACE_CSV_PINS))
def test_trace_csv_is_pinned(solved_optics_demos, tmp_path, label, seed):
    env = Envelope.load(str(solved_optics_demos / label / "envelope.json"))
    path = tmp_path / "rays.csv"
    trace_ensemble(ReflectorSurface(env), 20_000, seed=seed, csv_path=path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _TRACE_CSV_PINS[label, seed]


def test_solve_deterministic_byte_identical(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        cfg = _write(tmp_path, {"demo": "classical-MA", "resolution": 48,
                                "seed": 0, "output_dir": str(out)},
                     f"{out.name}.json")
        assert main(["solve", "--config", cfg]) == 0
    e1 = (out1 / "envelope.json").read_bytes()
    e2 = (out2 / "envelope.json").read_bytes()
    assert e1 == e2


def test_solve_report_counts_oracle_work(tmp_path):
    reports = []
    for out in (tmp_path / "o1", tmp_path / "o2"):
        cfg = _write(tmp_path, {"demo": "classical-MA", "resolution": 96,
                                "output_dir": str(out)}, f"{out.name}.json")
        assert main(["solve", "--config", cfg]) == 0
        reports.append(json.loads((out / "solve_report.json").read_text()))
    assert reports[0] == reports[1]
    assert reports[0]["oracle_calls"] == 1206
    assert reports[0]["oracle_builds"] == 117


def test_raytrace_without_envelope_exit_2(tmp_path):
    cfg = _write(tmp_path, {"demo": "point-source-8", "resolution": 48,
                            "output_dir": str(tmp_path / "nothing")})
    assert main(["raytrace", "--config", cfg]) == 2


def test_tolerances_block_exit_2(tmp_path, capsys):
    # a run always uses the default tolerances, so a config cannot carry any
    cfg = _write(tmp_path, {
        "genfun": {"kind": "quasilinear"},
        "resolution": 16,
        "targets": [{"point": [0.4, 0.0], "mass": 2.0},
                    {"point": [-0.4, 0.0], "mass": 2.0}],
        "tolerances": {"mass_rel": 1e-3},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config schema violation: "
                          "Additional properties are not allowed ('tolerances'"), err
    assert not (tmp_path / "out").exists()
    # from Python, an override names a field; focal_miss is a plausible
    # tolerance name that no field carries
    for key in ("no_such_tol", "focal_miss"):
        with pytest.raises(ConfigError, match=rf"unknown tolerance overrides: \['{key}'\]"):
            DEFAULT_TOLS.with_overrides(mass_rel=1e-3, **{key: 1.0})


def test_every_tolerance_field_is_read():
    # a field no code reads would accept an override and ignore it
    pkg = pathlib.Path(gjekit.__file__).parent
    text = "".join(p.read_text() for p in sorted(pkg.glob("*.py")) if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(Tolerances)
              if not re.search(rf"tols\.{f.name}\b", text)]
    assert unread == []


def _schema_properties(node):
    """Every key that some ``properties`` block of a schema names."""
    if isinstance(node, list):
        return set().union(*map(_schema_properties, node))
    if not isinstance(node, dict):
        return set()
    return set(node.get("properties", {})).union(*map(_schema_properties, node.values()))


def test_every_envelope_schema_key_is_read():
    # a key nothing rebuilds from would pass the schema and be ignored;
    # the schema alone reads format_version and surface, each of which has
    # one admitted value (1 and "zero"), and the genfun's name is a label
    # for readers of the file
    schema = json.loads(resources.files("gjekit").joinpath("envelope.schema.json").read_text())
    pkg = pathlib.Path(gjekit.__file__).parent
    text = "".join((pkg / f).read_text() for f in ("gconvex.py", "builtins.py", "charts.py"))
    unread = sorted(k for k in _schema_properties(schema)
                    if not re.search(rf'(\[|\.get\()"{k}"', text))
    assert unread == ["format_version", "name", "surface"]


def test_every_config_key_is_read():
    # a key no command reads would pass the schema and be ignored
    schema = json.loads(resources.files("gjekit").joinpath("schema.json").read_text())
    text = (pathlib.Path(gjekit.__file__).parent / "cli.py").read_text()
    unread = [k for k in schema["properties"]
              if not re.search(rf'cfg(\.get\(|\[)"{k}"', text)]
    unread += [f"counts.{k}" for k in schema["properties"]["counts"]["properties"]
               if not re.search(rf'\.get\("counts", \{{\}}\)\.get\("{k}"', text)]
    assert unread == []


_GOOD_GENFUN = make_builtin("quasilinear").descriptor()


# each case keeps the id it has had since the hand-written checks, which
# named the exception a malformed file raised; the message is now the
# envelope schema's, or a domain check's where no schema can state the rule
@pytest.mark.parametrize("doc, message", [
    pytest.param({"format_version": 99},
                 "at the top level: 'genfun' is a required property",
                 id="doc0-unsupported envelope format"),
    pytest.param({"format_version": 2, "genfun": _GOOD_GENFUN, "grid_resolution": [8, 8],
                  "pieces": [[[0.0, 0.0], 0.0]]},
                 "at format_version: 1 was expected", id="format_version_2"),
    pytest.param({"format_version": 1, "grid_resolution": [8, 8],
                  "pieces": [[[0.0, 0.0], 0.0]]},
                 "at the top level: 'genfun' is a required property", id="doc1-lacks ['genfun']"),
    pytest.param({"format_version": 1, "genfun": _GOOD_GENFUN, "grid_resolution": [8, 8],
                  "pieces": [[[0.0, 0.0]]]},
                 "at pieces/0: [[0.0, 0.0]] is too short", id="doc2-IndexError"),
    pytest.param({"format_version": 1, "genfun": _GOOD_GENFUN, "grid_resolution": [8],
                  "pieces": [[[0.0, 0.0], 0.0]]},
                 ": resolution rank must match chart dimension",
                 id="doc3-ValueError('resolution rank"),
    pytest.param({"format_version": 1,
                  "genfun": {k: v for k, v in _GOOD_GENFUN.items() if k != "range"},
                  "grid_resolution": [8, 8], "pieces": [[[0.0, 0.0], 0.0]]},
                 "at genfun: 'range' is a required property", id="doc4-KeyError('range')"),
    pytest.param('{"format_version": 1, "genfun":',
                 ": Expecting value: line 1 column 32 (char 31)", id="truncated"),
    pytest.param([], "at the top level: [] is not of type 'object'",
                 id="doc6-does not hold a JSON object"),
    pytest.param(1, "at the top level: 1 is not of type 'object'",
                 id="1-does not hold a JSON object"),
    pytest.param(None, "at the top level: None is not of type 'object'",
                 id="None-does not hold a JSON object"),
    pytest.param({"format_version": 1, "genfun": _GOOD_GENFUN, "grid_resolution": [8, 8],
                  "pieces": 5},
                 "at pieces: 5 is not of type 'array'", id="doc9-TypeError"),
    pytest.param({"format_version": 1, "genfun": _GOOD_GENFUN, "grid_resolution": 8,
                  "pieces": [[[0.0, 0.0], 0.0]]},
                 "at grid_resolution: 8 is not of type 'array'", id="doc10-TypeError"),
    pytest.param({"format_version": 1, "genfun": [_GOOD_GENFUN], "grid_resolution": [8, 8],
                  "pieces": [[[0.0, 0.0], 0.0]]},
                 "is not of type 'object'", id="doc11-AttributeError"),
    pytest.param({"format_version": 1, "genfun": _GOOD_GENFUN, "grid_resolution": [8, 8],
                  "pieces": [[[0.0, 0.0], "high"]]},
                 "at pieces/0/1: 'high' is not of type 'number'",
                 id='doc12-ValueError("could not convert string to float'),
    pytest.param({"format_version": 1, "genfun": _GOOD_GENFUN, "grid_resolution": [8, 8],
                  "pieces": []},
                 "at pieces: [] should be non-empty",
                 id="doc13-ValueError('envelope needs matching, nonempty piece arrays')"),
    # the grid scan would give this piece cells that Envelope.eval never does
    pytest.param({"format_version": 1, "genfun": _GOOD_GENFUN, "grid_resolution": [8, 8],
                  "pieces": [[[0.0, 0.0], 0.0], [[5.0, 5.0], 0.0]]},
                 "piece 1 has its focus or height outside the domain",
                 id="doc14-piece 1 has its focus or height outside the domain"),
    # NaN nowhere, infinity only at the ends of the scalar range
    pytest.param({"format_version": 1,
                  "genfun": {**_GOOD_GENFUN, "range": {**_GOOD_GENFUN["range"],
                                                       "nice_lower": -np.inf}},
                  "grid_resolution": [8, 8], "pieces": [[[0.0, 0.0], 0.0]]},
                 "at genfun/range/nice_lower: -inf is less than the minimum",
                 id="infinite_nice_lower"),
    pytest.param({"format_version": 1,
                  "genfun": {**_GOOD_GENFUN, "range": {**_GOOD_GENFUN["range"],
                                                       "lower": np.nan}},
                  "grid_resolution": [8, 8], "pieces": [[[0.0, 0.0], 0.0]]},
                 ": NaN is not a number a file may hold", id="nan_range_lower"),
    pytest.param({"format_version": 1, "genfun": _GOOD_GENFUN, "grid_resolution": [8, 8],
                  "pieces": [[[0.0, 0.0], np.inf]]},
                 "at pieces/0/1: inf is greater than the maximum", id="infinite_height"),
    pytest.param({"format_version": 1, "genfun": _GOOD_GENFUN, "grid_resolution": [8, 8],
                  "pieces": [[[0.0, 0.0], 0.0]], "extra": 1},
                 "at the top level: Additional properties are not allowed ('extra' was "
                 "unexpected)", id="extra_key"),
    # the estimate multiplies the focus count by this volume
    *[pytest.param({"format_version": 1, "genfun": _GOOD_GENFUN, "grid_resolution": [8, 8],
                    "pieces": [[[0.0, 0.0], 0.0]], "focus_cell_volume": vol},
                   f"at focus_cell_volume: {message}",
                   id=f"doc{k}-focus_cell_volume must be a finite number > 0")
      for k, vol, message in [(15, "big", "'big' is not of type 'number', 'null'"),
                              (16, [0.1], "[0.1] is not of type 'number', 'null'"),
                              (17, -1.0, "-1.0 is less than or equal to the minimum of 0")]],
])
def test_bad_envelope_file_exit_2(tmp_path, capsys, doc, message):
    env = tmp_path / "envelope.json"
    env.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    for command in ("raytrace", "estimate"):
        cfg = _write(tmp_path, {"envelope": str(env), "output_dir": str(tmp_path / "out")})
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err, err
        assert str(env) in err and err.count("\n") == 1, err


def _run(argv):
    """Exit code, stderr and wall time of one in-process command."""
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue(), time.perf_counter() - t0


@pytest.fixture(scope="module")
def classical_ma_file(tmp_path_factory):
    """The classical-MA demo envelope at its manufactured heights, saved."""
    problem, z_true = classical_ma_problem(96)
    path = tmp_path_factory.mktemp("classical") / "envelope.json"
    Envelope(problem.gf, (problem.targets, z_true), problem.grid).save(path)
    return path


def _estimate_on(tmp_path, doc, counts=None):
    env = tmp_path / "envelope.json"
    env.write_text(json.dumps(doc))
    cfg = _write(tmp_path, {"envelope": str(env), "counts": counts or {"n_sections": 4},
                            "output_dir": str(tmp_path / "out")})
    return env, _run(["estimate", "--config", cfg])


@pytest.mark.parametrize("resolution", [[0, 96], [-3, 96], [np.inf, 96], [1e6, 1e6],
                                        [96.5, 96]])
def test_bad_grid_resolution_exit_2_at_once(tmp_path, classical_ma_file, resolution):
    doc = json.loads(classical_ma_file.read_text())
    env, (rc, err, wall) = _estimate_on(tmp_path, {**doc, "grid_resolution": resolution})
    assert rc == 2 and wall < 1.0, (err, wall)
    assert f"envelope file {env} breaks its schema at grid_resolution/" in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("resolution, source_hi", [([2, 2], [1.0, 1.0]),
                                                   ([1, 96], [1.0, 1.0]),
                                                   ([96, 96], [100.0, 1.0])])
def test_estimate_without_interior_cells_exit_1(tmp_path, classical_ma_file, resolution,
                                                source_hi):
    doc = json.loads(classical_ma_file.read_text())
    doc["grid_resolution"] = resolution
    doc["genfun"]["source_chart"]["hi"] = source_hi
    _, (rc, err, _) = _estimate_on(tmp_path, doc)
    assert (rc, err) == (1, "error: hypothesis violated: no_interior_cells "
                            f"({err.split('(', 1)[1]}"), err
    assert err.count("\n") == 1, err


def test_unbounded_count_exit_2_at_once(tmp_path, classical_ma_file):
    doc = json.loads(classical_ma_file.read_text())
    _, (rc, err, wall) = _estimate_on(tmp_path, doc, counts={"n_sections": 1e308})
    assert rc == 2 and wall < 1.0, (err, wall)
    assert err == ("config error: config schema violation: "
                   "1e+308 is greater than the maximum of 10000\n"), err


@pytest.mark.parametrize("change, message", [
    ({"targets": [{"point": [0.4, 0.0], "mass": float("nan")},
                  {"point": [-0.4, 0.0], "mass": 2.0}]},
     "NaN is not a number a file may hold"),
    ({"interval": [1e308, -1e308]}, "interval must be [low, high] with low < high"),
    ({"interval": [float("nan"), 0.5]}, "NaN is not a number a file may hold"),
    ({"interval": [-0.5, float("inf")]}, "inf is greater than the maximum"),
    ({"interval": [-2e6, 0.5]}, "inside the nice interval (-1e+06, 1e+06)"),
    ({"interval": [0.5, -0.5]}, "interval must be [low, high] with low < high"),
    ({"genfun": {"kind": "quasilinear",
                 "params": {"source_box": [[-1.0, -1.0], [1.0, float("inf")]]}}},
     "inf is greater than the maximum"),
], ids=["nan_mass", "interval_1e308", "interval_nan", "interval_inf", "interval_wide",
        "interval_reversed", "infinite_param"])
def test_non_finite_or_outside_values_exit_2_at_once(tmp_path, change, message):
    cfg = _write(tmp_path, {**_CUSTOM, **change, "output_dir": str(tmp_path / "out")})
    for command in ("check", "solve"):
        rc, err, wall = _run([command, "--config", cfg])
        assert rc == 2 and wall < 1.0, (err, wall)
        assert err.startswith("config error: ") and message in err, err
        assert err.count("\n") == 1, err


def test_envelope_range_ends_may_be_infinite(tmp_path, classical_ma_file):
    # the quasilinear range is all of R; -1e400 parses to -inf
    text = classical_ma_file.read_text()
    assert '"lower": -Infinity' in text
    path = tmp_path / "envelope.json"
    path.write_text(text.replace('"lower": -Infinity', '"lower": -1e400'))
    assert Envelope.load(path).gf.srange.lower == -np.inf


def test_envelopes_that_cannot_rebuild_are_refused_by_name(tmp_path):
    nodes = [-1.0, -0.5, 0.5, 1.0]
    for gf, name in [
            (make_builtin("quasilinear", cost=lambda x, xb: -float(x @ xb)), "callable"),
            (make_builtin("parallel_beam", surface={"x_nodes": nodes, "y_nodes": nodes,
                                                    "values": np.zeros((4, 4)).tolist()}),
             "grid")]:
        env = tmp_path / f"{name}.json"
        Envelope(gf, ([[0.0, 0.0]], [1.0]), DomainGrid(gf.source_chart, 8)).save(env)
        for command in ("raytrace", "estimate"):
            cfg = _write(tmp_path, {"envelope": str(env), "output_dir": str(tmp_path / "out")})
            rc, err, _ = _run([command, "--config", cfg])
            assert rc == 2 and f"'{name}' is not one of" in err, err
            assert str(env) in err and err.count("\n") == 1, err


def test_demo_pipeline_point_source(tmp_path):
    out = str(tmp_path / "demo")
    rc = main(["demo", "point-source-8", "--resolution", "64",
               "--output-dir", out])
    assert rc == 0
    for fname in ("envelope.json", "convergence.csv", "solve_report.json",
                  "trace_report.json"):
        assert os.path.exists(os.path.join(out, fname)), fname
    # the demo runs no estimate stage: at the default demo resolutions every
    # section it drew was too large for the Aleksandrov check
    for fname in ("estimate_summary.json", "estimate_ledger.csv"):
        assert not os.path.exists(os.path.join(out, fname)), fname
    trace = json.loads(open(os.path.join(out, "trace_report.json")).read())
    assert trace["escapes"] <= trace["n_rays"] * 1e-3
    assert trace["max_reflection_residual"] <= 1e-12


def test_estimate_on_a_saved_dense_envelope(tmp_path):
    # a dense paraboloid has sections small enough for the Aleksandrov
    # check: at seed 0, 5 of the 10 sections evaluate, each a ledger row
    # with a finite implied constant, and a rerun writes the same ledger
    env = paraboloid_envelope(half=0.9, cell=0.015, focus_extent=0.62, focus_spacing=0.015)
    env.save(tmp_path / "envelope.json")
    ledgers = []
    for run in ("first", "again"):
        cfg = _write(tmp_path, {"envelope": str(tmp_path / "envelope.json"), "seed": 0,
                                "counts": {"n_sections": 10},
                                "output_dir": str(tmp_path / run)}, f"{run}.json")
        assert main(["estimate", "--config", cfg]) == 0
        ledgers.append((tmp_path / run / "estimate_ledger.csv").read_bytes())
    assert ledgers[0] == ledgers[1]
    ok = [r for r in csv.DictReader(io.StringIO(ledgers[0].decode())) if r["ok"] == "1"]
    assert len(ok) >= 1
    assert all(np.isfinite(float(r["implied_constant"])) for r in ok)


def test_custom_solve_config(tmp_path):
    grid_total = 4.0  # box (-1,1)^2 uniform density
    cfg = _write(tmp_path, {
        "genfun": {"kind": "quasilinear"},
        "resolution": 32,
        "targets": [{"point": [0.4, 0.0], "mass": grid_total / 2},
                    {"point": [-0.4, 0.0], "mass": grid_total / 2}],
        "anchor": {"x": [0.0, 0.0], "u": 0.0},
        "output_dir": str(tmp_path / "custom"),
    })
    assert main(["solve", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "custom" / "solve_report.json").read_text())
    assert rep["converged"]
    assert abs(rep["heights"][0] - rep["heights"][1]) <= 1e-9


_CUSTOM = {"genfun": {"kind": "quasilinear"}, "resolution": 16,
           "targets": [{"point": [0.4, 0.0], "mass": 2.0}, {"point": [-0.4, 0.0], "mass": 2.0}],
           "anchor": {"x": [0.0, 0.0], "u": 0.0}}


@pytest.mark.parametrize("change, message", [
    ({"targets": [{"point": [0.4, 0.0, 0.0], "mass": 2.0},
                  {"point": [-0.4, 0.0], "mass": 2.0}]}, "target points need 2 coordinates each"),
    ({"anchor": {"x": [0.0], "u": 0.0}}, "the anchor point needs 2 coordinates"),
    ({"targets": [{"point": [3.0, 0.0], "mass": 2.0},
                  {"point": [-0.4, 0.0], "mass": 2.0}]},
     "target points must lie in the target chart"),
    ({"anchor": {"x": [3.0, 0.0], "u": 0.0}}, "the anchor point must lie in the source chart"),
], ids=["point_length", "anchor_length", "target_outside", "anchor_outside"])
def test_bad_custom_solve_exit_2(tmp_path, capsys, change, message):
    cfg = _write(tmp_path, {**_CUSTOM, **change, "output_dir": str(tmp_path / "out")})
    assert main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
