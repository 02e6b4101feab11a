import hashlib
import json
import os

import numpy as np
import pytest

from gjekit.cli import main


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--config", str(bad)]) == 2
    schema_bad = _write(tmp_path, {"resolution": 32})  # neither demo nor genfun
    assert main(["check", "--config", schema_bad]) == 2
    unknown = _write(tmp_path, {"genfun": {"kind": "quasilinear"}, "bogus": 1},
                     "unknown.json")
    assert main(["check", "--config", unknown]) == 2


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


def test_demo_pipeline_point_source(tmp_path):
    out = str(tmp_path / "demo")
    rc = main(["demo", "point-source-8", "--resolution", "64",
               "--output-dir", out])
    assert rc == 0
    for fname in ("envelope.json", "convergence.csv", "solve_report.json",
                  "trace_report.json", "estimate_summary.json",
                  "estimate_ledger.csv"):
        assert os.path.exists(os.path.join(out, fname)), fname
    trace = json.loads(open(os.path.join(out, "trace_report.json")).read())
    assert trace["escapes"] <= trace["n_rays"] * 1e-3
    assert trace["max_reflection_residual"] <= 1e-12


def test_custom_solve_config(tmp_path):
    grid_total = 4.0  # box (-1,1)^2 uniform density
    cfg = _write(tmp_path, {
        "genfun": {"kind": "quasilinear"},
        "resolution": 32,
        "targets": [{"point": [0.4, 0.0], "mass": grid_total / 2},
                    {"point": [-0.4, 0.0], "mass": grid_total / 2}],
        "anchor": {"x": [0.0, 0.0], "u": 0.0},
        "tolerances": {"mass_rel": 1e-3},
        "output_dir": str(tmp_path / "custom"),
    })
    assert main(["solve", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "custom" / "solve_report.json").read_text())
    assert rep["converged"]
    assert abs(rep["heights"][0] - rep["heights"][1]) <= 1e-9
