"""Central tolerance record, and the one reader of the files a run reads.

All modules read their numerical tolerances from one immutable record, the
generating function's ``tols`` (the defaults unless set from Python).

A run reads two kinds of JSON file, each described by a shipped draft-07
schema: the run config (``schema.json``) and a saved envelope
(``envelope.schema.json``).  ``read_json`` parses either, checks it against
its schema and turns any failure into a one-line ``ConfigError``; the
schemas state every structural rule, and only the checks a schema cannot
state (cross-field and domain checks) are left to the code that builds from
the file.
"""

import functools
import json
from dataclasses import dataclass, replace, fields
from importlib import resources

from .errors import ConfigError


@dataclass(frozen=True)
class Tolerances:
    # scalar inversion: |G(x, xbar, H(x, xbar, u)) - u| <= h_inverse * max(1, |u|)
    h_inverse: float = 1e-10
    # exponential-map Newton residual; well below the 1e-8 point-space
    # roundtrip contract so jacobian conditioning cannot eat the margin
    exp_residual: float = 1e-11
    # envelope tie tolerance (absolute, on function values)
    tie: float = 1e-9
    # solver mass tolerance, relative to the total source mass
    mass_rel: float = 1e-6
    # ray tracing: target snap distance (target-chart units)
    snap: float = 1e-6
    # reflection-law residual
    reflect: float = 1e-12
    # tensor sweeps: violation threshold for the fourth-order form
    tensor_floor: float = 1e-8
    # orthogonality required of (V, eta) pairs, relative
    ortho: float = 1e-10
    # convex-hull coordinate snap used before exact-arithmetic hull tests
    hull_snap: float = 1e-12
    # generic containment slack for chart/hull membership tests
    hull_slack: float = 1e-8
    # nondegeneracy: smallest acceptable |det E|
    nondeg_min_det: float = 1e-10
    # twist check: smallest acceptable output/input separation ratio
    twist_ratio: float = 1e-6

    # iteration budgets
    newton_max_iter: int = 50
    newton_max_halvings: int = 30
    h_max_iter: int = 100
    bracket_max_doublings: int = 60
    solver_max_sweeps: int = 10_000

    def with_overrides(self, **kw) -> "Tolerances":
        known = {f.name for f in fields(self)}
        bad = set(kw) - known
        if bad:
            raise ConfigError(f"unknown tolerance overrides: {sorted(bad)}")
        return replace(self, **kw)


DEFAULT_TOLS = Tolerances()


# per file kind: its shipped schema, the noun a read error uses and the form
# of a schema violation; a config violation names no file, since a run reads
# one config, the one its command line names
_FILES = {
    "config": ("schema.json", "config", "config schema violation: {message}"),
    "envelope": ("envelope.schema.json", "envelope file",
                 "envelope file {path} breaks its schema at {at}: {message}"),
}


@functools.cache
def _validator(schema_file):
    """Validator of a shipped schema, built once per process; jsonschema is
    imported here, not at module level, and the schemas themselves are
    checked against their metaschema by the tests."""
    from jsonschema.validators import validator_for
    schema = json.loads(resources.files("gjekit").joinpath(schema_file).read_text())
    return validator_for(schema)(schema)


def _refuse_nan(name):
    # json calls this for the bare words NaN, Infinity and -Infinity; the
    # schemas say where an infinity may stand
    if name == "NaN":
        raise ValueError("NaN is not a number a file may hold")
    return float(name)


def read_json(path, kind):
    """The document in the file at ``path``, checked against the schema of
    its ``kind`` ("config" or "envelope"); ConfigError otherwise."""
    from jsonschema.exceptions import best_match
    schema_file, noun, violation = _FILES[kind]
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_refuse_nan)
    except (OSError, ValueError) as e:  # a JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read {noun} {path}: {e}") from e
    error = best_match(_validator(schema_file).iter_errors(doc))
    if error is not None:
        at = "/".join(str(p) for p in error.absolute_path) or "the top level"
        raise ConfigError(violation.format(path=path, at=at, message=error.message))
    return doc
