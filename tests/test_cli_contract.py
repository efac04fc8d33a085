"""Property test of the CLI contract: every argv exits 0, 2 or 3 and raises nothing.

Exit 2 is a validity violation and exit 3 a numerical failure (see
splitmc.errors); any other exception escaping main is a failure to classify.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest

from splitmc.cli import main
from splitmc.zoo import model_names

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

_EDGES = [sign * 10.0**e for sign in (1.0, -1.0) for e in (300, -300, 200, -200)]
_FLOATS = st.one_of(
    st.sampled_from(_EDGES + [1e8, 1e-8, 0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
    st.floats(-1e6, 1e6))
_INTS = st.integers(-2, 6)

_MODEL_FLOATS = ("sigma", "mu", "kappa", "big-m", "a-norm")
_MODEL_INTS = ("b", "d", "n", "data-seed")
_EXPERIMENT_KEYS = {
    "bias-toy": {"sigma": _FLOATS, "b": _INTS, "mu": _FLOATS, "n_grid": _INTS,
                 "log10_rho_min": _FLOATS, "log10_rho_max": _FLOATS},
    "rate-toy": {"sigma": _FLOATS, "b": _INTS, "mu": _FLOATS, "rho": _FLOATS,
                 "theta0": _FLOATS, "t_max": _INTS},
}


def _flags(draw, floats, ints):
    """Up to three of the flags, each as --name=value so that -1e300 is not read as an option."""
    names = draw(st.lists(st.sampled_from(floats + ints), max_size=3, unique=True))
    return [f"--{name}={draw(_INTS if name in ints else _FLOATS)!r}" for name in names]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["plan", "sample", "bias", "bias-toy", "rate-toy"]))
    if command == "plan":
        theorem = draw(st.sampled_from(["w1", "tv-single", "tv-multi", "tv-ns"]))
        return ["plan", "--theorem", theorem, f"--eps={draw(_FLOATS)!r}",
                "--model", draw(st.sampled_from(model_names())),
                *_flags(draw, ("m", "R", *_MODEL_FLOATS), _MODEL_INTS)]
    if command == "sample":
        return ["sample", "--model", draw(st.sampled_from(model_names())),
                f"--rho={draw(_FLOATS)!r}", f"--sweeps={draw(st.integers(-2, 3))}",
                *_flags(draw, _MODEL_FLOATS, (*_MODEL_INTS, "burn-in", "record-every", "seed"))]
    if command == "bias":
        return ["bias", *_flags(draw, ("sigma", "mu", "log10-rho-min", "log10-rho-max"),
                                ("b", "grid-points", "seed"))]
    key, values = draw(st.sampled_from(sorted(_EXPERIMENT_KEYS[command].items())))
    return ["experiment", command, "--set", f"{key}={draw(values)!r}"]


@given(argvs())
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
# Argvs that once escaped main with an untyped exception.
@example(["bias", "--mu=1e+300"])
@example(["experiment", "rate-toy", "--set", "sigma=100000000.0"])
@example(["experiment", "rate-toy", "--set", "rho=10000.0"])
@example(["experiment", "rate-toy", "--set", "sigma=10000.0"])
@example(["experiment", "rate-toy", "--set", "theta0=1e+200"])
@example(["plan", "--theorem", "tv-multi", "--eps=0.1", "--model", "toy-gaussian-1", "--mu=nan"])
@example(["experiment", "bias-toy", "--set", "log10_rho_max=-1e+300"])
def test_every_argv_exits_0_2_or_3(argv):
    with tempfile.TemporaryDirectory() as tmp:
        # plan and bias write one CSV file, sample and experiment a directory.
        out = Path(tmp) / ("out.csv" if argv[0] in ("plan", "bias") else "out")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--out", str(out)])
    assert code in (0, 2, 3)
