"""Property tests of the CLI contract: every argv exits 0, 2 or 3 and raises nothing.

Exit 2 is a validity violation and exit 3 a numerical failure (see
splitmc.errors); any other exception escaping main is a failure to classify,
and so is a numpy RuntimeWarning. An experiment that exits 0 prints no NaN,
and an experiment --set value of another kind than its key's exits 2.
"""

import contextlib
import io
import math
import re
import tempfile
import warnings
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
# Every experiment's --set keys and their kinds; (int,) is a grid of ints.
_SET_KINDS = {
    "bias-toy": {"sigma": float, "b": int, "mu": float, "n_grid": int,
                 "log10_rho_min": float, "log10_rho_max": float},
    "rate-toy": {"sigma": float, "b": int, "mu": float, "rho": float, "theta0": float,
                 "t_max": int},
    "gaussian-mixing": {"which": str, "eps": float, "replicates": int, "d_grid": (int,),
                        "m": float, "M": float, "n_chains": int, "kappa_grid": (float,),
                        "d": int, "n_chains_w1": int, "eps_grid": (float,),
                        "d_precision": int, "kappa_precision": float,
                        "n_chains_precision": int},
    "mixture": {"d_grid": (int,), "eps": float, "n_samples": int, "n_bins": int,
                "a_norm": float, "ula_sweeps": int},
    "logistic": {"d_grid": (int,), "n_grid": (int,), "b_grid": (int,), "sweeps": int,
                 "eps": float},
}

_WORDS = st.text("abcdxyz,;", min_size=1, max_size=4)  # float() reads none of them
_FRACTIONS = st.floats().filter(lambda x: not x.is_integer())  # with inf and nan
_BAD_GRIDS = st.one_of(
    st.sampled_from([(), []]),
    st.lists(st.one_of(st.integers(1, 5), st.lists(st.integers(1, 5), max_size=2)),
             min_size=1, max_size=3).filter(lambda g: any(isinstance(v, list) for v in g)))


def _wrong_kind(kind):
    """Values of any kind but kind (int, float, str, or a one-element tuple for a grid)."""
    if kind is str:
        return st.one_of(st.integers(), st.floats(), st.booleans(), _BAD_GRIDS)
    if isinstance(kind, tuple):
        wrong_element = st.one_of(_WORDS, st.booleans(),
                                  *([_FRACTIONS] if kind[0] is int else []))
        return st.one_of(_BAD_GRIDS, wrong_element,
                         st.lists(wrong_element, min_size=1, max_size=2).map(lambda g: [2, *g]))
    return st.one_of(_WORDS, st.booleans(), _BAD_GRIDS,
                     *([_FRACTIONS] if kind is int else []))


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
    key, kind = draw(st.sampled_from(sorted(_SET_KINDS[command].items())))
    return ["experiment", command, "--set", f"{key}={draw(_INTS if kind is int else _FLOATS)!r}"]


@st.composite
def wrong_kind_argvs(draw):
    name = draw(st.sampled_from(sorted(_SET_KINDS)))
    key, kind = draw(st.sampled_from(sorted(_SET_KINDS[name].items())))
    return ["experiment", name, "--set", f"{key}={draw(_wrong_kind(kind))!r}"]


def _run(argv):
    """(exit code, stdout) of main on argv, with numpy RuntimeWarnings raised as errors."""
    with tempfile.TemporaryDirectory() as tmp:
        # plan and bias write one CSV file, sample and experiment a directory.
        out = Path(tmp) / ("out.csv" if argv[0] in ("plan", "bias") else "out")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*argv, "--out", str(out)])
    return code, stdout.getvalue()


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
    code, stdout = _run(argv)
    assert code in (0, 2, 3)
    if argv[0] == "experiment" and code == 0:
        assert not re.search(r"\bnan\b", stdout), stdout


@given(wrong_kind_argvs())
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_set_values_of_another_kind_exit_2(argv):
    # Refused before any run, so even the defaults of the slow experiments cost nothing.
    assert _run(argv)[0] == 2
