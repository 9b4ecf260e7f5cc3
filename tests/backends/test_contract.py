"""The call contract, differentially: every backend accepts and refuses
the same arrays, through every entry point.

A cell is (backend, entry point, input class).  python-ref is the
oracle: each cell either leaves the arrays bitwise-equal to python-ref's
or raises python-ref's exception type with python-ref's message — and a
refused call leaves the arrays as they were.  The rules themselves live
in :func:`repro.core.validate.check_arrays`.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from _helpers import ALL_BACKENDS
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.expr import GridRead
from repro.core.stencil import Stencil
from repro.core.weights import WeightArray
from repro.resilience.policy import DegradedExecution

N = 8

#: ``out = lap(u) + v(0, 1) / 2`` — two inputs, so two read-only grids
#: can share a buffer
STENCIL = Stencil(
    Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
    + 0.5 * GridRead("v", (0, 1)),
    "out",
    RectDomain((1, 1), (-1, -1)),
    name="lap_v",
)


def _grids(rng, shape=(N, N), dtype=np.float64) -> dict:
    u, v = rng.random(shape), rng.random(shape)
    if np.dtype(dtype).kind == "c":
        u, v = u + 1j * v, v - 1j * u
    return {
        "u": (10 * u).astype(dtype),
        "v": (10 * v).astype(dtype),
        "out": np.zeros(shape, dtype),
    }


def _with(rng, **grids) -> dict:
    return {**_grids(rng), **grids}


def _same(rng, a: str, b: str) -> dict:
    """Grids ``a`` and ``b`` are one array."""
    x = rng.random((N, N))
    return _with(rng, **{a: x, b: x})


def _overlapping(rng, a: str, b: str) -> dict:
    """Grids ``a`` and ``b`` are overlapping views of one buffer."""
    buf = rng.random((N + 1, N))
    return _with(rng, **{a: buf[:N], b: buf[1:]})


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


#: input class -> ``make(rng)`` returning the call's grids
CASES = {
    "conforming": _grids,
    "out is u": lambda rng: _same(rng, "u", "out"),
    "overlapping views": lambda rng: _overlapping(rng, "u", "out"),
    "read-only grids share a buffer": lambda rng: _overlapping(rng, "u", "v"),
    "fortran-order input": lambda rng: _with(rng, u=np.asfortranarray(rng.random((N, N)))),
    "stride-2 output view": lambda rng: _with(rng, out=np.zeros((N, 2 * N))[:, ::2]),
    "int64": lambda rng: _grids(rng, dtype=np.int64),
    "bool": lambda rng: _grids(rng, dtype=bool),
    "complex": lambda rng: _grids(rng, dtype=np.complex128),
    "mixed float32/float64": lambda rng: _with(rng, out=np.zeros((N, N), np.float32)),
    "read-only output": lambda rng: _with(rng, out=_readonly(np.zeros((N, N)))),
    "list output": lambda rng: _with(rng, out=np.zeros((N, N)).tolist()),
    "list input": lambda rng: _with(rng, u=rng.random((N, N)).tolist()),
    "0-d": lambda rng: _grids(rng, shape=()),
    "wrong rank": lambda rng: _grids(rng, shape=(N, N, N)),
    "empty extent": lambda rng: _grids(rng, shape=(0, N)),
}

#: the input classes every backend runs; the others every backend refuses
ACCEPTED = {
    "conforming", "read-only grids share a buffer", "list input", "empty extent",
}


def _bind(backend, grids):
    STENCIL.compile(backend=backend).bind(**grids)()


def _call(backend, grids):
    STENCIL.compile(backend=backend)(**grids)


def _run(backend, grids):
    repro.run(STENCIL, grids, backend=backend)


def _fallback(backend, grids):
    kernel = STENCIL.compile(backend=backend, fallback=["numpy"])
    try:
        kernel(**grids)
    finally:
        # a refusal is the caller's error: it never moves the chain
        assert kernel.attempts == []


ENTRY_POINTS = {"bind": _bind, "call": _call, "run": _run, "fallback": _fallback}


def _state(grids) -> dict:
    return {g: np.array(a, copy=True) for g, a in grids.items()}


def outcome(backend: str, entry: str, make, seed: int = 0) -> tuple:
    """``(exception type, message, arrays after)`` of one cell; the
    exception slots are ``None`` when the call ran."""
    grids = make(np.random.default_rng(seed))
    try:
        ENTRY_POINTS[entry](backend, grids)
    except Exception as e:  # the refusal is the observation
        return type(e), str(e), _state(grids)
    return None, None, _state(grids)


def disagreements(entry: str, make, seed: int = 0) -> list[str]:
    """The backends whose cell differs from python-ref's, with why."""
    kind, text, ref = outcome("python", entry, make, seed)
    bad = []
    for backend in ALL_BACKENDS[1:]:
        k, t, got = outcome(backend, entry, make, seed)
        if (k, t) != (kind, text):
            bad.append(f"{backend}: {k and k.__name__}({t!r}), "
                       f"python: {kind and kind.__name__}({text!r})")
        elif not all(
            got[g].dtype == ref[g].dtype and np.array_equal(got[g], ref[g])
            for g in ref
        ):
            bad.append(f"{backend}: arrays differ from python's")
    return bad


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedExecution)
        yield


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("case", list(CASES))
def test_cell_agrees_with_python_ref(case, entry):
    assert disagreements(entry, CASES[case]) == []
    kind, text, after = outcome("python", entry, CASES[case])
    # and python-ref refuses through this entry point as through bind
    assert (kind, text) == outcome("python", "bind", CASES[case])[:2]
    if case in ACCEPTED:
        assert kind is None, text
    else:
        assert kind is not None, f"{case!r} ran"
        before = _state(CASES[case](np.random.default_rng(0)))
        for g in before:  # a refused call writes nothing
            assert np.array_equal(after[g], before[g])


def test_the_contract_texts():
    expect = {
        "out is u": (ValueError, "output grid 'out' shares memory with grid 'u': "
                     "a kernel's outputs must not overlap its other grids"),
        "overlapping views": (ValueError, "output grid 'out' shares memory with grid 'u': "
                              "a kernel's outputs must not overlap its other grids"),
        "fortran-order input": (ValueError, "grid 'u' must be C-contiguous"),
        "stride-2 output view": (ValueError, "grid 'out' must be C-contiguous"),
        "int64": (TypeError, "grid dtype int64 is not supported: grids are "
                  "float64 or float32"),
        "bool": (TypeError, "grid dtype bool is not supported: grids are "
                 "float64 or float32"),
        "complex": (TypeError, "grid dtype complex128 is not supported: grids "
                    "are float64 or float32"),
        "mixed float32/float64": (
            repro.ValidationError, "grids have mixed dtypes: ['float32', 'float64']"
        ),
    }
    for case, want in expect.items():
        assert outcome("python", "bind", CASES[case])[:2] == want, case


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_unsupported_pinned_dtype_refused_at_compile(backend):
    with pytest.raises(TypeError, match="grid dtype int32 is not supported"):
        STENCIL.compile(backend=backend, dtype=np.int32)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_another_shape_specializes_not_refused(backend, rng):
    """A kernel compiled for one shape is not refused another: it
    specializes again."""
    kernel = STENCIL.compile(
        backend=backend, shapes={g: (N, N) for g in ("u", "v", "out")}
    )
    grids = _grids(rng, shape=(N + 2, N + 2))
    kernel(**grids)
    assert grids["out"][1:-1, 1:-1].any()
    assert kernel.specializations == 2


#: how a generated grid is laid out over its buffer
LAYOUTS = ("c", "fortran", "row slice", "column slice", "stride-2")


def _lay(buf: np.ndarray, layout: str) -> np.ndarray:
    """An ``N x N`` view of the C-ordered ``(N + 1) x 2N`` buffer ``buf``."""
    flat = buf.reshape(-1)
    return {
        "c": lambda: flat[:N * N].reshape(N, N),
        "fortran": lambda: flat[:N * N].reshape(N, N).T,
        "row slice": lambda: flat[2 * N:2 * N + N * N].reshape(N, N),
        "column slice": lambda: buf[:N, 1:N + 1],
        "stride-2": lambda: buf[:N, ::2],
    }[layout]()


@st.composite
def random_call(draw):
    """``make(rng)``: grids drawn over dtype, layout, buffer sharing,
    writability and a mixed-in float32 grid."""
    dtype = draw(st.sampled_from(
        [np.float64, np.float64, np.int64, np.int32, bool, np.complex128, np.float16]
    ))
    share = draw(st.sampled_from([None, None, ("u", "v"), ("out", "u"), ("out", "v")]))
    layouts = {g: draw(st.sampled_from(LAYOUTS)) for g in ("u", "v", "out")}
    writeable = draw(st.sampled_from([True, True, False]))
    mixed = draw(st.sampled_from([None, None, "u", "out"]))

    def make(rng):
        bufs = {g: (10 * rng.random((N + 1, 2 * N))).astype(dtype) for g in ("u", "v", "out")}
        if share is not None:
            bufs[share[0]] = bufs[share[1]]
        grids = {g: _lay(bufs[g], layouts[g]) for g in bufs}
        if mixed is not None:
            grids[mixed] = grids[mixed].real.astype(np.float32)
        if not writeable:
            grids["out"].setflags(write=False)
        return grids

    return make


@settings(max_examples=30, deadline=None)
@given(
    make=random_call(),
    entry=st.sampled_from(sorted(ENTRY_POINTS)),
    seed=st.integers(0, 2**16),
)
def test_random_calls_agree_with_python_ref(make, entry, seed):
    assert disagreements(entry, make, seed) == []
