"""The workloads: what one operation is, how it is verified, how it is timed.

Two operation kinds serve the four workloads.  ``VCycle`` is one
multigrid V-cycle (``vcycle_32``, ``vcycle_128``, and — driven from the
runner as whole child processes — ``cold_start``); ``Kernels`` is one
round of the paper's three operators plus a ``times=4`` sweep
(``kernels_256``).  Each is paired with the hand-written
``repro.baselines`` equivalent on identical inputs, alternated in blocks
so host speed cancels in the ratio.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import run as sf_run
from repro.baselines import BaselineKernels3D, BaselineMultigrid3D
from repro.bench import paper_operators
from repro.hpgmg import Level, MultigridSolver

__all__ = ["SIZES", "QUICK_SIZES", "GATE_N", "VCycle", "Kernels", "make"]

#: fixed problem sizes (interior cells per dimension)
SIZES = {"vcycle_32": 32, "vcycle_128": 128, "kernels_256": 256, "cold_start": 32}
#: ``--quick`` sizes: test-only, never quoted as results
QUICK_SIZES = {"vcycle_32": 8, "vcycle_128": 16, "kernels_256": 16, "cold_start": 8}
#: size of the python-vs-C bitwise gate
GATE_N = 8

#: cycles (or rounds) per alternation block
VCYCLE_BLOCK = 10
ROUND_BLOCK = 2
#: every V-cycle block must cut the residual this much over 5 cycles
REDUCTION_5 = 1e-5

_clock = time.perf_counter


def level_of(n: int) -> Level:
    return Level(n, 3, coefficients="variable")


def reseed(mg, rhs: np.ndarray) -> None:
    """Reset a multigrid hierarchy (either implementation) to the
    workload's inputs: ``x = 0`` and the seeded right-hand side."""
    fine = mg.levels[0]
    fine.zero("x")
    fine.grids["rhs"][fine.interior] = rhs


def _max_abs(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """``max |a - b|`` (``max |a|`` without ``b``), one slab at a time so
    a 256^3 check streams its inputs once instead of three temporaries."""
    if b is None:
        return float(np.max([np.abs(s).max() for s in a]))
    return float(np.max([np.abs(s - t).max() for s, t in zip(a, b)]))


def alternate(seconds: float, sf_block, bl_block) -> dict:
    """Alternate one block of Snowflake operations with one hand-written
    block until the next pair would pass ``seconds`` of wall time.  Each
    block callable returns the seconds of its operations.

    Successive pairs run on successive CPUs of the process's affinity
    mask: a busy neighbour slows one virtual CPU for minutes at a time
    and the CPUs independently, so a run that visits them all sees the
    quiet host somewhere.  Still one process, one operation at a time.
    """
    cpus = sorted(os.sched_getaffinity(0))
    sf: list[float] = []
    bl: list[float] = []
    ratios: list[float] = []
    end = _clock() + seconds
    pair_s = 0.0
    try:
        while not sf or _clock() + pair_s < end:
            os.sched_setaffinity(0, {cpus[len(ratios) % len(cpus)]})
            t0 = _clock()
            a, b = sf_block(), bl_block()
            pair_s = _clock() - t0
            sf += a
            bl += b
            ratios.append(sum(a) / sum(b))
    finally:
        os.sched_setaffinity(0, cpus)
    return {"sf": sf, "bl": bl, "ratios": ratios}


class VCycle:
    """One ``MultigridSolver(...).v_cycle(0)``: V(2,2), GSRB, variable
    coefficients, every kernel a Snowflake stencil on ``backend``."""

    def __init__(self, n: int, seed: int, *, backend: str = "c",
                 corrupt: bool = False) -> None:
        self.n, self.seed, self.backend, self.corrupt = n, seed, backend, corrupt
        self.rhs = np.random.default_rng(seed).standard_normal((n,) * 3)
        self.points_per_op = n ** 3
        self.solver: MultigridSolver | None = None
        self.base: BaselineMultigrid3D | None = None

    # -- what a user's process does -------------------------------------------

    def build(self) -> None:
        self.solver = MultigridSolver(level_of(self.n), backend=self.backend)

    def first_op(self) -> None:
        reseed(self.solver, self.rhs)
        self.solver.v_cycle(0)

    # -- reference side ----------------------------------------------------------

    def build_reference(self) -> None:
        self.base = BaselineMultigrid3D(
            level_of(self.n), openmp=self.backend == "openmp"
        )

    def reference_first_op(self) -> None:
        reseed(self.base, self.rhs)
        self.base.v_cycle(0)

    def compare(self, what: str) -> list[str]:
        """Snowflake ``x`` against the hand-written ``x`` (both must be
        the same number of cycles past the same reseed)."""
        x = self.solver.levels[0].grids["x"]
        ref = self.base.levels[0].grids["x"]
        if self.corrupt:
            ref = ref + 1e-3
        diff = _max_abs(x, ref)
        if not diff <= 1e-12:  # also catches a non-finite x
            return [f"{what}: |x - x_baseline|_max = {diff:.3e} > 1e-12"]
        return []

    def verify_first(self) -> list[str]:
        self.reference_first_op()
        return self.compare("op 0")

    def gate(self) -> list[str]:
        """Bitwise python-vs-C on every program a V-cycle runs, at 8^3."""
        rhs = np.random.default_rng(self.seed).standard_normal((GATE_N,) * 3)
        grids = []
        for backend in ("python", self.backend):
            s = MultigridSolver(level_of(GATE_N), backend=backend)
            reseed(s, rhs)
            s.v_cycle(0)
            s.v_cycle(0)
            grids.append([lvl.grids[g] for lvl in s.levels
                          for g in ("x", "rhs", "res")])
        bad = sum(not np.array_equal(a, b) for a, b in zip(*grids))
        return [f"gate: {bad} grid(s) differ python vs {self.backend}"] if bad else []

    # -- timed loop ---------------------------------------------------------------

    def block(self, mg) -> tuple[list[float], float, float]:
        """One block of cycles from the workload's inputs: the seconds of
        each, and the residual norm before the first and after the fifth."""
        times = []
        reseed(mg, self.rhs)
        r0 = r5 = mg.residual_norm()
        for i in range(VCYCLE_BLOCK):
            t0 = _clock()
            mg.v_cycle(0)
            times.append(_clock() - t0)
            if i == 4:
                r5 = mg.residual_norm()
        return times, r0, r5

    def measure(self, seconds: float) -> dict:
        """Alternate blocks of Snowflake and hand-written cycles; every
        block is checked."""
        failures: list[str] = []
        blocks = 0

        def sf_block():
            times, r0, r5 = self.block(self.solver)
            if not r5 <= REDUCTION_5 * r0:
                failures.append(
                    f"op {blocks * VCYCLE_BLOCK}: residual {r0:.3e} -> "
                    f"{r5:.3e} over 5 cycles, less than 10x per cycle"
                )
            return times

        def bl_block():
            nonlocal blocks
            blocks += 1
            times = self.block(self.base)[0]
            failures.extend(self.compare(f"op {blocks * VCYCLE_BLOCK - 1}"))
            return times

        return {**alternate(seconds, sf_block, bl_block), "failures": failures}


def kernel_arrays(n: int, seed: int) -> dict[str, np.ndarray]:
    """Inputs for the three paper operators on ``(n+2)^3`` grids.

    ``alpha = 0`` makes the paper's Helmholtz-form ``vc_gsrb`` equal the
    hand-written ``bl_gsrb_vc`` (the kernel still streams the array);
    ``lam`` is a uniform lower bound on ``1/diag`` so repeated in-place
    half-sweeps stay bounded.  Every array is written once so none is
    backed by the shared zero page.  ``x`` is the generator's first draw
    (:meth:`Kernels.build_reference` re-derives it that way).
    """
    rng = np.random.default_rng(seed)
    shape = (n + 2,) * 3
    a = {g: rng.random(shape) for g in ("x", "rhs")}
    for d in range(3):
        a[f"beta_{d}"] = 0.5 + rng.random(shape)
    a["alpha"] = np.full(shape, 0.0)
    a["lam"] = np.full(shape, 1.0 / (1.0 + 18.0 * n * n))
    a["out"] = np.full(shape, 0.0)
    a["tmp"] = np.full(shape, 0.0)
    return a


class Kernels:
    """One round: ``cc_7pt``, ``cc_jacobi``, ``vc_gsrb`` each called once
    through ``Stencil.compile(backend="c")``, then
    ``repro.run(cc_7pt, arrays, times=4)``."""

    OPS = ("cc_7pt", "cc_jacobi", "vc_gsrb")

    def __init__(self, n: int, seed: int, *, corrupt: bool = False) -> None:
        self.n, self.seed, self.corrupt = n, seed, corrupt
        # cc_7pt + cc_jacobi over the interior, the red half, 4 sweeps
        self.points_per_op = int(6.5 * n ** 3)
        self.sweep_invocations: int | None = None

    def build(self) -> None:
        shape = (self.n + 2,) * 3
        self.ops = paper_operators(self.n)
        self.kernels = {
            name: st.compile(
                backend="c", shapes={g: shape for g in st.grids()},
                dtype=np.float64,
            )
            for name, st in self.ops.items()
        }
        self.arrays = kernel_arrays(self.n, self.seed)
        self.args = {
            name: {g: self.arrays[g] for g in st.grids()}
            for name, st in self.ops.items()
        }

    def call(self, name: str) -> None:
        self.kernels[name](**self.args[name])

    def sweep(self) -> int:
        return sf_run(self.ops["cc_7pt"], self.args["cc_7pt"], times=4,
                      backend="c")

    def round(self) -> None:
        for name in self.OPS:
            self.call(name)
        self.sweep_invocations = self.sweep()

    first_op = round

    # -- reference side ----------------------------------------------------------

    def build_reference(self) -> None:
        """Hand-written kernels on their own copy of every written grid;
        must be called before the Snowflake side has modified ``x``
        beyond what :meth:`reference_round` will replay."""
        self.k = BaselineKernels3D()
        a = self.arrays
        self.ref = {
            "x": np.random.default_rng(self.seed).random(a["x"].shape),
            "out": np.full_like(a["out"], 0.0),
            "tmp": np.full_like(a["tmp"], 0.0),
        }
        n, invh2 = self.n, float(self.n * self.n)
        wlam = (2.0 / 3.0) * float(a["lam"].flat[0])
        x, out, tmp = self.ref["x"], self.ref["out"], self.ref["tmp"]
        k = self.k
        self.ref_calls = {
            "cc_7pt": lambda: k.cc7pt(out, x, n, invh2),
            "cc_jacobi": lambda: k.jacobi_cc(tmp, x, a["rhs"], n, invh2, wlam),
            "vc_gsrb": lambda: k.gsrb_vc(
                x, a["rhs"], a["beta_0"], a["beta_1"], a["beta_2"],
                a["lam"], n, invh2, 0,
            ),
        }

    def reference_round(self) -> dict[str, float]:
        """One hand-written round; returns the seconds of each part."""
        sec = {}
        for name in self.OPS:
            t0 = _clock()
            self.ref_calls[name]()
            sec[name] = _clock() - t0
        t0 = _clock()
        for _ in range(4):
            self.ref_calls["cc_7pt"]()
        sec["sweep4"] = _clock() - t0
        return sec

    def compare(self, what: str) -> list[str]:
        failures = []
        for g, ref in self.ref.items():
            got = self.arrays[g]
            if self.corrupt:
                ref = ref + 1e-3
            scale = _max_abs(ref)
            diff = _max_abs(got, ref)
            if not diff <= 1e-12 * scale:  # also catches non-finite values
                failures.append(
                    f"{what}: grid {g!r} differs from the hand-written "
                    f"result by {diff:.3e} (rtol 1e-12, scale {scale:.3e})"
                )
        return failures

    def verify_first(self) -> list[str]:
        self.reference_round()
        return self.compare("op 0")

    def gate(self) -> list[str]:
        """Bitwise python-vs-C for each operator and the sweep, at 8^3."""
        ops = paper_operators(GATE_N)
        outs = []
        for backend in ("python", "c"):
            a = kernel_arrays(GATE_N, self.seed)
            for st in ops.values():
                st.compile(backend=backend)(**{g: a[g] for g in st.grids()})
            sf_run(ops["cc_7pt"], {"x": a["x"], "out": a["out"]}, times=4,
                   backend=backend)
            outs.append([a[g] for g in ("x", "out", "tmp")])
        bad = sum(not np.array_equal(p, c) for p, c in zip(*outs))
        return [f"gate: {bad} grid(s) differ python vs c"] if bad else []

    # -- timed loop ---------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        def block(fn):
            times = []
            for _ in range(ROUND_BLOCK):
                t0 = _clock()
                fn()
                times.append(_clock() - t0)
            return times

        r = alternate(seconds, lambda: block(self.round),
                      lambda: block(self.reference_round))
        return {**r, "failures": self.compare(f"op {len(r['sf']) - 1}")}


def make(workload: str, seed: int, *, quick: bool = False,
         corrupt: bool = False):
    n = (QUICK_SIZES if quick else SIZES)[workload]
    cls = Kernels if workload == "kernels_256" else VCycle
    return cls(n, seed, corrupt=corrupt)
