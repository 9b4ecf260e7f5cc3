"""The traced pass: per-layer metrics, every one measured from outside.

Each probe times calls into one layer's public functions and records
them as spans in the shared :class:`trace.Tracer`.  Every traced run
executes every probe, so every per-layer metric is measured on every
workload: the probes of the layers a workload lives in get the time
budget, the others their minimum sample count.  Sizes follow the
workload (see :func:`context`).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro import ScheduleOptions, get_backend, register_backend, schedule_for, telemetry
from repro import analysis
from repro.backends import jit
from repro.backends.base import Backend
from repro.bench import paper_operators
from repro.core.stencil import StencilGroup
from repro.hpgmg.operators import smooth_group
from repro.hpgmg.problem import operator_expr
from repro.kernel import body_for, kernel_cost, swept_cost
from repro.machine.stream import stream_dot_bandwidth

from stats import median, tail
from trace import Tracer
from workloads import (
    ROUND_BLOCK, SIZES, QUICK_SIZES, Kernels, VCycle, level_of, kernel_arrays,
    reseed, sf_run,
)

_clock = time.perf_counter

#: doubles per STREAM array: two arrays = 512 MiB, about twice the LLC
#: of the host the baseline was recorded on
STREAM_N = 2 ** 25


def context(workload: str, quick: bool) -> tuple[int, int]:
    """``(solver size, kernel size)`` of a workload's traced pass.

    The kernel probes run at the workload's own size, so reading
    ``kernel.<op>.*`` across ``vcycle_32``/``vcycle_128``/``kernels_256``
    gives the 32/128/256 ladder.  ``kernels_256`` has no solver of its
    own; its solver probes run on the 32^3 hierarchy.
    """
    sizes = QUICK_SIZES if quick else SIZES
    solver = "vcycle_32" if workload == "kernels_256" else workload
    return sizes[solver], sizes[workload]


def llc_bytes() -> int | None:
    """Largest cache of cpu0 as sysfs reports it."""
    best = None
    for f in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        txt = f.read_text().strip()
        mult = {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}.get(txt[-1])
        size = int(txt[:-1]) * mult if mult else int(txt)
        best = max(best or 0, size)
    return best


# -- compile pipeline ---------------------------------------------------------------


class _Recorder(Backend):
    """A micro-compiler that compiles nothing: it records the programs a
    driver asks for, so the pipeline can then be staged over them."""

    name = "bench-record"

    def __init__(self) -> None:
        self.programs: list[tuple] = []

    def specializer(self, group, **options):
        raise NotImplementedError("bench-record only records")

    def compile(self, group, shapes=None, dtype=None, guards=None, **options):
        self.programs.append(
            (group, {g: tuple(s) for g, s in shapes.items()},
             np.dtype(dtype), options)
        )
        return lambda **kwargs: None


def solver_programs(n: int) -> list[tuple]:
    """The ``(group, shapes, dtype, options)`` set ``MultigridSolver``
    compiles for an ``n^3`` hierarchy, DSL construction included."""
    from repro.hpgmg import MultigridSolver

    rec = _Recorder()
    register_backend(rec)
    MultigridSolver(level_of(n), backend=rec.name)
    return rec.programs


def kernel_programs(n: int) -> list[tuple]:
    shape = (n + 2,) * 3
    ops = paper_operators(n)
    progs = [
        (StencilGroup([st], name=st.name), {g: shape for g in st.grids()},
         np.dtype(np.float64), {})
        for st in ops.values()
    ]
    group, shapes, dt, _ = progs[0]
    return progs + [(group, shapes, dt, {"time_tile": 4})]


def staged_compile(programs: list[tuple], tr: Tracer) -> dict:
    """Run the compile pipeline one stage at a time over ``programs``.

    Stages run in pipeline order and each is the stage's first call, so
    what an earlier stage memoises is not paid again by a later one.
    ``analysis.plan`` is not memoised — ``schedule_for`` repeats it — so
    ``schedule.lower_s`` is reported net of it.  The last stage is the
    real entry point, ``group.compile``; its time is what the staging
    left over.
    """
    c = get_backend("c")
    with tr.span("analysis.plan"):
        for group, shapes, _, _ in programs:
            analysis.plan(group, shapes)
    with tr.span("schedule.lower"):
        scheds = [
            schedule_for(group, shapes, ScheduleOptions(**opt) if opt else None)
            for group, shapes, _, opt in programs
        ]
    with tr.span("kernel.lower"):
        for group, _, _, _ in programs:
            for st in group:
                body_for(st)
    with tr.span("backends.codegen"):
        sources = [
            c.generate(group, shapes, dt, schedule=sched)
            for (group, shapes, dt, _), sched in zip(programs, scheds)
        ]
    with tr.span("backends.jit"):
        for src in sources:
            jit.compile_and_load(src)
    with tr.span("backends.compile"):
        for group, shapes, dt, opt in programs:
            group.compile(backend="c", shapes=shapes, dtype=dt, **opt)
    info = [
        c.artifact_info(group, shapes, dt, **opt)
        for group, shapes, dt, opt in programs
    ]
    return {
        "backends.codegen_bytes": sum(len(s) for s in sources),
        "backends.jit_artifacts": len({i["cache_key"] for i in info}),
        "backends.so_bytes": sum(
            Path(p).stat().st_size for p in {i["artifact_path"] for i in info}
        ),
        "schedule.steps": sum(s.n_steps for s in scheds),
        "schedule.phases": sum(len(s.phases) for s in scheds),
        "programs": [
            {"group": group.name, "shapes": sorted(set(shapes.values())),
             "options": opt, "cache_key": i["cache_key"],
             "schedule": sched.describe()}
            for (group, shapes, _, opt), sched, i in zip(programs, scheds, info)
        ],
    }


# -- hpgmg ----------------------------------------------------------------------------


def hand_cycle(solver, tr: Tracer, k: int = 0) -> None:
    """``MultigridSolver.v_cycle`` re-driven through the solver's public
    methods with a span around each (checked bitwise-equal to it)."""
    if k == len(solver.levels) - 1:
        with tr.span("bottom", level=k):
            solver.bottom_solve()
        return
    with tr.span("smooth", level=k):
        solver.smooth(k, solver.n_pre)
    with tr.span("residual", level=k):
        solver.residual(k)
    solver.levels[k + 1].zero("x")
    with tr.span("restrict", level=k):
        solver.restrict_residual(k)
    hand_cycle(solver, tr, k + 1)
    with tr.span("interp", level=k):
        solver.interpolate_correction(k)
    with tr.span("smooth", level=k):
        solver.smooth(k, solver.n_post)


def _kernel_calls() -> int:
    return telemetry.snapshot()["kernels"].get("c", {}).get("calls", 0)


def hpgmg_probe(vc: VCycle, tr: Tracer, budget: float) -> dict:
    solver, x = vc.solver, vc.solver.levels[0].grids["x"]
    failures = []

    reseed(solver, vc.rhs)
    calls = _kernel_calls()
    solver.v_cycle(0)
    calls = _kernel_calls() - calls
    expect = x.copy()
    reseed(solver, vc.rhs)
    hand_cycle(solver, Tracer())
    if not np.array_equal(x, expect):
        failures.append("hand-driven V-cycle is not bitwise v_cycle(0)")

    # convergence: must not change when a cycle gets faster
    reseed(solver, vc.rhs)
    hist = [solver.residual_norm()]
    while len(hist) <= 5 or (hist[-1] > 1e-8 * hist[0] and len(hist) <= 30):
        solver.v_cycle(0)
        hist.append(solver.residual_norm())
    to_rtol8 = next(
        (i for i, r in enumerate(hist) if r <= 1e-8 * hist[0]), len(hist)
    )

    untraced: list[float] = []
    ops: list[int] = []
    deadline = _clock() + budget
    while not untraced or _clock() < deadline:
        # one by one from the same reseed, so both kinds see the same
        # mix of early and converged iterates
        reseed(solver, vc.rhs)
        for _ in range(5):
            t0 = _clock()
            solver.v_cycle(0)
            untraced.append(_clock() - t0)
            ops.append(tr.new_op())
            with tr.span("vcycle"):
                hand_cycle(solver, tr)
    tr.op = None
    by_name = tr.per_op(lambda s: s[0])
    by_level = tr.per_op(lambda s: s[5].get("level"))

    def med(table, pick):
        return median([pick(table[op]) for op in ops])

    p95, n = tail(untraced)
    m = {
        f"hpgmg.phase_s.{ph}": med(by_name, lambda t, ph=ph: t[ph])
        for ph in ("smooth", "residual", "restrict", "interp", "bottom")
    }
    m.update({
        "hpgmg.level_s.0": med(by_level, lambda t: t[0]),
        "hpgmg.level_s.coarse": med(
            by_level, lambda t: sum(v for k, v in t.items() if k)),
        "hpgmg.driver_self_s": med(by_name, lambda t: t["vcycle"]),
        "hpgmg.calls_per_cycle": calls,
        "hpgmg.residual_reduction": (hist[5] / hist[0]) ** 0.2,
        "hpgmg.cycles_to_rtol8": to_rtol8,
        "hpgmg.op_s_p95": p95,
        "hpgmg.op_s_p95_n": n,
    })
    return {
        "metrics": m, "failures": failures, "untraced": untraced,
        "traced": [sum(by_name[op].values()) for op in ops],
        "calls_per_op": calls,
    }


# -- backends call seam, run ------------------------------------------------------------


def _bursts(fns: dict, budget: float, burst: int = 10) -> dict[str, float]:
    """Median seconds of each callable.  Each is timed in bursts of
    back-to-back calls after one untimed call, the way a bottom solve
    issues them: alternating single calls would charge every callable
    for the cache lines the previous one evicted."""
    times = {k: [] for k in fns}
    deadline = _clock() + budget
    while not all(times.values()) or _clock() < deadline:
        for k, fn in fns.items():
            fn()
            for _ in range(burst):
                t0 = _clock()
                fn()
                times[k].append(_clock() - t0)
    return {k: median(v) for k, v in times.items()}


def seam_probe(solver, budget: float) -> dict:
    """``CompiledKernel.__call__`` against the bare ``impl`` it wraps,
    for the ``smooth_group`` of the solver's finest and 2^3 levels (on
    the solver's own grids: smoothing them further is harmless)."""
    fns = {}
    for where, level in (("fine", solver.levels[0]), ("floor", solver.levels[-1])):
        group = smooth_group(3, operator_expr(level), lam="lam", n_smooths=1)
        shapes = {g: level.shape for g in group.grids()}
        grids = {g: level.grids[g] for g in group.grids()}
        kernel = group.compile(backend="c", shapes=shapes, dtype=level.dtype)
        impl = get_backend("c").specializer(group)(shapes, level.dtype)
        fns[f"backends.call_s.{where}"] = lambda k=kernel, g=grids: k(**g)
        fns[f"backends.impl_s.{where}"] = lambda i=impl, g=grids: i(g, {})
    m = _bursts(fns, budget)
    m["backends.marshal_s"] = m["backends.impl_s.floor"]
    m["backends.wrapper_s"] = m["backends.call_s.floor"] - m["backends.impl_s.floor"]
    return m


def run_probe(n: int, seed: int, budget: float) -> dict:
    """``repro.run(vc_gsrb, ..., times=1)`` against the equivalent
    ``CompiledKernel.__call__``."""
    st = paper_operators(n)["vc_gsrb"]
    arrays = kernel_arrays(n, seed)
    args = {g: arrays[g] for g in st.grids()}
    kernel = st.compile(
        backend="c", shapes={g: a.shape for g, a in args.items()},
        dtype=np.float64,
    )
    m = _bursts({
        "run": lambda: sf_run(st, args, times=1, backend="c"),
        "call": lambda: kernel(**args),
    }, budget)
    return {"run.call_s.32": m["run"], "run.lookup_s": m["run"] - m["call"]}


# -- kernel, machine ----------------------------------------------------------------------


def kernel_probe(kn: Kernels, tr: Tracer, budget: float, stream_gbs: float) -> dict:
    """Rounds with a span per call, alternated with untraced rounds and
    hand-written rounds.  ``kn`` must be built, its reference too, and
    both sides the same number of rounds in."""
    names = (*kn.OPS, "sweep4")

    ops: list[int] = []

    def traced_round():
        ops.append(tr.new_op())
        with tr.span("round"):
            for name in kn.OPS:
                with tr.span(name):
                    kn.call(name)
            with tr.span("sweep4"):
                kn.sweep_invocations = kn.sweep()

    untraced: list[float] = []
    ref = {name: [] for name in names}
    deadline = _clock() + budget
    while not untraced or _clock() < deadline:
        for _ in range(ROUND_BLOCK):
            t0 = _clock()
            kn.round()
            untraced.append(_clock() - t0)
            traced_round()
            for _ in range(2):  # both sides stay the same number of rounds in
                for name, t in kn.reference_round().items():
                    ref[name].append(t)
    tr.op = None
    by_name = tr.per_op(lambda s: s[0])
    sec = {name: median([by_name[op][name] for op in ops]) for name in names}

    n3 = kn.n ** 3
    working_set = sum(kn.arrays[g].nbytes for g in ("x", "out"))
    body, _ = body_for(kn.ops["cc_7pt"])
    model = swept_cost(body, "out", 4, tile_bytes=working_set,
                       cache_bytes=llc_bytes())
    m = {
        "kernel.sweep4.s": sec["sweep4"],
        "kernel.sweep4.speedup": 4 * sec["cc_7pt"] / sec["sweep4"],
        "kernel.sweep4.predicted": model.traffic_reduction,
        "kernel.sweep4.invocations": kn.sweep_invocations,
    }
    for name in kn.OPS:
        st = kn.ops[name]
        points = n3 // 2 if name == "vc_gsrb" else n3
        cost, report = kernel_cost(st), body_for(st)[1]
        gbs = points * cost.bytes_per_point / sec[name] / 1e9
        m.update({
            f"kernel.{name}.s": sec[name],
            f"kernel.{name}.mpts_per_s": points / sec[name] / 1e6,
            f"kernel.{name}.gbs_computed": gbs,
            f"kernel.{name}.roofline_frac": gbs / stream_gbs,
            f"kernel.{name}.vs_baseline": sec[name] / median(ref[name]),
            f"kernel.{name}.bytes_per_point": cost.bytes_per_point,
            f"kernel.{name}.flops_per_point": cost.flops_per_point,
            f"kernel.{name}.nodes_after": report.nodes_after,
            f"kernel.{name}.reads_deduped": report.reads_deduped,
            f"kernel.{name}.bindings_hoisted": report.bindings_hoisted,
        })
    return {
        "metrics": m, "failures": kn.compare("traced rounds"),
        "untraced": untraced,
        "traced": [sum(by_name[op].values()) for op in ops],
        "calls_per_op": len(names),
    }


def stream_probe() -> dict:
    bps = stream_dot_bandwidth(STREAM_N, repeats=3)
    return {"machine.stream_gbs": bps / 1e9,
            "machine.stream_s": 16.0 * STREAM_N / bps}


def openmp_probe(n: int, seed: int) -> dict:
    """One block of V-cycles on ``backend="openmp"`` against one block of
    ``BaselineMultigrid3D(openmp=True)``."""
    vc = VCycle(n, seed, backend="openmp")
    vc.build()
    vc.build_reference()
    sf = vc.block(vc.solver)[0]
    bl = vc.block(vc.base)[0]
    return {"metrics": {
        "backends.openmp.op_s": median(sf),
        "backends.openmp.vs_baseline": median(sf) / median(bl),
    }, "failures": vc.compare("openmp block")}
