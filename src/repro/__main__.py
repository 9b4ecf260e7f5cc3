"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``doctor``  — environment report, the probe stencil on every backend
                checked against python, cache/fault/transport checks
                and the degradation report (exit 0 healthy, 1 degraded,
                2 unusable)
* ``trace``   — run a GSRB workload spanning frontend, analysis, JIT,
                kernel, resilience and dmem under the span tracer;
                print the counters report and the hottest spans by self
                time, export a Chrome trace-event JSON viewable in
                Perfetto (``--json`` also writes the
                ``snowflake-stats/1`` snapshot; ``--smoke`` exits
                nonzero unless the trace is valid and covers the
                expected subsystems)
* ``explain`` — print the analysis provenance of a GSRB smoother
                group: intra-stencil verdicts, which grids forced each
                barrier, the legality-checked schedule the backend
                executes, and the backend artifact identity
* ``tune``    — cost-model-guided schedule search over one paper
                operator; prints the trial table and the winner's
                ``to_dict()``, which ``ScheduleOptions(**...)`` rebuilds
                for ``compile(..., schedule=...)``; persists no
                winner (``--out`` writes the search result)
"""

from __future__ import annotations

import argparse
import sys


def _gsrb_workload(n: int):
    """The shared trace/explain workload: a 2-D GSRB smoother group.

    Returns ``(group, shapes)``.  This group exercises every analysis
    feature at once — boundary stencils, two in-place colored
    half-sweeps, and barriers forced by the smoothed grid ``x``.
    """
    from .hpgmg.operators import cc_laplacian, smooth_group

    group = smooth_group(2, cc_laplacian(2, 1.0 / n), lam=0.25)
    shape = (n + 2, n + 2)
    return group, {g: shape for g in group.grids()}


def cmd_trace(args) -> int:
    """One diagnostic run: the GSRB workload under one span session.

    The workload: the GSRB smoother group through dead-stencil
    elimination, reordering and the barrier planner, compiled with a
    fallback chain (JIT spans), applied ``--calls`` times (kernel
    spans), then re-run on a 2-rank simulated distributed executor
    (dmem halo/apply spans on per-rank lanes).  Afterwards it prints
    the counters report and the hot-path table — everything the
    process recorded, and the fold of this session's spans
    (:func:`repro.telemetry.tracing.self_times`) — and writes the
    Chrome trace, plus the ``snowflake-stats/1`` snapshot with
    ``--json``.
    """
    import json

    import numpy as np

    from . import telemetry
    from .analysis.dag import plan
    from .analysis.optimize import eliminate_dead_stencils, reorder_for_phases
    from .dmem.executor import DistributedKernel
    from .telemetry import tracing
    from .telemetry.report import render_top
    from .util.artifacts import artifact_path

    if telemetry.mode() == "off":
        print(
            "telemetry is off (SNOWFLAKE_TELEMETRY=off); "
            "no counters will be recorded, spans still are"
        )
    group, shapes = _gsrb_workload(args.size)
    shape = next(iter(shapes.values()))
    rng = np.random.default_rng(0)

    def make_arrays():
        arrays = {g: rng.standard_normal(shape) for g in group.grids()}
        arrays["x"] = np.zeros(shape)
        return arrays

    with tracing.session():
        opt = reorder_for_phases(
            eliminate_dead_stencils(group, shapes), shapes
        )
        plan(opt, shapes)
        kernel = opt.compile(
            backend=args.backend, shapes=shapes, fallback=("c", "numpy")
        )
        arrays = make_arrays()
        for _ in range(args.calls):
            kernel(**arrays)
        dk = DistributedKernel(group, shape, 2, backend="numpy")
        dk(**make_arrays())

    print(telemetry.render_stats())
    print()
    print(render_top(limit=args.limit))
    print()
    path = artifact_path(args.out)
    tracing.export_chrome_trace(path)
    doc = json.loads(path.read_text())  # validate what was written
    problems = tracing.validate_chrome_trace(doc)
    events = doc.get("traceEvents", [])
    cats = {e.get("cat") for e in events}
    covered = sorted(cats & set(tracing.CATEGORIES))
    print(f"wrote {path}: {len(events)} events "
          f"(subsystems: {', '.join(covered)})")
    print("view: load into https://ui.perfetto.dev or chrome://tracing")
    for p in problems:
        print(f"  INVALID: {p}")
    if args.json:
        stats = artifact_path(args.json)
        stats.write_text(
            json.dumps(telemetry.snapshot(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {stats}")
    if args.smoke:
        required = {"frontend", "jit", "kernel", "dmem"}
        missing = sorted(required - cats)
        if problems or missing:
            print(f"smoke: FAIL"
                  + (f" (missing subsystems: {', '.join(missing)})"
                     if missing else " (trace invalid)"))
            return 1
        print("smoke: PASS")
    return 0


def cmd_explain(args) -> int:
    """Render the analysis provenance of the GSRB smoother group."""
    import json

    from .explain import explain

    group, shapes = _gsrb_workload(args.size)
    options = {}
    if args.fuse:
        options["fuse"] = True
    if args.no_multicolor:
        options["multicolor"] = False
    if args.tile is not None:
        options["tile"] = args.tile
    if args.time_tile is not None:
        options["time_tile"] = args.time_tile
    prov = explain(
        group, shapes, backend=args.backend, policy=args.policy,
        **options,
    )
    dmem_doc = None
    dmem_text = None
    if args.dmem is not None:
        from .dmem.executor import DistributedKernel

        shape = next(iter(shapes.values()))
        dk = DistributedKernel(
            group, shape, args.dmem, backend="numpy"
        )
        dmem_doc = dk.describe_dict()
        dmem_text = dk.describe()
    if args.json:
        doc = prov.to_dict()
        if dmem_doc is not None:
            doc["dmem"] = dmem_doc
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(prov.render())
        if dmem_text is not None:
            print()
            print(dmem_text)
    return 0


def cmd_tune(args) -> int:
    """Cost-model-guided schedule search over one paper operator.

    Predicts every candidate with the analytic roofline model, measures
    only the most promising ones (``--budget`` caps measured trials),
    and prints the trial table and the winner.  The winner's
    ``to_dict()`` is printed so it can be pasted as
    ``compile(backend=<the same>, schedule=ScheduleOptions(**...))``.
    """
    import json

    import numpy as np

    from .bench import paper_operators
    from .core.stencil import StencilGroup
    from .tuning import search_schedules
    from .util.artifacts import artifact_path

    n = args.size
    stencil = paper_operators(n)[args.op]
    group = StencilGroup([stencil], name=args.op)
    rng = np.random.default_rng(args.seed)
    shapes = {}
    arrays = {}
    for st in group:
        for g in st.grids():
            if g not in arrays:
                shape = (n + 2,) * st.ndim
                shapes[g] = shape
                arrays[g] = rng.standard_normal(shape)
    result = search_schedules(
        group, arrays,
        backend=args.backend,
        budget=args.budget,
        repeats=args.repeats,
        spec=args.spec,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"tune {args.op} via {args.backend} "
              f"(budget {args.budget}, spec {args.spec})")
        print()
        print(result.table())
        print()
        if result.best is None:
            print("no candidate could be measured")
        else:
            print(f"winner: {result.best.describe()} "
                  f"({result.best_measured_s * 1e6:.1f}us measured, "
                  f"{result.best_predicted_s * 1e6:.1f}us predicted)")
            print(f"ScheduleOptions(**{result.best.to_dict()!r})")
    if args.out:
        out = artifact_path(args.out)
        out.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {out}", file=sys.stderr if args.json else sys.stdout)
    return 0 if result.best is not None else 1


def cmd_doctor() -> int:
    """Environment report, backend self-test and degradation report.

    Every backend runs the probe Laplacian and is compared with python;
    the ``openmp``, ``c`` and ``numpy`` rows are the health of the
    links of the degradation report's fallback chain.  Exit codes: 0 — primary chain fully healthy;
    1 — degraded but serving (a fallback backend will carry the load);
    2 — no backend can serve at all.
    """
    import os
    import shutil

    import numpy as np

    from . import (
        Component,
        RectDomain,
        Stencil,
        WeightArray,
        __version__,
        available_backends,
    )
    from .backends import jit
    from .resilience import faults

    def line(status: str, name: str, detail: str) -> None:
        print(f"  [{status:^4s}] {name:18s} {detail}")

    print(f"repro-snowflake {__version__} doctor")
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}")
    print(f"backends: {', '.join(available_backends())}")
    try:
        from .machine.specs import host_spec

        bw = host_spec().stream_bw
        print(f"host STREAM-dot bandwidth: {bw / 1e9:.2f} GB/s")
    except Exception as e:  # pragma: no cover - measurement best-effort
        print(f"host bandwidth: unavailable ({e})")

    cc = jit._cc()
    cc_found = shutil.which(cc) is not None
    line("ok" if cc_found else "FAIL", "compiler",
         f"{cc} ({'found' if cc_found else 'NOT FOUND'})")

    # Probe the real pipeline on every backend, not just PATH: codegen,
    # compile + dlopen where there is a toolchain, and the result.
    lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
    stencil = Stencil(lap, "out", RectDomain((1, 1), (-1, -1)))
    u = np.random.default_rng(0).random((34, 34))
    ref = None
    healthy = {}
    for backend in sorted(available_backends(), key=lambda b: b != "python"):
        try:
            out = np.zeros_like(u)
            stencil.compile(backend=backend)(u=u, out=out)
            ref = out if backend == "python" else ref
            healthy[backend] = ref is not None and np.allclose(out, ref)
            detail = ("matches python" if healthy[backend]
                      else "MISMATCH" if ref is not None
                      else "no python reference to compare with")
        except Exception as e:
            healthy[backend] = False
            detail = f"{type(e).__name__}: {e}".splitlines()[0][:90]
        line("ok" if healthy[backend] else "FAIL", backend, detail)

    try:
        d = jit.cache_dir()
        probe = d / f"sf_doctor.{os.getpid()}.touch"
        probe.write_text("ok")
        probe.unlink()
        cache_ok = True
        line("ok", "cache", f"writable at {d}")
    except OSError as e:
        cache_ok = False
        line("warn", "cache", f"not writable ({e}); compiles cannot persist")

    if cache_ok:
        swept = jit.sweep_orphans()
        if swept:
            line("warn", "orphans", f"removed {swept} stale *.tmp.{{c,o,so}} "
                 "from crashed compiles")
        else:
            line("ok", "orphans", "no stale *.tmp.{c,o,so} temporaries")
        bad = len(list(jit.cache_dir().glob("sf_*.so.bad")))
        line("warn" if bad else "ok", "quarantine",
             f"{bad} quarantined artifact(s)" if bad
             else "no quarantined artifacts")

    armed = faults.active()
    line("warn" if armed else "ok", "fault injection",
         f"armed sites: {sorted(armed)}" if armed else "no sites armed")

    # Distributed-transport health: run a 2-rank reliable exchange with
    # an injected send-side drop and confirm the retransmit path heals
    # it — the degradation report below then reflects whether halo
    # traffic can survive a lossy wire on this host.
    from .dmem.transport import ReliableComm

    transport_ok = False
    try:
        world = ReliableComm.world(2)
        probe_msg = np.arange(8.0)
        with faults.inject("comm.send.drop", times=1):
            world[0].rsend(probe_msg, 1, tag=1)
        echoed = world[1].rrecv(0, tag=1)
        retransmits = world[0].stats.retransmits
        transport_ok = (
            np.array_equal(echoed, probe_msg) and retransmits >= 1
        )
        line(
            "ok" if transport_ok else "FAIL", "dmem transport",
            f"2-rank exchange healed injected drop via "
            f"{retransmits} retransmit(s)" if transport_ok
            else "drop injected but delivery/retransmit did not recover",
        )
    except Exception as e:
        line("FAIL", "dmem transport",
             f"{type(e).__name__}: {e}".splitlines()[0][:90])

    # Degradation report: walk the default fallback chain exactly the
    # way compile(fallback=...) would.
    chain = ("openmp", "c", "numpy")
    serving = next((b for b in chain if healthy[b]), None)
    print(f"degradation report (chain {' -> '.join(chain)}):")
    for b in chain:
        print(f"  {b:8s} {'available' if healthy[b] else 'UNAVAILABLE'}")
    print(
        "  dmem transport: "
        + ("exactly-once delivery verified under injected loss"
           if transport_ok
           else "UNVERIFIED — reliable halo delivery not confirmed")
    )
    if serving == chain[0]:
        print(f"  would serve: {serving} (healthy, no degradation)")
        return 0
    if serving is not None:
        print(f"  would serve: {serving} (DEGRADED — results identical, "
              "performance reduced)")
        return 1
    print("  would serve: nothing — system unusable")
    return 2


def positive_int(text: str) -> int:
    """argparse ``type=`` for counts and sizes: an integer >= 1.

    argparse reports the ``ValueError`` as ``invalid positive_int
    value`` and exits 2.
    """
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def backend_name(text: str) -> str:
    """argparse ``type=`` for ``--backend``: the registry name of ``text``.

    Aliases resolve (``np`` is ``numpy``); an unknown name is an
    argparse exit 2 that lists the available backends.
    """
    from .backends import available_backends, get_backend

    try:
        return get_backend(text).name
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"invalid backend {text!r}; available: {available_backends()}"
        ) from None


def main(argv=None) -> int:
    from .schedule.options import POLICIES

    ap = argparse.ArgumentParser(prog="repro")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "doctor",
        help="environment report, every backend on a probe stencil, "
        "and the degradation report",
    )
    tr = sub.add_parser(
        "trace",
        help="run a traced workload; print the counters report and the "
        "hottest spans, export Chrome trace-event JSON",
    )
    tr.add_argument(
        "--backend", type=backend_name, default="c",
        help="primary backend for the traced kernel (default: c)",
    )
    tr.add_argument(
        "--size", type=positive_int, default=48,
        help="interior grid edge length (default: 48)",
    )
    tr.add_argument(
        "--calls", type=positive_int, default=2,
        help="kernel applications to trace (default: 2)",
    )
    tr.add_argument(
        "--limit", type=positive_int, default=20,
        help="rows in the hot-path table (default: 20)",
    )
    tr.add_argument(
        "--out", metavar="PATH", default="trace.json",
        help="trace file to write (default: trace.json)",
    )
    tr.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the telemetry snapshot (snowflake-stats/1) "
        "as JSON",
    )
    tr.add_argument(
        "--smoke", action="store_true",
        help="exit nonzero unless the trace validates and covers "
        "frontend, jit, kernel and dmem",
    )
    ex = sub.add_parser(
        "explain",
        help="print analysis provenance for a GSRB smoother group",
    )
    ex.add_argument(
        "--backend", type=backend_name, default="c",
        help="backend whose artifact identity to report (default: c)",
    )
    ex.add_argument(
        "--policy", default="greedy", choices=POLICIES,
        help="barrier policy (default: greedy)",
    )
    ex.add_argument(
        "--size", type=positive_int, default=32,
        help="interior grid edge length (default: 32)",
    )
    ex.add_argument(
        "--fuse", action="store_true",
        help="enable fusion chains in the reported schedule",
    )
    ex.add_argument(
        "--no-multicolor", action="store_true",
        help="disable checkerboard sweep recognition in the schedule",
    )
    ex.add_argument(
        "--tile", type=int, default=None,
        help="tile size recorded in the schedule (c/openmp backends)",
    )
    ex.add_argument(
        "--time-tile", type=int, default=None, metavar="K",
        help="run K applications in one call (one time loop) and report "
        "the predicted traffic reduction",
    )
    ex.add_argument(
        "--dmem", type=positive_int, default=None, metavar="RANKS",
        help="also report the distributed execution plan over RANKS "
        "simulated ranks: decomposition, reliable-transport and "
        "guard configuration",
    )
    ex.add_argument(
        "--json", action="store_true",
        help="emit the provenance as JSON instead of the report",
    )
    tu = sub.add_parser(
        "tune",
        help="cost-model-guided schedule search; prints the winner",
    )
    tu.add_argument(
        "--backend", type=backend_name, default="c",
        help="backend to tune for (default: c)",
    )
    tu.add_argument(
        "--op", default="cc_7pt", choices=("cc_7pt", "cc_jacobi", "vc_gsrb"),
        help="paper operator (default: cc_7pt)",
    )
    tu.add_argument(
        "--size", type=positive_int, default=32,
        help="interior cubic grid edge length (default: 32)",
    )
    tu.add_argument(
        "--budget", type=positive_int, default=12,
        help="maximum candidates actually measured (default: 12)",
    )
    tu.add_argument(
        "--repeats", type=positive_int, default=3,
        help="timed applications per candidate, best-of (default: 3)",
    )
    tu.add_argument(
        "--spec", default="paper-cpu",
        choices=("host", "paper-cpu", "paper-gpu"),
        help="machine model guiding predictions (default: paper-cpu)",
    )
    tu.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for the array data (default: 0)",
    )
    tu.add_argument(
        "--json", action="store_true",
        help="emit the full search result as JSON instead of the table",
    )
    tu.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the search result JSON to PATH",
    )
    args = ap.parse_args(argv)

    if args.command == "doctor":
        return cmd_doctor()
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "explain":
        return cmd_explain(args)
    if args.command == "tune":
        return cmd_tune(args)
    raise AssertionError(args.command)


if __name__ == "__main__":
    raise SystemExit(main())
