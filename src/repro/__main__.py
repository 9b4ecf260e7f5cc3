"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``info``      — environment report: backends, compiler, cache, machine
* ``selftest``  — compile-and-run a stencil through every backend
* ``doctor``    — toolchain/cache self-check + degradation report
                  (exit 0 healthy, 1 degraded, 2 unusable)
* ``stats``     — run a smoke kernel through the instrumented pipeline
                  and print the telemetry report (``--json`` also writes
                  the ``snowflake-stats/1`` snapshot;
                  ``--openmetrics`` prints OpenMetrics exposition text)
* ``top``       — run a GSRB workload under the span tracer and
                  print the hottest spans by self time
* ``trace``     — run a traced workload spanning frontend, analysis,
                  JIT, kernel, resilience and dmem, and export a Chrome
                  trace-event JSON viewable in Perfetto (``--smoke``
                  exits nonzero unless the trace is valid and covers
                  the expected subsystems)
* ``explain``   — print the analysis provenance of a GSRB smoother
                  group: intra-stencil verdicts, which grids forced
                  each barrier, the legality-checked schedule the
                  backend executes, and the backend artifact identity
* ``tune``      — cost-model-guided schedule search over one paper
                  operator; prints the trial table and persists the
                  winner to the tuning cache, where
                  ``compile(..., schedule="tuned")`` finds it
"""

from __future__ import annotations

import argparse
import sys


def cmd_info() -> None:
    import shutil

    import numpy as np

    from . import __version__, available_backends
    from .backends import HAVE_COMPILED_BACKENDS
    from .backends.jit import cache_dir, _cc

    print(f"repro-snowflake {__version__}")
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}")
    print(f"backends: {', '.join(available_backends())}")
    cc = _cc()
    print(
        f"compiler: {cc} "
        f"({'found' if shutil.which(cc) else 'NOT FOUND'}; "
        f"compiled backends "
        f"{'available' if HAVE_COMPILED_BACKENDS else 'unavailable'})"
    )
    print(f"jit cache: {cache_dir()}")
    try:
        from .machine.specs import host_spec

        spec = host_spec()
        print(f"host STREAM-dot bandwidth: {spec.stream_bw / 1e9:.2f} GB/s")
    except Exception as e:  # pragma: no cover - measurement best-effort
        print(f"host bandwidth: unavailable ({e})")


def cmd_selftest() -> int:
    import numpy as np

    from . import Component, RectDomain, Stencil, WeightArray, available_backends

    lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
    stencil = Stencil(lap, "out", RectDomain((1, 1), (-1, -1)))
    rng = np.random.default_rng(0)
    u = rng.random((34, 34))
    ref = None
    failed = 0
    for backend in available_backends():
        out = np.zeros_like(u)
        try:
            stencil.compile(backend=backend)(u=u, out=out)
        except Exception as e:
            print(f"  {backend:12s} ERROR: {e}")
            failed += 1
            continue
        if ref is None:
            ref = out
        ok = np.allclose(out, ref)
        print(f"  {backend:12s} {'OK' if ok else 'MISMATCH'}")
        failed += 0 if ok else 1
    print("selftest:", "PASS" if failed == 0 else f"FAIL ({failed})")
    return 1 if failed else 0


def cmd_stats(args) -> int:
    """Exercise the pipeline on a smoke kernel, then report telemetry.

    The smoke workload compiles a 2-D Laplacian through the requested
    backend (fallback chain down to numpy, so the command works on a
    broken toolchain) and applies it ``--calls`` times; everything the
    instrumented pipeline recorded — including whatever the process ran
    before this call — is rendered as fixed-width tables.
    """
    import numpy as np

    from . import Component, RectDomain, Stencil, WeightArray, telemetry

    if telemetry.mode() == "off":
        print(
            "telemetry is off (SNOWFLAKE_TELEMETRY=off); "
            "nothing will be recorded"
        )
    n = int(args.size)
    lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
    stencil = Stencil(lap, "out", RectDomain((1, 1), (-1, -1)))
    kernel = stencil.compile(
        backend=args.backend,
        shapes={"u": (n, n), "out": (n, n)},
        fallback=("c", "numpy"),
    )
    rng = np.random.default_rng(0)
    u = rng.random((n, n))
    out = np.zeros_like(u)
    for _ in range(int(args.calls)):
        kernel(u=u, out=out)
    serving = getattr(kernel, "serving_backend", args.backend)
    if args.openmetrics:
        # machine surface: nothing but the exposition text on stdout
        sys.stdout.write(telemetry.render_openmetrics())
    else:
        print(f"smoke kernel: {n}x{n} laplacian, served by {serving!r}")
        print()
        print(telemetry.render_stats())
    if args.json:
        import json

        from .util.artifacts import artifact_path

        path = artifact_path(args.json)
        path.write_text(
            json.dumps(telemetry.snapshot(), indent=2, sort_keys=True) + "\n"
        )
        if args.openmetrics:  # keep stdout pure exposition text
            print(f"wrote {path}", file=sys.stderr)
        else:
            print(f"\nwrote {path}")
    return 0


def cmd_top(args) -> int:
    """Where a GSRB workload's time goes, by span self time.

    Compiles and runs the shared trace workload inside a
    ``tracing.session()`` and prints the fold of the recorded spans
    (:func:`repro.telemetry.tracing.self_times`): exact durations, each
    row's share of the root wall time, and the dropped-event count.
    """
    import numpy as np

    from .telemetry import tracing
    from .telemetry.report import render_top

    n = int(args.size)
    group, shapes = _gsrb_workload(n)
    shape = next(iter(shapes.values()))
    rng = np.random.default_rng(0)
    arrays = {g: rng.standard_normal(shape) for g in group.grids()}
    arrays["x"] = np.zeros(shape)

    with tracing.session():
        kernel = group.compile(
            backend=args.backend, shapes=shapes,
            fallback=("c", "numpy"),
        )
        for _ in range(int(args.calls)):
            kernel(**arrays)
    print(render_top(limit=int(args.limit)))
    if args.out:
        from .util.artifacts import artifact_path

        out = artifact_path(args.out)
        tracing.export_chrome_trace(out)
        print(f"wrote {out}")
    return 0


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
    """Run a multi-subsystem workload under the span tracer and export.

    The workload: GSRB smoother group through dead-stencil elimination,
    reordering and the barrier planner, compiled with a fallback chain (JIT spans), applied
    ``--calls`` times (kernel spans), then re-run on a 2-rank simulated
    distributed executor (dmem halo/apply spans on per-rank lanes).
    """
    import json

    import numpy as np

    from .analysis.dag import plan
    from .analysis.optimize import eliminate_dead_stencils, reorder_for_phases
    from .dmem.executor import DistributedKernel
    from .telemetry import tracing
    from .util.artifacts import artifact_path

    out_path = artifact_path(args.out)
    n = int(args.size)
    group, shapes = _gsrb_workload(n)
    shape = next(iter(shapes.values()))
    rng = np.random.default_rng(0)

    def make_arrays():
        arrays = {g: rng.standard_normal(shape) for g in group.grids()}
        arrays["x"] = np.zeros(shape)
        return arrays

    with tracing.session(fresh=True):
        opt = reorder_for_phases(
            eliminate_dead_stencils(group, shapes), shapes
        )
        plan(opt, shapes)
        kernel = opt.compile(
            backend="c", shapes=shapes, fallback=("c", "numpy")
        )
        arrays = make_arrays()
        for _ in range(int(args.calls)):
            kernel(**arrays)
        dk = DistributedKernel(group, shape, 2, backend="numpy")
        dk(**make_arrays())
        tracing.export_chrome_trace(out_path)

    path = out_path
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

    group, shapes = _gsrb_workload(int(args.size))
    options = {}
    if args.fuse:
        options["fuse"] = True
    if args.no_multicolor:
        options["multicolor"] = False
    if args.tile is not None:
        options["tile"] = int(args.tile)
    if args.time_tile is not None:
        options["time_tile"] = int(args.time_tile)
    prov = explain(
        group, shapes, backend=args.backend, policy=args.policy,
        **options,
    )
    dmem_doc = None
    dmem_text = None
    if args.dmem:
        from .dmem.executor import DistributedKernel

        shape = next(iter(shapes.values()))
        dk = DistributedKernel(
            group, shape, int(args.dmem), backend="numpy"
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
    prints the trial table, and persists the winner to the tuning cache
    under this backend's name — ``compile(backend=<the same>,
    schedule="tuned")`` uses it, in this process or a later one.
    """
    import json

    import numpy as np

    from .bench import paper_operators
    from .core.stencil import StencilGroup
    from .tuning import search_schedules
    from .util.artifacts import artifact_path

    n = int(args.size)
    operators = paper_operators(n)
    if args.op not in operators:
        print(f"unknown operator {args.op!r}; "
              f"choose one of {', '.join(sorted(operators))}")
        return 2
    stencil = operators[args.op]
    group = StencilGroup([stencil], name=args.op)
    rng = np.random.default_rng(int(args.seed))
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
        budget=int(args.budget),
        repeats=int(args.repeats),
        spec=args.spec,
        persist=not args.no_persist,
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
            print("persisted: " + ("no (--no-persist)" if args.no_persist
                                   else "yes (tuning cache)"))
    if args.out:
        out = artifact_path(args.out)
        out.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {out}", file=sys.stderr if args.json else sys.stdout)
    return 0 if result.best is not None else 1


_PROBE_SRC = "double sf_doctor_probe(void){ return 42.0; }\n"


def cmd_doctor() -> int:
    """Self-check the execution stack and print the degradation report.

    Exit codes: 0 — primary chain fully healthy; 1 — degraded but
    serving (a fallback backend will carry the load); 2 — no backend
    can serve at all.
    """
    import os
    import shutil

    from . import __version__
    from .backends import jit
    from .resilience import faults

    def line(status: str, name: str, detail: str) -> None:
        print(f"  [{status:^4s}] {name:18s} {detail}")

    print(f"repro doctor ({__version__})")

    cc = jit._cc()
    cc_found = shutil.which(cc) is not None
    line("ok" if cc_found else "FAIL", "compiler",
         f"{cc} ({'found' if cc_found else 'NOT FOUND'})")

    # Probe the real pipeline, not just PATH: compile + dlopen a
    # one-liner, plain and with -fopenmp.
    c_ok = omp_ok = False
    c_err = omp_err = ""
    try:
        jit.compile_and_load(_PROBE_SRC)
        c_ok = True
    except Exception as e:
        c_err = f"{type(e).__name__}: {e}".splitlines()[0][:90]
    line("ok" if c_ok else "FAIL", "c toolchain",
         "probe compiled and loaded" if c_ok else c_err)
    try:
        jit.compile_and_load(_PROBE_SRC, openmp=True)
        omp_ok = True
    except Exception as e:
        omp_err = f"{type(e).__name__}: {e}".splitlines()[0][:90]
    line("ok" if omp_ok else "FAIL", "openmp link",
         "probe compiled with -fopenmp" if omp_ok else omp_err)

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
            line("warn", "orphans", f"removed {swept} stale *.tmp.so "
                 "from crashed compiles")
        else:
            line("ok", "orphans", "no stale *.tmp.so temporaries")
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
    import numpy as np

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
    # way ExecutionPolicy would.
    chain = ("openmp", "c", "numpy")
    healthy = {"openmp": omp_ok, "c": c_ok, "numpy": True}
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
    print("  would serve: nothing — system unusable")  # pragma: no cover
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="environment report")
    sub.add_parser("selftest", help="run every backend on a probe stencil")
    sub.add_parser(
        "doctor",
        help="toolchain/cache self-check and degradation report",
    )
    st = sub.add_parser(
        "stats",
        help="run a smoke kernel and print the telemetry report",
    )
    st.add_argument(
        "--backend", default="c",
        help="primary backend for the smoke kernel (default: c)",
    )
    st.add_argument(
        "--size", type=int, default=64,
        help="grid edge length for the smoke kernel (default: 64)",
    )
    st.add_argument(
        "--calls", type=int, default=3,
        help="kernel applications to record (default: 3)",
    )
    st.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the telemetry snapshot (snowflake-stats/1) "
        "as JSON",
    )
    st.add_argument(
        "--openmetrics", action="store_true",
        help="print the snapshot as OpenMetrics exposition text "
        "instead of the fixed-width report",
    )
    tp = sub.add_parser(
        "top",
        help="run a GSRB workload and print the hottest spans by self time",
    )
    tp.add_argument(
        "--backend", default="c",
        help="primary backend for the profiled kernel (default: c)",
    )
    tp.add_argument(
        "--size", type=int, default=96,
        help="interior grid edge length (default: 96)",
    )
    tp.add_argument(
        "--calls", type=int, default=20,
        help="kernel applications to record (default: 20)",
    )
    tp.add_argument(
        "--limit", type=int, default=20,
        help="rows in the top table (default: 20)",
    )
    tp.add_argument(
        "--out", metavar="PATH", default=None,
        help="also export the recorded spans as Chrome trace-event JSON",
    )
    tr = sub.add_parser(
        "trace",
        help="run a traced workload and export Chrome trace-event JSON",
    )
    tr.add_argument(
        "--smoke", action="store_true",
        help="exit nonzero unless the trace validates and covers "
        "frontend, jit, kernel and dmem",
    )
    tr.add_argument(
        "--out", metavar="PATH", default="trace.json",
        help="trace file to write (default: trace.json)",
    )
    tr.add_argument(
        "--size", type=int, default=48,
        help="interior grid edge length (default: 48)",
    )
    tr.add_argument(
        "--calls", type=int, default=2,
        help="kernel applications to trace (default: 2)",
    )
    ex = sub.add_parser(
        "explain",
        help="print analysis provenance for a GSRB smoother group",
    )
    ex.add_argument(
        "--backend", default="c",
        help="backend whose artifact identity to report (default: c)",
    )
    ex.add_argument(
        "--policy", default="greedy",
        help="barrier policy: greedy, wavefront, serial (default: greedy)",
    )
    ex.add_argument(
        "--size", type=int, default=32,
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
        help="fuse K applications into one time tile and report the "
        "legality evidence and predicted traffic reduction",
    )
    ex.add_argument(
        "--dmem", type=int, default=None, metavar="RANKS",
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
        help="cost-model-guided schedule search; persists the winner",
    )
    tu.add_argument(
        "--backend", default="c",
        help="backend to tune for (default: c)",
    )
    tu.add_argument(
        "--op", default="cc_7pt",
        help="paper operator: cc_7pt, cc_jacobi, vc_gsrb "
        "(default: cc_7pt)",
    )
    tu.add_argument(
        "--size", type=int, default=32,
        help="interior cubic grid edge length (default: 32)",
    )
    tu.add_argument(
        "--budget", type=int, default=12,
        help="maximum candidates actually measured (default: 12)",
    )
    tu.add_argument(
        "--repeats", type=int, default=3,
        help="timed applications per candidate, best-of (default: 3)",
    )
    tu.add_argument(
        "--spec", default="paper-cpu",
        help="machine model guiding predictions: host, paper-cpu, "
        "paper-gpu (default: paper-cpu)",
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
    tu.add_argument(
        "--no-persist", action="store_true",
        help="do not write the winner to the tuning cache",
    )
    args = ap.parse_args(argv)

    if args.command == "info":
        cmd_info()
        return 0
    if args.command == "selftest":
        return cmd_selftest()
    if args.command == "doctor":
        return cmd_doctor()
    if args.command == "stats":
        return cmd_stats(args)
    if args.command == "top":
        return cmd_top(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "explain":
        return cmd_explain(args)
    if args.command == "tune":
        return cmd_tune(args)
    raise AssertionError(args.command)


if __name__ == "__main__":
    raise SystemExit(main())
