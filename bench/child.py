"""Child entry point: one pass of one workload in a fresh interpreter.

``python bench/child.py SPEC.json`` — the runner writes the spec, this
process writes ``spec["out"]``.  Everything the process imports from the
program under test is imported inside :func:`main`, after the clock
starts, so ``import_s`` is what ``import repro`` costs a user.
"""

from __future__ import annotations

import json
import resource
import sys
import time

_clock = time.perf_counter


def _rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for
    (the compiler subprocesses), in MB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def e2e(spec: dict, out: dict, t0: float) -> None:
    """``setup``: build, first operation, stop the set-up clock, verify.
    ``prime`` adds the python-vs-C gate; ``e2e`` adds the timed loop."""
    import workloads

    out["import_s"] = _clock() - t0
    wl = workloads.make(spec["workload"], spec["seed"], quick=spec["quick"],
                        corrupt=spec["corrupt"])
    if spec["mode"] == "baseline_setup":
        wl.build_reference()
        wl.reference_first_op()
        out["setup_s"] = time.time() - spec["t_spawn"]
        return
    wl.build()
    wl.first_op()
    out["setup_s"] = time.time() - spec["t_spawn"]
    wl.build_reference()
    out["failures"] = wl.verify_first()
    out["ops"] = 1
    out["points_per_op"] = wl.points_per_op
    if spec["mode"] == "prime":
        out["failures"] += wl.gate()
    if spec["mode"] == "e2e":
        r = wl.measure(spec["seconds"])
        out["failures"] += r["failures"]
        out["sf"], out["bl"], out["ratios"] = r["sf"], r["bl"], r["ratios"]
        out["ops"] += len(r["sf"])


def cycles(spec: dict, out: dict, t0: float) -> None:
    """V-cycles under whatever environment the runner set, as a ratio to
    the hand-written cycle (which reads no environment), so that host
    drift between one child and the next cancels."""
    import layers
    import workloads
    from stats import median

    n, _ = layers.context(spec["workload"], spec["quick"])
    vc = workloads.VCycle(n, spec["seed"])
    vc.build()
    vc.build_reference()
    r = vc.measure(spec["seconds"])
    out["failures"] = r["failures"]
    out["vs_baseline"] = median(r["ratios"])


def traced(spec: dict, out: dict, t0: float) -> None:
    """The traced pass (``traced_prime``: on an empty cache, compile
    stages only; ``traced``: on the warm cache, every probe)."""
    import layers
    import workloads
    from stats import median, quiet
    from trace import Tracer

    import_s = _clock() - t0
    prime = spec["mode"] == "traced_prime"
    workload, seed, quick = spec["workload"], spec["seed"], spec["quick"]
    solver_n, kernel_n = layers.context(workload, quick)
    kernels_home = workload == "kernels_256"
    budget = spec["seconds"] / 3.0
    tr = Tracer()
    vc = workloads.VCycle(solver_n, seed, corrupt=spec["corrupt"])
    kn = workloads.Kernels(kernel_n, seed, corrupt=spec["corrupt"])
    home, other = (kn, vc) if kernels_home else (vc, kn)

    with tr.span("core.build"):
        programs = (layers.kernel_programs(kernel_n) if kernels_home
                    else layers.solver_programs(solver_n))
    counts = layers.staged_compile(programs, tr)
    out["programs"] = counts.pop("programs")
    with tr.span("build"):
        home.build()
    with tr.span("first_op"):
        home.first_op()
    out["setup_s"] = time.time() - spec["t_spawn"]
    stage = dict(zip((s[0] for s in tr.spans), tr.durations()))
    out["stage_sum_s"] = import_s + sum(stage.values())
    jit_s = "backends.jit_cold_s" if prime else "backends.jit_warm_s"
    m = out["metrics"] = {
        **counts,
        "core.import_s": import_s,
        "core.build_s": stage["core.build"],
        "analysis.plan_s": stage["analysis.plan"],
        "schedule.lower_s": stage["schedule.lower"] - stage["analysis.plan"],
        "kernel.lower_s": stage["kernel.lower"],
        "backends.codegen_s": stage["backends.codegen"],
        jit_s: stage["backends.jit"],
        # every compile stage once (schedule.lower repeats analysis.plan)
        "backends.compile_total_s": sum(
            stage[k] for k in ("schedule.lower", "kernel.lower",
                               "backends.codegen", "backends.jit",
                               "backends.compile")
        ),
    }

    other.build()
    other.first_op()
    failures = out["failures"] = []
    for wl in (vc, kn):
        wl.build_reference()
        failures += wl.verify_first()
        failures += wl.gate()
    omp = layers.openmp_probe(solver_n, seed)
    run = layers.run_probe(workloads.GATE_N if quick else 32, seed,
                           0.0 if prime else 0.3)
    if prime:
        return  # everything the warm pass will load is now on disk

    stream = layers.stream_probe()
    h = layers.hpgmg_probe(vc, tr, 0.0 if kernels_home else budget)
    k = layers.kernel_probe(kn, tr, budget if kernels_home else 0.0,
                            stream["machine.stream_gbs"])
    seam = layers.seam_probe(vc.solver, 0.3)
    for part in (h, k, omp):
        m.update(part["metrics"])
        failures += part["failures"]
    m.update(stream)
    m.update(seam)
    m.update(run)

    mine = k if kernels_home else h
    m["op_s"] = quiet(mine["untraced"])
    m["mpts_per_s"] = home.points_per_op / m["op_s"] / 1e6
    # traced and untraced operations alternate one by one, so their
    # medians see the same host
    op_s = median(mine["untraced"])
    traced_s = median(mine["traced"])
    m["backends.wrapper_share"] = (
        mine["calls_per_op"] * seam["backends.wrapper_s"] / op_s)
    m["bench.trace_overhead_frac"] = traced_s / op_s - 1.0
    m["bench.sum_residual_frac"] = abs(traced_s - op_s) / op_s
    out["op_s"] = op_s
    out["calls_per_op"] = mine["calls_per_op"]
    out["ops"] = len(mine["traced"])
    tr.write_chrome_trace(spec["trace_out"], workload=workload, seed=seed)


MODES = {
    "setup": e2e, "baseline_setup": e2e, "prime": e2e, "e2e": e2e,
    "cycles": cycles, "traced_prime": traced, "traced": traced,
}


def main() -> None:
    t0 = _clock()
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    out = {"mode": spec["mode"]}
    MODES[spec["mode"]](spec, out, t0)
    out["rss_mb"] = _rss_mb()
    out["wall_s"] = time.time() - spec["t_spawn"]
    with open(spec["out"], "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
