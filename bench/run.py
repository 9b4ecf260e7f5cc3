"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one pass of one workload (``--trace 0``: the end-to-end metrics,
``--trace 1``: the per-layer metrics) and prints, as its last line, the
result object the benchmark contract in ``BENCHMARK.json`` asks for.
Without ``--workload`` it runs every workload (``--traced`` adds the
traced pass, ``--aa`` runs the end-to-end set twice and fails when the
two disagree by more than a metric's bound).

This process measures nothing itself: every pass runs in a fresh child
interpreter (``child.py``), one at a time, on a private JIT cache under
``bench/out/`` that is deleted on exit.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import median, quiet, summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: measuring children per end-to-end pass.  Each is a fresh interpreter on
#: the warm cache that times its own set-up and then its share of
#: ``--seconds``; their samples are pooled, so one process's luck with
#: memory layout does not decide the run
MEASURE_CHILDREN = 2
#: seconds each environment-comparison child alternates V-cycles for
ENV_SECONDS = 2.0
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT = 170.0

ENV_CHILDREN = {
    "default": {},
    "telemetry_off": {"SNOWFLAKE_TELEMETRY": "off"},
    "telemetry_trace": {"SNOWFLAKE_TELEMETRY": "trace"},
    "guards_warn": {"SNOWFLAKE_GUARDS": "warn"},
}


class BenchError(RuntimeError):
    """The harness could not run (not: an operation failed)."""


def absolute(points_per_op: int, op_times: list[float]) -> dict:
    """The absolute figures of an end-to-end pass.  Printed and stored,
    not gated: they follow the neighbours' load (see README, "Noise
    discipline"); the traced pass reports ``op_s``/``mpts_per_s``."""
    return {
        "op_s": quiet(op_times),
        "mpts_per_s": points_per_op / quiet(op_times) / 1e6,
    }


def host_facts() -> dict:
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (d / "level").read_text().strip()
        kind = (d / "type").read_text().strip()
        caches[f"L{level} {kind}"] = (d / "size").read_text().strip()
    gcc = subprocess.run(["gcc", "--version"], capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "caches_cpu0": caches,
        "gcc": gcc.stdout.splitlines()[0] if gcc.stdout else "unknown",
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class Runner:
    """Launches children in a pinned environment and turns what they
    report into the declared metrics."""

    def __init__(self, seed: int, seconds: float, *,
                 quick: bool = False, corrupt: bool = False) -> None:
        self.seed, self.seconds = seed, seconds
        self.quick, self.corrupt = quick, corrupt
        OUT.mkdir(exist_ok=True)
        self.run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        (self.run_dir / "tmp").mkdir()
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    # -- children -------------------------------------------------------------------

    def new_cache(self) -> Path:
        self._n += 1
        d = self.run_dir / f"cache{self._n}"
        d.mkdir()
        return d

    def env(self, cache: Path, extra: dict) -> dict:
        """No inherited ``SNOWFLAKE_*``; cache, artifacts and temporaries
        inside ``bench/out``; untuned schedules."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("SNOWFLAKE_")}
        env.update({
            "SNOWFLAKE_CACHE_DIR": str(cache),
            "SNOWFLAKE_TUNED": "0",
            "SNOWFLAKE_ARTIFACT_DIR": str(OUT),
            "TMPDIR": str(self.run_dir / "tmp"),
            "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]),
            "OMP_NUM_THREADS": str(min(os.cpu_count() or 1, 4)),
        })
        env.update(extra)
        return env

    def child(self, mode: str, workload: str, cache: Path, *,
              seconds: float = 0.0, extra_env: dict | None = None,
              **more) -> dict:
        self._n += 1
        spec_path = self.run_dir / f"spec{self._n}.json"
        out_path = self.run_dir / f"result{self._n}.json"
        spec = {
            "mode": mode, "workload": workload, "seed": self.seed,
            "seconds": seconds, "quick": self.quick, "corrupt": self.corrupt,
            "out": str(out_path), "t_spawn": time.time(), **more,
        }
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            env=self.env(cache, extra_env or {}), cwd=ROOT,
            start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:  # timeout or interrupt: take gcc along
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if rc != 0:
            raise BenchError(f"{workload}: {mode} child "
                             + ("timed out" if rc is None else f"exited {rc}"))
        return json.loads(out_path.read_text())

    # -- passes ---------------------------------------------------------------------

    def e2e(self, workload: str) -> dict:
        if workload == "cold_start":
            return self._cold_start()
        cache = self.new_cache()
        prime = self.child("prime", workload, cache)
        print(f"  primed the cache in {prime['wall_s']:.2f} s (untimed)")
        n = 1 if self.quick else MEASURE_CHILDREN
        kids = [self.child("e2e", workload, cache, seconds=self.seconds / n)
                for _ in range(n)]
        sf = [t for c in kids for t in c["sf"]]
        bl = [t for c in kids for t in c["bl"]]
        ratios = [r for c in kids for r in c["ratios"]]
        setup_s = [c["setup_s"] for c in kids]
        return {
            "metrics": {
                "setup_s": quiet(setup_s),
                "vs_baseline": median(ratios),
                "peak_rss_mb": max(c["rss_mb"] for c in kids),
            },
            "ungated": absolute(prime["points_per_op"], sf),
            "samples": {"op_s": summary(sf), "baseline_op_s": summary(bl),
                        "vs_baseline": summary(ratios),
                        "setup_s": summary(setup_s)},
            "ops": sum(c["ops"] for c in (prime, *kids)),
            "failures": [f for c in (prime, *kids) for f in c["failures"]],
        }

    def _cold_start(self) -> dict:
        """Each operation is a whole child on an empty cache directory;
        the same child re-run on the now-warm directory is its set-up."""
        n = 1 if self.quick else max(3, int(self.seconds / 5))
        cold, warm, base = [], [], []
        for _ in range(n):
            cache = self.new_cache()
            cold.append(self.child("setup", "cold_start", cache))
            # the hand-written start is short, hence noisy: three per cold
            # child, and their median below (the fastest of so short a
            # process is a rare outlier, not a floor)
            base += [self.child("baseline_setup", "cold_start", self.new_cache())
                     for _ in range(3)]
            warm.append(self.child("setup", "cold_start", cache))
        warm.append(self.child("prime", "cold_start", cache))  # runs the gate
        cold_s = [c["setup_s"] for c in cold]
        warm_s = [c["setup_s"] for c in warm]
        base_s = [c["setup_s"] for c in base]
        return {
            "metrics": {
                "setup_s": quiet(warm_s),
                "vs_baseline": quiet(cold_s) / median(base_s),
                "peak_rss_mb": max(c["rss_mb"] for c in cold),
            },
            "ungated": absolute(cold[0]["points_per_op"], cold_s),
            "samples": {"op_s": summary(cold_s), "baseline_op_s": summary(base_s),
                        "setup_s": summary(warm_s)},
            "ops": sum(c["ops"] for c in (*cold, *warm)),
            "failures": [f for c in (*cold, *warm) for f in c["failures"]],
        }

    def traced(self, workload: str) -> dict:
        cache = self.new_cache()
        prime = self.child("traced_prime", workload, cache, seconds=self.seconds)
        print(f"  cold compile pass took {prime['wall_s']:.2f} s")
        main = self.child(
            "traced", workload, cache, seconds=self.seconds,
            trace_out=str(OUT / f"{workload}.trace.json"),
        )
        m = main["metrics"]
        m["backends.jit_cold_s"] = prime["metrics"]["backends.jit_cold_s"]
        m["backends.compile_total_s"] = prime["metrics"]["backends.compile_total_s"]
        failures = prime["failures"] + main["failures"]
        if workload == "cold_start":
            # the operation is the cold child itself: staged against unstaged
            cold = self.child("setup", workload, self.new_cache())
            failures += cold["failures"]
            op_s = m["op_s"] = cold["setup_s"]
            m["mpts_per_s"] = cold["points_per_op"] / op_s / 1e6
            m["backends.wrapper_share"] = (
                main["calls_per_op"] * m["backends.wrapper_s"] / op_s)
            m["bench.trace_overhead_frac"] = prime["setup_s"] / op_s - 1.0
            m["bench.sum_residual_frac"] = abs(prime["stage_sum_s"] - op_s) / op_s
        env = {
            name: self.child(
                "cycles", workload, cache, extra_env=extra,
                seconds=0.2 if self.quick else ENV_SECONDS,
            )
            for name, extra in ENV_CHILDREN.items()
        }
        failures += [f for c in env.values() for f in c["failures"]]
        ratio = {name: c["vs_baseline"] for name, c in env.items()}
        base = ratio["default"]
        m["telemetry.off_gain_frac"] = (base - ratio["telemetry_off"]) / base
        m["telemetry.trace_cost_frac"] = (ratio["telemetry_trace"] - base) / base
        m["resilience.guards_cost_frac"] = (ratio["guards_warn"] - base) / base
        return {"metrics": m, "ops": main["ops"], "failures": failures,
                "programs": main["programs"], "env_vs_baseline": ratio}


# -- reporting --------------------------------------------------------------------------


def declared(decl: dict, kind: str) -> dict[str, dict]:
    return {m["name"]: m for m in decl[kind]}


def report(workload: str, kind: str, result: dict, decl: dict) -> dict:
    """Print one pass and return the contract's result object."""
    want = declared(decl, kind)
    got = result["metrics"]
    if set(got) != set(want):
        raise BenchError(
            f"{workload}: emitted metrics differ from BENCHMARK.json {kind}: "
            f"missing {sorted(set(want) - set(got))}, "
            f"undeclared {sorted(set(got) - set(want))}")
    units = declared(decl, "per_layer")  # the ungated figures are there
    for name, value in (*((n, got[n]) for n in want),
                        *result.get("ungated", {}).items()):
        unit = (want.get(name) or units[name])["unit"]
        line = f"  {name:34s} {value:.6g} {unit}"
        s = result.get("samples", {}).get(name)
        if s:
            line += (f"   [median {s['median']:.6g}, q1 {s['q1']:.6g}, "
                     f"q3 {s['q3']:.6g}, n {s['n']}]")
        print(line)
    failed = len(result["failures"])
    print(f"  {'ops':34s} {result['ops']} count")
    print(f"  {'ops_failed':34s} {failed} count")
    for f in result["failures"]:
        print(f"  FAILED {workload} {f}")
    return {
        "correct": failed == 0, "attempted": result["ops"], "failed": failed,
        "metrics": {n: {"value": got[n], "unit": want[n]["unit"]} for n in want},
    }


#: what the README's interaction table predicts for the seed, checked
#: when a run has the traced pass of the workload: (workload, layer
#: metric, layer metric it is divided by or None, comparison, threshold)
EXPECTED = [
    ("vcycle_32", "backends.wrapper_share", None, ">", 0.25),
    ("vcycle_128", "backends.wrapper_share", None, "<", 0.05),
    ("kernels_256", "backends.wrapper_share", None, "<", 0.01),
    ("cold_start", "backends.jit_cold_s", "op_s", ">", 0.80),
    ("vcycle_32", "bench.sum_residual_frac", None, "<", 0.10),
    ("vcycle_128", "bench.sum_residual_frac", None, "<", 0.10),
    ("cold_start", "bench.sum_residual_frac", None, "<", 0.10),
]


def print_interactions(passes: list[dict]) -> None:
    by = {(p["workload"], p["kind"]): p["metrics"] for p in passes}
    for workload, name, over, cmp, limit in EXPECTED:
        layer = by.get((workload, "per_layer"))
        if layer is None:
            continue
        v = layer[name]["value"] / (layer[over]["value"] if over else 1.0)
        holds = v > limit if cmp == ">" else v < limit
        what = f"{name}/{over}" if over else name
        print(f"expected {workload:12s} {what:32s} {cmp} {limit:<5g} "
              f"measured {v:.4g}  {'holds' if holds else 'DOES NOT HOLD'}")


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced pass instead of the end-to-end pass")
    ap.add_argument("--traced", action="store_true",
                    help="the traced pass after the end-to-end pass")
    ap.add_argument("--aa", action="store_true",
                    help="run the end-to-end set twice and compare")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, for test_smoke.py only")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="test only: perturb the reference so checks must fail")
    args = ap.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
              "does not exist", file=sys.stderr)
        return 2
    if shutil.which("gcc") is None:
        print("bench: no C compiler (gcc) on PATH; refusing to benchmark a "
              "fallback backend", file=sys.stderr)
        return 2
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in decl["workloads"]]
    if args.workload and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else decl["run_seconds"]
    if args.traced:
        kinds = ["end_to_end", "per_layer"]
    else:
        kinds = ["per_layer" if args.trace else "end_to_end"]

    runner = Runner(args.seed, seconds, quick=args.quick,
                    corrupt=args.corrupt_reference)
    doc = {"seed": args.seed, "seconds": seconds, "quick": args.quick,
           "host": host_facts(), "passes": []}
    last = None
    try:
        for rep in range(2 if args.aa else 1):
            for workload in [args.workload] if args.workload else names:
                for kind in kinds:
                    if rep and kind == "per_layer":
                        continue
                    print(f"{workload} [{kind}] seed {args.seed}, "
                          f"{seconds:g} s")
                    run = runner.e2e if kind == "end_to_end" else runner.traced
                    result = run(workload)
                    last = report(workload, kind, result, decl)
                    doc["passes"].append(
                        {"workload": workload, "kind": kind, **result, **last})
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        runner.close()
        tag = args.workload or "all"
        (OUT / f"results.{tag}.json").write_text(json.dumps(doc, indent=1))

    bad = sum(p["failed"] for p in doc["passes"])
    if not args.quick:  # the predictions are about the real sizes
        print_interactions(doc["passes"])
    if args.aa:
        e2e = [p for p in doc["passes"] if p["kind"] == "end_to_end"]
        half = len(e2e) // 2
        for a, b in zip(e2e[:half], e2e[half:]):
            for name, d in declared(decl, "end_to_end").items():
                va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                w = worse_by(va, vb, d["better"])
                flag = "" if abs(w) <= d["bound"] else "  <-- beyond the bound"
                bad += bool(flag)
                print(f"A/A {a['workload']:12s} {name:12s} {va:.6g} -> "
                      f"{vb:.6g} ({w:+.1%} worse, bound {d['bound']:.0%}){flag}")
    if args.workload and len(kinds) == 1:
        print(json.dumps(last))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
