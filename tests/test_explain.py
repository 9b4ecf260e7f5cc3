"""Provenance layer: intra-stencil verdicts, barrier grids, artifacts."""

import json

import pytest

from repro import Component, RectDomain, Stencil, StencilGroup, WeightArray
from repro.explain import explain
from repro.hpgmg.operators import cc_laplacian, smooth_group
from repro.schedule import ScheduleOptions
from repro.tuning import predict_schedule_time

LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))


def smoother():
    group = smooth_group(2, cc_laplacian(2, 0.1), lam=0.1)
    shapes = {g: (12, 12) for g in group.grids()}
    return group, shapes


class TestGsrbProvenance:
    def test_every_barrier_names_the_smoothed_grid(self):
        group, shapes = smoother()
        prov = explain(group, shapes, backend="numpy")
        assert len(prov.barriers) == prov.plan.n_barriers == 3
        for b in prov.barriers:
            assert b.grids() == {"x"}

    def test_colored_sweeps_are_parallel_safe(self):
        group, shapes = smoother()
        prov = explain(group, shapes, backend="numpy")
        assert len(prov.stencils) == len(group)
        assert all(s.parallel_safe for s in prov.stencils)
        assert "parallel-safe" in prov.stencils[0].verdict()

    def test_render_is_complete(self):
        group, shapes = smoother()
        text = explain(group, shapes, backend="numpy").render()
        assert "gsrb_red" in text
        assert "forced by" in text
        assert "RAW on x" in text

    def test_to_dict_is_json_serializable(self):
        group, shapes = smoother()
        doc = json.loads(
            json.dumps(explain(group, shapes, backend="numpy").to_dict())
        )
        assert doc["group"] == group.name
        assert all(b["grids"] == ["x"] for b in doc["barriers"])


class TestIntraStencilVerdict:
    def test_unsafe_inplace_stencil_is_serialized(self):
        blur = Stencil(LAP, "u", INTERIOR, name="inplace_lap")
        prov = explain(blur, {"u": (12, 12)}, backend="numpy")
        (s,) = prov.stencils
        assert not s.parallel_safe
        assert s.verdict().startswith("serialized:")
        assert s.hazards


class TestTimeTilePrediction:
    @pytest.mark.parametrize("n,resident", [(8, True), (256, False)])
    def test_swept_agrees_with_the_cost_model_on_residency(self, n, resident):
        group = StencilGroup([Stencil(
            cc_laplacian(3, 1.0 / n), "out",
            RectDomain((1, 1, 1), (-1, -1, -1)), name="cc_7pt",
        )])
        shapes = {g: (n + 2,) * 3 for g in ("x", "out")}
        prov = explain(group, shapes, backend="numpy", time_tile=4)
        (sc,) = prov.swept.values()
        assert sc["cache_resident"] is resident
        assert sc["traffic_reduction"] == (4.0 if resident else 1.0)
        one, four = (
            predict_schedule_time(
                group, shapes, ScheduleOptions(time_tile=k)
            )
            for k in (1, 4)
        )
        # the model charges four applications less than four calls
        # exactly when it holds the working set cache resident
        assert (four < 4 * one) is resident


class TestArtifactInfo:
    def shapes(self):
        return {"u": (12, 12), "out": (12, 12)}

    def test_interpreter_backend_has_no_artifact(self):
        prov = explain(Stencil(LAP, "out", INTERIOR), self.shapes(),
                       backend="numpy")
        assert prov.artifact is None

    def test_c_backend_reports_cache_identity(self):
        prov = explain(Stencil(LAP, "out", INTERIOR), self.shapes(),
                       backend="c")
        a = prov.artifact
        assert a["backend"] == "c"
        assert len(a["cache_key"]) == 24
        assert a["source_path"].endswith(f"sf_{a['cache_key']}.c")
        assert a["artifact_path"].endswith(f"sf_{a['cache_key']}.so")
        assert a["source_bytes"] > 0

    def test_compile_options_change_the_cache_key(self):
        s = Stencil(LAP, "out", INTERIOR)
        plain = explain(s, self.shapes(), backend="c")
        tiled = explain(s, self.shapes(), backend="c", tile=4)
        assert plain.artifact["cache_key"] != tiled.artifact["cache_key"]

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            explain(Stencil(LAP, "out", INTERIOR), self.shapes(),
                    backend="c", warp_drive=9)

    def test_simulator_backends_report_in_process_identity(self):
        for backend in ("opencl", "cuda"):
            prov = explain(Stencil(LAP, "out", INTERIOR), self.shapes(),
                           backend=backend)
            assert prov.artifact["in_process"] is True
            assert prov.artifact["cache_key"]
