"""Graceful degradation: the variant ladder in the compiler, and the
roofline fallback of the model runtime and of ``repro suite`` rows."""

import re

import pytest

from repro import faults
from repro.cli import main
from repro.core.compiler import VARIANTS, AlcopCompiler
from repro.core.errors import CompileError, DegradationEvent, ReproError
from repro.gpusim.config import A100
from repro.models.graph import GemmOp, ModelGraph
from repro.models.runtime import estimate_model_latency, roofline_fallback_latency
from repro.tensor.operation import GemmSpec
from repro.tuning.space import SpaceOptions
from repro.workloads.suite import OPERATOR_SUITE

SPEC = GemmSpec("deg", 1, 256, 256, 512)


def _fail_variants(*variants, seed=1):
    """A plan that crashes the compiler-driver build of the given rungs."""
    return faults.FaultPlan(
        [faults.FaultRule("build", "crash", match=f"variant={v};") for v in variants],
        seed=seed,
    )


class TestCompilerLadder:
    def test_top_rung_failure_steps_down_once(self):
        c = AlcopCompiler()
        with faults.injected(_fail_variants("alcop")):
            latency = c.gemm_latency(SPEC)
        assert latency > 0
        assert len(c.degradations) == 1
        ev = c.degradations[0]
        assert (ev.from_variant, ev.to_variant) == ("alcop", "alcop-no-ml")
        assert ev.stage == "fault"
        assert ev.op == SPEC.name

    def test_resolved_rung_is_reused_without_new_events(self):
        c = AlcopCompiler()
        plan = _fail_variants("alcop")
        with faults.injected(plan):
            first = c.gemm_latency(SPEC)
            again = c.gemm_latency(SPEC)
        assert first == again
        assert len(c.degradations) == 1

    def test_every_rung_failing_raises_after_full_ladder(self):
        c = AlcopCompiler()
        with faults.injected(_fail_variants(*VARIANTS)):
            with pytest.raises(ReproError):
                c.compile_with_fallback(SPEC)
        assert [ev.from_variant for ev in c.degradations] == list(VARIANTS)
        assert c.degradations[-1].to_variant == "roofline"

    def test_total_failure_is_cached(self):
        c = AlcopCompiler()
        with faults.injected(_fail_variants(*VARIANTS)):
            with pytest.raises(ReproError):
                c.compile_with_fallback(SPEC)
            n = len(c.degradations)
            with pytest.raises(ReproError):
                c.compile_with_fallback(SPEC)
        assert len(c.degradations) == n  # no duplicate ladder walk

    def test_degrade_false_raises_immediately(self):
        """``compile`` does not degrade: it is one rung, and a failure
        there is the caller's."""
        c = AlcopCompiler()
        with faults.injected(_fail_variants("alcop")):
            with pytest.raises(faults.FaultInjected):
                c.compile(SPEC)
        assert not c.degradations


class TestSearchErrors:
    def test_empty_space_names_spec_and_variant(self, monkeypatch):
        import repro.core.compiler as compiler_mod

        monkeypatch.setattr(compiler_mod, "enumerate_space", lambda *a, **k: [])
        c = AlcopCompiler()
        with pytest.raises(CompileError, match="deg") as ei:
            c.compile(SPEC)
        assert "alcop" in str(ei.value)
        assert ei.value.stage == "compile"


class TestModelRuntime:
    def test_model_estimate_survives_total_op_failure(self):
        graph = ModelGraph(name="toy", gemm_ops=[GemmOp(spec=SPEC, count=2)])
        c = AlcopCompiler()
        with faults.injected(_fail_variants(*VARIANTS)):
            result = estimate_model_latency(graph, c, backend_name="alcop")
        assert result.gemm_us == 0.0
        assert result.fallback_us == pytest.approx(
            2 * roofline_fallback_latency(SPEC, A100) * c.fallback_factor
        )
        assert result.total_us > 0
        assert result.n_degraded_ops == 1
        assert result.degradations[-1].to_variant == "roofline"

    def test_partial_ladder_step_is_surfaced(self):
        graph = ModelGraph(name="toy", gemm_ops=[GemmOp(spec=SPEC, count=1)])
        c = AlcopCompiler()
        with faults.injected(_fail_variants("alcop")):
            result = estimate_model_latency(graph, c, backend_name="alcop")
        assert result.fallback_us == 0.0
        assert result.gemm_us > 0.0
        assert [ev.to_variant for ev in result.degradations] == ["alcop-no-ml"]

    def test_clean_run_records_nothing(self):
        graph = ModelGraph(name="toy", gemm_ops=[GemmOp(spec=SPEC, count=1)])
        result = estimate_model_latency(graph, AlcopCompiler(), backend_name="alcop")
        assert result.degradations == []
        assert result.n_degraded_ops == 0


def _suite_row(capsys, argv):
    """Exit code, the MM_RN50_FC row and the whole output of ``repro suite``."""
    rc = main(["suite", "--ops", "MM_RN50_FC", "--space", "80"] + argv)
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith("MM_RN50_FC"))
    return rc, row, out


class TestDegradedBest:
    """A ``repro suite`` row prices each backend with the compiler's
    degradation ladder, and with the roofline once the ladder runs out."""

    def test_clean_space_uses_requested_variant(self, capsys):
        """A clean row flags no rung and prints each compiler's latency."""
        rc, row, out = _suite_row(capsys, [])
        assert rc == 0 and "[" not in row and "degradations:" not in out
        spec = OPERATOR_SUITE["MM_RN50_FC"]
        opts = SpaceOptions(max_size=80)
        want = [
            AlcopCompiler(variant=v, space_options=opts).compile(spec).latency_us
            for v in ("tvm", "alcop")
        ]
        assert [x.strip() for x in row.split("|")[1:3]] == [f"{x:.1f}" for x in want]

    def test_faulted_rung_steps_down(self, capsys):
        """With every measurement crashing, ``tvm`` steps to the roofline
        and ``alcop`` walks all five rungs first: six steps."""
        plan = "compile:crash"
        with faults.injected(faults.FaultPlan.parse(plan)):
            rc, row, out = _suite_row(capsys, ["--retries", "0", "--fault-plan", plan])
        assert rc == 0
        assert row.endswith("[roofline/roofline]")
        roofline = roofline_fallback_latency(OPERATOR_SUITE["MM_RN50_FC"], A100)
        assert [x.strip() for x in row.split("|")[1:3]] == [f"{roofline:.1f}"] * 2
        steps = re.findall(r"^  MM_RN50_FC: (\S+) -> (\S+) ", out, re.M)
        assert "degradations: 6 ladder step(s) over 1 operator(s)" in out
        assert steps == [("tvm", "roofline")] + list(zip(VARIANTS, VARIANTS[1:] + ("roofline",)))

    def test_event_dataclass_renders(self):
        ev = DegradationEvent(
            op="x", from_variant="alcop", to_variant="tvm", stage="compile", reason="r"
        )
        assert "alcop" in str(ev) and "tvm" in str(ev)
