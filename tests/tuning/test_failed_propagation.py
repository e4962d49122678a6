"""Failure propagation through the tuners: an all-failing design space must
end in a clean 'no valid schedule' error, never a bare ValueError from an
empty ``min``."""

import math

import pytest

from repro import faults
from repro.core.compiler import AlcopCompiler
from repro.core.errors import CompileError
from repro.schedule import TileConfig
from repro.tensor import GemmSpec
from repro.tuning import Measurer
from repro.tuning.tuners import ModelAssistedXGBTuner, XGBTuner

SPEC = GemmSpec("allfail", 1, 1024, 1024, 4096)

#: Every config here exceeds A100 shared-memory/register budgets: the whole
#: space is unlaunchable (the MONSTERS pattern of the Fig. 12 tests).
MONSTERS = [
    TileConfig(256, 256, 64, warp_m=64, warp_n=64, chunk_k=16, smem_stages=s, reg_stages=2)
    for s in (4, 5, 6)
]


class TestMeasurerBest:
    def test_empty_space_raises_compile_error_naming_spec(self):
        m = Measurer(via_ir=False)
        with pytest.raises(CompileError, match="allfail"):
            m.best(SPEC, [])

    def test_all_failing_space_raises_compile_error(self):
        m = Measurer(via_ir=False)
        with pytest.raises(CompileError, match="no configuration"):
            m.best(SPEC, MONSTERS)


@pytest.mark.parametrize("tuner_cls", [XGBTuner, ModelAssistedXGBTuner])
class TestTunersOnAllFailingSpace:
    def test_history_is_all_inf_and_best_is_none(self, tuner_cls):
        tuner = tuner_cls(SPEC, MONSTERS, measurer=Measurer(via_ir=False), seed=0)
        history = tuner.tune(len(MONSTERS))
        assert len(history) == len(MONSTERS)
        assert all(math.isinf(r.latency_us) for r in history.records)
        assert all(r.failed for r in history.records)
        assert history.best_config_at(len(MONSTERS)) is None
        assert history.best_latency_at(len(MONSTERS)) == math.inf


class TestCompilerSearch:
    def test_exhaustive_search_over_failing_space_raises_clean_error(self):
        """A space where every trial fails (faulted compile path, retries
        exhausted) raises a CompileError that names the spec — not min()'s
        bare ValueError."""
        spec = GemmSpec("doomed", 1, 256, 256, 512)
        plan = faults.FaultPlan([faults.FaultRule("compile", "crash")], seed=1)
        c = AlcopCompiler(measurer=Measurer(via_ir=False, retries=0, backoff_s=0.001))
        with faults.injected(plan):
            with pytest.raises(CompileError, match="doomed"):
                c.compile(spec)
