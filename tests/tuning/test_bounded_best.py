"""The static path's ``Measurer.best`` is branch-and-bound over
``kernel_latency_bound``: it must return exactly the exhaustive argmin (the
lowest-index config of minimal latency, and that latency bit for bit)
while measuring only the configs whose bound can still win."""

import random

import pytest

from repro.core.compiler import VARIANTS
from repro.core.errors import CompileError
from repro.gpusim import A100, V100
from repro.tensor import GemmSpec
from repro.tuning import FAILED, Measurer, SpaceOptions, enumerate_space, restrict_space
from repro.workloads import suite_specs


def exhaustive_best(measurer, spec, space):
    """``space[argmin(sweep())]`` and its latency: the first minimum."""
    latencies = measurer.sweep(spec, space)
    idx = min(range(len(space)), key=lambda i: latencies[i])
    return space[idx], latencies[idx]


@pytest.mark.parametrize("gpu", [A100, V100], ids=lambda g: g.name)
@pytest.mark.parametrize("spec", suite_specs(), ids=lambda s: s.name)
def test_bounded_best_is_the_exhaustive_argmin(spec, gpu):
    """Every suite op x compiler variant, capped at 600 as serve is. On
    V100 every pipelined config fails (no cp.async), so some variants have
    no config that compiles and both searches must refuse. The searches
    share one measurer: the simulator is deterministic, so its memory
    cache changes which configs are simulated, not any latency."""
    full = enumerate_space(spec, gpu, SpaceOptions(max_size=600))
    measurer = Measurer(gpu, via_ir=False)
    for variant in VARIANTS:
        space = restrict_space(full, variant)
        cfg, latency = exhaustive_best(measurer, spec, space)
        if latency == FAILED:
            with pytest.raises(CompileError, match="no configuration"):
                measurer.best(spec, space)
            continue
        got_cfg, got_latency = measurer.best(spec, space)
        assert got_cfg == cfg and got_latency == latency, (variant, got_cfg, cfg)


def test_bounded_best_keeps_the_first_of_tied_and_duplicate_configs():
    """K of one tile degrades every requested stage count to 1, so a
    config's stage variants tie; the space also repeats configs, shuffled.
    The lowest index among the minimal latencies wins, as in a sweep."""
    spec = GemmSpec("ties", 1, 128, 128, 16)
    base = enumerate_space(spec, A100)
    space = base + base[: len(base) // 2]
    random.Random(7).shuffle(space)
    latencies = Measurer(A100, via_ir=False).sweep(spec, space)
    minimal = [i for i, lat in enumerate(latencies) if lat == min(latencies)]
    assert len({space[i].key() for i in minimal}) > 1, "no tie between distinct configs"
    assert len(minimal) > len({space[i].key() for i in minimal}), "no duplicate among them"

    cfg, latency = Measurer(A100, via_ir=False).best(spec, space)
    assert (cfg, latency) == (space[minimal[0]], latencies[minimal[0]])
    assert space.index(cfg) == minimal[0]


def test_bounded_best_measures_a_fraction_of_the_space():
    """MM_BERT_FC1 at cap 600: only the configs whose bound is at most the
    best latency found so far are simulated, and only they are cached."""
    spec = next(s for s in suite_specs() if s.name == "MM_BERT_FC1")
    space = enumerate_space(spec, A100, SpaceOptions(max_size=600))
    assert len(space) == 598
    measurer = Measurer(A100, via_ir=False)
    cfg, latency = measurer.best(spec, space)
    assert measurer.telemetry.n_compiled == 68
    assert len(measurer._cache) == 68
    assert (cfg, latency) == exhaustive_best(Measurer(A100, via_ir=False), spec, space)


def test_unbounded_configs_share_the_first_batch(monkeypatch):
    """Kernels with extrapolated waves have no bound and are always
    measured, so all 371 of MM_BERT_FC2's go in the first batch and later
    batches take 16: on a fleet, one worker start each, not one per 16."""
    spec = next(s for s in suite_specs() if s.name == "MM_BERT_FC2")
    space = enumerate_space(spec, A100, SpaceOptions(max_size=600))
    measurer = Measurer(A100, via_ir=False)
    sizes = []
    measure_many = measurer.measure_many

    def record(spec, cfgs, deadline=None):
        sizes.append(len(cfgs))
        return measure_many(spec, cfgs, deadline=deadline)

    monkeypatch.setattr(measurer, "measure_many", record)
    measurer.best(spec, space)
    assert sizes == [371, 16, 16, 9]


def test_via_ir_best_measures_the_whole_space():
    """Via IR, ``best`` promises to time the compiler's output, which the
    static bound does not read, so it stays an exhaustive sweep."""
    spec = GemmSpec("ir", 1, 128, 128, 256)
    space = enumerate_space(spec, A100, SpaceOptions(max_size=24))
    measurer = Measurer(A100, via_ir=True)
    assert measurer.best(spec, space) == exhaustive_best(Measurer(A100, via_ir=False), spec,
                                                         space)
    assert measurer.telemetry.n_compiled == len(space)
