"""The static path's ``Measurer.best`` is branch-and-bound over the
engine's ``LatencyBounds``: it must return exactly the exhaustive argmin (the
lowest-index config of minimal latency, and that latency bit for bit)
while measuring only the configs whose bound can still win."""

import hashlib
import random
import time
import types

import numpy as np
import pytest

import repro.gpusim.engine as engine
import repro.tuning.measure as measure
from repro.core.compiler import VARIANTS
from repro.core.errors import CompileError, DeadlineExceededError
from repro.gpusim import A100, V100
from repro.perfmodel.batch import derive_timing_arrays
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


#: sha256 of the 24 serve keys' ``(config key, latency.hex())`` answers, in
#: suite order with ``alcop`` first; computed from exhaustive sweeps.
_SERVE_ANSWERS = "c4ac3f3cb2281d0f1e1592cfd4e326f17530b36d1d787b3bda14166dd09b2357"


def test_a_cold_serve_pass_measures_479_configs(monkeypatch):
    """One cold measurer answers the 24 serve keys (12 suite ops x
    {alcop, tvm}, cap 600) as a serve replay meets them. In-process the
    search measures one config per step, so the incumbent tightens after
    every simulation. An extrapolated kernel starts at its 64-iteration
    closed form and runs its short run only when the search reaches it, so
    the pass runs 285 short runs (352 with 16-config batches, 1,346 when
    every extrapolated bound was refined first) and measures 479 configs
    (Conv_VGG_3x3's ``alcop`` search 3 of 600; 648 with 16-config batches,
    1,570 when extrapolated kernels had no bound), with the exhaustive
    answers. A ``tvm`` search reaches configs its ``alcop`` search measured;
    it takes their latencies from the memory cache without handing them to
    ``measure_many`` (5 such memory hits when it did)."""
    measure_many = Measurer.measure_many

    def uncached_only(self, spec, cfgs, deadline=None):
        cached = [cfg for cfg in cfgs if self._key(spec, cfg) in self._cache]
        assert not cached, cached
        return measure_many(self, spec, cfgs, deadline=deadline)

    monkeypatch.setattr(Measurer, "measure_many", uncached_only)
    measurer = Measurer(A100, via_ir=False)
    answers = hashlib.sha256()
    compiled = {}
    for spec in suite_specs():
        full = enumerate_space(spec, A100, SpaceOptions(max_size=600))
        for variant in ("alcop", "tvm"):
            before = measurer.telemetry.n_compiled
            cfg, latency = measurer.best(spec, restrict_space(full, variant))
            compiled[spec.name, variant] = measurer.telemetry.n_compiled - before
            answers.update(repr((cfg.key(), latency.hex())).encode())
    assert answers.hexdigest() == _SERVE_ANSWERS
    assert compiled["Conv_VGG_3x3", "alcop"] == 3
    telemetry = measurer.telemetry
    assert telemetry.n_compiled == sum(compiled.values()) == 479
    assert (telemetry.bounds_derived, telemetry.bound_short_runs) == (8682, 285)
    assert telemetry.memory_hits == 0


def _final_bounds(spec, space):
    """Each config's final A100 bound (its closed form, refined by the
    short run for an extrapolated kernel; FAILED where the static path
    fails), and the closed form of each extrapolated config by index."""
    ok, ts = derive_timing_arrays(spec, space)
    columns = engine.LatencyBounds(ts, A100)
    final, closed = [FAILED] * len(space), {}
    for row, i in enumerate(np.flatnonzero(ok).tolist()):
        final[i] = float(columns.bound[row])
        if columns.short_runs[row]:
            closed[i], final[i] = final[i], columns.extrapolate(row)
    return final, closed


@pytest.mark.parametrize("name,variant", [
    ("MM_RN50_FC", "alcop"),
    ("BMM_GPT2_QK", "alcop"),
    ("Conv_VGG_3x3", "alcop"),
    ("MM_BERT_FC2", "tvm"),
    ("long_k", "alcop"),
])
def test_an_in_process_search_measures_exactly_the_configs_that_can_win(name, variant):
    """With the incumbent tightened after every simulation, a fresh
    in-process search measures the configs whose final bound is at most
    the answer and no other, and refines the extrapolated configs whose
    closed form is at most the answer and no other: a config it reaches
    can still tie the answer, and one it skips cannot."""
    spec = (GemmSpec("long_k", 1, 512, 512, 4096) if name == "long_k"
            else next(s for s in suite_specs() if s.name == name))
    space = restrict_space(enumerate_space(spec, A100, SpaceOptions(max_size=600)), variant)
    measurer = Measurer(A100, via_ir=False)
    _, latency = measurer.best(spec, space)
    final, closed = _final_bounds(spec, space)
    if name == "long_k":
        assert closed, "no extrapolated kernel"

    def keys(indices):
        return {measurer._key(spec, space[i]) for i in indices}

    measured = keys(i for i, bound in enumerate(final) if bound <= latency)
    assert set(measurer._cache) == measured
    assert measurer.telemetry.n_compiled == len(measured)
    assert set(measurer._simulated_bounds) == keys(i for i, bound in closed.items()
                                                   if bound <= latency)


def test_a_fleet_search_measures_in_16_config_batches(monkeypatch):
    """On the fleet each batch pays a dispatch, so the search still hands
    ``measure_many`` 16 configs at a time, and answers as in-process."""
    spec = next(s for s in suite_specs() if s.name == "MM_BERT_FC2")
    space = restrict_space(enumerate_space(spec, A100, SpaceOptions(max_size=600)), "alcop")
    serial = Measurer(A100, via_ir=False).best(spec, space)
    batches = []
    measure_many = Measurer.measure_many

    def counted(self, spec, cfgs, deadline=None):
        batches.append(len(cfgs))
        return measure_many(self, spec, cfgs, deadline=deadline)

    monkeypatch.setattr(Measurer, "measure_many", counted)
    assert Measurer(A100, via_ir=False, jobs=2).best(spec, space) == serial
    assert batches == [16, 16, 16, 16, 16, 14]


def _count_refinements(monkeypatch):
    """Patch the engine so every refinement (``LatencyBounds.extrapolate``)
    and every ``simulate_wave`` call made during one are recorded; returns
    ``(refinements, waves)``."""
    refinements, waves, refining = [], [], []
    wave, extrapolate = engine.simulate_wave, engine.LatencyBounds.extrapolate

    def counted_wave(*args, **kwargs):
        if refining:
            waves.append(args[0])
        return wave(*args, **kwargs)

    def counted_extrapolate(bounds, i):
        refinements.append(i)
        refining.append(i)
        try:
            return extrapolate(bounds, i)
        finally:
            refining.pop()

    monkeypatch.setattr(engine, "simulate_wave", counted_wave)
    monkeypatch.setattr(engine.LatencyBounds, "extrapolate", counted_extrapolate)
    return refinements, waves


def test_a_tvm_solve_reuses_the_bounds_of_its_alcop_solve(monkeypatch):
    """The ``tvm`` subspace lies inside the ``alcop`` space. A bound is
    refined only when a search reaches it, so MM_BERT_FC2's ``tvm`` solve
    refines configs the ``alcop`` search never reached, but it reads the
    memoized bound of every config that search refined: each refinement
    adds a new memo entry, so no config is refined twice on one measurer."""
    spec = next(s for s in suite_specs() if s.name == "MM_BERT_FC2")
    full = enumerate_space(spec, A100, SpaceOptions(max_size=600))
    alcop, tvm = restrict_space(full, "alcop"), restrict_space(full, "tvm")
    assert {c.key() for c in tvm} <= {c.key() for c in alcop}
    refinements, waves = _count_refinements(monkeypatch)
    measurer = Measurer(A100, via_ir=False)
    measurer.best(spec, alcop)
    refined_by_alcop = set(measurer._simulated_bounds)
    assert len(refinements) == len(refined_by_alcop) > 0
    assert measurer.best(spec, tvm) == exhaustive_best(Measurer(A100, via_ir=False), spec, tvm)
    refined_by_tvm = set(measurer._simulated_bounds) - refined_by_alcop
    assert len(refinements) == len(refined_by_alcop) + len(refined_by_tvm)
    assert refined_by_tvm, "the tvm solve reached no unrefined config"
    assert measurer.telemetry.bound_short_runs == len(waves)


def test_an_expired_deadline_stops_before_the_first_simulated_bound(monkeypatch):
    """A long-K space has extrapolated kernels, whose refined bounds
    simulate: the deadline is checked before each refinement, so an
    expired request runs no wave at all."""
    spec = GemmSpec("long_k", 1, 256, 256, 4096)
    space = enumerate_space(spec, A100, SpaceOptions(max_size=600))
    calls = []
    wave = engine.simulate_wave
    monkeypatch.setattr(engine, "simulate_wave",
                        lambda *args, **kwargs: calls.append(args) or wave(*args, **kwargs))
    measurer = Measurer(A100, via_ir=False)
    with pytest.raises(DeadlineExceededError, match="latency bounds"):
        measurer.best(spec, space, deadline=time.monotonic() - 1.0)
    assert calls == []
    telemetry = measurer.telemetry
    assert (telemetry.n_compiled, telemetry.bound_short_runs) == (0, 0)


def test_a_deadline_reports_the_bounds_refined_before_it(monkeypatch):
    """The clock passes the deadline after the 5th refinement. The long-K
    search refines 7 bounds before its first measurement, so the next check
    is the 6th refinement's, and it reports 5 of the space's 371
    extrapolated bounds done, not a position in the space."""
    spec = GemmSpec("long_k", 1, 256, 256, 4096)
    space = enumerate_space(spec, A100, SpaceOptions(max_size=600))
    clock = types.SimpleNamespace(monotonic=lambda: 0.0, perf_counter=time.perf_counter,
                                  sleep=time.sleep)
    monkeypatch.setattr(measure, "time", clock)
    refinements, waves = _count_refinements(monkeypatch)
    extrapolate = engine.LatencyBounds.extrapolate

    def expiring_extrapolate(bounds, i):
        bound = extrapolate(bounds, i)
        if len(refinements) == 5:
            clock.monotonic = lambda: 2.0
        return bound

    monkeypatch.setattr(engine.LatencyBounds, "extrapolate", expiring_extrapolate)
    measurer = Measurer(A100, via_ir=False)
    with pytest.raises(DeadlineExceededError, match=r"after 5/371 latency bounds"):
        measurer.best(spec, space, deadline=1.0)
    telemetry = measurer.telemetry
    assert len(refinements) == len(measurer._simulated_bounds) == 5
    assert (telemetry.n_compiled, telemetry.bound_short_runs) == (0, len(waves))


def test_a_deadline_reports_the_configs_measured_before_it(monkeypatch):
    """The clock passes the deadline after the 3rd measurement. MM_BERT_FC1
    has no extrapolated kernel, so the next check is the 4th measurement's,
    and it reports 3 of the space's 598 configs measured, not a position
    in a one-config batch."""
    spec = next(s for s in suite_specs() if s.name == "MM_BERT_FC1")
    space = enumerate_space(spec, A100, SpaceOptions(max_size=600))
    clock = types.SimpleNamespace(monotonic=lambda: 0.0, perf_counter=time.perf_counter,
                                  sleep=time.sleep)
    monkeypatch.setattr(measure, "time", clock)
    compile_and_time = Measurer._compile_and_time

    def expiring_compile(self, spec, cfg, token=""):
        latency = compile_and_time(self, spec, cfg, token)
        if self.n_compiled == 3:
            clock.monotonic = lambda: 2.0
        return latency

    monkeypatch.setattr(Measurer, "_compile_and_time", expiring_compile)
    measurer = Measurer(A100, via_ir=False)
    with pytest.raises(DeadlineExceededError, match=r"after 3/598 configs measured"):
        measurer.best(spec, space, deadline=1.0)
    assert measurer.telemetry.n_compiled == len(measurer._cache) == 3


def test_via_ir_best_measures_the_whole_space():
    """Via IR, ``best`` promises to time the compiler's output, which the
    static bound does not read, so it stays an exhaustive sweep."""
    spec = GemmSpec("ir", 1, 128, 128, 256)
    space = enumerate_space(spec, A100, SpaceOptions(max_size=24))
    measurer = Measurer(A100, via_ir=True)
    assert measurer.best(spec, space) == exhaustive_best(Measurer(A100, via_ir=False), spec,
                                                         space)
    assert measurer.telemetry.n_compiled == len(space)
