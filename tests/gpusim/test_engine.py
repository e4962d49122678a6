"""Behavioural tests of the timing engine: the simulator must exhibit the
qualitative phenomena the paper builds on."""

import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

from repro.gpusim import A100, A100_NO_ASYNC, H100, V100, CompileError, simulate_kernel
from repro.gpusim.engine import (
    LatencyBounds,
    _extrapolate,
    _launch,
    _launch_columns,
    _row,
    _wave_constants,
)
from repro.gpusim.trace import format_timeline, stall_time
from repro.perfmodel import derive_timing_arrays, timing_spec_from_config
from repro.schedule import TileConfig
from repro.tensor import GemmSpec
from repro.tuning.space import SpaceOptions, enumerate_space
from repro.workloads import suite_specs


def ts_for(m=2048, n=2048, k=2048, bm=128, bn=128, bk=32, wm=64, wn=64, ck=16, ss=1, rs=1,
           **spec_kw):
    spec = GemmSpec("t", 1, m, n, k, **spec_kw)
    cfg = TileConfig(bm, bn, bk, warp_m=wm, warp_n=wn, chunk_k=ck, smem_stages=ss, reg_stages=rs)
    return timing_spec_from_config(spec, cfg)


class TestPipeliningEffects:
    def test_pipelining_speeds_up_large_tiles(self):
        base = simulate_kernel(ts_for(ss=1, rs=1)).latency_us
        piped = simulate_kernel(ts_for(ss=4, rs=2)).latency_us
        assert piped < base * 0.85

    def test_multi_stage_beats_double_buffering(self):
        """On latency-bound shapes (small output, long reduction) two
        stages cannot hide the copy round trip, but three can (Fig. 2)."""
        kw = dict(m=512, n=768, k=3072, bm=64, bn=64, bk=32, wm=32, wn=32, ck=16)
        db = simulate_kernel(ts_for(**kw, ss=2, rs=1)).latency_us
        ms = simulate_kernel(ts_for(**kw, ss=3, rs=1)).latency_us
        assert ms < db * 0.95

    def test_multi_level_helps(self):
        single = simulate_kernel(ts_for(ss=4, rs=1)).latency_us
        multi = simulate_kernel(ts_for(ss=4, rs=2)).latency_us
        assert multi < single

    def test_small_tiles_gain_little_from_pipelining(self):
        """Abundant inter-tile parallelism already hides latency (Fig. 1b)."""
        small_base = simulate_kernel(ts_for(bm=32, bn=32, wm=32, wn=32, ss=1)).latency_us
        small_pipe = simulate_kernel(ts_for(bm=32, bn=32, wm=32, wn=32, ss=4)).latency_us
        large_base = simulate_kernel(ts_for(bm=256, bn=128, wm=64, wn=64, ss=1)).latency_us
        large_pipe = simulate_kernel(ts_for(bm=256, bn=128, wm=64, wn=64, ss=4, rs=2)).latency_us
        small_gain = small_base / small_pipe
        large_gain = large_base / large_pipe
        assert large_gain > small_gain

    def test_long_reduction_gains_more(self):
        """Short reduction axes cannot amortize the pipeline fill (Sec. V-A)."""
        short_base = simulate_kernel(ts_for(m=512, n=512, k=64, bk=32)).latency_us
        short_pipe = simulate_kernel(ts_for(m=512, n=512, k=64, bk=32, ss=3, rs=2)).latency_us
        long_base = simulate_kernel(ts_for(m=512, n=512, k=4096, bk=32)).latency_us
        long_pipe = simulate_kernel(ts_for(m=512, n=512, k=4096, bk=32, ss=3, rs=2)).latency_us
        assert long_base / long_pipe > short_base / short_pipe

    def test_stall_time_shrinks_with_stages(self):
        t1 = simulate_kernel(ts_for(bm=256, bn=128, wm=64, wn=64, ss=1), collect_trace=True)
        t4 = simulate_kernel(ts_for(bm=256, bn=128, wm=64, wn=64, ss=4, rs=2), collect_trace=True)
        s1 = sum(stall_time(t1.trace).values())
        s4 = sum(stall_time(t4.trace).values())
        assert s4 < s1


class TestMechanics:
    def test_wave_count(self):
        res = simulate_kernel(ts_for())
        grid = (2048 // 128) ** 2  # 256
        assert res.waves == -(-grid // (res.tb_per_sm * A100.num_sms))

    def test_latency_scales_with_problem(self):
        small = simulate_kernel(ts_for(m=1024, n=1024)).latency_us
        big = simulate_kernel(ts_for(m=2048, n=2048)).latency_us
        assert big > 2 * small

    def test_tflops_below_peak(self):
        res = simulate_kernel(ts_for(ss=4, rs=2))
        assert 0 < res.tflops < 312

    def test_dram_fraction_below_one_with_reuse(self):
        res = simulate_kernel(ts_for())
        assert res.dram_fraction < 1.0

    def test_footprint_ratio_reduces_dram_fraction(self):
        dense = simulate_kernel(ts_for())
        conv = simulate_kernel(ts_for(a_footprint_ratio=0.2))
        assert conv.dram_fraction < dense.dram_fraction

    def test_extrapolation_close_to_exact(self):
        ts = ts_for(k=8192, ss=3, rs=2)
        exact = simulate_kernel(ts, max_outer_iters=None).latency_us
        extrap = simulate_kernel(ts, max_outer_iters=48).latency_us
        assert abs(exact - extrap) / exact < 0.05

    def test_determinism(self):
        a = simulate_kernel(ts_for(ss=3, rs=2)).latency_us
        b = simulate_kernel(ts_for(ss=3, rs=2)).latency_us
        assert a == b

    def test_bank_conflicts_hurt_without_swizzle(self):
        spec = GemmSpec("t", 1, 2048, 2048, 2048)
        sw = TileConfig(128, 128, 32, warp_m=64, warp_n=64, chunk_k=16, smem_stages=3,
                        reg_stages=1, swizzle=True)
        nosw = dataclasses.replace(sw, swizzle=False)
        t_sw = simulate_kernel(timing_spec_from_config(spec, sw)).latency_us
        t_no = simulate_kernel(timing_spec_from_config(spec, nosw)).latency_us
        assert t_no > t_sw

    def test_async_kernel_needs_ampere(self):
        with pytest.raises(CompileError, match="cp.async"):
            simulate_kernel(ts_for(ss=3), gpu=A100_NO_ASYNC)

    def test_sync_kernel_runs_on_pre_ampere(self):
        res = simulate_kernel(ts_for(ss=1), gpu=A100_NO_ASYNC)
        assert res.latency_us > 0

    def test_unlaunchable_raises(self):
        ts = ts_for(bm=256, bn=256, bk=64, wm=64, wn=64, ss=4)
        with pytest.raises(CompileError):
            simulate_kernel(ts)


class TestTrace:
    def test_timeline_renders(self):
        res = simulate_kernel(ts_for(ss=3, rs=2), collect_trace=True)
        text = format_timeline(res.trace)
        assert "timeline" in text
        assert "#" in text

    def test_empty_trace(self):
        assert "empty" in format_timeline([])


class TestExtrapolationCap:
    """Extrapolation needs two truncated runs of different lengths, both
    longer than the pipeline fill; a cap at or below ``smem_stages + 1``
    cannot give them."""

    def _ts(self):
        ts = ts_for(m=512, n=512, k=4096, bk=32, ss=4, rs=2)
        assert ts.outer_extent == 128 and ts.smem_stages == 4
        return ts

    @pytest.mark.parametrize("cap", [1, 4, 5])
    def test_cap_at_or_below_fill_rejected(self, cap):
        with pytest.raises(ValueError, match=f"max_outer_iters={cap} .* smem_stages \\+ 1 = 5"):
            simulate_kernel(self._ts(), max_outer_iters=cap)

    def test_smallest_valid_cap_extrapolates(self):
        assert simulate_kernel(self._ts(), max_outer_iters=6).latency_us > 0

    def test_cap_ignored_when_loop_fits(self):
        ts = ts_for(m=512, n=512, k=128, bk=32, ss=4, rs=2)
        assert ts.outer_extent == 4
        assert (simulate_kernel(ts, max_outer_iters=4).latency_us
                == simulate_kernel(ts, max_outer_iters=None).latency_us)

    def test_extrapolation_never_drops_below_the_long_run(self):
        """A loop longer than the long run is never faster than it: a short
        run slower than the long run (a negative slope) gives the long
        run's time. Every other case is the linear extrapolation, bit for
        bit, so no simulated latency moves."""
        assert _extrapolate(100.0, 100.5, 64, 32, 128) == 100.0
        assert _extrapolate(100.0, 100.0, 64, 32, 4096) == 100.0
        rng = random.Random(25)
        for _ in range(2000):
            t_long = rng.uniform(1.0, 5000.0)
            t_short = t_long * rng.uniform(0.3, 1.0)
            e_short, outer = rng.randint(5, 63), rng.randint(65, 1 << 14)
            want = t_long + (t_long - t_short) / (64 - e_short) * (outer - 64)
            assert _extrapolate(t_long, t_short, 64, e_short, outer).hex() == want.hex()
            slower = t_long * rng.uniform(1.0 + 1e-12, 2.0)
            assert _extrapolate(t_long, slower, 64, e_short, outer) == t_long


#: Problem shapes ``(batch, m, n, k)`` of the pinned identity test.
_PIN_SHAPES = {
    "1024x1024x1024": (1, 1024, 1024, 1024),
    "512x3072x768": (1, 512, 3072, 768),
    "12x128x128x64": (12, 128, 128, 64),
    "256x256x4096": (1, 256, 256, 4096),  # long reduction: extrapolated waves
    "4x384x64x512": (4, 384, 64, 512),  # grids that leave a tail wave
}
_PIN_GPUS = {"A100": A100, "V100": V100, "H100": H100}  # V100: cp.async rejections
#: sha256 per (GPU, shape) of :func:`_sim_digest`. Any change to the
#: engine's arithmetic, event order, traces or errors changes a digest;
#: re-pin only for a declared, intended change of simulated results.
_PINNED = {
    ("A100", "1024x1024x1024"):
        "2100d6c890a41fade41b50d291f11abb752f50944eaa18f6fd696ae0a1c2cd47",
    ("A100", "512x3072x768"):
        "a894298285562bad3293cdde303ed84a507060590a4797231ed40fe3806275ea",
    ("A100", "12x128x128x64"):
        "ea0a36f28916251683f08afa04ffb9e2759da59f6e28c685b2b1186dc77b0e99",
    ("A100", "256x256x4096"):
        "27fe57a0e45d2d8aee6697b187524db4e32386be41a3cf2981b7cb4fc452245f",
    ("A100", "4x384x64x512"):
        "fbd77e8355bf9db7b8179e8282bfb667414e60efcb2932e4229fee2d3d16ec30",
    ("V100", "1024x1024x1024"):
        "011bfd767207a83e333fd80122237377a3e88928fbf94a38391448d8b4415caa",
    ("V100", "512x3072x768"):
        "7519560cd814a881c495cf78ab3164698abb81df7726b2ee9454ea6ebeb79ed0",
    ("V100", "12x128x128x64"):
        "5a3666e9f45a7c4ddbd0f71d11bd64af703282661eb1db09e050931d199bb0f0",
    ("V100", "256x256x4096"):
        "7926153d8942d4694b98161ed3485cca1c702d570965b522d34e53efe54fc00c",
    ("V100", "4x384x64x512"):
        "e59bd5ca5c8cff4295ee36fecc71dc1e3ea29d9873d577a82782c02af36901fa",
    ("H100", "1024x1024x1024"):
        "a4d95b7c526ef24077366c20f380531e8a85fc0a678c5bba2a0619bf9bace8a8",
    ("H100", "512x3072x768"):
        "c72e9a6cfc9a01254617c391c31ec3a0546d701754e9d00f5881b457f3bbb34b",
    ("H100", "12x128x128x64"):
        "0e2e0816a249fde23d52ddd696eb34bdf2f4e7c02daaf1bf300cf825affbd53f",
    ("H100", "256x256x4096"):
        "1d315cb930b65f8df7eed0496424d2557fd298b310f96c992c546e4d1df510a2",
    ("H100", "4x384x64x512"):
        "24c60d323462eb71aa371e95c8ba65435e8e3fb373cb66f0fb08f901fe425d3d",
}


def _sim_digest(gpu, cases):
    """Digest every ``SimResult`` field's ``repr`` (floats bit for bit), or
    the rejection's type and message, over ``(spec, config)`` cases; every
    5th case also collects its trace."""
    h = hashlib.sha256()
    for i, (spec, cfg) in enumerate(cases):
        try:
            res = simulate_kernel(timing_spec_from_config(spec, cfg), gpu,
                                  collect_trace=i % 5 == 0)
            record = [repr(getattr(res, f.name)) for f in dataclasses.fields(res)]
        except CompileError as exc:
            record = [type(exc).__name__, str(exc)]
        h.update(repr(record).encode())
    return h.hexdigest()


@pytest.mark.parametrize("gpu_name,shape", sorted(_PINNED))
def test_simulation_matches_pinned_digest(gpu_name, shape):
    """Every 47th config of the full space."""
    spec = GemmSpec("pin", *_PIN_SHAPES[shape])
    cases = [(spec, cfg) for cfg in enumerate_space(spec)[::47]]
    assert _sim_digest(_PIN_GPUS[gpu_name], cases) == _PINNED[gpu_name, shape]


#: :func:`_sim_digest` of every 5th config of the 12 operator-suite spaces
#: capped at 600 (the serve daemon's default cap) on A100, in suite order.
_SUITE_PINNED = "426e316be4d0887447ac7fa60b05b402155007b72f111df1fc88adf44b8793a2"


def test_suite_capped_spaces_match_pinned_digest():
    """The static-spec simulations a serve solve sweeps, including both
    conv shapes, which the strided full spaces above do not cover."""
    options = SpaceOptions(max_size=600)
    cases = [(spec, cfg) for spec in suite_specs()
             for cfg in enumerate_space(spec, A100, options)[::5]]
    assert len(cases) == 1380
    assert _sim_digest(A100, cases) == _SUITE_PINNED


def _check_latency_bound(gpu, spec, configs):
    """Assert that the :class:`LatencyBounds` of ``configs``, from one
    columnar pass, is positive and <= the simulated latency of every
    launchable static kernel among them; returns how many it checked. An
    extrapolated kernel (``outer_extent > 64``) has short runs, and its
    refined bound lies between the two; a kernel whose bound is ``inf``
    must be one that ``simulate_kernel`` refuses."""
    ok, columns = derive_timing_arrays(spec, configs)
    assert ok.all()
    bounds = LatencyBounds(columns, gpu)
    checked = 0
    for i, cfg in enumerate(configs):
        ts = timing_spec_from_config(spec, cfg)
        bound = float(bounds.bound[i])
        if bound == math.inf:
            with pytest.raises(CompileError):
                simulate_kernel(ts, gpu)
            continue
        latency = simulate_kernel(ts, gpu).latency_us
        assert 0.0 < bound <= latency, (gpu.name, spec, cfg, bound, latency)
        assert bool(bounds.short_runs[i]) == (ts.outer_extent > 64), (gpu.name, spec, cfg)
        if bounds.short_runs[i]:
            refined = bounds.extrapolate(i)
            assert bound <= refined <= latency, (gpu.name, spec, cfg, bound, refined, latency)
        checked += 1
    return checked


@pytest.mark.parametrize("gpu", [A100, V100, H100], ids=lambda g: g.name)
def test_latency_bound_holds_on_suite_capped_spaces(gpu):
    """Every launchable kernel of the 12 suite spaces capped at 600, the
    spaces a serve solve searches."""
    options = SpaceOptions(max_size=600)
    checked = sum(_check_latency_bound(gpu, spec, enumerate_space(spec, gpu, options))
                  for spec in suite_specs())
    assert checked == {"A100": 6840, "V100": 2952, "H100": 6840}[gpu.name[:4]]


@pytest.mark.parametrize("gpu", [A100, V100, H100], ids=lambda g: g.name)
@pytest.mark.parametrize("shape,checked", [
    ((1, 64, 64, 64), (2236, 1186, 2236)),
    ((1, 128, 128, 16), (1056, 1056, 1056)),  # K of one tile: every stage count degrades to 1
    ((12, 128, 64, 256), (3128, 782, 3128)),  # batch > 1
    ((1, 96, 160, 48), (144, 36, 144)),
    ((1, 256, 256, 4096), (5334, 1336, 5344)),  # long reduction: most waves extrapolated
    ((4, 128, 512, 16384), (4771, 1194, 4776)),  # every wave extrapolated
], ids=["64^3", "K16", "batch12", "96x160x48", "K4096", "K16384"])
def test_latency_bound_holds_on_full_spaces(gpu, shape, checked):
    """``checked`` is the number of launchable kernels on A100, V100, H100."""
    spec = GemmSpec("bound", *shape)
    want = checked[("A100", "V100", "H100").index(gpu.name[:4])]
    assert _check_latency_bound(gpu, spec, enumerate_space(spec, gpu)) == want


@pytest.mark.parametrize("gpu", [A100, V100, H100], ids=lambda g: g.name)
def test_latency_bound_holds_on_random_shapes(gpu):
    """Up to 60 configs of each of 12 seeded random shapes (batch, tail
    waves, long reductions)."""
    rng = random.Random(22)
    checked = 0
    for i in range(12):
        spec = GemmSpec(f"rand{i}", rng.choice((1, 1, 2, 8)), 16 * rng.randint(1, 96),
                        16 * rng.randint(1, 96), 16 * rng.randint(1, 160))
        space = enumerate_space(spec, gpu)
        checked += _check_latency_bound(gpu, spec, rng.sample(space, min(60, len(space))))
    assert checked == {"A100": 676, "V100": 170, "H100": 676}[gpu.name[:4]]


#: The full spaces of ``test_latency_bound_holds_on_full_spaces``.
_FULL_SHAPES = [(1, 64, 64, 64), (1, 128, 128, 16), (12, 128, 64, 256), (1, 96, 160, 48),
                (1, 256, 256, 4096), (4, 128, 512, 16384)]


def _bits(constants):
    """A ``_WaveConstants``' fields with every float as its hex string."""
    def bits(x):
        return x.hex() if isinstance(x, float) else x

    return tuple([(bits(l2), bits(dram)) for l2, dram in value] if name == "chunk_service"
                 else bits(value) for name, value in zip(constants._fields, constants))


def _entry(constants, i):
    """Row ``i`` of wave constants evaluated on columns, as Python scalars."""
    def pick(x):
        return x[i].item() if isinstance(x, np.ndarray) else x

    return constants._replace(
        chunk_service=[(pick(l2), pick(dram)) for l2, dram in constants.chunk_service],
        **{name: pick(value) for name, value in zip(constants._fields, constants)
           if name != "chunk_service"})


def _check_wave_constants(gpu, spec, configs):
    """Assert that the launch geometry and wave constants of ``configs``
    evaluated on their timing-spec columns give each row what they give
    its scalar spec, bit for bit and field by field, and that a row
    refuses exactly where ``_launch`` raises; returns ``(waves, tail
    waves, refused)`` counts."""
    ok, columns = derive_timing_arrays(spec, configs)
    assert ok.all()
    launchable, occ, full_waves, has_tail, tail_occ, tail_active = _launch_columns(columns, gpu)
    full = _wave_constants(columns, gpu, occ, gpu.num_sms)
    tail = _wave_constants(columns, gpu, tail_occ, tail_active)
    waves = tails = refused = 0
    for i, cfg in enumerate(configs):
        ts = timing_spec_from_config(spec, cfg)
        assert _row(columns, i) == ts
        try:
            n_tb, n_full, tail_shape = _launch(ts, gpu)
        except CompileError:
            assert not launchable[i], (gpu.name, spec, cfg)
            refused += 1
            continue
        assert launchable[i] and (occ[i], full_waves[i]) == (n_tb, n_full)
        assert has_tail[i] == (tail_shape is not None)
        if n_full:
            want = _wave_constants(ts, gpu, n_tb, gpu.num_sms)
            assert _bits(_entry(full, i)) == _bits(want), (gpu.name, spec, cfg)
            waves += 1
        if tail_shape is not None:
            assert (tail_occ[i], tail_active[i]) == tail_shape
            want = _wave_constants(ts, gpu, *tail_shape)
            assert _bits(_entry(tail, i)) == _bits(want), (gpu.name, spec, cfg)
            tails += 1
    return waves, tails, refused


@pytest.mark.parametrize("gpu", [A100, V100, H100], ids=lambda g: g.name)
def test_columnar_wave_constants_equal_the_simulators(gpu):
    """The bound evaluates the occupancy rule, the wave geometry and
    ``_wave_constants`` on a space's columns, and the simulator on one
    kernel's scalars; each is one definition, and this test checks that
    the two input kinds agree on every row, refusals included. It covers
    the suite spaces at cap 600 and the six full spaces, each with every
    third config also unswizzled (a bank factor from a missing swizzle
    column would read 1.8 for all)."""
    options = SpaceOptions(max_size=600)
    spaces = [(spec, enumerate_space(spec, gpu, options)) for spec in suite_specs()]
    spaces += [(spec, enumerate_space(spec, gpu))
               for spec in (GemmSpec("bound", *shape) for shape in _FULL_SHAPES)]
    counts = [0, 0, 0]
    for spec, space in spaces:
        configs = space + [dataclasses.replace(cfg, swizzle=False) for cfg in space[::3]]
        counts = [a + b for a, b in zip(counts, _check_wave_constants(gpu, spec, configs))]
    # ``[full waves, tail waves, refused]``; V100 refuses every cp.async kernel.
    assert counts == {"A100": [4237, 31350, 159], "V100": [2714, 11405, 20104],
                      "H100": [3387, 31371, 138]}[gpu.name[:4]]


@pytest.mark.parametrize("gpu", [A100, V100], ids=lambda g: g.name)
def test_scalar_launch_and_wave_constants_are_python_numbers(gpu):
    """The event loop does all its arithmetic on one kernel's launch
    geometry and wave constants, which on a static spec must be Python
    ints, floats and bools: on numpy scalars each step costs more."""
    def types(value):
        if isinstance(value, (list, tuple)):
            return {t for x in value for t in types(x)}
        return {type(value)}

    checked = 0
    for ss, rs, swizzle in ((1, 1, True), (1, 2, False), (3, 2, True), (2, 1, False)):
        ts = dataclasses.replace(ts_for(m=2048, n=2048, k=4096, ss=ss, rs=rs), swizzle=swizzle)
        try:
            occ, full_waves, tail = _launch(ts, gpu)
        except CompileError:
            continue
        assert types((occ, full_waves, tail)) == {int}
        for n_tb, active in ((occ, gpu.num_sms), tail):
            constants = _wave_constants(ts, gpu, n_tb, active)._asdict()
            flags = [constants.pop("hoisted_fill"), constants.pop("chunk_fill")]
            assert types(flags) == {bool}, flags
            assert types(list(constants.values())) == {float}, constants
            checked += 1
    assert checked == {"A100": 8, "V100": 4}[gpu.name[:4]]
