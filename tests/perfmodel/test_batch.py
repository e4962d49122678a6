"""Batch analytical model vs. the scalar reference, config for config.

The vectorized model (repro.perfmodel.batch) promises *bitwise* agreement
with predict_latency(timing_spec_from_config(...)) — analytical_rank's
ordering and the fig12/fig13 outputs lean on that guarantee, so these
tests sweep entire enumerated spaces (including non-launchable configs)
rather than sampling. Both sides evaluate the same Table-I expressions and
the same occupancy rule (on columns or on scalars), so the sweeps check
the evaluation, not the formulas; the pinned digests at the end check those.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest

from repro.gpusim import A100, H100, V100, CompileError
from repro.perfmodel import (
    derive_timing_arrays,
    predict_breakdown,
    predict_latency,
    predict_latency_batch,
    timing_spec_from_config,
)
from repro.schedule import TileConfig
from repro.tensor import GemmSpec
from repro.tuning import enumerate_space
from repro.tuning.tuners import _analytical_rank_scalar, analytical_rank

# Three shapes with different divisibility/occupancy structure: a big square
# GEMM (plenty of unlaunchable 4-stage tiles), a batched skinny one, and a
# small odd one where most of the space is cut down by divisibility.
SPECS = [
    GemmSpec("batch_big", 1, 1024, 1024, 1024),
    GemmSpec("batch_batched", 8, 128, 128, 256),
    GemmSpec("batch_small", 1, 96, 96, 96),
]


def scalar_latency(spec, cfg, gpu):
    """The per-config path: inf where it raises (the FAILED convention)."""
    try:
        return predict_latency(timing_spec_from_config(spec, cfg), gpu)
    except (CompileError, ValueError):
        return math.inf


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_batch_matches_scalar_on_full_space(spec):
    space = enumerate_space(spec, A100)
    batch = predict_latency_batch(spec, space, A100)
    assert batch.shape == (len(space),)
    for i, cfg in enumerate(space):
        expected = scalar_latency(spec, cfg, A100)
        # Same classification (rejected <-> inf) and *equal* latency — the
        # batch path mirrors the scalar arithmetic operation for operation,
        # so no tolerance is needed.
        assert batch[i] == expected, (i, cfg)


def test_batch_matches_scalar_on_other_gpu():
    spec = SPECS[0]
    space = enumerate_space(spec, V100)
    batch = predict_latency_batch(spec, space, V100)
    for i, cfg in enumerate(space):
        assert batch[i] == scalar_latency(spec, cfg, V100), (i, cfg)


def test_space_exercises_rejections():
    """The parity sweep above is only meaningful if it covers rejected
    configs too — make sure the big space actually contains some."""
    spec = SPECS[0]
    space = enumerate_space(spec, A100)
    batch = predict_latency_batch(spec, space, A100)
    assert np.isinf(batch).any(), "no non-launchable configs in the sweep"
    assert np.isfinite(batch).any()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_analytical_rank_reproduces_scalar_ranking(spec):
    space = enumerate_space(spec, A100)
    assert analytical_rank(spec, space, A100) == _analytical_rank_scalar(spec, space, A100)


def test_custom_model_takes_scalar_path():
    from repro.perfmodel import bottleneck_latency

    spec = SPECS[2]
    space = enumerate_space(spec, A100)
    assert analytical_rank(spec, space, A100, model=bottleneck_latency) == (
        _analytical_rank_scalar(spec, space, A100, model=bottleneck_latency)
    )


def test_empty_space():
    out = predict_latency_batch(SPECS[0], [], A100)
    assert out.shape == (0,) and out.dtype == np.float64


def test_non_divisible_config_marked_not_ok():
    spec = GemmSpec("odd", 1, 64, 64, 64)
    cfgs = [
        TileConfig(48, 48, 16, warp_m=16, warp_n=16, chunk_k=8),  # 64 % 48 != 0
        TileConfig(32, 32, 32, warp_m=16, warp_n=16, chunk_k=16),
        TileConfig(128, 128, 32, warp_m=64, warp_n=64, chunk_k=16),  # tile > problem
    ]
    ok, _ = derive_timing_arrays(spec, cfgs)
    assert list(ok) == [False, True, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a rejected row must not divide by zero
        lat = predict_latency_batch(spec, cfgs, A100)
    assert math.isinf(lat[0]) and math.isfinite(lat[1]) and math.isinf(lat[2])


#: Problems of the pinned model test: ``(GemmSpec kwargs, space shape)``.
#: Each problem is priced over the full enumerated space of ``space shape``
#: ``(batch, m, n, k)``, which is its own shape except for the last case,
#: whose tiles mostly fail to divide the problem or exceed it.
_PIN_CASES = {
    "1024x1024x1024": (dict(batch=1, m=1024, n=1024, k=1024), (1, 1024, 1024, 1024)),
    # more column tiles than one batch of threadblocks covers
    "512x3072x768": (dict(batch=1, m=512, n=3072, k=768), (1, 512, 3072, 768)),
    "12x128x128x64": (dict(batch=12, m=128, n=128, k=64), (12, 128, 128, 64)),
    "4x384x64x512": (dict(batch=4, m=384, n=64, k=512), (4, 384, 64, 512)),  # tail wave
    "256x256x32": (dict(batch=1, m=256, n=256, k=32), (1, 256, 256, 32)),  # K is one tile
    "256x256x256-fp0.3-f32": (
        dict(batch=1, m=256, n=256, k=256, dtype="float32", a_footprint_ratio=0.3),
        (1, 256, 256, 256),
    ),
    "2x96x80x48-offspace": (dict(batch=2, m=96, n=80, k=48), (1, 256, 256, 256)),
}
_PIN_MODEL_GPUS = {"A100": A100, "V100": V100, "H100": H100}
#: sha256 per (GPU, case) of :func:`_model_digest`. Any change to the
#: derivation or to Table I changes a digest; re-pin only for a declared,
#: intended change of the model's outputs.
_PINNED_MODEL = {
    ("A100", "1024x1024x1024"):
        "79507ffc66db1dc9f8f4df1d2cac8dd0ea9d02c12a5ec7139d14c047f41efd5f",
    ("A100", "12x128x128x64"):
        "9e77efde2eca402ae8bbd910fd533a1f44bbcf8c749ce0dd1afeceaf5d311ab1",
    ("A100", "256x256x256-fp0.3-f32"):
        "eba7b1aad8ebaf1703b220e1475c86c27d248d2c078db74d3685f41bc5dba939",
    ("A100", "256x256x32"):
        "612091dbedf878dd64a339d5254e351763fa12d8045cecceab70606e7172fde1",
    ("A100", "2x96x80x48-offspace"):
        "efc0b624c7b1caf7e4a690d18e1e39a1b2439853263c50f272e596be790417f8",
    ("A100", "4x384x64x512"):
        "d8c21ed849582e1df4756dceff76309bdb00162eaa88d6a7762a39a49805a34a",
    ("A100", "512x3072x768"):
        "1fe4d817c0bfc06d5a8d1dc165f5a718f7032cc927d286b8be0a42b06396082b",
    ("H100", "1024x1024x1024"):
        "3088a2341652dae7a38a53b1d9c00d5ab2294bcf5906ddb03e5079c2db1fad38",
    ("H100", "12x128x128x64"):
        "c4dd873f79354d21ea49bc32ec4c33cd4312cc60e3899f91b42b50c3100ecb56",
    ("H100", "256x256x256-fp0.3-f32"):
        "95b7c5f1e56c06daf91340e379b454833b93891d8ed895e7ede6904c451867dc",
    ("H100", "256x256x32"):
        "78ec685c323ffd5ff7a145637d596e77aad389fbb6b74fceb9deb8a4966cbc9d",
    ("H100", "2x96x80x48-offspace"):
        "aab2703b80f8233110c117a4679cf3cb968895ba191fe47d1bb95182871e1b69",
    ("H100", "4x384x64x512"):
        "c59073cbee5afc019cb20f9c8480bba8ff7ecafc9b379e8ceb321fdb3dd6b658",
    ("H100", "512x3072x768"):
        "44593fe5bc910108419fd011e77aad61003fcf1e5663847875d61d4bb6ef6370",
    ("V100", "1024x1024x1024"):
        "0852d37c7879272e4f67c5abc4f1ae023612e11a545422f26aae13938b766d25",
    ("V100", "12x128x128x64"):
        "7aa352b13d245c7170f797f93d0d892bbd6d7556732af5ed4489d80e60eb87ed",
    ("V100", "256x256x256-fp0.3-f32"):
        "babcf5068a5de9402a034c9c786df02153c5edc5a05fbf54adf79f8dd44b7e51",
    ("V100", "256x256x32"):
        "f951340bed200a3d87ab1edaf014c04e99fea8a651557dafba727ab62b7bc2b0",
    ("V100", "2x96x80x48-offspace"):
        "87f425195125e8ec8a7ae5d78df240bee40d14107f1e01cd1b8fde3d8d12560b",
    ("V100", "4x384x64x512"):
        "fcb02eccf447cc65f812291fdc0613443719befeae3ea1d1fc2e58313e6d9116",
    ("V100", "512x3072x768"):
        "1ecfce032f0d508656e3a685c140173afaa89b59308e2b4d15f7e04b16690096",
}


def _model_digest(gpu, case):
    """Digest the batch latencies of the whole space bit for bit, then the
    ``repr`` of the derived spec and of its Table-I breakdown (or the
    rejection's type and message) for every 5th config."""
    spec_kw, space_shape = _PIN_CASES[case]
    spec = GemmSpec("pin", **spec_kw)
    space = enumerate_space(GemmSpec("space", *space_shape))
    h = hashlib.sha256(predict_latency_batch(spec, space, gpu).tobytes())
    for cfg in space[::5]:
        record = []
        try:
            ts = timing_spec_from_config(spec, cfg)
            record.append(repr(ts))
            record.append(repr(predict_breakdown(ts, gpu)))
        except (CompileError, ValueError) as exc:
            record += [type(exc).__name__, str(exc)]
        h.update(repr(record).encode())
    return h.hexdigest()


@pytest.mark.parametrize("gpu_name,case", sorted(_PINNED_MODEL))
def test_model_matches_pinned_digest(gpu_name, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # off-space tiles must not divide by zero
        assert _model_digest(_PIN_MODEL_GPUS[gpu_name], case) == _PINNED_MODEL[gpu_name, case]
