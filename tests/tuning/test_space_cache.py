"""Memoization of enumerate_space.

Tuners, benchmarks and the CLI all re-enumerate the same (spec, gpu,
options) triples; the cache must hand back equal results without letting
callers alias (and mutate) each other's lists.
"""

from repro.gpusim import A100, V100
from repro.tensor import GemmSpec
from repro.tuning import SpaceOptions, clear_space_caches, enumerate_space
from repro.tuning.space import _ENUM_CACHE_SIZE, _enum_cache

SPEC = GemmSpec("cache_mm", 1, 256, 256, 256)


def setup_function(_):
    clear_space_caches()


def test_repeat_enumeration_is_cached_and_equal():
    first = enumerate_space(SPEC, A100)
    assert len(_enum_cache) == 1
    second = enumerate_space(SPEC, A100)
    assert second == first
    assert second is not first  # fresh list per call


def test_cached_list_is_mutation_safe():
    first = enumerate_space(SPEC, A100)
    first.clear()
    assert enumerate_space(SPEC, A100) != first


def test_cache_key_distinguishes_gpu_and_options():
    a = enumerate_space(SPEC, A100)
    b = enumerate_space(SPEC, V100)
    c = enumerate_space(SPEC, A100, options=SpaceOptions(max_size=40))
    assert len(_enum_cache) == 3
    assert len(c) <= 40 < len(a)
    assert a is not b


def test_clear_space_caches():
    enumerate_space(SPEC, A100)
    clear_space_caches()
    assert not _enum_cache


def test_lru_bound():
    for k in range(_ENUM_CACHE_SIZE + 8):
        enumerate_space(GemmSpec(f"lru{k}", 1, 256, 256, 64 * (k + 1)), A100)
    assert len(_enum_cache) == _ENUM_CACHE_SIZE
