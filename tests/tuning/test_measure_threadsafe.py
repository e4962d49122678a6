"""Thread-safety of the shared measurer and its supporting caches.

The serve daemon hands one :class:`Measurer` to several request-worker
threads at once. These tests pin the guarantees that makes safe: telemetry
counters accumulate without lost updates, the measurement cache and the
design-space memoization tolerate concurrent access, and the stage-profiling
collector stack is thread-local (one request's collector never sees another
request's stages)."""

import sys
import threading

from repro.core import profiling
from repro.gpusim.config import A100
from repro.tensor import GemmSpec
from repro.tuning import Measurer, SpaceOptions, enumerate_space
from repro.tuning.space import clear_space_caches

SPEC = GemmSpec("mm", 1, 256, 256, 256)


def _space(n=8):
    return enumerate_space(SPEC, options=SpaceOptions(max_size=n))


def _run_threads(n, fn):
    barrier = threading.Barrier(n)
    errors = []

    def wrapped(i):
        barrier.wait()
        try:
            fn(i)
        except Exception as e:
            errors.append(e)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestTelemetryCounters:
    def test_concurrent_fresh_measures_count_exactly(self):
        """8 threads × distinct configs: n_compiled is the exact total —
        a lost update under racing `+= 1` would undercount."""
        measurer = Measurer(A100)
        space = _space(16)
        per_thread = len(space) // 8

        def work(i):
            for cfg in space[i * per_thread:(i + 1) * per_thread]:
                measurer.measure(SPEC, cfg)

        _run_threads(8, work)
        assert measurer.telemetry.n_compiled == per_thread * 8
        assert measurer.telemetry.compile_time_s > 0

    def test_concurrent_cache_hits_count_exactly(self):
        measurer = Measurer(A100)
        space = _space(4)
        for cfg in space:  # prepopulate the in-memory cache
            measurer.measure(SPEC, cfg)
        compiled_before = measurer.telemetry.n_compiled

        def work(i):
            for _ in range(5):
                for cfg in space:
                    measurer.measure(SPEC, cfg)

        _run_threads(8, work)
        t = measurer.telemetry
        assert t.n_compiled == compiled_before  # warm: nothing recompiled
        assert t.memory_hits == len(space) + 8 * 5 * len(space) - len(space)

    def test_concurrent_measures_agree_with_serial(self):
        space = _space(6)
        serial = {cfg.key(): Measurer(A100).measure(SPEC, cfg) for cfg in space}
        measurer = Measurer(A100)
        results = {}
        lock = threading.Lock()

        def work(i):
            cfg = space[i % len(space)]
            latency = measurer.measure(SPEC, cfg)
            with lock:
                results.setdefault(cfg.key(), set()).add(latency)

        _run_threads(12, work)
        for key, latencies in results.items():
            assert latencies == {serial[key]}

    def test_concurrent_bounded_searches_count_bounds_exactly(self):
        """8 threads, each a static ``best`` over its own long-K space,
        share one measurer: the bound counters are the serial sums (a lost
        update would undercount) and every answer is the serial one."""
        specs = [GemmSpec(f"long_k{i}", 1, 128, 128, 4096 + 512 * i) for i in range(8)]
        options = SpaceOptions(max_size=40)
        serial = {}
        for spec in specs:
            m = Measurer(A100, via_ir=False)
            serial[spec.name] = (m.best(spec, enumerate_space(spec, A100, options)),
                                 m.telemetry)
        assert all(t.bound_short_runs for _, t in serial.values())
        measurer = Measurer(A100, via_ir=False)
        answers = {}

        def work(i):
            spec = specs[i]
            answers[spec.name] = measurer.best(spec, enumerate_space(spec, A100, options))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(8, work)
        finally:
            sys.setswitchinterval(interval)
        assert answers == {name: best for name, (best, _) in serial.items()}
        t = measurer.telemetry
        assert t.bounds_derived == sum(s.bounds_derived for _, s in serial.values())
        assert t.bound_short_runs == sum(s.bound_short_runs for _, s in serial.values())
        assert t.n_compiled == sum(s.n_compiled for _, s in serial.values())


class TestSpaceCacheThreadSafety:
    def test_concurrent_enumeration_identical(self):
        clear_space_caches()
        spaces = [None] * 8

        def work(i):
            spaces[i] = enumerate_space(SPEC, A100, SpaceOptions(max_size=32))

        _run_threads(8, work)
        first = [c.key() for c in spaces[0]]
        assert all([c.key() for c in s] == first for s in spaces[1:])


class TestThreadLocalProfiling:
    def test_collectors_do_not_leak_across_threads(self):
        """A collector active on thread A must not receive stages timed on
        thread B — per-request profiles would otherwise blend together."""
        seen = {}

        def work(i):
            times = profiling.StageTimes()
            with profiling.collect(times):
                with profiling.stage(f"stage-{i}"):
                    pass
            seen[i] = set(times)

        _run_threads(6, work)
        for i, stages in seen.items():
            assert stages == {f"stage-{i}"}

    def test_shared_staget_times_accumulates_from_many_threads(self):
        shared = profiling.StageTimes()

        def work(i):
            with profiling.collect(shared):
                for _ in range(50):
                    with profiling.stage("s"):
                        pass

        _run_threads(8, work)
        assert shared["s"] > 0

    def test_add_is_atomic(self):
        times = profiling.StageTimes()

        def work(i):
            for _ in range(1000):
                times.add("s", 1.0)

        _run_threads(8, work)
        assert times["s"] == 8000.0

    def test_merge_self_does_not_deadlock(self):
        times = profiling.StageTimes()
        times.add("s", 1.0)
        times.merge(times)
        assert times["s"] == 2.0
