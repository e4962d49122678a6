"""Distributed tuning fleet chaos suite (docs/distributed.md).

The contract under test: a sharded fleet sweep is **bitwise-identical** to
a serial ``Measurer.sweep`` — every latency and the best config — at any
fleet width, with remote workers in the mix, under injected worker death
at every shard boundary, under lost dispatches, and across mid-sweep
fleet resizes. Work stealing and retries may re-measure configs; the
deterministic simulator guarantees the duplicates carry identical bits,
and first-write-wins merging keeps the output stable.
"""

import math
import threading

import pytest

from repro import faults
from repro.core.errors import WorkerCrash
from repro.gpusim.config import A100
from repro.tensor.operation import GemmSpec
from repro.tuning.fleet import (
    FleetCoordinator,
    LocalProcessWorker,
    RemoteServeWorker,
    fleet_sweep,
    parse_endpoint,
)
from repro.tuning.measure import Measurer, _cfg_token
from repro.tuning.space import SpaceOptions, enumerate_space

SPEC = GemmSpec("fleet", 1, 128, 128, 256)


@pytest.fixture(scope="module")
def space():
    s = enumerate_space(SPEC, A100, SpaceOptions(max_size=12))
    assert len(s) >= 8
    return s


@pytest.fixture(scope="module")
def serial(space):
    """The fault-free serial reference every fleet run must reproduce."""
    return Measurer(A100, via_ir=False).sweep(SPEC, space)


def run_fleet(space, **kwargs):
    coord = FleetCoordinator(SPEC, space, gpu=A100, via_ir=False, **kwargs)
    return coord.run(), coord


class TestIdentity:
    def test_fleet_matches_serial(self, space, serial):
        result, coord = run_fleet(space, workers=3)
        assert result.latencies == serial
        tel = result.telemetry
        assert tel.worker_deaths == 0 and tel.shard_losses == 0
        assert tel.results_streamed >= len(space)
        assert tel.n_workers_peak == 3

    def test_single_worker_fleet_matches_serial(self, space, serial):
        result, _ = run_fleet(space, workers=1)
        assert result.latencies == serial

    def test_shard_size_one_matches_serial(self, space, serial):
        result, coord = run_fleet(space, workers=2, shard_size=1)
        assert result.latencies == serial
        assert result.telemetry.n_shards == len(space)

    def test_best_index_agrees_with_serial_argmin(self, space, serial):
        result, _ = run_fleet(space, workers=2)
        assert result.best_index() == min(
            range(len(serial)), key=lambda i: serial[i]
        )

    def test_empty_space_returns_empty(self):
        result, _ = run_fleet([], workers=2)
        assert result.latencies == []


class TestWorkerDeath:
    def test_death_at_every_shard_boundary_recovers_identically(self, space, serial):
        """Every shard's first dispatch dies at its first trial (the
        ``attempt=0`` token family); the requeued attempt completes and the
        merged sweep is bitwise-identical to the serial run."""
        plan = faults.FaultPlan(
            [faults.FaultRule("fleet", "worker-death", match="|attempt=0|")],
            seed=1,
        )
        with faults.injected(plan):
            result, coord = run_fleet(space, workers=2, shard_size=3)
        assert result.latencies == serial
        tel = result.telemetry
        assert tel.worker_deaths >= tel.n_shards
        assert tel.shard_losses >= tel.n_shards

    def test_mid_shard_death_keeps_streamed_results(self, space, serial):
        """A worker dying mid-shard loses only the unmeasured remainder:
        results streamed before the death are committed exactly once, and
        the requeued tail completes identically."""
        victim = space[len(space) // 2]
        plan = faults.FaultPlan(
            [
                faults.FaultRule(
                    "fleet", "worker-death",
                    match=f"|attempt=0|{_cfg_token(SPEC, victim)}",
                )
            ],
            seed=1,
        )
        # steal=False keeps the death deterministic: with stealing on, an
        # idle slot may clone the remainder and cover the victim at
        # attempt=1 (where the rule does not fire) before the original
        # worker ever reaches it at attempt=0.
        with faults.injected(plan):
            result, _ = run_fleet(
                space, workers=2, shard_size=len(space), steal=False
            )
        assert result.latencies == serial
        assert result.telemetry.worker_deaths == 1

    def test_random_deaths_any_width_identical(self, space, serial):
        """Token-hashed death decisions are scheduling-independent: the same
        plan over the same space converges to the serial bits at every
        fleet width."""
        plan = faults.FaultPlan(
            [faults.FaultRule("fleet", "worker-death", rate=0.3,
                              match="|attempt=0|")],
            seed=3,
        )
        for workers in (1, 3):
            with faults.injected(plan):
                result, _ = run_fleet(space, workers=workers, shard_size=2)
            assert result.latencies == serial

    def test_trial_deaths_spend_trial_retries_not_the_shards(self, space, serial):
        """A worker killed during a trial (``worker`` site, after the trial's
        start marker) is that trial's crash: it is retried at its next
        attempt without spending the shard's budget, so even
        max_shard_retries=0 completes with the serial bits."""
        plan = faults.FaultPlan(
            [faults.FaultRule("worker", "worker-death", match="#a0")], seed=1
        )
        with faults.injected(plan):
            result, _ = run_fleet(space, workers=2, shard_size=len(space),
                                  steal=False, max_shard_retries=0)
        assert result.latencies == serial
        assert result.telemetry.worker_deaths == len(space)

    def test_persistent_shard_killer_aborts_with_worker_crash(self, space):
        """A shard that dies on every attempt exhausts max_shard_retries and
        the sweep aborts loudly instead of spinning forever."""
        plan = faults.FaultPlan(
            [faults.FaultRule("fleet", "worker-death", match="worker|shard=0|")],
            seed=1,
        )
        with faults.injected(plan):
            with pytest.raises(WorkerCrash, match="shard 0"):
                run_fleet(space, workers=2, shard_size=4, max_shard_retries=1)


class TestShardLoss:
    def test_lost_dispatch_requeues_whole_shard(self, space, serial):
        """A coordinator-side crash (lost dispatch) drops the shard before
        the worker ever sees it; the shard is requeued and the sweep still
        matches the serial bits. The worker is kept — no death counted."""
        plan = faults.FaultPlan(
            [faults.FaultRule("fleet", "crash", match="coordinator|",
                              max_hits=2)],
            seed=1,
        )
        with faults.injected(plan):
            result, _ = run_fleet(space, workers=2, shard_size=3)
        assert result.latencies == serial
        tel = result.telemetry
        assert tel.shard_losses == 2
        assert tel.worker_deaths == 0

    def test_broad_worker_death_rule_cannot_kill_coordinator(self, space, serial):
        """The coordinator's dispatch site narrows injection to crash-kind
        faults, so a site-wide worker-death rule kills only fleet workers —
        never the coordinating (test) process."""
        plan = faults.FaultPlan(
            [faults.FaultRule("fleet", "worker-death", rate=0.25,
                              match="attempt=0")],
            seed=2,
        )
        with faults.injected(plan):
            result, _ = run_fleet(space, workers=2, shard_size=2)
        assert result.latencies == serial  # and: we are still alive


class TestElasticity:
    def test_scale_up_mid_sweep_identical(self, space, serial):
        """Growing the fleet after the first results stream in changes
        wall-clock, never bits."""
        coord = FleetCoordinator(
            SPEC, space, gpu=A100, via_ir=False, workers=1, shard_size=2
        )
        grown = threading.Event()

        def on_result(idx, latency, persist):
            if not grown.is_set():
                grown.set()
                coord.scale_to(3)

        result = coord.run(on_result=on_result)
        assert grown.is_set()
        assert result.latencies == serial
        assert result.telemetry.resizes == 1
        assert result.telemetry.n_workers_peak >= 3

    def test_scale_down_mid_sweep_identical(self, space, serial):
        coord = FleetCoordinator(
            SPEC, space, gpu=A100, via_ir=False, workers=3, shard_size=2
        )
        shrunk = threading.Event()

        def on_result(idx, latency, persist):
            if not shrunk.is_set():
                shrunk.set()
                coord.scale_to(1)

        result = coord.run(on_result=on_result)
        assert result.latencies == serial
        assert result.telemetry.resizes == 1

    def test_scale_to_current_width_is_a_noop(self, space):
        coord = FleetCoordinator(SPEC, space, gpu=A100, via_ir=False, workers=2)
        result = coord.run()
        coord.scale_to(2)
        assert coord.telemetry.resizes == 0
        assert len(result.latencies) == len(space)

    def test_resize_under_worker_death_identical(self, space, serial):
        """The stress combination the tentpole promises: injected deaths
        AND a mid-sweep resize, still bitwise-identical."""
        plan = faults.FaultPlan(
            [faults.FaultRule("fleet", "worker-death", rate=0.4,
                              match="|attempt=0|")],
            seed=5,
        )
        coord = FleetCoordinator(
            SPEC, space, gpu=A100, via_ir=False, workers=1, shard_size=2
        )
        resized = threading.Event()

        def on_result(idx, latency, persist):
            if not resized.is_set():
                resized.set()
                coord.scale_to(3)

        with faults.injected(plan):
            result = coord.run(on_result=on_result)
        assert result.latencies == serial


class TestWorkStealing:
    def test_straggler_shard_is_stolen_and_identical(self, space, serial):
        """One shard covers the whole space and its first trial hangs; an
        idle slot steals the unmeasured remainder, the duplicates merge
        first-write-wins, and the output still equals the serial bits."""
        plan = faults.FaultPlan(
            [
                faults.FaultRule(
                    "fleet", "hang", hang_s=0.75,
                    match=f"|attempt=0|{_cfg_token(SPEC, space[0])}",
                )
            ],
            seed=1,
        )
        with faults.injected(plan):
            result, _ = run_fleet(
                space, workers=3, shard_size=len(space), steal=True
            )
        assert result.latencies == serial
        assert result.telemetry.steals >= 1

    def test_steal_disabled_still_identical(self, space, serial):
        result, _ = run_fleet(space, workers=3, shard_size=len(space), steal=False)
        assert result.latencies == serial
        assert result.telemetry.steals == 0


class TestFleetSweep:
    def test_fleet_sweep_equals_measurer_sweep(self, space, serial):
        m = Measurer(A100, via_ir=False)
        latencies, tel = fleet_sweep(m, SPEC, space, workers=2)
        assert latencies == serial
        assert tel.results_streamed >= len(space)
        # Every config is now a memory hit: a tuner running on this
        # measurer replays the fleet's answers for free.
        again = m.sweep(SPEC, space)
        assert again == serial
        # The fleet's compiles are counted once each; the replay compiles
        # nothing more.
        assert m.n_compiled == len(space)
        assert m.n_memory_hits == len(space)

    def test_cache_hits_never_touch_the_fleet(self, space, serial):
        m = Measurer(A100, via_ir=False)
        m.sweep(SPEC, space)  # warm every config serially
        latencies, tel = fleet_sweep(m, SPEC, space, workers=2)
        assert latencies == serial
        assert tel.shards_dispatched == 0 and tel.results_streamed == 0

    def test_duplicates_within_batch_dispatch_once(self, space, serial):
        m = Measurer(A100, via_ir=False)
        doubled = list(space) + list(space)
        latencies, tel = fleet_sweep(m, SPEC, doubled, workers=2)
        assert latencies == serial + serial
        assert tel.results_streamed <= len(space) + tel.duplicates

    def test_crash_quarantined_failures_not_persisted(self, space, tmp_path):
        """A config whose trials always crash is FAILED in the fleet answer
        but must not poison the disk cache (run property, not config
        property) — matching the serial measurer's persist semantics."""
        from repro.tuning.cache import MeasurementCache

        victim = space[0]
        plan = faults.FaultPlan(
            [faults.FaultRule("compile", "crash",
                              match=_cfg_token(SPEC, victim))],
            seed=1,
        )
        m = Measurer(A100, via_ir=False, cache=MeasurementCache(tmp_path))
        with faults.injected(plan):
            latencies, _ = fleet_sweep(m, SPEC, space, workers=2)
        assert latencies[0] == math.inf
        assert all(math.isfinite(x) for x in latencies[1:])
        # A fresh measurer over the same disk cache re-measures the victim
        # cleanly: the crash-FAILED placeholder was never persisted.
        m2 = Measurer(A100, via_ir=False, cache=MeasurementCache(tmp_path))
        assert math.isfinite(m2.measure(SPEC, victim))

    def test_trial_timeout_puts_a_hung_trial_down(self, space, serial):
        """The measurer's trial_timeout_s covers fleet_sweep: a trial hung
        in its compile is put down and recorded FAILED once, every other
        config keeps the serial bits, and no worker outlives the sweep."""
        import multiprocessing
        import time

        from repro.tuning import FAILED

        victim = 3
        plan = faults.FaultPlan(
            [faults.FaultRule("compile", "hang", hang_s=60.0,
                              match=_cfg_token(SPEC, space[victim]))],
            seed=1,
        )
        m = Measurer(A100, via_ir=False, trial_timeout_s=1.0)
        with faults.injected(plan):
            latencies, _ = fleet_sweep(m, SPEC, space, workers=2)
        assert latencies[victim] == FAILED
        assert m.n_timeouts == 1
        assert [x for i, x in enumerate(latencies) if i != victim] == [
            x for i, x in enumerate(serial) if i != victim
        ]
        t0 = time.monotonic()
        while time.monotonic() - t0 < 5.0:
            alive = [p for p in multiprocessing.active_children() if p.is_alive()]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive, f"fleet leaked worker processes: {alive}"

    def test_compiles_count_once_under_contention(self, space, serial):
        """More workers than cores, a tiny thread switch interval and a
        stolen shard whose owner and thief both finish most of it: the
        measurer counts every compile exactly once, a duplicate not at all.
        The owner stalls before its first trial, so a thief runs the shard;
        the thief stalls before its last trial, so the owner, awake again,
        re-runs what the thief already committed and finishes first."""
        import sys

        plan = faults.FaultPlan(
            [faults.FaultRule("fleet", "hang", hang_s=0.75,
                              match=f"|attempt=0|{_cfg_token(SPEC, space[0])}"),
             faults.FaultRule("fleet", "hang", hang_s=5.0,
                              match=f"|attempt=1|{_cfg_token(SPEC, space[-1])}")],
            seed=1,
        )
        m = Measurer(A100, via_ir=False)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with faults.injected(plan):
                latencies, tel = fleet_sweep(m, SPEC, space, workers=4,
                                             shard_size=len(space))
        finally:
            sys.setswitchinterval(old)
        assert latencies == serial
        assert tel.steals >= 1 and tel.duplicates >= 1
        assert m.n_compiled == len(space) == tel.results_streamed - tel.duplicates
        assert dict(m.telemetry.stage_time_s)["simulate"] > 0

    def test_measurer_sums_every_fleet_batch(self, space, serial):
        """The measurer's fleet telemetry is the sum of the batches that ran
        on the fleet; an all-cached batch starts no coordinator."""
        m = Measurer(A100, via_ir=False)
        assert m.telemetry.fleet is None
        half = len(space) // 2
        first, tel_a = fleet_sweep(m, SPEC, space[:half], workers=2)
        second, tel_b = fleet_sweep(m, SPEC, space[half:], workers=3)
        _, tel_c = fleet_sweep(m, SPEC, space, workers=2)
        assert first + second == serial
        assert tel_c.batches == 0 and tel_c.shards_dispatched == 0
        total = m.telemetry.fleet
        assert total == tel_a + tel_b
        assert total.batches == 2 and total.n_workers_peak == 3
        assert total.n_shards == tel_a.n_shards + tel_b.n_shards

    def test_fleet_with_faults_equals_serial_end_to_end(self, space, serial):
        plan = faults.FaultPlan(
            [faults.FaultRule("fleet", "worker-death", rate=0.3,
                              match="|attempt=0|")],
            seed=9,
        )
        m = Measurer(A100, via_ir=False)
        with faults.injected(plan):
            latencies, _ = fleet_sweep(m, SPEC, space, workers=3, shard_size=2)
        assert latencies == serial


class TestRemoteWorkers:
    @pytest.fixture()
    def daemon(self, tmp_path):
        from repro.serve.server import ReproServer

        server = ReproServer(
            socket_path=str(tmp_path / "w.sock"), via_ir=False, workers=4,
        )
        server.start()
        try:
            from repro.serve.client import ServeClient

            probe = ServeClient(socket_path=server.socket_path, timeout=30)
            assert probe.wait_until_ready(timeout=10)
            yield server
        finally:
            server.stop()
            server.shutdown(timeout=10)

    def test_remote_only_fleet_matches_serial(self, daemon, space, serial):
        m = Measurer(A100, via_ir=False)
        latencies, tel = fleet_sweep(
            m, SPEC, space, workers=0, endpoints=(daemon.socket_path,)
        )
        assert latencies == serial
        assert tel.n_workers_peak == 1

    def test_mixed_local_and_remote_matches_serial(self, daemon, space, serial):
        result, _ = run_fleet(
            space, workers=2, endpoints=(daemon.socket_path,), shard_size=2
        )
        assert result.latencies == serial
        assert result.telemetry.n_workers_peak == 3

    def test_measurer_counts_each_trial_once_across_local_and_remote(
            self, daemon, space, serial):
        """A measurer with local workers and an endpoint shards its batch
        over both: more seats than cores and a short switch interval, yet
        every config is counted exactly once, as a local compile or as an
        endpoint trial, however many stolen duplicates streamed."""
        import sys

        m = Measurer(A100, via_ir=False, jobs=3, endpoints=(daemon.socket_path,))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            latencies = m.measure_many(SPEC, space)
        finally:
            sys.setswitchinterval(old)
        assert latencies == serial
        tel = m.telemetry
        assert tel.n_compiled + tel.endpoint_trials == len(space) == tel.n_measured
        assert tel.fleet.batches == 1 and tel.fleet.n_workers_peak == 4
        assert tel.fleet.results_streamed - tel.fleet.duplicates == len(space)
        assert daemon.counters["fleet_trials"] >= tel.endpoint_trials

    def test_via_ir_mismatch_is_refused(self, daemon, space):
        """A daemon measuring in the other via_ir mode would return
        latencies that are not bitwise-comparable; the coordinator must
        refuse it rather than silently merge foreign bits."""
        coord = FleetCoordinator(
            SPEC, space[:4], gpu=A100, via_ir=True, workers=0,
            endpoints=(daemon.socket_path,), max_shard_retries=0,
        )
        with pytest.raises(WorkerCrash, match="via_ir"):
            coord.run()

    def test_dead_endpoint_does_not_hang_the_sweep(self, tmp_path, space, serial):
        """An unreachable endpoint retires its seat after repeated start
        failures; local workers finish the sweep, bits intact."""
        result, _ = run_fleet(
            space, workers=2, endpoints=(str(tmp_path / "nope.sock"),),
        )
        assert result.latencies == serial

    def test_all_endpoints_dead_aborts_not_hangs(self, tmp_path, space):
        coord = FleetCoordinator(
            SPEC, space, gpu=A100, via_ir=False, workers=0,
            endpoints=(str(tmp_path / "nope.sock"),),
        )
        with pytest.raises(WorkerCrash, match="slot"):
            coord.run()


class TestPlumbing:
    def test_parse_endpoint_tcp(self):
        assert parse_endpoint("10.0.0.5:8441") == {"host": "10.0.0.5", "port": 8441}
        assert parse_endpoint(":8441") == {"host": "127.0.0.1", "port": 8441}

    def test_parse_endpoint_socket_path(self):
        assert parse_endpoint("/tmp/w.sock") == {"socket_path": "/tmp/w.sock"}
        assert parse_endpoint("/tmp/w:1.sock") == {"socket_path": "/tmp/w:1.sock"}

    def test_needs_at_least_one_worker(self, space):
        with pytest.raises(ValueError, match="at least one"):
            FleetCoordinator(SPEC, space, workers=0)

    def test_worker_classes_expose_kind(self):
        assert LocalProcessWorker.kind == "process"
        assert RemoteServeWorker.kind == "remote"

    def test_no_leaked_children_after_faulted_fleet(self, space):
        """Zombie-reap at fleet scale: after a sweep with injected deaths
        and an explicit scale-down, no fleet worker process survives."""
        import multiprocessing

        plan = faults.FaultPlan(
            [faults.FaultRule("fleet", "worker-death", rate=0.5,
                              match="|attempt=0|")],
            seed=4,
        )
        with faults.injected(plan):
            result, _ = run_fleet(space, workers=3, shard_size=2)
        assert len(result.latencies) == len(space)
        deadline = 5.0
        import time

        t0 = time.monotonic()
        while time.monotonic() - t0 < deadline:
            alive = [p for p in multiprocessing.active_children() if p.is_alive()]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive, f"fleet leaked worker processes: {alive}"


class TestCircuitBreaker:
    """State machine of the per-slot endpoint breaker: closed -> open on
    consecutive failures, half-open probe after an escalating cooldown,
    closed again on probe success, exhausted after too many opens."""

    def _make(self, **kwargs):
        from repro.tuning.fleet import CircuitBreaker

        defaults = dict(threshold=3, cooldown_s=0.05, max_opens=5)
        defaults.update(kwargs)
        return CircuitBreaker(**defaults)

    def test_starts_closed_and_admits(self):
        breaker = self._make()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failures_below_threshold_stay_closed(self):
        breaker = self._make(threshold=3)
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()

    def test_threshold_consecutive_failures_trip_open(self):
        breaker = self._make(threshold=3)
        opened = [breaker.record_failure() for _ in range(3)]
        assert opened == [False, False, True]
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = self._make(threshold=2)
        breaker.record_failure()
        assert not breaker.record_success()  # closed stays closed: no rejoin
        breaker.record_failure()
        assert breaker.state == "closed", "non-consecutive failures must not trip"

    def test_cooldown_admits_exactly_one_probe(self):
        import time

        breaker = self._make(threshold=1, cooldown_s=0.05)
        breaker.record_failure()
        assert not breaker.allow()
        time.sleep(0.06)
        assert breaker.allow(), "cooldown elapsed: one probe admitted"
        assert breaker.state == "half-open"
        assert not breaker.allow(), "the probe is out; no second dispatch"

    def test_probe_success_closes_and_counts_a_rejoin(self):
        import time

        breaker = self._make(threshold=1, cooldown_s=0.01)
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.allow()
        assert breaker.record_success() is True  # a genuine rejoin
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_with_escalating_cooldown(self):
        import time

        breaker = self._make(threshold=1, cooldown_s=0.01)
        breaker.record_failure()
        assert breaker._cooldown() == pytest.approx(0.01)
        time.sleep(0.02)
        assert breaker.allow()
        assert breaker.record_failure()  # the probe died: straight back open
        assert breaker.state == "open" and breaker.opens == 2
        assert breaker._cooldown() == pytest.approx(0.02)

    def test_cooldown_escalation_is_capped_at_16x(self):
        breaker = self._make(threshold=1, cooldown_s=0.01, max_opens=100)
        for _ in range(10):
            breaker.state = "half-open"
            breaker.record_failure()
        assert breaker._cooldown() == pytest.approx(0.01 * 16)

    def test_exhausted_after_max_opens(self):
        breaker = self._make(threshold=1, max_opens=2)
        breaker.record_failure()
        assert not breaker.exhausted
        breaker.state = "half-open"
        breaker.record_failure()
        assert breaker.exhausted

    def test_release_probe_returns_the_slot_without_a_verdict(self):
        import time

        breaker = self._make(threshold=1, cooldown_s=0.01)
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.allow()
        breaker.release_probe()  # nothing to probe with; hand the slot back
        assert breaker.allow(), "released probe slot must be reusable"

    def test_failures_while_open_do_not_double_count(self):
        breaker = self._make(threshold=1)
        assert breaker.record_failure()
        assert breaker.record_failure() is False
        assert breaker.opens == 1


class TestCircuitBreakerRejoin:
    def test_late_daemon_rejoins_after_breaker_opens(self, tmp_path, space, serial):
        """A remote-only fleet against an endpoint whose daemon boots late:
        the breaker opens on the connect-refused storm, a half-open probe
        finds the recovered daemon, the seat rejoins, and the merged sweep
        is bitwise-identical to serial."""
        import time

        from repro.serve.server import ReproServer

        sock = str(tmp_path / "late.sock")
        coord = FleetCoordinator(
            SPEC, space, gpu=A100, via_ir=False, workers=0,
            endpoints=(sock,), shard_size=2,
            breaker_cooldown_s=0.1, breaker_max_opens=1000,
        )
        started = {}

        def boot():
            time.sleep(0.8)
            server = ReproServer(socket_path=sock, via_ir=False, workers=2)
            server.start()
            started["server"] = server

        booter = threading.Thread(target=boot)
        booter.start()
        try:
            result = coord.run()
        finally:
            booter.join()
            server = started.get("server")
            if server is not None:
                server.stop()
                server.shutdown(timeout=10)
        assert result.latencies == serial
        tel = result.telemetry
        assert tel.breaker_opens >= 1, "the dead endpoint never tripped its breaker"
        assert tel.breaker_rejoins >= 1, "the recovered endpoint never rejoined"
        assert "circuit-breaker" in tel.summary()
