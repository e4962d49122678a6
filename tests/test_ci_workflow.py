"""The CI workflow must stay parseable and keep its contract with the repo:
the exact commands it runs are the ones documented in README and ROADMAP."""

import pathlib

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def job_commands(job):
    return [step["run"] for step in job["steps"] if "run" in step]


def test_workflow_parses_and_has_expected_jobs(workflow):
    assert workflow["name"] == "CI"
    assert set(workflow["jobs"]) == {
        "lint", "tests", "sync-safety", "bench-smoke", "chaos", "serve-smoke",
        "fleet-smoke", "soak-smoke",
    }


def test_concurrency_cancels_superseded_runs(workflow):
    """A new push must cancel the previous run for the same ref, not queue
    behind it."""
    group = workflow["concurrency"]
    assert group["cancel-in-progress"] is True
    assert "github.ref" in group["group"]


def test_triggers_cover_push_and_pr(workflow):
    # pyyaml parses the bare `on:` key as boolean True
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers
    assert triggers["push"]["branches"] == ["main"]


def test_test_matrix_covers_supported_pythons(workflow):
    matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.10", "3.11", "3.12"]


def test_pip_caching_enabled_everywhere(workflow):
    for name, job in workflow["jobs"].items():
        setup = [s for s in job["steps"] if "setup-python" in s.get("uses", "")]
        assert setup, f"job {name} does not set up python"
        assert setup[0]["with"].get("cache") == "pip", f"job {name} misses pip caching"


def test_job_command_lines(workflow):
    assert "ruff check src tests benchmarks" in job_commands(workflow["jobs"]["lint"])
    assert "PYTHONPATH=src python -m pytest -x -q" in job_commands(workflow["jobs"]["tests"])
    assert "PYTHONPATH=src python -m repro.cli check" in job_commands(
        workflow["jobs"]["sync-safety"]
    )
    assert "PYTHONPATH=src python -m pytest benchmarks --smoke -q --cache-dir .bench-cache" in (
        job_commands(workflow["jobs"]["bench-smoke"])
    )


def test_sync_safety_runs_every_example(workflow):
    """Each ``examples/*.py`` script is a live entry point: the sync-safety
    job runs all of them and fails on the first nonzero exit."""
    cmds = job_commands(workflow["jobs"]["sync-safety"])
    runs = [c for c in cmds if "examples/*.py" in c]
    assert len(runs) == 1, "sync-safety must run the examples in one step"
    assert "for f in examples/*.py; do" in runs[0]
    assert 'PYTHONPATH=src python "$f" || exit 1' in runs[0]


def test_chaos_job_contract(workflow):
    """The chaos job must run the chaos test suite AND an end-to-end tune
    under an injected fault plan that exercises all three recovery paths
    (dead workers, hung workers, corrupted latencies)."""
    cmds = job_commands(workflow["jobs"]["chaos"])
    assert "PYTHONPATH=src python -m pytest tests/chaos -q" in cmds
    faulted = [c for c in cmds if "--fault-plan" in c]
    assert len(faulted) == 1, "chaos job must run one faulted tune"
    cmd = faulted[0]
    assert "repro.cli tune" in cmd
    assert "--trial-timeout" in cmd, "hang recovery needs a trial timeout"
    assert "--jobs" in cmd, "worker-death recovery needs worker processes"
    for kind in ("worker-death", "hang", "corrupt-latency"):
        assert kind in cmd, f"fault plan must inject {kind}"
    assert "--oracle" in cmd, "faults must hit the full oracle sweep, not only the trials"


def test_bench_smoke_runs_cold_then_warm(workflow):
    """The bench job must exercise the measurement cache twice against the
    same --cache-dir: the first run populates it, the second warm-starts."""
    bench = [c for c in job_commands(workflow["jobs"]["bench-smoke"]) if "pytest benchmarks" in c]
    assert len(bench) == 2, "bench-smoke must run the suite twice (cold, then warm)"
    assert all("--cache-dir .bench-cache" in c for c in bench)
    assert bench[0] == bench[1], "both runs must target the same cache directory"


class TestServeSmokeJob:
    """The serve-smoke job is the executable acceptance criterion for
    compile-as-a-service: it boots the daemon, proves request dedup
    (3 concurrent clients, exactly one sweep) and proves the warm round
    is served from the registry with zero compiles."""

    def test_boots_daemon_in_background_and_waits(self, workflow):
        cmds = job_commands(workflow["jobs"]["serve-smoke"])
        boot = [c for c in cmds if "repro.cli serve" in c]
        assert len(boot) == 1, "serve-smoke must boot exactly one daemon"
        assert "&" in boot[0], "the daemon must run in the background"
        assert "--registry-dir" in boot[0]
        assert "--wait" in boot[0], "the boot step must wait for readiness"

    def test_three_concurrent_clients_same_shape(self, workflow):
        cmds = job_commands(workflow["jobs"]["serve-smoke"])
        fanout = [c for c in cmds
                  if "client tune" in c and "--trace-out" not in c]
        assert len(fanout) == 1
        assert "for i in 1 2 3" in fanout[0], "three concurrent clients"
        assert fanout[0].count("--m 512 --n 512 --k 512"), "same GEMM shape"
        assert "wait" in fanout[0]

    def test_asserts_exactly_one_sweep(self, workflow):
        cmds = "\n".join(job_commands(workflow["jobs"]["serve-smoke"]))
        assert 'assert s["counters"]["sweeps_run"] == 1' in cmds

    def test_asserts_the_sweep_is_bounded(self, workflow):
        """The one sweep is a bounded search: a regression to an
        exhaustive sweep of the 60-config space fails on a count."""
        cmds = "\n".join(job_commands(workflow["jobs"]["serve-smoke"]))
        assert 'assert 0 < s["measurer"]["n_compiled"] < 60' in cmds
        assert "--space 60" in cmds

    def test_asserts_extrapolated_kernels_are_bounded(self, workflow):
        """35 of the long-K request's 60 configs are extrapolated: a
        search that simulated every one of them fails on the count, and
        so does one that ran every one's short run before searching."""
        cmds = job_commands(workflow["jobs"]["serve-smoke"])
        longk = [c for c in cmds if "client compile" in c and "--k 4096" in c]
        assert len(longk) == 1
        assert "--m 512 --n 512 --k 4096" in longk[0]
        assert 'n = s3["measurer"]["n_compiled"] - s2["measurer"]["n_compiled"]' in longk[0]
        assert "assert 0 < n < 35, n" in longk[0]
        assert ('b = s3["measurer"]["bound_short_runs"] - s2["measurer"]["bound_short_runs"]'
                in longk[0])
        assert "assert 0 < b < 35, b" in longk[0]

    def test_asserts_warm_round_from_registry_with_zero_compiles(self, workflow):
        cmds = "\n".join(job_commands(workflow["jobs"]["serve-smoke"]))
        assert 'warm["served_from"] == "registry"' in cmds
        assert 'warm["stages"] == {}' in cmds
        assert 's2["measurer"]["n_compiled"] == s1["measurer"]["n_compiled"]' in cmds

    def test_checks_the_bytes_of_two_warm_http_replies(self, workflow):
        """A warm reply is spliced from a result encoded once per artifact:
        the warm step POSTs the same compile twice with different ids and
        asserts each body is its own sorted-key JSON line and that the two
        differ only in id."""
        step = next(s for s in workflow["jobs"]["serve-smoke"]["steps"]
                    if s.get("name") == "Second round served from the registry with zero compiles")
        run = step["run"]
        assert "for id in w1 w2; do" in run
        assert "curl -sf http://127.0.0.1:8731/rpc" in run
        assert '\\"op\\": \\"compile\\", \\"id\\": \\"$id\\"' in run
        assert '\\"m\\": 512, \\"n\\": 512, \\"k\\": 512' in run
        assert ('assert body == json.dumps(json.loads(body), sort_keys=True) + "\\n"'
                in run)
        assert '''bodies[0].replace('"id": "w1"', '"id": "w2"', 1) == bodies[1]''' in run

    def test_runs_latency_benchmark_and_uploads_artifact(self, workflow):
        cmds = job_commands(workflow["jobs"]["serve-smoke"])
        bench = [c for c in cmds if "bench_serve_latency.py" in c]
        assert len(bench) == 1
        assert "--smoke" in bench[0] and "--out serve-latency.json" in bench[0]
        uploads = [
            s for s in workflow["jobs"]["serve-smoke"]["steps"]
            if "upload-artifact" in s.get("uses", "")
        ]
        assert {u["with"]["path"] for u in uploads} == {
            "serve-latency.json", "trace.json",
        }

    def test_curls_metrics_endpoint_and_asserts_dedup_counter(self, workflow):
        """The daemon must expose Prometheus metrics over HTTP, and the job
        must prove the exposition parses and the fanout registered >= 2
        dedup joins, with the resilience counters present."""
        boot = next(c for c in job_commands(workflow["jobs"]["serve-smoke"])
                    if "repro.cli serve" in c)
        assert "--port 8731" in boot, "daemon must listen on HTTP for /metrics"
        cmds = "\n".join(job_commands(workflow["jobs"]["serve-smoke"]))
        assert "curl -sf http://127.0.0.1:8731/metrics" in cmds
        assert 'values["repro_dedup_hits_total"] >= 2' in cmds
        for counter in ("repro_requests_shed_total",
                        "repro_deadline_exceeded_total",
                        "repro_disk_errors_total"):
            assert counter in cmds, f"metrics step must check {counter}"

    def test_traced_tune_validates_and_uploads_chrome_trace(self, workflow):
        """A traced client tune must produce one stitched Chrome trace —
        client and server spans under a single trace_id — uploaded as an
        artifact."""
        cmds = job_commands(workflow["jobs"]["serve-smoke"])
        traced = [c for c in cmds if "--trace-out trace.json" in c]
        assert len(traced) == 1, "serve-smoke must run one traced tune"
        assert "client tune" in traced[0]
        assert 'len({e["args"]["trace_id"] for e in events}) == 1' in traced[0]
        assert '{"client:tune", "serve:tune", "sweep"} <= names' in traced[0]

    def test_daemon_is_stopped_even_on_failure(self, workflow):
        stops = [
            s for s in workflow["jobs"]["serve-smoke"]["steps"]
            if "client stop" in s.get("run", "")
        ]
        assert len(stops) == 1
        assert stops[0].get("if") == "always()"


class TestFleetSmokeJob:
    """The fleet-smoke job is the executable acceptance criterion for the
    distributed tuning fleet: the same seeded tune run serially, with
    --jobs 3 --oracle under injected worker death per shard, with --jobs 3
    --oracle under per-trial worker death, and with its tuner batches sent
    to a serve daemon through --fleet-endpoint must produce bitwise-equal
    trial logs and the same best config."""

    def test_runs_serial_then_fleet_with_same_seeded_problem(self, workflow):
        cmds = job_commands(workflow["jobs"]["fleet-smoke"])
        tunes = [c for c in cmds if "repro.cli tune" in c]
        assert len(tunes) == 4, (
            "fleet-smoke must run a serial, a fleet, a --jobs and an endpoint tune")
        serial, fleet, jobs, endpoint = tunes
        assert "--fleet" not in serial and "--jobs" not in serial
        assert "--out serial.json" in serial
        assert "--jobs 3 --oracle" in fleet and "--out fleet.json" in fleet
        assert "--jobs 3" in jobs and "--out jobs.json" in jobs
        assert "--fleet-endpoint /tmp/repro-fleet.sock" in endpoint
        assert "--out endpoint.json" in endpoint
        # The endpoint measures the tuner's own batches, not an oracle sweep.
        assert "--oracle" not in endpoint and "--jobs" not in endpoint
        # Identical problem/method/seed, or the comparison is meaningless.
        for flag in ("--m 256", "--n 256", "--k 512", "--space 32",
                     "--trials 8", "--method xgb", "--seed 3"):
            assert all(flag in c for c in tunes), flag

    def test_jobs_tune_kills_every_first_attempt(self, workflow):
        cmds = job_commands(workflow["jobs"]["fleet-smoke"])
        jobs = next(c for c in cmds if "--out jobs.json" in c)
        assert "--fault-plan" in jobs
        assert '{"site": "worker", "kind": "worker-death", "match": "#a0"}' in jobs
        # The oracle sweep sends all 32 configs through the dying workers.
        assert "--oracle" in jobs

    def test_asserts_jobs_log_equals_serial_entry_by_entry(self, workflow):
        cmds = "\n".join(job_commands(workflow["jobs"]["fleet-smoke"]))
        assert 'j = json.load(open("jobs.json"))' in cmds
        assert "for a, b in zip(j, s):" in cmds
        assert "assert a == b" in cmds

    def test_fleet_tune_injects_worker_death(self, workflow):
        cmds = job_commands(workflow["jobs"]["fleet-smoke"])
        fleet = next(c for c in cmds if "--out fleet.json" in c)
        assert "--fault-plan" in fleet
        assert '"site": "fleet"' in fleet
        assert '"kind": "worker-death"' in fleet
        assert '"match": "|attempt=0|"' in fleet

    def test_asserts_bitwise_identity_with_serial(self, workflow):
        cmds = "\n".join(job_commands(workflow["jobs"]["fleet-smoke"]))
        assert "assert fleet == serial" in cmds
        assert '[e["latency_us"] for e in f] == [e["latency_us"] for e in s]' in cmds

    def test_endpoint_leg_boots_waits_compares_and_stops(self, workflow):
        steps = workflow["jobs"]["fleet-smoke"]["steps"]
        runs = [s.get("run", "") for s in steps]
        boot = next(i for i, r in enumerate(runs) if "repro.cli serve" in r)
        assert "--socket /tmp/repro-fleet.sock" in runs[boot]
        assert runs[boot].splitlines()[1].rstrip().endswith("&"), (
            "the daemon must run in the background")
        assert "client ping" in runs[boot] and "--wait 30" in runs[boot]
        tune = next(i for i, r in enumerate(runs) if "--fleet-endpoint" in r)
        assert boot < tune
        compare = "\n".join(runs[tune:])
        assert 'e = json.load(open("endpoint.json"))' in compare
        assert "for a, b in zip(e, s):" in compare
        stops = [s for s in steps if "client stop" in s.get("run", "")]
        assert len(stops) == 1
        assert "--socket /tmp/repro-fleet.sock" in stops[0]["run"]
        assert stops[0].get("if") == "always()"
        assert steps.index(stops[0]) > tune

    def test_records_throughput_and_uploads_artifact(self, workflow):
        cmds = job_commands(workflow["jobs"]["fleet-smoke"])
        bench = [c for c in cmds if "bench_fleet_throughput.py" in c]
        assert len(bench) == 1
        assert "--smoke" in bench[0] and "--out fleet-throughput.json" in bench[0]
        uploads = [
            s for s in workflow["jobs"]["fleet-smoke"]["steps"]
            if "upload-artifact" in s.get("uses", "")
        ]
        assert len(uploads) == 1
        assert uploads[0]["with"]["path"] == "fleet-throughput.json"


class TestSoakSmokeJob:
    """The soak-smoke job is the executable acceptance criterion for
    overload resilience: a short Poisson-traffic soak with injected delay
    faults must shed (not hang), answer every request, kill no worker
    thread, and leave the warm registry path intact."""

    def test_runs_overload_soak_in_smoke_mode(self, workflow):
        cmds = job_commands(workflow["jobs"]["soak-smoke"])
        soak = [c for c in cmds if "bench_overload.py" in c]
        assert len(soak) == 1, "soak-smoke must run the overload soak once"
        assert "--smoke" in soak[0]
        assert "--out overload.json" in soak[0]

    def test_asserts_overload_invariants(self, workflow):
        cmds = "\n".join(job_commands(workflow["jobs"]["soak-smoke"]))
        assert 'r["workers_alive"] == r["workers"]' in cmds, (
            "must assert zero worker deaths"
        )
        assert 'r["levels"][-1]["shed"] > 0' in cmds, (
            "must assert overload actually shed"
        )
        assert 'lv["hang"] == 0' in cmds, "must assert no request hung"
        assert 'lv["answered"] == lv["requests"]' in cmds, (
            "must assert every request was answered"
        )
        assert 'r["post_soak_served_from"] == "registry"' in cmds, (
            "must assert the warm path survived the soak"
        )

    def test_uploads_overload_artifact(self, workflow):
        uploads = [
            s for s in workflow["jobs"]["soak-smoke"]["steps"]
            if "upload-artifact" in s.get("uses", "")
        ]
        assert len(uploads) == 1
        assert uploads[0]["with"]["path"] == "overload.json"


def test_bench_smoke_records_compile_throughput(workflow):
    """The bench job must emit the compile-throughput JSON record (batch
    model speedup, cold/warm configs/sec) and upload it as an artifact so
    the perf trajectory is tracked PR over PR."""
    cmds = job_commands(workflow["jobs"]["bench-smoke"])
    throughput = [c for c in cmds if "bench_compile_throughput.py" in c]
    assert len(throughput) == 1, "bench-smoke must run the throughput script once"
    assert "--smoke" in throughput[0]
    assert "--out compile-throughput.json" in throughput[0]
    uploads = [
        s for s in workflow["jobs"]["bench-smoke"]["steps"]
        if "upload-artifact" in s.get("uses", "")
    ]
    assert len(uploads) == 1, "the throughput JSON must be uploaded as an artifact"
    assert uploads[0]["with"]["path"] == "compile-throughput.json"


def test_bench_smoke_checks_incremental_engine_fields(workflow):
    """The throughput record must carry the incremental-engine fields and
    prove the speedup was gated on the bitwise identity check — a silent
    drop of either would let the engine regress (or cheat) unnoticed."""
    cmds = "\n".join(job_commands(workflow["jobs"]["bench-smoke"]))
    assert "'incremental_cold_configs_per_s' in r" in cmds
    assert "'lower_reuse_ratio' in r" in cmds
    assert "r['incremental_identity_checked'] is True" in cmds


def test_bench_smoke_gates_incremental_engine_on_counts(workflow):
    """The engine's work is gated on deterministic counts, not on a timing
    floor: two fresh builds per checked tile group, and every other trial
    of the group-preserving sweep answered from its group. An engine that
    starts rebuilding per sibling fails here."""
    cmds = "\n".join(job_commands(workflow["jobs"]["bench-smoke"]))
    assert ("r['incremental_check_builds'] == 2 * r['incremental_groups_checked']"
            in cmds)
    assert ("r['incremental_hits'] + r['incremental_groups_checked'] == "
            "r['incremental_space_size']" in cmds)


def test_bench_smoke_checks_simulator_fields(workflow):
    """The throughput record must carry the simulator's kernels/sec and the
    wave simulations behind it, so host time per simulated wave is tracked
    PR over PR; a record that ran no wave simulation fails."""
    cmds = "\n".join(job_commands(workflow["jobs"]["bench-smoke"]))
    assert "'simulate_kernels_per_s' in r" in cmds
    assert "'simulate_wave_sims' in r" in cmds
    assert "r['simulate_wave_sims'] > 0" in cmds


def test_bench_smoke_runs_traced_perfbench(workflow):
    """A traced perfbench run of compile, tune and serve must stay correct,
    deterministic and see the simulator and, on tune, the batch analytical
    model: a refactor that silently unhooks a layer perfbench wraps
    (``simulate.wave_sims`` or ``analytical.configs`` falling to 0) fails
    CI."""
    cmds = [c for c in job_commands(workflow["jobs"]["bench-smoke"]) if "perfbench/run.py" in c]
    assert len(cmds) == 1, "bench-smoke must run the traced perfbench step once"
    cmd = cmds[0]
    assert "set -o pipefail" in cmd, "a failing run.py must not be masked by tee"
    assert "for w in compile tune serve; do" in cmd
    assert 'for w in ("compile", "tune", "serve"):' in cmd
    assert "python3 perfbench/run.py --workload $w --seed 1 --seconds 5 --trace 1" in cmd
    assert 'r["correct"] is True' in cmd
    assert 'm["nondeterministic.counts"] == 0' in cmd
    assert 'm["simulate.wave_sims"] > 0' in cmd
    assert 'if w == "tune":' in cmd
    assert 'm["analytical.configs"] > 0' in cmd


def test_bench_smoke_gates_tune_on_trials_only(workflow):
    """The traced tune must run no exhaustive sweep, compile no more configs
    than its trials, and fit the GBT exactly once per model-guided batch (a
    refactor that unhooks the cost-model wrapper reads as zero fits, one
    that fits eagerly as one fit too many)."""
    cmd = next(c for c in job_commands(workflow["jobs"]["bench-smoke"])
               if "perfbench/run.py" in c)
    tune = cmd.split('if w == "tune":')[1]
    assert 'm["sweep.calls"] == 0' in tune
    assert 'm["measure.configs_compiled"] <= m["tuner.trials"]' in tune
    assert 'm["model-fit.calls"] == m["tuner.trials"] // 16 - 1' in tune


def test_bench_smoke_gates_serve_on_the_bounded_search(workflow):
    """The traced serve replay's cold solves are bounded searches: a config
    the bound skips is never simulated, and one measured is simulated once
    (a bound's short runs are wave simulations, not kernel ones), so a
    search that measures more, or simulates outside its measurements, fails.
    A bound's short run runs only when the search reaches it (1,206 wave
    simulations, 2,200 when every extrapolated bound was refined first)."""
    cmd = next(c for c in job_commands(workflow["jobs"]["bench-smoke"])
               if "perfbench/run.py" in c)
    serve = cmd.split('if w == "serve":')[1]
    assert 'm["simulate.calls"] == m["measure.configs_compiled"] <= 648' in serve
    assert 'm["simulate.wave_sims"] <= 1300' in serve


def test_bench_smoke_pins_each_workloads_chosen_kernel(workflow):
    """A change that should leave the system's answers alone also leaves
    the kernel each traced workload chooses: its ``kernel_us``, to four
    decimals, is pinned per workload."""
    cmd = next(c for c in job_commands(workflow["jobs"]["bench-smoke"])
               if "perfbench/run.py" in c)
    assert 'kernel_us = {"compile": 16.7169, "tune": 18.6633, "serve": 22.1455}' in cmd
    assert 'round(m["kernel_us"], 4) == kernel_us[w]' in cmd
    assert "ROADMAP.md items 4" in cmd, "say which changes may re-pin them"
