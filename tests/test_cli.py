"""Tests for the command-line interface and tuning-log persistence."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.schedule import TileConfig
from repro.tuning import FAILED, TuneHistory
from repro.tuning.record import load_history, save_history


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "--m", "64", "--n", "64", "--k", "64"])
        args.variant == "alcop"
        assert args.gpu == "a100"

    def test_unknown_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compile", "--m", "64", "--n", "64", "--k", "64", "--variant", "fastest"]
            )

    def test_measure_flags_accepted(self):
        for cmd in (["compile", "--m", "64", "--n", "64", "--k", "64"],
                    ["tune", "--m", "64", "--n", "64", "--k", "64"],
                    ["suite"]):
            args = build_parser().parse_args(cmd + ["--jobs", "4", "--cache-dir", "/tmp/c"])
            assert args.jobs == 4 and args.cache_dir == "/tmp/c"
            args = build_parser().parse_args(cmd)
            assert args.jobs == 1 and args.cache_dir is None

    @pytest.mark.parametrize("argv, message", [
        (["tune", "--m", "64", "--n", "64", "--k", "64", "--fleet", "3"],
         "unrecognized arguments: --fleet 3"),
        (["tune", "--m", "64", "--n", "64", "--k", "64", "--breaker-threshold", "2"],
         "unrecognized arguments: --breaker-threshold 2"),
        (["fleet-worker", "--socket", "/tmp/w.sock"],
         "invalid choice: 'fleet-worker'"),
        (["tune", "--m", "64", "--n", "64", "--k", "64", "--prune-ratio", "1.5"],
         "unrecognized arguments: --prune-ratio 1.5"),
    ])
    def test_retired_fleet_options_are_rejected(self, capsys, argv, message):
        """``--fleet N`` is ``--jobs N --oracle`` and ``fleet-worker`` is
        ``serve``; tune refuses abbreviations, so ``--fleet 3`` is not read
        as ``--fleet-endpoint 3``. ``--prune-ratio`` left with model-guided
        pruning."""
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert message in capsys.readouterr().err


class TestCommands:
    def test_compile_small(self, capsys):
        rc = main(["compile", "--m", "128", "--n", "128", "--k", "256", "--space", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "TFLOP/s" in out

    def test_ir_prints_pipelined_kernel(self, capsys):
        rc = main(
            ["ir", "--m", "64", "--n", "64", "--k", "128",
             "--config", "32,32,32,16,16,16,3,2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "producer_acquire" in out
        assert "async_memcpy" in out

    def test_ir_bad_config(self, capsys):
        rc = main(["ir", "--m", "64", "--n", "64", "--k", "128", "--config", "32,32"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["ir", "cuda"])
    @pytest.mark.parametrize("config, reason", [
        ("32,32", "got 2 field(s), need 8"),
        ("64,64,32,32,32,x,2,2", "invalid literal for int()"),
        ("64,64,32,32,32,16,0,2", "smem_stages must be in [1, 8], got 0"),
        ("64,64,32,32,32,16,2,3", "reg_stages must be 1 or 2, got 3"),
        ("64,64,32,48,32,16,2,2", "not divisible by warp_m=48"),
    ])
    def test_bad_config_prints_usage_and_exits_2(self, capsys, command, config, reason):
        rc = main([command, "--m", "64", "--n", "64", "--k", "128", "--config", config])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--config expects bm,bn,bk,wm,wn,ck,smem_stages,reg_stages" in err
        assert reason in err

    def test_tune_writes_log(self, capsys, tmp_path):
        log = tmp_path / "log.json"
        rc = main(
            ["tune", "--m", "128", "--n", "128", "--k", "256", "--space", "60",
             "--method", "analytical", "--trials", "8", "--out", str(log)]
        )
        assert rc == 0
        history = load_history(log)
        assert len(history) == 8

    def test_tune_warm_cache_skips_compiles(self, capsys, tmp_path):
        """Acceptance: a repeat `repro tune` against a warm --cache-dir must
        perform >= 5x fewer compiles (here: zero), with identical results."""
        argv = ["tune", "--m", "128", "--n", "128", "--k", "256", "--space", "60",
                "--method", "random", "--trials", "8", "--cache-dir", str(tmp_path)]

        def compiles(out):
            return int(re.search(r"(\d+) compiled", out).group(1))

        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert compiles(cold) >= 5
        assert compiles(warm) * 5 <= compiles(cold)
        strip = [ln for ln in cold.splitlines() if not ln.startswith(("telemetry", "cache"))]
        assert strip == [
            ln for ln in warm.splitlines() if not ln.startswith(("telemetry", "cache"))
        ], "warm results must match cold results"

    def test_tune_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        """Acceptance: `repro tune --jobs 2 --oracle --trace-out` produces
        one valid Chrome trace with coordinator, per-shard worker and
        per-stage (transform/lower) spans under a single trace_id."""
        out = tmp_path / "trace.json"
        rc = main(["tune", "--m", "128", "--n", "128", "--k", "256",
                   "--space", "24", "--method", "random", "--trials", "4",
                   "--jobs", "2", "--oracle", "--trace-out", str(out)])
        assert rc == 0
        assert "span(s) written" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        names = {e["name"] for e in events}
        assert {"tune", "fleet:coordinator", "fleet:worker-shard",
                "build-best", "schedule", "lower", "transform"} <= names
        assert len({e["args"]["trace_id"] for e in events}) == 1
        assert len({e["pid"] for e in events}) >= 2, \
            "worker-process spans must stitch into the coordinator trace"

    def test_tune_parallel_jobs_match_serial(self, capsys, tmp_path):
        argv = ["tune", "--m", "128", "--n", "128", "--k", "256", "--space", "40",
                "--method", "grid", "--trials", "6"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        strip = [ln for ln in serial.splitlines() if not ln.startswith(("telemetry", "fleet"))]
        assert strip == [ln for ln in parallel.splitlines()
                         if not ln.startswith(("telemetry", "fleet"))]

    def test_tune_profile_prints_stage_breakdown(self, capsys):
        argv = ["tune", "--m", "128", "--n", "128", "--k", "256", "--space", "30",
                "--method", "grid", "--trials", "4", "--profile", "--via-ir"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "per-stage compile/simulate breakdown" in out
        for stage_name in ("schedule", "lower", "transform", "simulate"):
            assert stage_name in out, stage_name

    COMPILE_64 = ["compile", "--m", "64", "--n", "64", "--k", "64", "--space", "0"]

    @staticmethod
    def _stage_cache(out):
        """(compiled, hits, misses, bypasses) from a ``--profile`` report."""
        compiled = int(re.search(r"(\d+) compiled \(", out).group(1))
        line = re.search(r"stage cache .*", out).group(0)
        hits, misses = map(int, re.search(r"(\d+) hits / (\d+) misses", line).groups())
        bypassed = re.search(r"(\d+) bypassed", line)
        return compiled, hits, misses, int(bypassed.group(1)) if bypassed else 0

    def test_compile_via_ir_matches_static_and_reuses_stages(self, capsys):
        """A full-space via-IR compile picks the static run's kernels and
        answers most of its trials from checked tile groups."""
        def picks(out):
            return [ln for ln in out.splitlines()
                    if ln.startswith(("alcop", "tvm", "speedup"))]

        assert main(self.COMPILE_64) == 0
        static = capsys.readouterr().out
        assert main(self.COMPILE_64 + ["--via-ir", "--profile"]) == 0
        via_ir = capsys.readouterr().out
        assert len(picks(static)) == 3
        assert picks(via_ir) == picks(static)
        assert self._stage_cache(via_ir)[1] > 0

    def test_compile_jobs_reports_worker_stage_cache(self, capsys):
        """Under --jobs 2 every compile runs in a fleet worker; the
        workers' engine counts come back with each trial, so the stage
        cache line accounts for every compiled trial."""
        assert main(self.COMPILE_64 + ["--via-ir", "--profile", "--jobs", "2"]) == 0
        compiled, hits, misses, bypasses = self._stage_cache(capsys.readouterr().out)
        assert hits > 0
        assert hits + misses + bypasses == compiled

    def test_tune_counts_worker_compiles_like_serial(self, capsys):
        """Serial and --jobs 2 measure the same configs (the tuner's own
        trials) and report the same compiled count and a stage breakdown:
        compiles run in worker processes are merged into the measurer's
        telemetry, not mistaken for memory hits."""
        argv = ["tune", "--m", "256", "--n", "256", "--k", "512", "--space", "64",
                "--trials", "8", "--method", "xgb", "--seed", "3", "--profile"]
        counts = []
        for extra in ([], ["--jobs", "2"]):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            m = re.search(r"(\d+) compiled \(.*?\), (\d+) memory hits", out)
            counts.append((int(m.group(1)), int(m.group(2))))
            assert ("fleet    :" in out) == bool(extra), "--jobs 2 compiles on the workers"
            assert "no stages recorded" not in out, extra
            assert "simulate" in out.split("per-stage compile/simulate breakdown")[1]
        assert counts == [(8, 0), (8, 0)]

    def test_tune_jobs_oracle_reports_fleet_recovery(self, capsys):
        """Under the fleet-site plan (every shard's first dispatch loses its
        worker), a --jobs 3 --oracle tune prints the fleet line with the
        recovered deaths and losses, and otherwise the serial report."""
        from repro import faults

        plan = ('{"seed": 11, "rules": [{"site": "fleet", "kind": "worker-death", '
                '"match": "|attempt=0|"}]}')
        argv = ["tune", "--m", "256", "--n", "256", "--k", "512", "--space", "32",
                "--trials", "8", "--method", "xgb", "--seed", "3", "--oracle"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert "fleet    :" not in serial
        with faults.injected(faults.FaultPlan.parse(plan)):
            assert main(argv + ["--jobs", "3", "--fault-plan", plan]) == 0
        out = capsys.readouterr().out
        m = re.search(r"^fleet    : .*; (\d+) worker death\(s\), (\d+) shard loss\(es\) "
                      r"recovered", out, re.M)
        assert m, out
        assert int(m.group(1)) > 0 and int(m.group(2)) > 0

        def strip(text):
            return [ln for ln in text.splitlines() if not ln.startswith(("telemetry", "fleet"))]

        assert strip(out) == strip(serial)

    def test_tune_without_oracle_compiles_only_its_trials(self, capsys):
        """A plain tune measures what its tuner proposes and nothing else,
        serially and on --jobs workers, and reports the tuner's own best."""
        argv = ["tune", "--m", "256", "--n", "256", "--k", "512", "--space", "64",
                "--trials", "8", "--method", "xgb", "--seed", "3"]
        outs = []
        for extra in ([], ["--jobs", "2"]):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            assert int(re.search(r"(\d+) compiled \(", out).group(1)) == 8, extra
            assert "exhaustive best" not in out and "best-in-" not in out
            assert re.search(r"^space: 64 schedules; best found [\d.]+ us at trial [1-8] "
                             r"of 8$", out, re.M), out
            outs.append([ln for ln in out.splitlines()
                         if not ln.startswith(("telemetry", "fleet"))])
        assert outs[0] == outs[1]

    def test_tune_oracle_output_matches_golden(self, capsys):
        """--oracle reproduces the exhaustive-best report line for line
        (golden copy of the output from before the oracle became opt-in)."""
        golden = [
            "space: 60 schedules; exhaustive best 4.2 us",
            "  best-in-1  : 0.747",
            "  best-in-2  : 0.909",
            "  best-in-4  : 1.000",
            "  best-in-8  : 1.000",
            "  best-in-16 : 1.000",
            "  best-in-20 : 1.000",
            "best schedule: TB(32x16x32)/W(32x16x8)/S(4,2)",
        ]
        argv = ["tune", "--m", "128", "--n", "128", "--k", "256", "--space", "60",
                "--method", "model-assisted-xgb", "--trials", "20"]
        assert main(argv + ["--oracle"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [ln for ln in out if not ln.startswith("telemetry")] == golden
        assert main(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert plain[0] == "space: 60 schedules; best found 4.2 us at trial 3 of 20"
        assert plain[1] == golden[-1]

    @pytest.mark.parametrize("trials", ["1", "8", "32"])
    def test_tune_prints_each_best_in_k_once(self, capsys, trials):
        argv = ["tune", "--m", "128", "--n", "128", "--k", "256", "--space", "60",
                "--method", "random", "--trials", trials, "--oracle"]
        assert main(argv) == 0
        labels = [ln.split(":")[0].strip() for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("  best-in-")]
        ks = [k for k in (1, 2, 4, 8, 16, 32) if k <= int(trials)]
        assert labels == [f"best-in-{k}" for k in ks]

    def test_tune_best_found_without_a_valid_trial(self, capsys, monkeypatch):
        from repro.tuning import Measurer

        argv = ["tune", "--m", "128", "--n", "128", "--k", "256", "--space", "60",
                "--method", "random"]
        assert main(argv + ["--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "space: 60 schedules; no valid schedule in 0 trial(s)" in out
        assert "best schedule: None" in out
        monkeypatch.setattr(Measurer, "_compile_and_time",
                            lambda self, spec, cfg, token="": FAILED)
        assert main(argv + ["--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "space: 60 schedules; no valid schedule in 4 trial(s)" in out
        assert "best schedule: None" in out

    def test_cuda_emission(self, capsys, tmp_path):
        out = tmp_path / "k.cu"
        rc = main(
            ["cuda", "--m", "64", "--n", "64", "--k", "128",
             "--config", "32,32,32,16,16,16,3,2", "--out", str(out)]
        )
        assert rc == 0
        src = out.read_text()
        assert "cuda::memcpy_async" in src and "wmma::mma_sync" in src

    def test_cuda_bad_config(self, capsys):
        assert main(["cuda", "--m", "64", "--n", "64", "--k", "128", "--config", "1,2,3"]) == 2

    def test_suite_subset(self, capsys):
        rc = main(["suite", "--ops", "MM_RN50_FC", "--space", "80"])
        assert rc == 0
        assert "MM_RN50_FC" in capsys.readouterr().out

    def test_check_clean_suite_subset(self, capsys):
        rc = main(["check", "--ops", "MM_RN50_FC", "--configs", "2", "--space", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MM_RN50_FC" in out
        assert "all synchronization-clean" in out

    def test_check_reports_seeded_race(self, capsys, monkeypatch):
        import repro.ir.syncheck as syncheck
        from repro.ir.syncheck import SyncDiagnostic

        seeded = SyncDiagnostic(
            rule="R3-stage-alias", severity="error", buffer="A_shared",
            path="for ko@1", message="seeded race",
        )
        monkeypatch.setattr(syncheck, "check_kernel", lambda k: [seeded])
        rc = main(["check", "--ops", "MM_RN50_FC", "--configs", "1", "--space", "200"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "R3-stage-alias" in out and "finding(s)" in out


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--socket", "/tmp/d.sock"])
        assert args.port is None and args.registry_dir is None
        assert args.workers is None and args.space is None

    def test_serve_defaults_mirror_server_constants(self):
        from repro.cli import (
            _SERVE_IDLE_TIMEOUT,
            _SERVE_MAX_QUEUE,
            _SERVE_SPACE,
            _SERVE_WORKERS,
        )
        from repro.serve.server import (
            DEFAULT_IDLE_TIMEOUT,
            DEFAULT_MAX_QUEUE,
            DEFAULT_SPACE,
            DEFAULT_WORKERS,
        )

        assert _SERVE_WORKERS == DEFAULT_WORKERS
        assert _SERVE_SPACE == DEFAULT_SPACE
        assert _SERVE_IDLE_TIMEOUT == DEFAULT_IDLE_TIMEOUT
        assert _SERVE_MAX_QUEUE == DEFAULT_MAX_QUEUE

    def test_serve_requires_an_endpoint(self, capsys):
        assert main(["serve"]) == 2
        assert "--socket" in capsys.readouterr().err

    def test_client_actions(self):
        for action in ("compile", "tune", "status", "health", "stop", "ping"):
            args = build_parser().parse_args(["client", action, "--socket", "/tmp/d.sock"])
            assert args.action == action

    def test_client_overload_flags(self):
        args = build_parser().parse_args(
            ["client", "ping", "--socket", "/tmp/d.sock",
             "--deadline", "2.5", "--retries", "3"])
        assert args.deadline == 2.5 and args.retries == 3

    def test_client_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "frobnicate", "--socket", "/tmp/d.sock"])

    def test_client_requires_exactly_one_endpoint(self, capsys):
        assert main(["client", "ping"]) == 2
        assert main(["client", "ping", "--socket", "/tmp/a", "--port", "1"]) == 2

    def test_client_compile_requires_problem(self, capsys, tmp_path):
        assert main(["client", "compile", "--socket", str(tmp_path / "d.sock")]) == 2
        assert "--m/--n/--k" in capsys.readouterr().err


class TestServeEndToEnd:
    """Daemon + client through the real CLI entry points, in-process."""

    @pytest.fixture
    def daemon(self, tmp_path):
        from repro.serve.registry import ArtifactRegistry
        from repro.serve.server import ReproServer

        server = ReproServer(
            socket_path=str(tmp_path / "d.sock"),
            registry=ArtifactRegistry(tmp_path / "reg"),
            default_space=16,
        )
        server.start()
        try:
            yield server
        finally:
            server.stop()
            server.shutdown(timeout=10)

    def test_client_tune_then_warm_compile(self, capsys, daemon, tmp_path):
        base = ["client", "--socket", daemon.socket_path, "--wait", "10",
                "--m", "128", "--n", "128", "--k", "128"]
        assert main([base[0], "tune"] + base[1:]) == 0
        cold = capsys.readouterr().out
        assert "served   : fresh" in cold

        cu = tmp_path / "k.cu"
        assert main([base[0], "compile"] + base[1:] + ["--out", str(cu)]) == 0
        warm = capsys.readouterr().out
        assert "served   : registry" in warm
        assert "no compile work" in warm
        assert "__global__" in cu.read_text()

    def test_client_json_output(self, capsys, daemon):
        rc = main(["client", "tune", "--socket", daemon.socket_path,
                   "--m", "128", "--n", "128", "--k", "128", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["served_from"] in ("fresh", "registry")
        assert payload["config"]["block_m"] > 0

    def test_client_status_and_stop(self, capsys, daemon):
        assert main(["client", "status", "--socket", daemon.socket_path]) == 0
        out = capsys.readouterr().out
        assert "registry :" in out and "counters :" in out
        assert main(["client", "stop", "--socket", daemon.socket_path]) == 0
        assert "daemon stopping" in capsys.readouterr().out

    def test_client_status_renders_every_counter_generically(self, capsys, daemon):
        """The text view prints every counter the server reports, so a new
        server counter needs zero CLI changes to become visible — pinned by
        comparing against the --json payload."""
        assert main(["client", "status", "--socket", daemon.socket_path,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["client", "status", "--socket", daemon.socket_path]) == 0
        text = capsys.readouterr().out
        assert payload["counters"], "status payload lost its counters dict"
        for name, value in payload["counters"].items():
            assert name in text, f"counter {name} missing from text status"
        for name in payload.get("measurer", {}):
            assert name in text, f"measurer stat {name} missing from text status"

    def test_client_metrics_returns_prometheus_exposition(self, capsys, daemon):
        assert main(["client", "metrics", "--socket", daemon.socket_path]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sweeps_run_total counter" in out
        assert "repro_requests_shed_total" in out

    def test_client_unreachable_daemon_exits_1(self, capsys, tmp_path):
        rc = main(["client", "ping", "--socket", str(tmp_path / "nope.sock")])
        assert rc == 1
        assert "is the daemon running?" in capsys.readouterr().err


class TestFleetEndpointTune:
    """``tune --fleet-endpoint`` against an in-process ``repro serve``
    daemon: the tuner's batches (and, with --oracle, the oracle's bounded
    search) are measured by the daemon, and the trial log is the serial one."""

    ARGV = ["tune", "--m", "256", "--n", "256", "--k", "512", "--space", "32",
            "--trials", "8", "--method", "xgb", "--seed", "3"]

    @pytest.fixture()
    def daemon(self, tmp_path):
        from repro.serve.client import ServeClient
        from repro.serve.server import ReproServer

        server = ReproServer(
            socket_path=str(tmp_path / "w.sock"), via_ir=False, workers=4,
        )
        server.start()
        try:
            probe = ServeClient(socket_path=server.socket_path, timeout=30)
            assert probe.wait_until_ready(timeout=10)
            yield server
        finally:
            server.stop()
            server.shutdown(timeout=10)

    def test_endpoint_tune_log_equals_serial(self, capsys, tmp_path, daemon):
        serial = tmp_path / "serial.json"
        assert main(self.ARGV + ["--out", str(serial)]) == 0
        capsys.readouterr()
        endpoint = ["--fleet-endpoint", daemon.socket_path]

        plain = tmp_path / "endpoint.json"
        assert main(self.ARGV + endpoint + ["--out", str(plain)]) == 0
        out = capsys.readouterr().out
        assert json.loads(plain.read_text()) == json.loads(serial.read_text())
        # Without --oracle the daemon measures exactly the tuner's trials,
        # and the telemetry line counts them.
        assert daemon.counters["fleet_trials"] == 8
        assert re.search(r"^telemetry: 8 measurements: 0 compiled \([\d.]+s\), "
                         r"8 answered by endpoints, 0 memory hits", out, re.M), out
        assert re.search(r"^fleet    : \d+ batch\(es\), .* over 1 worker\(s\)", out, re.M)

        oracle = tmp_path / "endpoint-oracle.json"
        assert main(self.ARGV + endpoint + ["--oracle", "--out", str(oracle)]) == 0
        out = capsys.readouterr().out
        assert json.loads(oracle.read_text()) == json.loads(serial.read_text())
        assert "exhaustive best" in out
        # The oracle's bounded search measures one batch of 16 on the
        # daemon; 3 of the tuner's 8 trials are among them.
        assert re.search(r"^telemetry: 24 measurements: 0 compiled \([\d.]+s\), "
                         r"21 answered by endpoints, 3 memory hits", out, re.M), out


class TestHistoryPersistence:
    def test_round_trip(self, tmp_path):
        h = TuneHistory()
        cfg = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16, smem_stages=3, reg_stages=2)
        h.append(cfg, 12.5)
        h.append(cfg.with_stages(1, 1), FAILED)
        path = tmp_path / "hist.json"
        save_history(h, path)
        loaded = load_history(path)
        assert len(loaded) == 2
        assert loaded.records[0].latency_us == 12.5
        assert loaded.records[0].config == cfg
        assert loaded.records[1].failed

    def test_json_is_valid(self, tmp_path):
        h = TuneHistory()
        h.append(TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16), 3.0)
        path = tmp_path / "hist.json"
        save_history(h, path)
        payload = json.loads(path.read_text())
        assert payload[0]["config"]["block_m"] == 64
