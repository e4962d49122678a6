"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``compile``   search + pipeline + time one GEMM/BMM problem, with baselines;
``ir``        print the lowered and pipelined IR for a fixed schedule;
``tune``      run one tuning method and report its best schedule (with
              ``--oracle``, also the best-in-k curve against the exhaustive
              best);
``suite``     TVM-vs-ALCOP speedups over the paper's operator suite;
``check``     static sync-race check of pipelined IR over the workload suite;
``serve``     long-running compile-as-a-service daemon (docs/serving.md);
``client``    talk to a running daemon: compile | tune | status | health |
              metrics | stop.

``--jobs N`` runs uncached measurements on N local worker processes, and
``tune --fleet-endpoint ADDR`` adds a running ``serve`` daemon as one more
remote seat (docs/distributed.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .gpusim.config import A100, H100, V100

_GPUS = {"a100": A100, "h100": H100, "v100": V100}

# Mirrored from repro.serve.server so --help works without importing the
# (heavier) serving stack; tests/serve pin them equal.
_SERVE_WORKERS = 4
_SERVE_SPACE = 600
_SERVE_IDLE_TIMEOUT = 120.0
_SERVE_MAX_QUEUE = 64


def _add_problem_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--m", type=int, required=required)
    p.add_argument("--n", type=int, required=required)
    p.add_argument("--k", type=int, required=required)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--gpu", choices=sorted(_GPUS), default="a100")
    p.add_argument("--space", type=int, default=600, help="design-space cap (strided; 0 = full space)")


def _add_measure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="local measurement worker processes; above 1, every "
                        "uncached batch is sharded over that many workers, "
                        "started per batch (docs/distributed.md)")
    p.add_argument("--cache-dir", default=None,
                   help="disk-persistent measurement cache directory "
                        "(repeat runs warm-start; see docs/tuning_cache.md)")
    p.add_argument("--trial-timeout", type=float, default=0.0,
                   help="per-trial wall-clock limit in seconds; a hung "
                        "trial is killed and recorded as failed "
                        "(0 disables; see docs/robustness.md)")
    p.add_argument("--retries", type=int, default=2,
                   help="resubmissions of a trial whose worker crashed "
                        "before it is quarantined")
    p.add_argument("--fault-plan", default=None,
                   help="fault-injection plan (JSON or site:kind[:rate],... "
                        "compact form); also read from $REPRO_FAULT_PLAN")
    p.add_argument("--profile", action="store_true",
                   help="print the per-stage compile/simulate wall-clock "
                        "breakdown with the telemetry (docs/performance.md)")
    p.add_argument("--via-ir", action="store_true",
                   help="measure through the full compiler path (schedule/"
                        "lower/transform/extract) instead of the static "
                        "timing spec; slower but exercises every stage")


def _space_cap(args):
    """--space N caps the enumeration (strided); 0 or negative = full space."""
    return args.space if args.space > 0 else None


def _measurer(args, gpu):
    from . import faults
    from .tuning.cache import MeasurementCache
    from .tuning.measure import Measurer

    if getattr(args, "fault_plan", None):
        faults.activate(faults.FaultPlan.parse(args.fault_plan))
    cache = MeasurementCache(args.cache_dir) if args.cache_dir else None
    return Measurer(
        gpu,
        via_ir=bool(getattr(args, "via_ir", False)),
        cache=cache,
        jobs=args.jobs,
        endpoints=tuple(getattr(args, "fleet_endpoint", None) or ()),
        trial_timeout_s=args.trial_timeout if args.trial_timeout > 0 else None,
        retries=args.retries,
    )


def _print_telemetry(measurer, wall_s: float, profile: bool = False) -> None:
    telemetry = measurer.telemetry
    print(f"telemetry: {telemetry.summary()}; wall {wall_s:.2f}s")
    if telemetry.fleet is not None:
        print(f"fleet    : {telemetry.fleet.summary()}")
    if measurer.cache is not None:
        print(f"cache    : {len(measurer.cache)} entries in {measurer.cache.path}")
    if measurer.quarantined:
        print(f"quarantined: {len(measurer.quarantined)} config(s) "
              "repeatedly killed workers and were excluded")
    if profile:
        print("profile  : per-stage compile/simulate breakdown")
        for line in telemetry.profile_summary().splitlines():
            print(f"  {line}")


def _interrupted(measurer, wall_s: float, what: str) -> int:
    """Uniform Ctrl-C epilogue: everything measured so far is already
    committed (disk cache appends and journal lines are flushed per
    trial), so report the partial state and exit 130."""
    print(f"\ninterrupted: {what}; partial results are saved", file=sys.stderr)
    try:
        _print_telemetry(measurer, wall_s)
    except Exception:
        pass
    return 130


def _spec(args):
    from .tensor.operation import GemmSpec

    return GemmSpec("cli", batch=args.batch, m=args.m, n=args.n, k=args.k)


def _cmd_compile(args) -> int:
    import time

    from .baselines.tvm_like import tvm_compiler
    from .core.compiler import AlcopCompiler
    from .tuning.space import SpaceOptions

    t0 = time.perf_counter()
    spec = _spec(args)
    gpu = _GPUS[args.gpu]
    measurer = _measurer(args, gpu)
    options = SpaceOptions(max_size=_space_cap(args))
    alcop = AlcopCompiler(
        gpu=gpu, variant=args.variant, measurer=measurer, space_options=options
    ).compile(spec)
    tvm = tvm_compiler(gpu=gpu, measurer=measurer, space_options=options).compile(spec)
    print(f"problem : {spec.m}x{spec.n}x{spec.k} batch={spec.batch} on {gpu.name}")
    print(
        f"{args.variant:8s}: {alcop.latency_us:9.1f} us  "
        f"{alcop.tflops:7.1f} TFLOP/s  {alcop.config}"
    )
    print(f"tvm     : {tvm.latency_us:9.1f} us  {tvm.tflops:7.1f} TFLOP/s  {tvm.config}")
    print(f"speedup : {tvm.latency_us / alcop.latency_us:.2f}x")
    _print_telemetry(measurer, time.perf_counter() - t0, profile=args.profile)
    return 0


_CONFIG_FIELDS = "bm,bn,bk,wm,wn,ck,smem_stages,reg_stages"


def _parse_config(text: str):
    """``--config`` as a TileConfig, or None after printing the usage
    message when a field is missing, not an integer or out of range."""
    from .schedule.config import TileConfig

    try:
        vals = [int(x) for x in text.split(",")]
        if len(vals) != 8:
            raise ValueError(f"got {len(vals)} field(s), need 8")
        return TileConfig(vals[0], vals[1], vals[2], warp_m=vals[3], warp_n=vals[4],
                          chunk_k=vals[5], smem_stages=vals[6], reg_stages=vals[7])
    except ValueError as e:
        print(f"--config expects {_CONFIG_FIELDS}: {e}", file=sys.stderr)
        return None


def _cmd_ir(args) -> int:
    from .core.compiler import AlcopCompiler
    from .ir.printer import format_kernel

    cfg = _parse_config(args.config)
    if cfg is None:
        return 2
    kernel = AlcopCompiler(gpu=_GPUS[args.gpu]).build(_spec(args), cfg)
    print(format_kernel(kernel))
    return 0


def _cmd_cuda(args) -> int:
    from .codegen import emit_cuda
    from .core.compiler import AlcopCompiler

    cfg = _parse_config(args.config)
    if cfg is None:
        return 2
    kernel = AlcopCompiler(gpu=_GPUS[args.gpu]).build(_spec(args), cfg)
    source = emit_cuda(kernel)
    if args.out:
        with open(args.out, "w") as f:
            f.write(source)
        print(f"wrote {len(source.splitlines())} lines to {args.out}")
    else:
        print(source)
    return 0


_TRIALS_DEFAULT = 50


def _best_found(history) -> str:
    """The tuner's own answer: its best latency and the 1-based trial that
    first measured it."""
    best = min(history.records, key=lambda r: r.latency_us, default=None)
    if best is None or best.failed:
        return f"no valid schedule in {len(history)} trial(s)"
    return (f"best found {best.latency_us:.1f} us at trial {best.trial + 1} "
            f"of {len(history)}")


def _cmd_tune(args) -> int:
    import contextlib
    import time

    from .tuning.record import save_history
    from .tuning.session import TuneSession
    from .tuning.space import SpaceOptions, enumerate_space
    from .tuning.tuners import (
        AnalyticalOnlyTuner,
        GridSearchTuner,
        ModelAssistedXGBTuner,
        RandomSearchTuner,
        XGBTuner,
    )

    methods = {
        "grid": GridSearchTuner,
        "random": RandomSearchTuner,
        "xgb": XGBTuner,
        "analytical": AnalyticalOnlyTuner,
        "model-assisted-xgb": ModelAssistedXGBTuner,
    }
    session = None
    if not args.resume and None in (args.m, args.n, args.k):
        print("tune: --m/--n/--k are required unless resuming a session "
              "(--resume DIR)", file=sys.stderr)
        return 2
    if args.resume:
        # The session metadata is the source of truth for the problem and
        # method; only --trials may be raised on the command line.
        session = TuneSession.load(args.resume)
        meta = session.meta
        for field in ("m", "n", "k", "batch", "seed", "space"):
            if field in meta:
                setattr(args, field, meta[field])
        args.gpu = meta.get("gpu", args.gpu)
        args.method = meta.get("method", args.method)
        if args.trials is None:
            args.trials = int(meta.get("trials", _TRIALS_DEFAULT))
        print(f"resuming {session.describe()}")
    if args.trials is None:
        args.trials = _TRIALS_DEFAULT
    if session is None and args.session_dir:
        session = TuneSession.create(
            args.session_dir,
            m=args.m, n=args.n, k=args.k, batch=args.batch,
            gpu=args.gpu, method=args.method, trials=args.trials,
            seed=args.seed, space=args.space,
        )
        print(f"journalling trials to {session.path}")

    t0 = time.perf_counter()
    spec = _spec(args)
    gpu = _GPUS[args.gpu]
    measurer = _measurer(args, gpu)
    if session is not None and len(session):
        n = session.preload(measurer, spec)
        print(f"replaying {n} journalled trial(s) from the session")
    tracer = None
    trace_scope = contextlib.ExitStack()
    if args.trace_out:
        from .obs import trace as obs_trace

        tracer = obs_trace.Tracer(capacity=262144)
        trace_scope.enter_context(obs_trace.activate(tracer, all_threads=True))
        trace_scope.enter_context(obs_trace.span(
            "tune", attrs={"m": spec.m, "n": spec.n, "k": spec.k,
                           "method": args.method, "trials": args.trials}))
    try:
        space = enumerate_space(spec, gpu, options=SpaceOptions(max_size=_space_cap(args)))
        # The exhaustive oracle (a bounded search on the static path); only
        # the best-in-k lines need it, so a plain tune pays for its trials only.
        best = measurer.best(spec, space)[1] if args.oracle else None
        tuner = methods[args.method](spec, space, measurer=measurer, gpu=gpu, seed=args.seed)
        on_trial = session.log_trial if session is not None else None
        history = tuner.tune(args.trials, on_trial=on_trial)
        best_cfg = history.best_config_at(args.trials)
        if tracer is not None and best_cfg is not None:
            # Re-build the winning schedule under the trace so the export
            # carries the schedule/lower/transform stage spans even when
            # measurement went through the static timing spec.
            from .core.compiler import AlcopCompiler

            with obs_trace.span("build-best", attrs={"config": str(best_cfg)}):
                AlcopCompiler(gpu=gpu, measurer=measurer).build(spec, best_cfg)
    except KeyboardInterrupt:
        trace_scope.close()
        what = "tuning stopped"
        if session is not None:
            session.close()
            what += f"; resume with: repro tune --resume {session.path}"
        return _interrupted(measurer, time.perf_counter() - t0, what)
    trace_scope.close()
    if tracer is not None:
        tracer.write_chrome_trace(args.trace_out)
        print(f"trace: {len(tracer)} span(s) written to {args.trace_out}"
              + (f" ({tracer.spans_dropped} dropped)" if tracer.spans_dropped else ""))
    if args.oracle:
        print(f"space: {len(space)} schedules; exhaustive best {best:.1f} us")
    else:
        print(f"space: {len(space)} schedules; {_best_found(history)}")
    if args.oracle:
        for k in sorted({1, 2, 4, 8, 16, 32, args.trials}):
            if k <= args.trials:
                print(f"  best-in-{k:<3d}: {history.normalized_curve([k], best)[0]:.3f}")
    print(f"best schedule: {best_cfg}")
    _print_telemetry(measurer, time.perf_counter() - t0, profile=args.profile)
    if session is not None:
        session.close()
    if args.out:
        save_history(history, args.out)
        print(f"log written to {args.out}")
    return 0


def _suite_latency(compiler, spec, events):
    """``(latency_us, rung)`` of ``spec``: the first rung of ``compiler``'s
    degradation ladder that compiles it, else the roofline fallback. The
    ladder steps taken are appended to ``events``."""
    from .core.errors import ReproError
    from .models.runtime import roofline_fallback_latency

    taken = len(compiler.degradations)
    try:
        compiled = compiler.compile_with_fallback(spec)
        result = compiled.latency_us, compiled.variant
    except ReproError:
        result = roofline_fallback_latency(spec, compiler.gpu), "roofline"
    events.extend(compiler.degradations[taken:])
    return result


def _cmd_suite(args) -> int:
    import time

    from .baselines.tvm_like import tvm_compiler
    from .core.compiler import AlcopCompiler
    from .tuning.space import SpaceOptions
    from .workloads.suite import OPERATOR_SUITE

    t0 = time.perf_counter()
    gpu = _GPUS[args.gpu]
    measurer = _measurer(args, gpu)
    options = SpaceOptions(max_size=_space_cap(args))
    tvm_backend = tvm_compiler(gpu=gpu, measurer=measurer, space_options=options)
    alcop_backend = AlcopCompiler(gpu=gpu, measurer=measurer, space_options=options)
    names = args.ops.split(",") if args.ops else list(OPERATOR_SUITE)
    events = []
    print(f"{'operator':16s} | {'TVM (us)':>9s} | {'ALCOP (us)':>10s} | {'speedup':>7s}")
    try:
        for name in names:
            spec = OPERATOR_SUITE[name]
            tvm, tvm_used = _suite_latency(tvm_backend, spec, events)
            alcop, alcop_used = _suite_latency(alcop_backend, spec, events)
            # A degraded rung is flagged in the table; details follow below.
            note = "" if alcop_used == "alcop" and tvm_used == "tvm" else (
                f"  [{tvm_used}/{alcop_used}]"
            )
            print(f"{name:16s} | {tvm:9.1f} | {alcop:10.1f} | {tvm / alcop:7.2f}{note}")
    except KeyboardInterrupt:
        return _interrupted(measurer, time.perf_counter() - t0, "suite stopped")
    if events:
        print(f"degradations: {len(events)} ladder step(s) over "
              f"{len({ev.op for ev in events})} operator(s)")
        for ev in events:
            print(f"  {ev}")
    _print_telemetry(measurer, time.perf_counter() - t0, profile=args.profile)
    return 0


def _check_configs(space, per_op: int):
    """A deterministic, diversity-first sample of pipelined configs: prefer
    covering every (smem_stages, reg_stages) combination in the space before
    adding more tilings of an already-covered combination."""
    pipelined = [c for c in space if c.smem_stages >= 2]
    pipelined.sort(key=lambda c: (-c.smem_stages, -c.reg_stages, c.key()))
    picked, seen_stages = [], set()
    for cfg in pipelined:
        if (cfg.smem_stages, cfg.reg_stages) not in seen_stages:
            seen_stages.add((cfg.smem_stages, cfg.reg_stages))
            picked.append(cfg)
    for cfg in pipelined:
        if len(picked) >= per_op:
            break
        if cfg not in picked:
            picked.append(cfg)
    return picked[:per_op]


def _cmd_check(args) -> int:
    from .core.compiler import AlcopCompiler
    from .ir.syncheck import check_kernel, format_diagnostics
    from .ir.validate import validate_kernel
    from .tuning.space import SpaceOptions, enumerate_space
    from .workloads.suite import OPERATOR_SUITE

    gpu = _GPUS[args.gpu]
    compiler = AlcopCompiler(gpu=gpu, verify_sync=False)
    names = args.ops.split(",") if args.ops else list(OPERATOR_SUITE)
    unknown = [n for n in names if n not in OPERATOR_SUITE]
    if unknown:
        print(f"unknown operator(s): {', '.join(unknown)}")
        print(f"available: {', '.join(OPERATOR_SUITE)}")
        return 2
    options = SpaceOptions(max_size=_space_cap(args), launchable_only=True)
    total_diags = 0
    total_kernels = 0
    for name in names:
        spec = OPERATOR_SUITE[name]
        configs = _check_configs(enumerate_space(spec, gpu, options), args.configs)
        if not configs:
            print(f"{name:16s} | no pipelined configs in the (capped) space")
            continue
        op_diags = []
        for cfg in configs:
            kernel = compiler.build(spec, cfg)
            validate_kernel(kernel)
            diags = check_kernel(kernel)
            total_kernels += 1
            if diags:
                op_diags.append((cfg, diags))
                total_diags += len(diags)
                if args.verbose:
                    print(f"-- {name} {cfg}:\n{format_diagnostics(diags)}")
        verdict = "ok" if not op_diags else f"{sum(len(d) for _, d in op_diags)} finding(s)"
        print(f"{name:16s} | {len(configs)} pipelined config(s) checked | {verdict}")
        if op_diags and not args.verbose:
            for cfg, diags in op_diags:
                print(f"  {cfg}:")
                for d in diags:
                    print(f"    {d.rule} [{d.severity}] {d.buffer}: {d.message}")
    print(
        f"checked {total_kernels} transformed kernel(s): "
        + ("all synchronization-clean" if total_diags == 0 else f"{total_diags} finding(s)")
    )
    return 0 if total_diags == 0 else 1


def _cmd_serve(args) -> int:
    import signal

    from .serve.registry import ArtifactRegistry
    from .serve.server import ReproServer

    if args.socket is None and args.port is None:
        print("serve: give --socket PATH and/or --port N to listen on", file=sys.stderr)
        return 2
    registry = ArtifactRegistry(args.registry_dir) if args.registry_dir else ArtifactRegistry()
    workers = args.workers if args.workers is not None else _SERVE_WORKERS
    space = args.space if args.space is not None else _SERVE_SPACE
    server = ReproServer(
        gpu=_GPUS[args.gpu],
        socket_path=args.socket,
        port=args.port,
        host=args.host,
        registry=registry,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        workers=workers,
        via_ir=bool(args.via_ir),
        default_space=space,
        idle_timeout=args.idle_timeout,
        max_queue=args.max_queue,
        trace_dir=args.trace_dir,
        trace_sample_rate=args.trace_sample_rate,
    )

    def _stop(signum, frame):
        print("\nshutting down: draining workers, flushing the registry", file=sys.stderr)
        server.stop()

    try:
        signal.signal(signal.SIGINT, _stop)
        signal.signal(signal.SIGTERM, _stop)
    except ValueError:
        pass  # not the main thread (tests drive the server object directly)
    server.start()
    where = []
    if args.socket:
        where.append(f"unix socket {args.socket} (newline-JSON)")
    if server.port is not None:
        where.append(f"http://{args.host}:{server.port}/rpc")
    print(f"repro serve: session {server.session_id} on {_GPUS[args.gpu].name}")
    for w in where:
        print(f"  listening on {w}")
    if args.registry_dir:
        print(f"  artifact registry: {args.registry_dir} ({len(registry)} artifact(s))")
    print(f"  workers={workers} jobs={args.jobs} default space cap={space}", flush=True)
    server.serve_forever()
    print(f"stopped; registry holds {len(registry)} artifact(s)")
    return 0


def _client_connection(args):
    from .serve.client import ServeClient

    if (args.socket is None) == (args.port is None):
        print("client: give exactly one of --socket PATH or --port N", file=sys.stderr)
        return None
    return ServeClient(
        socket_path=args.socket, host=args.host, port=args.port, timeout=args.timeout,
        deadline_s=args.deadline if getattr(args, "deadline", 0) else None,
        retries=getattr(args, "retries", 0),
    )


def _print_client_result(result: dict, as_json: bool) -> None:
    import json

    if as_json:
        print(json.dumps(result, indent=1, sort_keys=True))
        return
    cfg = result.get("config")
    if cfg:
        from .schedule.config import TileConfig

        print(f"config   : {TileConfig(**cfg)}")
    if "latency_us" in result:
        print(f"latency  : {result['latency_us']:.1f} us")
    if "served_from" in result:
        print(f"served   : {result['served_from']}")
    stages = result.get("stages") or {}
    if stages:
        total = sum(stages.values())
        print(f"stages   : {', '.join(f'{k} {v:.4f}s' for k, v in stages.items())} "
              f"(total {total:.4f}s)")
    else:
        print("stages   : none (no compile work on this request)")
    prov = result.get("provenance") or {}
    if prov:
        print(f"artifact : {result.get('key', '')[:16]}… "
              f"(session {prov.get('session')}, compiler {prov.get('compiler_version')})")


def _cmd_client(args) -> int:
    import json

    from .core.errors import ServeError

    client = _client_connection(args)
    if client is None:
        return 2
    try:
        if args.wait:
            if not client.wait_until_ready(timeout=args.wait):
                print(f"client: daemon not ready after {args.wait}s", file=sys.stderr)
                return 1
        if args.action in ("compile", "tune"):
            if None in (args.m, args.n, args.k):
                print(f"client {args.action}: --m/--n/--k are required", file=sys.stderr)
                return 2
            params = {
                "m": args.m, "n": args.n, "k": args.k, "batch": args.batch,
                "variant": args.variant,
            }
            if args.space:
                params["space"] = args.space
            if args.trace_out:
                from .obs import trace as obs_trace

                tracer = obs_trace.Tracer(capacity=65536)
                with obs_trace.activate(tracer, all_threads=True):
                    with obs_trace.span("cli"):
                        result = client.request(args.action, params)
                tracer.write_chrome_trace(args.trace_out)
                print(f"trace: {len(tracer)} span(s) written to {args.trace_out}")
            else:
                result = client.request(args.action, params)
            if args.action == "compile" and args.out:
                with open(args.out, "w") as f:
                    f.write(result.get("cuda_source", ""))
                print(f"wrote CUDA source to {args.out}")
            _print_client_result(result, args.json)
        elif args.action == "status":
            result = client.status()
            if args.json:
                print(json.dumps(result, indent=1, sort_keys=True))
            else:
                c = result.get("counters", {})
                m = result.get("measurer", {})
                print(f"daemon   : pid {result.get('pid')} session {result.get('session')} "
                      f"up {result.get('uptime_s', 0):.0f}s on {result.get('gpu')}")
                print(f"registry : {result.get('registry', {}).get('size', 0)} artifact(s)")
                print(f"queue    : depth {result.get('queue_depth', 0)}, "
                      f"{result.get('inflight', 0)} in flight, "
                      f"{result.get('workers', 0)} worker(s), "
                      f"max queue {result.get('max_queue', 0)}")
                # Counters and measurer stats render generically so a new
                # server counter shows up here with zero CLI changes.
                if c:
                    print("counters :")
                    for name in sorted(c):
                        print(f"  {name:24s} {c[name]}")
                if m:
                    print("measurer :")
                    for name in sorted(m):
                        print(f"  {name:24s} {m[name]}")
                for op, snap in sorted((result.get("endpoints") or {}).items()):
                    if snap.get("requests"):
                        extras = ""
                        if snap.get("shed") or snap.get("deadline_exceeded"):
                            extras = (f" shed {snap.get('shed', 0)} "
                                      f"ddl {snap.get('deadline_exceeded', 0)}")
                        print(f"  {op:9s} {snap['requests']:5d} req "
                              f"({snap['errors']} err) "
                              f"p50 {snap['p50_ms']:.1f}ms p95 {snap['p95_ms']:.1f}ms "
                              f"p99 {snap.get('p99_ms', 0.0):.1f}ms{extras}")
        elif args.action == "health":
            result = client.health()
            if args.json:
                print(json.dumps(result, indent=1, sort_keys=True))
            else:
                print(f"state    : {result.get('state')}")
                print(f"queue    : depth {result.get('queue_depth', 0)} of "
                      f"{result.get('max_queue', 0)}, "
                      f"{result.get('workers', 0)} worker(s)")
                print(f"overload : {result.get('shed', 0)} shed, "
                      f"{result.get('deadline_exceeded', 0)} deadline-exceeded")
            if result.get("state") != "ready":
                return 1
        elif args.action == "metrics":
            result = client.metrics()
            if args.json:
                print(json.dumps(result, indent=1, sort_keys=True))
            else:
                print(result.get("text", ""), end="")
        elif args.action == "stop":
            result = client.shutdown()
            print(f"daemon stopping (session {result.get('session')})")
        else:  # ping
            result = client.ping()
            print(f"ok: protocol v{result.get('protocol')} session {result.get('session')}")
    except ServeError as e:
        print(f"client: {e}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="search + pipeline + time one problem")
    _add_problem_args(p)
    _add_measure_args(p)
    p.add_argument("--variant", default="alcop",
                   choices=["alcop", "alcop-no-ml", "alcop-no-ml-no-ms", "tvm-db", "tvm"])
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("ir", help="print pipelined IR for a fixed schedule")
    _add_problem_args(p)
    p.add_argument("--config", required=True, help=_CONFIG_FIELDS)
    p.set_defaults(fn=_cmd_ir)

    p = sub.add_parser("cuda", help="emit CUDA C++ for a fixed schedule")
    _add_problem_args(p)
    p.add_argument("--config", required=True, help=_CONFIG_FIELDS)
    p.add_argument("--out", default=None, help="write the .cu source here")
    p.set_defaults(fn=_cmd_cuda)

    # No abbreviations, so ``--fleet 3`` is an error, not ``--fleet-endpoint 3``.
    p = sub.add_parser("tune", help="run one tuning method", allow_abbrev=False)
    _add_problem_args(p, required=False)
    _add_measure_args(p)
    p.add_argument("--method", default="model-assisted-xgb",
                   choices=["grid", "random", "xgb", "analytical", "model-assisted-xgb"])
    p.add_argument("--trials", type=int, default=None,
                   help="trials to measure (default %d; on --resume, the "
                        "session's own budget)" % _TRIALS_DEFAULT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write a JSON tuning log here")
    p.add_argument("--session-dir", default=None,
                   help="journal every trial to this directory so a killed "
                        "run can be continued with --resume")
    p.add_argument("--resume", default=None, metavar="DIR",
                   help="continue a journalled session; problem/method/seed "
                        "are read back from its session.json")
    p.add_argument("--oracle", action="store_true",
                   help="also measure the whole (capped) space first and "
                        "report the best-in-k curve against its exhaustive "
                        "best (off by default: a tune measures only the "
                        "trials its tuner proposes)")
    p.add_argument("--fleet-endpoint", action="append", default=None,
                   metavar="ADDR",
                   help="also measure on a running repro serve daemon at ADDR "
                        "(host:port for HTTP, anything else is a Unix socket "
                        "path): every uncached batch, the tuner's and the "
                        "--oracle sweep, is sharded over it and the --jobs "
                        "workers; repeatable (docs/distributed.md)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a Chrome/Perfetto trace JSON of the whole run "
                        "(coordinator, fleet shards, compile stages; "
                        "docs/observability.md)")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("suite", help="TVM vs ALCOP over the operator suite")
    p.add_argument("--gpu", choices=sorted(_GPUS), default="a100")
    p.add_argument("--space", type=int, default=400)
    p.add_argument("--ops", default=None, help="comma-separated operator names")
    _add_measure_args(p)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser(
        "check",
        help="statically check pipeline synchronization over the workload suite",
    )
    p.add_argument("--gpu", choices=sorted(_GPUS), default="a100")
    p.add_argument("--space", type=int, default=400, help="design-space cap (strided; 0 = full space)")
    p.add_argument("--ops", default=None, help="comma-separated operator names")
    p.add_argument("--configs", type=int, default=4,
                   help="pipelined schedules checked per operator")
    p.add_argument("--verbose", action="store_true", help="print full diagnostics")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser(
        "serve",
        help="long-running compile-as-a-service daemon (docs/serving.md)",
    )
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="listen on a Unix socket (newline-delimited JSON)")
    p.add_argument("--port", type=int, default=None,
                   help="listen on TCP with an HTTP POST /rpc endpoint "
                        "(0 picks an ephemeral port)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--gpu", choices=sorted(_GPUS), default="a100")
    p.add_argument("--registry-dir", default=None,
                   help="content-addressed kernel artifact registry root; "
                        "omitted = in-memory only (lost on exit)")
    p.add_argument("--cache-dir", default=None,
                   help="disk-persistent measurement cache directory shared "
                        "with batch runs (docs/tuning_cache.md)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel measurement worker processes per sweep")
    p.add_argument("--workers", type=int, default=None,
                   help="request worker threads (default %d)" % _SERVE_WORKERS)
    p.add_argument("--space", type=int, default=None,
                   help="default design-space cap for requests that do not "
                        "send one (default %d)" % _SERVE_SPACE)
    p.add_argument("--idle-timeout", type=float, default=_SERVE_IDLE_TIMEOUT,
                   metavar="S",
                   help="close keep-alive connections idle for S seconds so "
                        "they return their worker thread to the pool; <= 0 "
                        "disables (default %g)" % _SERVE_IDLE_TIMEOUT)
    p.add_argument("--max-queue", type=int, default=_SERVE_MAX_QUEUE,
                   help="admission-control bound on queued connections; "
                        "beyond it requests are shed with a fast "
                        "'overloaded' reply instead of queueing unboundedly "
                        "(default %d)" % _SERVE_MAX_QUEUE)
    p.add_argument("--via-ir", action="store_true",
                   help="tune through the full compiler path instead of the "
                        "static timing spec")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="write a Chrome-trace JSON per sampled request here "
                        "(docs/observability.md)")
    p.add_argument("--trace-sample-rate", type=float, default=1.0, metavar="R",
                   help="fraction of requests traced to --trace-dir, 0..1 "
                        "(deterministic 1-in-1/R sampling; default 1.0)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running repro serve daemon",
    )
    p.add_argument("action",
                   choices=["compile", "tune", "status", "health", "metrics",
                            "stop", "ping"])
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="daemon Unix socket path")
    p.add_argument("--port", type=int, default=None, help="daemon TCP port")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="request round-trip limit in seconds")
    p.add_argument("--deadline", type=float, default=0.0, metavar="S",
                   help="server-side budget stamped on the request; expired "
                        "work is rejected and over-budget sweeps abort "
                        "(0 = none)")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry transient failures (connect refused/reset, "
                        "shed by admission control) up to N times with "
                        "exponential backoff + jitter")
    p.add_argument("--wait", type=float, default=0.0, metavar="S",
                   help="poll until the daemon answers ping, up to S seconds, "
                        "before sending the request")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--space", type=int, default=None,
                   help="design-space cap for this request (default: server's)")
    p.add_argument("--variant", default="alcop",
                   choices=["alcop", "alcop-no-ml", "alcop-no-ml-no-ms", "tvm-db", "tvm"])
    p.add_argument("--json", action="store_true",
                   help="print the raw result payload as JSON")
    p.add_argument("--out", default=None,
                   help="compile only: write the CUDA source here")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="compile/tune only: write a Chrome-trace JSON of the "
                        "request, stitching the daemon's server-side spans "
                        "into the client timeline (docs/observability.md)")
    p.set_defaults(fn=_cmd_client)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
