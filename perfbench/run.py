"""End-to-end benchmark of ``repro tune``, ``repro compile`` and ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {tune,compile,compile-par,serve} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the workload in fresh processes with tracing off for
about ``S`` seconds and reports the end-to-end metrics (medians over the
samples of the run). The run is pinned to one core, and its times are put
on a reference host speed by a probe process that shares the core (see
``hostspeed.py``); the unscaled times are printed next to them. ``--trace 1`` makes one untraced and two traced
same-seed runs of the workload and reports the per-layer metrics of the
first traced run, the tracing overhead, and any count that differs between
the two traced runs (nondeterminism). Both modes check the program's
outputs (see ``gate.py``), print every metric by name and unit, and end with
one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Each run writes its full record (run context, raw samples, the Chrome trace
of a traced run) under ``.perfbench_out/`` and exits nonzero when a check
fails. The workloads, the layer-to-metric map and the reason for each are
in ``perfbench/layer_map.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import workloads as wl
from hostspeed import Timeline

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("tune", "compile", "compile-par", "serve")

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"), ("cold_p50_ms", "ms"), ("warm_p50_ms", "ms"),
    ("warm_p95_ms", "ms"),
)
#: Printed with the end-to-end metrics but carried outside the metrics
#: object: kernel_us is seed-independent on compile, failed_frac is 0.
REPORTED = (("kernel_us", "us"), ("failed_frac", "ratio"))
#: Extra daemon starts per serve run that only time set-up.
SERVE_SETUP_STARTS = 4


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else math.nan


def p95(values: List[float]) -> float:
    """95th percentile, interpolated between the closest ranks. With the
    ~280 warm replies of a serve replay at least ten samples lie beyond
    it; a CLI run has only a few warm invocations, so the count of
    samples beyond it is recorded with the result."""
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else math.nan


# ------------------------------------------------------------------ context

def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_context(seed: int) -> Dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_digest": src_digest(),
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


# --------------------------------------------------------------- workloads

def _sample_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def scaled(inv: wl.Invocation, timeline: Timeline) -> wl.Invocation:
    """``inv`` with its times in reference-host seconds (see hostspeed.py)."""
    f = timeline.factor(inv.t0, inv.t1)
    return dataclasses.replace(inv, wall_s=inv.wall_s * f, cpu_s=inv.cpu_s * f,
                               setup_s=inv.setup_s * f)


def measure_cli(workload: str, seed: int, seconds: float, gate, work) -> Dict:
    samples, failures = [], []
    start = time.monotonic()
    with Timeline(work / "hostspeed.log") as timeline:
        while True:
            i = len(samples)
            s = wl.cli_sample(workload, _sample_seed(seed, i), work / f"s{i}")
            wl.clean(work / f"s{i}")
            samples.append(s)
            failures += s["failures"]
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(samples) > seconds:
                break
    raw_colds = [s["cold"] for s in samples]
    raw_warms = [s["warm"] for s in samples]
    colds = [scaled(c, timeline) for c in raw_colds]
    warms = [scaled(w, timeline) for w in raw_warms]
    kernels = [s["cold_kernel"] for s in samples if "cold_kernel" in s]
    for key, latency, dims in kernels:
        gate.kernel(key, dims, latency)
    invocations = colds + warms
    warm_s = [w.wall_s for w in warms]
    warm_p95 = p95(warm_s)
    return {
        "samples": len(samples),
        "attempted": len(invocations),
        "failures": failures,
        "values": {
            "wall_s": _median([c.wall_s for c in colds]),
            "cpu_s": _median([c.cpu_s for c in colds]),
            "setup_s": _median([x.setup_s for x in invocations]),
            "peak_rss_mb": _median([c.rss_mb for c in colds]),
            "throughput_rps": len(invocations) / sum(x.wall_s for x in invocations),
            "cold_p50_ms": 1e3 * _median([c.wall_s for c in colds]),
            "warm_p50_ms": 1e3 * _median(warm_s),
            "warm_p95_ms": 1e3 * warm_p95,
            "kernel_us": _median([k[1] for k in kernels]),
        },
        "counts": {"cold": len(colds), "warm": len(warms),
                   "warm_beyond_p95": sum(x > warm_p95 for x in warm_s)},
        "host": timeline.summary(),
        "unscaled": {"wall_s": _median([c.wall_s for c in raw_colds]),
                     "cpu_s": _median([c.cpu_s for c in raw_colds]),
                     "setup_s": _median([x.setup_s for x in raw_colds + raw_warms])},
        "raw": {
            "columns": ["wall_s", "cpu_s", "setup_s", "rss_mb", "host_factor"],
            "cold": [[c.wall_s, c.cpu_s, c.setup_s, c.rss_mb, timeline.factor(c.t0, c.t1)]
                     for c in raw_colds],
            "warm": [[w.wall_s, w.cpu_s, w.setup_s, w.rss_mb, timeline.factor(w.t0, w.t1)]
                     for w in raw_warms],
            "kernels": [[list(k[0]), k[1]] for k in kernels],
        },
    }


def check_replay(replay: Dict, gate) -> Tuple[List[str], Dict]:
    """Gate one serve replay: no error replies, warm replies identical to
    the cold reply of their key, every distinct artifact re-checked."""
    failures = list(replay["failures"])
    first: Dict = {}
    for r in replay["replies"]:
        if not r["ok"]:
            failures.append(f"{r['id']} {r['key']}: error reply {r['error']}")
            continue
        res = r["result"]
        shown = (res.get("config"), res.get("latency_us"), res.get("cuda_source"))
        if r["key"] not in first:
            if res.get("served_from") != "fresh":
                failures.append(f"{r['id']} {r['key']}: first reply served from "
                                f"{res.get('served_from')}")
            first[r["key"]] = (shown, res)
        elif shown != first[r["key"]][0]:
            failures.append(f"{r['id']} {r['key']}: warm reply differs from the cold one")
    artifacts = {}
    for shown, res in first.values():
        key = wl.config_key(res["config"])
        dims = dict(res["spec"], via_ir=False)
        if not gate.kernel(key, dims, res["latency_us"]):
            failures.append(f"artifact {res.get('key', '')[:12]} failed the gate")
        artifacts[res["key"]] = res["latency_us"]
    return failures, artifacts


def measure_serve(seed: int, seconds: float, gate, work) -> Dict:
    replays, failures = [], []
    start = time.monotonic()
    with Timeline(work / "hostspeed.log") as timeline:
        while True:
            i = len(replays)
            r = wl.serve_replay(_sample_seed(seed, i), work / f"r{i}")
            wl.clean(work / f"r{i}")
            replays.append(r)
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(replays) > seconds:
                break
        # A replay is long, so most daemon starts of a run are start-and-stop
        # ones that only time set-up.
        starts = [r for r in replays if "setup_s" in r]
        for i in range(SERVE_SETUP_STARTS):
            r = wl.serve_replay(seed, work / f"setup{i}", requests=0)
            wl.clean(work / f"setup{i}")
            failures += r["failures"]
            starts += [r] if "setup_s" in r else []
    setups = [r["setup_s"] * timeline.factor(*r["setup_t"]) for r in starts]
    artifacts = {}
    for r in replays:
        f, a = check_replay(r, gate)
        failures += f
        artifacts.update(a)
    done = [r for r in replays if "wall_s" in r]
    replies = [x for r in done for x in r["replies"] if x["ok"]]
    rtt = {id(x): x["rtt_s"] * timeline.factor(*x["t"]) for r in done for x in r["replies"]}
    # Each request is scaled by the host speed during it, so a replay's wall
    # time is the sum of its round trips (the client's few microseconds
    # between requests are left out).
    walls = [sum(rtt[id(x)] for x in r["replies"]) for r in done]
    # Fresh replies that swept the design space. A fresh tvm reply after its
    # operator's alcop sweep is answered from cached measurements in ~3 ms;
    # half such replies would put the median in the gap between the modes.
    cold = [rtt[id(x)] for x in replies if x["result"].get("served_from") == "fresh"
            and "simulate" in (x["result"].get("stages") or {})]
    warm = [rtt[id(x)] for x in replies if x["result"].get("served_from") == "registry"]
    warm_p95 = p95(warm)
    return {
        "samples": len(replays),
        "attempted": sum(len(r["replies"]) for r in replays) + SERVE_SETUP_STARTS,
        "failures": failures,
        "values": {
            "wall_s": _median(walls),
            "cpu_s": _median([r["cpu_s"] * timeline.factor(*r["span"]) for r in done]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["rss_mb"] for r in done]),
            "throughput_rps": len(replies) / sum(walls) if done else math.nan,
            "cold_p50_ms": 1e3 * _median(cold),
            "warm_p50_ms": 1e3 * _median(warm),
            "warm_p95_ms": 1e3 * warm_p95,
            "kernel_us": geomean(list(artifacts.values())),
        },
        "counts": {"cold": len(cold), "warm": len(warm), "warm_beyond_p95": sum(x > warm_p95 for x in warm),
                   "daemon_starts": len(setups)},
        "host": timeline.summary(),
        "unscaled": {"wall_s": _median([sum(x["rtt_s"] for x in r["replies"]) for r in done]),
                     "cpu_s": _median([r["cpu_s"] for r in done]),
                     "setup_s": _median([r["setup_s"] for r in starts])},
        "raw": {"replays": [{k: r.get(k) for k in ("wall_s", "cpu_s", "setup_s", "rss_mb")}
                            for r in replays]},
    }


def traced_cli(workload: str, seed: int, gate, work) -> Dict:
    """One untraced and two traced cold invocations of the same seed."""
    runs, failures = [], []
    for name in ("untraced", "traced-a", "traced-b"):
        d = work / name
        layers = d / "layers.json" if name != "untraced" else None
        trace = OUT / f"trace-{workload}.json" if name == "traced-a" else None
        inv = wl.run_cli(wl.cli_args(workload, _sample_seed(seed, 0), d, "cold"), d / "run",
                         layers=layers, trace_out=trace)
        run = {"wall_s": inv.wall_s, "span": (inv.t0, inv.t1), "layers": None, "kernel_us": None}
        if inv.rc != 0:
            failures.append(f"{name} invocation exited {inv.rc}: {inv.stderr[-400:]}")
        else:
            try:
                key, run["kernel_us"], dims = wl.chosen_kernel(workload, d, "cold", inv.stdout)
                gate.kernel(key, dims, run["kernel_us"])
                if layers is not None:
                    run["layers"] = json.loads(layers.read_text())
            except (OSError, ValueError, KeyError) as e:
                failures.append(f"{name} output unreadable: {e}")
        wl.clean(d)
        runs.append(run)
    return {"runs": runs, "failures": failures, "attempted": len(runs), "transport_ms": 0.0}


def traced_serve(seed: int, gate, work) -> Dict:
    runs, failures, attempted = [], [], 0
    transport = []
    for name in ("untraced", "traced-a", "traced-b"):
        d = work / name
        layers = d / "layers.json" if name != "untraced" else None
        trace = OUT / "trace-serve.json" if name == "traced-a" else None
        r = wl.serve_replay(_sample_seed(seed, 0), d, layers=layers, trace_out=trace)
        attempted += len(r["replies"])
        f, artifacts = check_replay(r, gate)
        failures += f
        run = {"wall_s": r.get("wall_s", math.nan), "span": r.get("span"), "layers": None,
               "kernel_us": geomean(list(artifacts.values())) if artifacts else None}
        if layers is not None:
            try:
                run["layers"] = json.loads(layers.read_text())
            except (OSError, ValueError) as e:
                failures.append(f"{name} layer record unreadable: {e}")
        if name == "traced-a" and run["layers"]:
            handle = run["layers"]["handle_s"]
            transport = [x["rtt_s"] - handle[x["id"]] for x in r["replies"] if x["id"] in handle]
        wl.clean(d)
        runs.append(run)
    return {"runs": runs, "failures": failures, "attempted": attempted or 1,
            "transport_ms": 1e3 * _median(transport) if transport else 0.0}


def per_layer(result: Dict) -> Tuple[Dict[str, float], List[str], List[str]]:
    """Per-layer metrics of the first traced run, plus the count metrics
    that differ between the two traced runs, plus failures."""
    from layers import COUNT_METRICS

    base, a, b = result["runs"]
    failures = []
    if not (a["layers"] and b["layers"]):
        return {}, [], ["a traced run produced no layer record"]
    m = dict(a["layers"]["metrics"])
    m["kernel_us"] = a["kernel_us"] if a["kernel_us"] is not None else math.nan
    m["serve.transport_ms"] = result["transport_ms"]
    m["trace.overhead_frac"] = a["wall_s"] / base["wall_s"] - 1.0
    differing = [n for n in COUNT_METRICS
                 if a["layers"]["metrics"].get(n) != b["layers"]["metrics"].get(n)]
    kernels = [r["kernel_us"] for r in result["runs"] if r["kernel_us"] is not None]
    if len(set(kernels)) > 1:
        failures.append(f"kernel_us differs across same-seed runs: {kernels}")
        differing.append("kernel_us")
    m["nondeterministic.counts"] = len(differing)
    return m, differing, failures


# ------------------------------------------------------------------- main

def build() -> None:
    """Byte-compile the program once so no sample pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)


def layer_units() -> Dict[str, str]:
    with open(HERE / "layer_map.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"run.py: no program source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload != "compile-par":
        # The listed workloads run one program process at a time. Pinned to
        # one core, it and the host-speed probes share a core, so a
        # neighbour slowing that core slows both; unpinned, the probe may
        # read the other core's speed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    build()
    import gate as gate_mod
    context = run_context(args.seed)
    gate = gate_mod.Gate(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    record: Dict = {"workload": args.workload, "trace": args.trace}
    try:
        if args.trace:
            with Timeline(work / "hostspeed.log") as timeline:
                if args.workload == "serve":
                    result = traced_serve(args.seed, gate, work)
                else:
                    result = traced_cli(args.workload, args.seed, gate, work)
            # On one host speed, so that trace.overhead_frac compares like with like.
            for run in result["runs"]:
                if run["span"] is not None:
                    run["wall_s"] *= timeline.factor(*run["span"])
            metrics, differing, extra = per_layer(result)
            result["failures"] += extra
            record["nondeterministic"] = differing
            record["trace_export"] = str(OUT / f"trace-{args.workload}.json")
            units = layer_units()
            metrics = {n: metrics.get(n, math.nan) for n in units}
        else:
            if args.workload == "serve":
                result = measure_serve(args.seed, args.seconds, gate, work)
            else:
                result = measure_cli(args.workload, args.seed, args.seconds, gate, work)
            metrics = {n: result["values"][n] for n, _ in END_TO_END}
            units = dict(END_TO_END)
    finally:
        wl.clean(work)
    failures = result["failures"] + gate.failures
    attempted = result["attempted"]
    failed = min(attempted, len(failures))
    context["loadavg_after"] = os.getloadavg()
    record.update(context=context, metrics=metrics, failures=failures,
                  gate_checks=gate.checked,
                  **{k: result[k] for k in ("counts", "host", "unscaled", "raw") if k in result})

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"nproc {context['nproc']}, python {context['python']}, numpy {context['numpy']}, "
          f"src {context['src_digest']}, load {context['loadavg_before'][0]:.2f}"
          f"->{context['loadavg_after'][0]:.2f}")
    if not args.trace:
        shown = dict(metrics, kernel_us=result["values"]["kernel_us"],
                     failed_frac=failed / attempted)
        for name, unit in END_TO_END + REPORTED:
            print(f"  {name:16s} {shown[name]:14.6g} {unit}")
        print(f"  samples {result['samples']}, operations {result['counts']}")
        host, raw = result["host"], result["unscaled"]
        print(f"  host speed: {host['jobs']} reference jobs, median {host['median_s']:.4f} s "
              f"(reference {host['ref_s']} s, range {host['min_s']:.4f}-{host['max_s']:.4f}); "
              + ", ".join(f"unscaled {n} {v:.4g} s" for n, v in raw.items()))
    else:
        for name in metrics:
            print(f"  {name:28s} {metrics[name]:14.6g} {units[name]}")
        print(f"  trace export: {record['trace_export']}")
        if record["nondeterministic"]:
            print(f"  NONDETERMINISTIC across same-seed runs: {record['nondeterministic']}")
    print(f"  correctness: {gate.checked} gate check(s), {len(failures)} failure(s)")
    for f in failures[:10]:
        print(f"    {f}")
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    # A metric a failed run could not measure is null, never a bare NaN.
    out = {"correct": not failures, "attempted": attempted, "failed": failed,
           "metrics": {n: {"value": v if math.isfinite(v) else None, "unit": units[n]}
                       for n, v in metrics.items()}}
    print(json.dumps(out))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
