"""The benchmark's workloads: fresh CLI processes and a replayed serve daemon.

Every CLI invocation is a fresh process (the process-global space and
TE-graph caches would otherwise make later samples warm). One CLI sample is
a *cold* invocation with an empty ``--cache-dir`` followed by a *warm*
re-invocation against the measurement cache the cold one filled. Every
serve replay gets a fresh daemon and fresh directories.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import random
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: Longest a single child process may run before it is killed.
CHILD_TIMEOUT_S = 150.0


@dataclasses.dataclass
class Invocation:
    """One finished child process."""

    rc: int
    wall_s: float
    cpu_s: float
    setup_s: float
    rss_mb: float
    stdout: str
    stderr: str
    #: Monotonic spawn and exit times, for the host-speed factor.
    t0: float = math.nan
    t1: float = math.nan


def _ready_time(path: pathlib.Path) -> Optional[float]:
    try:
        return float(path.read_text())
    except (OSError, ValueError):
        return None


def spawn(cli_args: List[str], work: pathlib.Path, layers: Optional[pathlib.Path] = None,
          trace_out: Optional[pathlib.Path] = None) -> Tuple[subprocess.Popen, float, Dict]:
    """Start ``child.py`` on ``cli_args``; returns (process, spawn time, files)."""
    work.mkdir(parents=True, exist_ok=True)
    files = {"ready": work / "ready", "out": work / "stdout", "err": work / "stderr"}
    cmd = [sys.executable, str(CHILD), "--ready", str(files["ready"])]
    if layers is not None:
        cmd += ["--layers", str(layers)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--", *cli_args]
    with open(files["out"], "wb") as out, open(files["err"], "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    return proc, t0, files


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S):
    """Wait for ``proc`` (killing it after ``timeout``); returns
    (exit code, end time, rusage of it and its reaped children)."""
    if proc.returncode is not None:  # already reaped by poll()
        return proc.returncode, time.monotonic(), None
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t1, usage


def run_cli(cli_args: List[str], work: pathlib.Path, **kw) -> Invocation:
    proc, t0, files = spawn(cli_args, work, **kw)
    rc, t1, usage = reap(proc)
    ready = _ready_time(files["ready"])
    return Invocation(
        rc=rc,
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        setup_s=(ready - t0) if ready is not None else math.nan,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=files["out"].read_text(errors="replace"),
        stderr=files["err"].read_text(errors="replace"),
        t0=t0,
        t1=t1,
    )


# ---------------------------------------------------------------- CLI workloads

TUNE_SHAPE = ("--m", "1024", "--n", "1024", "--k", "1024")
TUNE_TRIALS = 64
#: MM_BERT_FC1 from the operator suite.
COMPILE_SHAPE = ("--m", "512", "--n", "3072", "--k", "768")


def cli_args(workload: str, tune_seed: int, work: pathlib.Path, phase: str) -> List[str]:
    """The command line of one invocation; ``phase`` is cold or warm (both
    share ``work/cache``)."""
    cache = ["--cache-dir", str(work / "cache")]
    if workload == "tune":
        return ["tune", *TUNE_SHAPE, "--trials", str(TUNE_TRIALS), "--seed", str(tune_seed),
                "--session-dir", str(work / f"session-{phase}"), *cache]
    args = ["compile", *COMPILE_SHAPE, "--via-ir", *cache]
    if workload == "compile-par":
        args += ["--jobs", "2"]
    return args


CONFIG_FIELDS = ("block_m", "block_n", "block_k", "warp_m", "warp_n", "chunk_k",
                 "smem_stages", "reg_stages")


def config_key(cfg: Dict) -> Tuple[int, ...]:
    """A config dict as ``TileConfig`` positional fields (swizzle left at
    its default)."""
    return tuple(cfg[f] for f in CONFIG_FIELDS)


_CONFIG_RE = r"TB\((\d+)x(\d+)x(\d+)\)/W\((\d+)x(\d+)x(\d+)\)/S\((\d+),(\d+)\)"


def parse_config(text: str) -> Optional[Tuple[int, ...]]:
    m = re.search(_CONFIG_RE, text)
    return tuple(int(x) for x in m.groups()) if m else None


def chosen_kernel(workload: str, work: pathlib.Path, phase: str,
                  stdout: str) -> Tuple[Tuple[int, ...], float, Dict]:
    """(config key without swizzle, latency us, problem dims) of the kernel
    an invocation chose, read from the program's own outputs: the trial
    journal for ``tune``, the printed ``alcop`` line plus the measurement
    cache for ``compile``. Raises ValueError when they are missing or
    disagree."""
    if workload == "tune":
        trials = []
        journal = work / f"session-{phase}" / "trials.jsonl"
        for line in journal.read_text().splitlines():
            entry = json.loads(line)
            latency = entry["latency_us"]
            trials.append((entry["config"], math.inf if latency == "inf" else float(latency)))
        if len(trials) != TUNE_TRIALS:
            raise ValueError(f"journal holds {len(trials)} trials, expected {TUNE_TRIALS}")
        cfg, latency = min(trials, key=lambda t: t[1])
        key = config_key(cfg)
        printed = next((ln for ln in stdout.splitlines() if ln.startswith("best schedule:")), "")
        if parse_config(printed) != key:
            raise ValueError(f"printed {printed!r} is not the journal's best {key}")
        dims = {"batch": 1, "m": 1024, "n": 1024, "k": 1024, "via_ir": False}
        return key, latency, dims
    line = next((ln for ln in stdout.splitlines() if ln.startswith("alcop")), "")
    key = parse_config(line)
    if key is None:
        raise ValueError("no alcop line in the compile output")
    dims = {"batch": 1, "m": 512, "n": 3072, "k": 768, "via_ir": True}
    found = []
    for raw in (work / "cache" / "measurements.jsonl").read_text().splitlines():
        entry = json.loads(raw)
        if tuple(entry["config"][:8]) == key and entry["dims"] == [1, 512, 3072, 768]:
            found.append(entry["latency_us"])
    if len(found) != 1 or found[0] == "inf":
        raise ValueError(f"measurement cache holds {found} for {key}")
    latency = float(found[0])
    printed = float(line.split()[2])
    if abs(printed - latency) > 0.051:
        raise ValueError(f"printed {printed} us but the cache holds {latency} us")
    return key, latency, dims


def cli_sample(workload: str, tune_seed: int, work: pathlib.Path) -> Dict:
    """One cold + one warm invocation. Returns their measurements, the
    chosen kernel, and the failures found (nonzero exit, or a warm run that
    disagrees with its cold run)."""
    out: Dict = {"failures": []}
    for phase in ("cold", "warm"):
        inv = run_cli(cli_args(workload, tune_seed, work, phase), work / phase)
        out[phase] = inv
        if inv.rc != 0:
            out["failures"].append(f"{phase} invocation exited {inv.rc}: {inv.stderr[-400:]}")
            continue
        try:
            out[f"{phase}_kernel"] = chosen_kernel(workload, work, phase, inv.stdout)
        except (OSError, ValueError, KeyError) as e:
            out["failures"].append(f"{phase} output unreadable: {e}")
    cold, warm = out.get("cold_kernel"), out.get("warm_kernel")
    if cold and warm and cold[:2] != warm[:2]:
        out["failures"].append(f"warm run chose {warm[:2]}, cold run {cold[:2]}")
    return out


# ---------------------------------------------------------------- serve workload

VARIANTS = ("alcop", "tvm")
#: About 40 warm requests per cold one: the few warm replies that follow
#: a sweep are slower, and at ~280 warm replies they sat right at p95.
REPLAY_REQUESTS = 3000
ZIPF_S = 1.1


def suite_problems() -> List[Dict]:
    from repro.workloads.suite import OPERATOR_SUITE

    return [
        {"name": s.name, "batch": s.batch, "m": s.m, "n": s.n, "k": s.k, "dtype": s.dtype}
        for s in OPERATOR_SUITE.values()
    ]


def replay_trace(seed: int, n: int = REPLAY_REQUESTS) -> List[Tuple[str, str]]:
    """A seeded Zipf trace of (operator, variant) keys.

    Every key is introduced once, at evenly spaced positions, in a seeded
    order where each operator's ``alcop`` key precedes its ``tvm`` key; the
    other requests draw from the keys introduced so far with Zipf weights
    over a seeded popularity ranking. So every seed pays the same cold work
    (one full sweep per operator, ``tvm`` answered from cached
    measurements) and differs only in order and in which keys are hot.
    """
    rng = random.Random(seed)
    names = [p["name"] for p in suite_problems()]
    keys = [(name, v) for name in names for v in VARIANTS]
    intro = rng.sample(keys, len(keys))
    for name in names:  # alcop first within each operator
        i, j = intro.index((name, "alcop")), intro.index((name, "tvm"))
        if i > j:
            intro[i], intro[j] = intro[j], intro[i]
    popularity = rng.sample(keys, len(keys))
    weight = {k: 1.0 / (r + 1) ** ZIPF_S for r, k in enumerate(popularity)}
    gap = n / len(keys)
    trace, introduced = [], []
    for i in range(n):
        if len(introduced) < len(keys) and i >= len(introduced) * gap:
            introduced.append(intro[len(introduced)])
            trace.append(introduced[-1])
        else:
            trace.append(rng.choices(introduced, [weight[k] for k in introduced])[0])
    return trace


def _proc_cpu_s(pid: int) -> float:
    fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return math.nan


class _Connection:
    """One newline-JSON connection to the daemon."""

    def __init__(self, path: str, timeout: float = 120.0) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.f = self.sock.makefile("rwb")

    def call(self, message: Dict) -> Dict:
        self.f.write(json.dumps(message).encode() + b"\n")
        self.f.flush()
        line = self.f.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.f.close()
        self.sock.close()


def _ping(path: str) -> bool:
    try:
        conn = _Connection(path, timeout=5.0)
    except OSError:
        return False
    try:
        return bool(conn.call({"op": "ping", "id": "ping"}).get("ok"))
    except (OSError, ValueError):
        return False
    finally:
        conn.close()


def serve_replay(seed: int, work: pathlib.Path, layers: Optional[pathlib.Path] = None,
                 trace_out: Optional[pathlib.Path] = None,
                 requests: int = REPLAY_REQUESTS) -> Dict:
    """Start a fresh daemon, replay the seeded trace of ``requests``
    compile requests on one connection (closed loop, one client), stop the
    daemon. Returns per-request replies and timings plus the daemon's CPU
    and memory over the replay. Times are ``time.monotonic()``, the clock
    of the host-speed timeline."""
    work.mkdir(parents=True, exist_ok=True)
    # A relative socket path keeps AF_UNIX's 108-byte limit whatever the
    # checkout's location; both processes run in ROOT.
    sock = os.path.relpath(work / "s.sock", ROOT)
    proc, t0, files = spawn(
        ["serve", "--socket", sock, "--registry-dir", str(work / "registry"),
         "--cache-dir", str(work / "cache")],
        work, layers=layers, trace_out=trace_out)
    out: Dict = {"failures": [], "replies": []}
    conn = None
    try:
        deadline = t0 + 60.0
        while not _ping(sock):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"daemon never answered ping: {files['err'].read_text()[-400:]}")
            time.sleep(0.002)
        out["setup_s"] = time.monotonic() - t0
        out["setup_t"] = (t0, t0 + out["setup_s"])
        problems = {p["name"]: p for p in suite_problems()}
        conn = _Connection(sock)
        cpu0 = _proc_cpu_s(proc.pid)
        start = time.monotonic()
        for i, (name, variant) in enumerate(replay_trace(seed, requests)):
            rid = f"r{i}"
            params = dict(problems[name], variant=variant)
            t = time.monotonic()
            reply = conn.call({"op": "compile", "params": params, "id": rid})
            t1 = time.monotonic()
            out["replies"].append({"id": rid, "key": (name, variant), "rtt_s": t1 - t,
                                   "t": (t, t1), "ok": bool(reply.get("ok")),
                                   "result": reply.get("result") or {},
                                   "error": reply.get("error")})
        out["span"] = (start, time.monotonic())
        out["wall_s"] = out["span"][1] - start
        out["cpu_s"] = _proc_cpu_s(proc.pid) - cpu0
        out["rss_mb"] = _proc_peak_rss_mb(proc.pid)
        conn.call({"op": "shutdown", "id": "stop"})
    except (OSError, ValueError, RuntimeError) as e:
        out["failures"].append(f"serve replay aborted: {e!r}")
    finally:
        if conn is not None:
            conn.close()
        if proc.poll() is None and out["failures"]:
            proc.kill()
        rc, _, _ = reap(proc, timeout=60.0)
        if rc != 0 and not out["failures"]:
            out["failures"].append(f"daemon exited {rc}: {files['err'].read_text()[-400:]}")
    return out


def clean(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
