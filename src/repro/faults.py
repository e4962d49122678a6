"""Deterministic, seedable fault injection for the compile/tune stack.

Chaos engineering for the ALCOP flow: a :class:`FaultPlan` names *where*
(injection sites wired into the compile path, the fleet's measurement
workers, the simulator and the compiler driver) and *what* (``crash``, ``hang``,
``corrupt-latency``, ``worker-death``) goes wrong, deterministically.
Every recovery path of the fault-tolerance layer — worker respawn, trial
timeout, retry-with-backoff, quarantine, the degradation ladder, journal
resume — can then be exercised in tests and CI without flakiness.

Injection sites
---------------
``compile``
    Inside :meth:`repro.tuning.measure.Measurer._compile_and_time`, i.e.
    the schedule→lower→transform→simulate path of one measurement trial.
``worker``
    In a fleet local worker process (:mod:`repro.tuning.fleet`), at the
    start of each trial attempt, after the start marker and before the
    compile; the token is ``<config-token>#a<attempt>``. ``worker-death``
    here hard-kills the process (``os._exit``), the way a segfaulting
    compiler would; the coordinator charges the death to that trial.
``simulate``
    Inside :func:`repro.gpusim.engine.simulate_kernel`; ``corrupt-latency``
    multiplies the simulated latency, modelling a misbehaving runner.
``build``
    Inside :meth:`repro.core.compiler.AlcopCompiler` builds, tokenized by
    ``variant=<v>;op=<name>`` so chaos tests can fail one rung of the
    degradation ladder and watch the compiler step down.
``registry``
    Inside the kernel artifact registry (:mod:`repro.serve.registry`),
    between writing an artifact's temp file and publishing it (token
    ``put:<key>``) and on artifact reads (token ``get:<key>``). A
    ``crash`` at the put site models a daemon dying mid-write: the orphan
    temp file must be quarantined — never served — by the next open.
``disk``
    On the write paths of the measurement cache, the artifact registry
    and the session journal (tokens ``cache:<key>``, ``registry:<key>``,
    ``journal:<path>``). A ``crash`` here raises ``OSError(ENOSPC)`` —
    a real disk error, not :class:`FaultInjected` — so the degrade-to-
    memory-only recovery paths are exercised exactly as a full disk
    would exercise them.
``fleet``
    Inside the distributed tuning fleet (:mod:`repro.tuning.fleet`).
    Two token families distinguish where the fault lands:

    * ``coordinator|shard=<sid>|attempt=<k>`` — in the coordinator, just
      before a shard is dispatched to a worker. A ``crash`` here models a
      lost dispatch (shard-loss): the shard must be requeued, never
      dropped.
    * ``worker|shard=<sid>|attempt=<k>|<config-token>`` — in a fleet
      worker process, before each trial of a shard. ``worker-death``
      hard-kills the worker mid-shard (``os._exit``); ``crash`` fails the
      worker loop softly. Either way the coordinator must respawn the
      worker and requeue the shard's unmeasured remainder.

Determinism
-----------
Whether a rule fires for a given event is a pure function of
``(plan.seed, site, kind, token)`` — the *token* identifies the event
(config key, attempt number). The same plan over the same work always
fails the same trials, regardless of worker width or scheduling order.
Rules can also pin an exact token substring (``match``) for surgically
targeted chaos, and bound themselves with ``max_hits``, which counts per
process: a fleet worker runs many trials, so a ``worker``-site rule's
``max_hits`` bounds its firings in each worker process, not per trial.

Activation
----------
Programmatic (``activate(plan)`` / ``with injected(plan): ...``) or via
the ``REPRO_FAULT_PLAN`` environment variable, which is how fresh worker
processes and CI jobs pick the plan up. ``activate`` exports the plan to
``os.environ`` so spawned children inherit it.

Example::

    plan = FaultPlan([FaultRule("worker", "worker-death", match="#a0")])
    with injected(plan):
        measurer.sweep(spec, space)   # first attempt of every trial dies;
                                      # retries succeed, sweep completes
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from .core.errors import FaultInjected, SimulationError

__all__ = [
    "ENV_VAR",
    "SITES",
    "KINDS",
    "FaultRule",
    "FaultPlan",
    "FaultInjected",
    "activate",
    "deactivate",
    "active_plan",
    "ensure_env_plan",
    "injected",
    "inject",
    "corrupt",
    "push_token",
    "current_token",
]

ENV_VAR = "REPRO_FAULT_PLAN"

#: Named injection sites (``"*"`` in a rule matches any site).
SITES = ("compile", "worker", "simulate", "build", "registry", "fleet", "disk")

#: Fault kinds.
KINDS = ("crash", "hang", "corrupt-latency", "worker-death", "delay")


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One kind of fault at one site.

    Parameters
    ----------
    site:
        Injection site name, or ``"*"`` for every site.
    kind:
        ``crash`` (raise :class:`FaultInjected`; at the ``disk`` site,
        ``OSError(ENOSPC)`` instead), ``hang`` (sleep ``hang_s`` — rely
        on the trial timeout to recover), ``corrupt-latency`` (multiply
        reported latency by ``corrupt_factor``), ``worker-death``
        (``os._exit`` the process), ``delay`` (sleep ``delay_s`` with
        deterministic per-event jitter — injected latency for overload
        and soak testing, the event otherwise proceeds normally).
    rate:
        Probability a matching event fires, decided deterministically from
        ``(seed, site, kind, token)``. 1.0 = always.
    match:
        Optional substring the event token must contain; lets tests target
        e.g. only first attempts (``"#a0"``) or one config.
    max_hits:
        Stop firing after this many injections *in this process* (for the
        ``worker`` site: in each fleet worker process, which runs many
        trials).
    ignore_sigterm:
        ``hang`` only: the hanging process first installs a SIGTERM
        ignorer, modelling a worker wedged somewhere ``terminate()``
        cannot reach. Recovery then requires the measurer's SIGKILL
        escalation — the zombie-reap regression tests depend on this.
    """

    site: str
    kind: str
    rate: float = 1.0
    match: Optional[str] = None
    max_hits: Optional[int] = None
    hang_s: float = 3600.0
    corrupt_factor: float = 1000.0
    ignore_sigterm: bool = False
    delay_s: float = 0.05
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.site != "*" and self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; choose from {SITES} or '*'")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.delay_s < 0.0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s."""

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = int(seed)
        self._hits: Dict[int, int] = {}

    # ------------------------------------------------------------ decisions
    def _fires(self, rule_id: int, rule: FaultRule, site: str, token: str) -> bool:
        if rule.site != "*" and rule.site != site:
            return False
        if rule.match is not None and rule.match not in token:
            return False
        if rule.max_hits is not None and self._hits.get(rule_id, 0) >= rule.max_hits:
            return False
        if rule.rate < 1.0:
            payload = f"{self.seed}:{site}:{rule.kind}:{rule.match}:{token}"
            h = int.from_bytes(hashlib.sha256(payload.encode()).digest()[:8], "big")
            if (h % 1_000_000) / 1_000_000 >= rule.rate:
                return False
        self._hits[rule_id] = self._hits.get(rule_id, 0) + 1
        return True

    def matching(self, site: str, token: str, kinds: Sequence[str]) -> Optional[FaultRule]:
        """First rule of one of ``kinds`` that fires for this event."""
        for i, rule in enumerate(self.rules):
            if rule.kind in kinds and self._fires(i, rule, site, token):
                return rule
        return None

    # -------------------------------------------------------- serialization
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "rules": [
                    {k: v for k, v in dataclasses.asdict(r).items() if v is not None}
                    for r in self.rules
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls([FaultRule(**r) for r in data.get("rules", [])], seed=data.get("seed", 0))

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse either the JSON form or the compact CLI form
        ``site:kind[:rate][,site:kind[:rate]...]``."""
        text = text.strip()
        if not text:
            return cls([], seed=seed)
        if text.startswith("{"):
            return cls.from_json(text)
        rules = []
        for part in text.split(","):
            fields = part.strip().split(":")
            if len(fields) not in (2, 3):
                raise ValueError(
                    f"bad fault spec {part!r}: expected site:kind[:rate]"
                )
            rate = float(fields[2]) if len(fields) == 3 else 1.0
            rules.append(FaultRule(fields[0], fields[1], rate=rate))
        return cls(rules, seed=seed)


# ------------------------------------------------------------------ activation
_active: Optional[FaultPlan] = None
_env_checked = False
_lock = threading.Lock()


def activate(plan: FaultPlan, export_env: bool = True) -> None:
    """Install ``plan`` process-wide; with ``export_env`` the plan is also
    placed in ``os.environ`` so child processes (fork or spawn) inherit it."""
    global _active, _env_checked
    with _lock:
        _active = plan
        _env_checked = True
        if export_env:
            os.environ[ENV_VAR] = plan.to_json()


def deactivate() -> None:
    """Remove the active plan (and its environment export)."""
    global _active, _env_checked
    with _lock:
        _active = None
        _env_checked = True
        os.environ.pop(ENV_VAR, None)


def ensure_env_plan() -> None:
    """In a fresh process: adopt the plan from ``REPRO_FAULT_PLAN`` if no
    plan is active yet. Called at worker entry points; cheap when already
    resolved."""
    global _active, _env_checked
    if _env_checked:
        return
    with _lock:
        if not _env_checked:
            text = os.environ.get(ENV_VAR)
            if text:
                _active = FaultPlan.parse(text)
            _env_checked = True


def active_plan() -> Optional[FaultPlan]:
    ensure_env_plan()
    return _active


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scoped activation for tests: ``with injected(plan): ...``."""
    prev, prev_env = _active, os.environ.get(ENV_VAR)
    activate(plan)
    try:
        yield plan
    finally:
        if prev is None:
            deactivate()
            if prev_env is not None:
                os.environ[ENV_VAR] = prev_env
        else:
            activate(prev, export_env=prev_env is not None)


# ---------------------------------------------------------------- event token
_context = threading.local()


@contextmanager
def push_token(token: str) -> Iterator[None]:
    """Set the ambient event token (config identity + attempt) so nested
    injection sites — e.g. ``simulate`` deep inside a trial — make
    deterministic per-trial decisions without plumbing the token through
    every call signature."""
    prev = getattr(_context, "token", "")
    _context.token = token
    try:
        yield
    finally:
        _context.token = prev


def current_token() -> str:
    return getattr(_context, "token", "")


# ------------------------------------------------------------------ injection
def _delay_seconds(rule: FaultRule, seed: int, site: str, token: str) -> float:
    """Deterministic jittered sleep for a ``delay`` rule: the jitter factor
    is a pure hash of the event identity, so the same plan over the same
    traffic always injects the same latencies."""
    if rule.jitter <= 0.0:
        return rule.delay_s
    payload = f"{seed}:{site}:delay-jitter:{rule.match}:{token}"
    h = int.from_bytes(hashlib.sha256(payload.encode()).digest()[:8], "big")
    frac = (h % 1_000_000) / 1_000_000  # uniform in [0, 1)
    return rule.delay_s * (1.0 + rule.jitter * (2.0 * frac - 1.0))


def inject(site: str, token: Optional[str] = None,
           kinds: Sequence[str] = ("crash", "hang", "worker-death", "delay")) -> None:
    """Fire any matching ``crash``/``hang``/``worker-death``/``delay`` rule
    at ``site``. No-op without an active plan (the production fast path is
    one None-check). ``kinds`` narrows which fault kinds may fire —
    injection points in a *coordinating* process (e.g. the fleet dispatch
    site) pass ``("crash",)`` so a broadly-scoped ``worker-death`` rule can
    only kill workers, never the coordinator itself."""
    plan = _active if _env_checked else active_plan()
    if plan is None:
        return
    tok = token if token is not None else current_token()
    rule = plan.matching(site, tok, kinds)
    if rule is None:
        return
    if rule.kind == "delay":
        time.sleep(_delay_seconds(rule, plan.seed, site, tok))
        return
    if rule.kind == "worker-death":
        os._exit(17)
    if rule.kind == "hang":
        if rule.ignore_sigterm:
            # A hang terminate() cannot interrupt: only SIGKILL recovers.
            try:
                import signal

                signal.signal(signal.SIGTERM, signal.SIG_IGN)
            except (ValueError, OSError):
                pass  # non-main thread: the plain hang still exercises timeout
        time.sleep(rule.hang_s)
        return
    if site == "disk":
        # Real disk errors, not FaultInjected: the degrade-to-memory-only
        # recovery paths catch OSError, exactly as a full disk raises it.
        raise OSError(errno.ENOSPC,
                      f"injected disk fault (token {tok!r}): no space left on device")
    err = FaultInjected(
        f"injected {rule.kind} at site {site!r} (token {tok!r})",
        site=site,
        kind=rule.kind,
    )
    if site == "simulate":
        raise SimulationError(str(err), diagnostic=err)
    raise err


def corrupt(site: str, value: float, token: Optional[str] = None) -> float:
    """Apply any matching ``corrupt-latency`` rule to ``value``."""
    plan = _active if _env_checked else active_plan()
    if plan is None:
        return value
    tok = token if token is not None else current_token()
    rule = plan.matching(site, tok, ("corrupt-latency",))
    if rule is None:
        return value
    return value * rule.corrupt_factor
