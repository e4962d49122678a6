"""Shared infrastructure for the experiment benchmarks.

Each ``bench_*.py`` file regenerates one table or figure of the ALCOP paper
(see DESIGN.md's experiment index). Experiments run once per session inside
fixtures, print their table, and persist it under ``benchmarks/results/``;
the ``benchmark`` fixture then times a representative computational kernel
of that experiment so ``pytest benchmarks/ --benchmark-only`` reports
machine-performance numbers alongside.

Set ``REPRO_BENCH_QUICK=1`` (or pass ``--smoke``) to run reduced sweeps
(fewer operators, smaller spaces) while keeping every experiment exercised.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.gpusim import A100
from repro.tuning import Measurer, MeasurementCache, SpaceOptions, enumerate_space
from repro.workloads import suite_specs

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Session-wide disk cache / pool width, set from --cache-dir / --jobs in
#: pytest_configure. Bench modules that build their own Measurer (e.g. one
#: per GPU generation) must go through :func:`make_measurer` so every
#: experiment shares the same persisted store and repeat runs warm-start.
SESSION_CACHE = None
JOBS = 1


def make_measurer(gpu=A100, via_ir: bool = False) -> Measurer:
    """A measurer wired to the session's disk cache and worker width."""
    return Measurer(gpu, via_ir=via_ir, cache=SESSION_CACHE, jobs=JOBS)

#: Cap on enumerated spaces for the exhaustive studies (strided, see
#: SpaceOptions.max_size). Full enumeration changes nothing qualitatively
#: but multiplies runtime.
SPACE_OPTIONS = SpaceOptions(max_size=300 if QUICK else 1200)
E2E_SPACE_OPTIONS = SpaceOptions(max_size=200 if QUICK else 600)


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run reduced benchmark sweeps (same as REPRO_BENCH_QUICK=1)",
    )
    parser.addoption(
        "--cache-dir",
        action="store",
        default=None,
        help="disk-persistent measurement cache directory; a second run "
             "against the same directory warm-starts (skips the compiles)",
    )
    parser.addoption(
        "--jobs",
        action="store",
        type=int,
        default=1,
        help="parallel measurement worker processes for benchmark sweeps",
    )


def pytest_configure(config):
    """``--smoke`` flips the module into quick mode before the bench modules
    are collected (they read QUICK / *_SPACE_OPTIONS at import time);
    ``--cache-dir``/``--jobs`` wire the session measurement cache and pool."""
    global SESSION_CACHE, JOBS
    cache_dir = config.getoption("--cache-dir", default=None)
    if cache_dir:
        SESSION_CACHE = MeasurementCache(cache_dir)
    JOBS = config.getoption("--jobs", default=1)
    if not config.getoption("--smoke", default=False):
        return
    global QUICK, SPACE_OPTIONS, E2E_SPACE_OPTIONS
    QUICK = True
    os.environ["REPRO_BENCH_QUICK"] = "1"
    SPACE_OPTIONS = SpaceOptions(max_size=300)
    E2E_SPACE_OPTIONS = SpaceOptions(max_size=200)


def bench_suite_specs():
    specs = suite_specs()
    if QUICK:
        # one library-beating op (MM_Conv1x1_1) must stay in the reduced set
        # so fig11's "ALCOP wins somewhere" paper-shape check holds
        keep = {
            "MM_BERT_FC1",
            "MM_RN50_FC",
            "MM_Conv1x1_1",
            "BMM_BERT_QK",
            "BMM_BERT_SV",
            "Conv_RN50_3x3",
        }
        specs = [s for s in specs if s.name in keep]
    return specs


def write_result(name: str, text: str) -> None:
    """Persist one experiment's table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{'=' * 72}\n{text}\n[written to {path}]")


@pytest.fixture(scope="session")
def measurer(request) -> Measurer:
    """One shared compile-and-simulate cache for the whole bench session."""
    m = make_measurer()
    request.config._repro_measurers = getattr(request.config, "_repro_measurers", [])
    request.config._repro_measurers.append(m)
    return m


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Cache/compile telemetry so warm-vs-cold runs are visible in CI logs."""
    for m in getattr(config, "_repro_measurers", []):
        terminalreporter.write_line(f"[repro] measurement telemetry: {m.telemetry.summary()}")
    if SESSION_CACHE is not None:
        terminalreporter.write_line(
            f"[repro] measurement cache: {len(SESSION_CACHE)} entries, "
            f"{SESSION_CACHE.hits} hits / {SESSION_CACHE.misses} misses "
            f"({SESSION_CACHE.path})"
        )


@pytest.fixture(scope="session")
def suite_spaces(measurer):
    """Enumerated (capped) space per suite operator."""
    return {spec.name: enumerate_space(spec, options=SPACE_OPTIONS) for spec in bench_suite_specs()}
