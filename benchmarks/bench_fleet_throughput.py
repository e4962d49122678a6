"""Fleet scaling record (no paper figure — perf trajectory).

The distributed tuning fleet (docs/distributed.md) exists to scale the
measurement loop across workers without changing a single bit of the
answer. This benchmark records both halves of that claim as JSON so the
CI fleet-smoke job can track them PR over PR:

* **configs/sec vs. worker count** — the same design-space sweep at fleet
  widths 1, 2 and 4 local workers, each compared against the serial
  ``Measurer.sweep`` wall clock;
* **tuner-batch break-even** — one 16-config batch (the size of a tuner's
  ``measure_many`` call, which starts its fleet workers afresh) at each
  width against the same batch measured in-process, median of a few
  repeats: below 1x, ``--jobs`` slows a tune's batches down;
* **bitwise identity** — every fleet run's latencies must equal the
  serial run's exactly, including one run with injected worker death;
* **fault overhead** — the dispatch/steal/requeue cost visible in the
  fleet telemetry.

Runs two ways: as a pytest benchmark inside the suite, and as a plain
script (``python benchmarks/bench_fleet_throughput.py --smoke --out F``)
for the CI fleet-smoke job, which uploads the JSON artifact.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

#: Local fleet widths in the scaling sweep.
WIDTHS = (1, 2, 4)

#: Configs per tuner batch (``XGBTuner.batch_size``): the tuner-batch leg.
TUNER_BATCH = 16

#: Repeats of each tuner-batch measurement; the median is recorded.
BATCH_REPEATS = 5


def _median_wall(fn, repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return sorted(walls)[len(walls) // 2]


def run_experiment(quick: bool) -> dict:
    from repro import faults
    from repro.gpusim.config import A100
    from repro.tensor.operation import GemmSpec
    from repro.tuning.fleet import fleet_sweep
    from repro.tuning.measure import Measurer
    from repro.tuning.space import SpaceOptions, enumerate_space

    space_cap = 32 if quick else 96
    spec = GemmSpec("fleet-bench", 1, 512, 512, 512)
    space = enumerate_space(spec, A100, SpaceOptions(max_size=space_cap))

    # via_ir=True: each trial pays the full compile path, so there is real
    # work to parallelize (the static-spec path is too cheap to scale).
    t0 = time.perf_counter()
    serial = Measurer(A100, via_ir=True).sweep(spec, space)
    serial_s = time.perf_counter() - t0

    widths = {}
    for n in WIDTHS:
        m = Measurer(A100, via_ir=True)
        t0 = time.perf_counter()
        latencies, tel = fleet_sweep(m, spec, space, workers=n)
        wall = time.perf_counter() - t0
        widths[n] = {
            "wall_s": wall,
            "configs_per_sec": len(space) / max(wall, 1e-9),
            "speedup_vs_serial": serial_s / max(wall, 1e-9),
            "identical_to_serial": latencies == serial,
            "shards": tel.n_shards,
            "dispatches": tel.shards_dispatched,
            "steals": tel.steals,
        }

    # Tuner-batch leg: a fresh measurer per repeat, so every trial compiles.
    batch = space[:: max(1, len(space) // TUNER_BATCH)][:TUNER_BATCH]
    batch_serial_s = _median_wall(
        lambda: Measurer(A100, via_ir=True).measure_many(spec, batch), BATCH_REPEATS)
    batch_widths = {}
    for n in WIDTHS:
        wall = _median_wall(
            lambda: fleet_sweep(Measurer(A100, via_ir=True), spec, batch, workers=n),
            BATCH_REPEATS,
        )
        batch_widths[str(n)] = {
            "wall_s": wall,
            "speedup_vs_serial": batch_serial_s / max(wall, 1e-9),
        }

    # One faulted leg: every shard's first dispatch dies; the recovered
    # sweep must still carry the serial bits.
    plan = faults.FaultPlan(
        [faults.FaultRule("fleet", "worker-death", match="|attempt=0|")],
        seed=11,
    )
    m = Measurer(A100, via_ir=True)
    t0 = time.perf_counter()
    with faults.injected(plan):
        faulted, faulted_tel = fleet_sweep(m, spec, space, workers=2)
    faulted_s = time.perf_counter() - t0

    best = min(range(len(serial)), key=lambda i: serial[i])
    return {
        "quick": quick,
        "space": len(space),
        "serial_wall_s": serial_s,
        "serial_configs_per_sec": len(space) / max(serial_s, 1e-9),
        "best_index": best,
        "best_latency_us": serial[best],
        "widths": {str(n): w for n, w in widths.items()},
        "tuner_batch": {
            "configs": len(batch),
            "repeats": BATCH_REPEATS,
            "serial_wall_s": batch_serial_s,
            "widths": batch_widths,
        },
        "faulted_wall_s": faulted_s,
        "faulted_identical": faulted == serial,
        "faulted_worker_deaths": faulted_tel.worker_deaths,
        "faulted_shard_losses": faulted_tel.shard_losses,
    }


def format_table(r: dict) -> str:
    lines = ["Fleet throughput — configs/sec vs. local worker count"]
    lines.append(
        f"serial sweep ({r['space']} configs): {r['serial_wall_s']:6.2f}s  "
        f"{r['serial_configs_per_sec']:6.1f} cfg/s"
    )
    for n in sorted(r["widths"], key=int):
        w = r["widths"][n]
        ident = "identical" if w["identical_to_serial"] else "MISMATCH"
        lines.append(
            f"fleet x{n}: {w['wall_s']:6.2f}s  {w['configs_per_sec']:6.1f} cfg/s  "
            f"{w['speedup_vs_serial']:4.2f}x vs serial  "
            f"({w['shards']} shard(s), {w['dispatches']} dispatch(es), "
            f"{w['steals']} steal(s))  [{ident}]"
        )
    tb = r["tuner_batch"]
    lines.append(
        f"tuner batch ({tb['configs']} configs, median of {tb['repeats']}): "
        f"serial {1e3 * tb['serial_wall_s']:.1f} ms; "
        + ", ".join(
            f"x{n} {1e3 * w['wall_s']:.1f} ms ({w['speedup_vs_serial']:.2f}x)"
            for n, w in sorted(tb["widths"].items(), key=lambda kv: int(kv[0]))
        )
    )
    lines.append(
        f"faulted x2 (worker death per shard): {r['faulted_wall_s']:6.2f}s, "
        f"{r['faulted_worker_deaths']} death(s) / "
        f"{r['faulted_shard_losses']} shard loss(es) recovered  "
        f"[{'identical' if r['faulted_identical'] else 'MISMATCH'}]"
    )
    return "\n".join(lines)


def check_invariants(r: dict) -> None:
    for n, w in r["widths"].items():
        assert w["identical_to_serial"], (
            f"fleet width {n} diverged from the serial sweep — the bitwise "
            "identity contract is broken"
        )
    assert r["faulted_identical"], (
        "the worker-death run diverged from the serial sweep"
    )
    assert r["faulted_worker_deaths"] >= 1, (
        "the faulted leg injected no deaths — the chaos plan went inert"
    )
    # Scaling is recorded, not hard-asserted (CI runners have few cores);
    # but a wider fleet must never *lose* to one worker by a large margin.
    one = r["widths"]["1"]["configs_per_sec"]
    four = r["widths"]["4"]["configs_per_sec"]
    assert four >= 0.5 * one, (
        f"4-worker fleet ({four:.1f} cfg/s) is dramatically slower than one "
        f"worker ({one:.1f} cfg/s) — dispatch overhead has regressed"
    )


# ------------------------------------------------------------------ pytest
def test_fleet_throughput(benchmark):
    from conftest import QUICK, RESULTS_DIR, write_result

    result = run_experiment(QUICK)
    check_invariants(result)
    write_result("fleet_throughput", format_table(result))
    out = RESULTS_DIR / "fleet_throughput.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"[json written to {out}]")

    # Representative kernel: one tiny coordinator round (dispatch + stream
    # + merge) — the fleet's pure orchestration overhead.
    from repro.gpusim.config import A100
    from repro.tensor.operation import GemmSpec
    from repro.tuning.fleet import FleetCoordinator
    from repro.tuning.space import SpaceOptions, enumerate_space

    spec = GemmSpec("fleet-kernel", 1, 128, 128, 128)
    tiny = enumerate_space(spec, A100, SpaceOptions(max_size=4))
    benchmark.pedantic(
        lambda: FleetCoordinator(
            spec, tiny, gpu=A100, via_ir=False, workers=1
        ).run(),
        rounds=3,
        iterations=1,
    )


# ------------------------------------------------------------------ script
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced space")
    parser.add_argument("--out", default=None, help="write the JSON record here")
    args = parser.parse_args(argv)

    result = run_experiment(args.smoke)
    check_invariants(result)
    print(format_table(result))
    if args.out:
        path = pathlib.Path(args.out)
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"[json written to {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
