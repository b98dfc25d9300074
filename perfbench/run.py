"""Benchmark entry point.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload parsec-live --seed 1 --seconds 15 --trace 0

``--trace 0`` measures one workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs the traced pass over every workload and
reports the per-layer metrics.  Human-readable detail goes first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--regen-golden`` rewrites
``perfbench/golden.json`` from direct live runs and does nothing else;
no other mode ever writes it.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import bench  # noqa: E402  (standard library only; imports no repro code)

ROOT = bench.ROOT


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=bench.WORKLOADS, default="parsec-live")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--regen-golden", action="store_true",
        help="rewrite perfbench/golden.json from direct live runs, then exit",
    )
    return parser.parse_args(argv)


def host_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def cpu_ticks():
    """(all, steal) CPU ticks of the host so far, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields[:8]), fields[7]


def describe(name: str, result: dict) -> None:
    totals = result["round_totals"]
    q = ", ".join(f"{v:.4f}" for v in bench.quartiles(totals))
    print(f"rounds: {len(totals)}; per-round totals s, quartiles: [{q}]")
    if "wall_pass_s" in result:
        print(f"times at reference speed (calibration kernel {bench.REF_KERNEL_S * 1e3:g} ms); "
              f"pass_s in wall time: {result['wall_pass_s']:.4f} s")
    setups = ", ".join(f"{v:.4f}" for v in result["setup_times"])
    print(f"set-ups s: [{setups}] (median kept, plus import)")
    print(f"cold latency percentiles over {result['cold_samples']} samples "
          f"({'requests' if name == 'service-mix' else 'per-cell medians'})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no source tree at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (import time is part of set-up)

    if args.regen_golden:
        return bench.regenerate_golden()
    import_s = bench.at_ref_speed(time.perf_counter() - _T0, bench.kernel_s(5))
    golden = bench.load_golden()
    work_root = ROOT / ".bench_work" / str(os.getpid())
    work_root.mkdir(parents=True)
    print(f"host: {json.dumps(host_facts())}")
    print(f"workload: {args.workload} seed: {args.seed} seconds: {args.seconds} "
          f"trace: {args.trace}")
    ticks0 = cpu_ticks()
    try:
        if args.trace:
            layer_metrics, breakdown, tally = bench.traced_run(golden, work_root, args.seed)
            for wl, share in breakdown.items():
                print(f"layers on {wl}: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in sorted(share.items())))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        else:
            result = bench.measure(args.workload, golden, work_root, args.seed, args.seconds)
            describe(args.workload, result)
            tally = result["tally"]
            metrics = bench.end_to_end_metrics(result, import_s)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[0] > ticks0[0]:
        steal = (ticks1[1] - ticks0[1]) / (ticks1[0] - ticks0[0])
        print(f"host steal time during the run: {100 * steal:.1f}% of CPU ticks")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations attempted: {tally.attempted}, failed: {tally.failed}, "
          f"wrong outputs: {tally.wrong}")
    for problem in tally.problems[:20]:
        print(f"  {problem}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
