"""Pipeline benchmark for the ``perturbe`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The inputs are generated from the
seed into ``.bench_work/NAME/``; the package is imported from ``src/``.

With ``--trace 0`` the last output line carries the end-to-end metrics
(``run_s``, ``items_per_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it carries the per-layer metrics of a traced run, and the
spans go to ``.bench_work/NAME/trace.json``. Lines before it give the input
sizes, every metric with its unit, ``failed_share`` and the manifest digest.
Workloads and metrics are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import PER_LAYER, unit  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170.0
END_TO_END_UNITS = {"run_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a runner.py subprocess to completion within the overall deadline."""
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run(
        [sys.executable, str(HERE / "runner.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )


def _setup_seconds(workload: str, work: Path, deadline: float) -> list[float]:
    """Cold set-up, each time in a fresh process on a fresh copy of the inputs."""
    times = []
    copy = work / "setup"
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(work / "inputs", copy)
        proc = _child(["setup", "--workload", workload, "--inputs", str(copy)], deadline)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    shutil.rmtree(copy, ignore_errors=True)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "perturbe" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'perturbe'}", file=sys.stderr)
        return 2
    if args.workload == "evaluate_syn" and not (shutil.which("nasm") or shutil.which("as")):
        print("evaluate_syn: not run, no x86 assembler (nasm or as) found", file=sys.stderr)
        return 3

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    stats = gen.generate(args.workload, args.seed, work)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for key, value in stats.items():
        print(f"input {key} {value}")

    try:
        setups = [] if args.trace else _setup_seconds(args.workload, work, deadline)
        out = work / "result.json"
        _child(
            [
                "run",
                "--workload", args.workload,
                "--work", str(work),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(out),
            ],
            deadline,
        )
    except subprocess.CalledProcessError as exc:
        print(f"error: benchmark child failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"error: benchmark did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    result = json.loads(out.read_text("utf-8"))

    # run_s is the mean of the timed runs, not their median: on a shared host
    # the same run reads up to 1.8 times slower while other tenants load the
    # machine, and the mean of a window of short runs varies least between
    # invocations (see NOTES.md).
    run_s = statistics.fmean(result["run_s"])
    print(f"runs {len(result['run_s'])} run_s_median {statistics.median(result['run_s']):.4f} s")
    print(f"run_s_all {' '.join(f'{t:.4f}' for t in result['run_s'])}")
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit(name)} for name in PER_LAYER}
        print(f"traced_runs {len(result['traced_run_s'])}")
        for name, seconds in result["self_s"].items():
            print(f"self_s {name} {seconds:.6f} s")
        for target in result["trace_missing"]:
            print(f"trace: target {target} not found, its metrics read 0")
    else:
        values = {
            "run_s": run_s,
            "items_per_s": result["items"] / run_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"setup_s_all {' '.join(f'{t:.6f}' for t in setups)}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"failed_share {result['failed'] / result['attempted']} share")
    for digest in result["digests"]:
        print(f"manifest_digest {digest}")
    for problem in result["problems"]:
        print(f"problem {problem}")
    correct = result["failed"] == 0 and not result["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
