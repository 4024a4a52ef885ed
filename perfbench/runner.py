"""Child process of the benchmark: times the workload's CLI command in a
closed loop, or times one cold set-up.

    runner.py run   --workload W --work DIR --seconds S --trace 0|1 --out FILE
    runner.py setup --workload W --inputs DIR

``run`` makes one untimed warm-up run, then runs the command back to back
until S seconds have passed, each run on a fresh copy of the inputs and each
output verified after its clock stops. With ``--trace 1`` the first half of
the time is spent on untraced runs and the second half on traced runs. The
result goes to FILE as JSON. ``setup`` prints the seconds of one cold set-up
as JSON on its last output line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from spans import Tracer  # noqa: E402

import verify  # noqa: E402

MATRIX_ARGV = ["matrix", "--config", "exp.cfg", "--workers", "1"]
EVALUATE_ARGV = [
    "evaluate",
    "--preds", "preds.jsonl",
    "--refs", "refs.jsonl",
    "--labels", "labels.jsonl",
    "--labels-before", "labels_before.jsonl",
    "--auto-checker",
    "--workers", "2",
    "--out-dir", "out",
]


class Loop:
    def __init__(self, workload: str, work: Path):
        from perturbe import cli

        self.cli = cli
        self.workload = workload
        self.work = work
        self.expected = json.loads((work / "expected.json").read_text("utf-8"))
        # Items per run: predictions for evaluate; input samples x
        # perturbation families for a matrix run.
        if workload == "evaluate_syn":
            self.argv = EVALUATE_ARGV
            self.corpus = None
            self.items = len(self.expected["verdicts"])
        else:
            self.argv = MATRIX_ARGV
            self.corpus = verify.read_jsonl(work / "inputs" / "corpus.jsonl")
            self.items = len(self.corpus) * len(self.expected["kinds"])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.runs = 0

    def once(self, tracer: Tracer | None = None) -> float:
        """One run on a fresh copy of the inputs; returns its wall seconds."""
        run_dir = self.work / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.copytree(self.work / "inputs", run_dir)
        cwd = os.getcwd()
        os.chdir(run_dir)
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                if tracer is not None:
                    tracer.install()
                    root = tracer.begin("cli.main")
                start = time.perf_counter()
                try:
                    code = self.cli.main(list(self.argv))
                finally:
                    elapsed = time.perf_counter() - start
                    if tracer is not None:
                        tracer.end(root)
                        tracer.uninstall()
        finally:
            os.chdir(cwd)
        (run_dir / "cli_output.txt").write_text(captured.getvalue(), "utf-8")
        self.runs += 1
        self.attempted += self.items
        self._check(code, run_dir / "out")
        return elapsed

    def _check(self, code: int, out: Path) -> None:
        if code != 0:
            self.failed += self.items
            self.problems.append(f"run {self.runs}: exit code {code}")
            return
        if self.workload == "evaluate_syn":
            failed, problems = verify.verify_evaluate(out, self.expected)
        else:
            problems, digest = verify.verify_matrix(out, self.corpus, self.expected["kinds"])
            failed = self.items if problems else 0
            if digest is not None:
                self.digests.add(digest)
            if len(self.digests) > 1:
                problems.append("manifest digest changed between runs")
                failed = self.items
        self.failed += failed
        self.problems.extend(f"run {self.runs}: {p}" for p in problems)


def _run(args) -> None:
    work = Path(args.work).resolve()
    loop = Loop(args.workload, work)
    loop.once()  # warm-up: fills caches, verified like every other run
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = _timed(loop, budget)
    result = {
        "run_s": untraced,
        "items": loop.items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        layers, traced, last = [], [], None
        deadline = time.perf_counter() + budget
        while not traced or time.perf_counter() < deadline:
            last = Tracer()
            traced.append(loop.once(last))
            layers.append(last.layer_metrics())
        overhead = statistics.fmean(traced) - statistics.fmean(untraced)
        result["layers"] = {
            name: statistics.median(run[name] for run in layers) for name in layers[0]
        }
        result["layers"]["trace.overhead_s"] = overhead
        result["traced_run_s"] = traced
        result["self_s"] = last.self_by_layer()
        result["trace_missing"] = last.missing
        last.dump(work / "trace.json", {"workload": args.workload, "run_s": traced[-1]})
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        problems=loop.problems[:20],
        digests=sorted(loop.digests),
    )
    Path(args.out).write_text(json.dumps(result) + "\n", "utf-8")


def _timed(loop: Loop, seconds: float) -> list[float]:
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(loop.once())
    return times


def _setup(args) -> None:
    """One cold set-up: what a user's command pays before any work."""
    inputs = Path(args.inputs)
    if args.workload == "evaluate_syn":
        from perturbe import corpus, metrics

        start = time.perf_counter()
        checker = metrics.detect_checker(workers=2)
        metrics.load_predictions(inputs / "preds.jsonl")
        corpus.load_corpus(inputs / "refs.jsonl")
        metrics.load_labels(inputs / "labels.jsonl")
        metrics.load_labels(inputs / "labels_before.jsonl")
        elapsed = time.perf_counter() - start
        if checker is None:
            raise SystemExit("no x86 assembler found")
    else:
        from perturbe.embedding import load_vectors

        start = time.perf_counter()
        load_vectors(inputs / "vectors.txt")
        elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed}))


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    args = parser.parse_args()
    if args.mode == "run":
        _run(args)
    else:
        _setup(args)


if __name__ == "__main__":
    main()
