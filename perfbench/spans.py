"""Span tracing from outside the program.

``Tracer.install()`` replaces the public functions the CLI calls, at the
module or class attributes where the CLI looks them up, with wrappers that
record a span (name, start, end, parent) and a few counters per call.
``Tracer.uninstall()`` puts the originals back. Nothing in the package is
edited. Spans stay in memory until ``dump()``.

A layer's self time is the duration of its spans minus the part of that
interval covered by their child spans. Calls made from pool threads (the
syntax checker) take the innermost open span of the main thread as parent.
"""

from __future__ import annotations

import importlib
import json
import statistics
import subprocess
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

KINDS = ("subst-constrained", "omit-action", "omit-structure", "omit-name")

# (module, class or None, attribute, span name)
TARGETS = (
    ("perturbe.cli", None, "load_vectors", "embedding.load"),
    ("perturbe.embedding", None, "top_k_neighbors", "embedding.topk"),
    ("perturbe.embedding", "MeanVectorEncoder", "encode", "embedding.encode"),
    ("perturbe.perturb", None, "tokenize", "preprocess.tokenize"),
    ("perturbe.vocab", None, "tokenize", "preprocess.tokenize"),
    ("perturbe.embedding", None, "tokenize", "preprocess.tokenize"),
    ("perturbe.postag", "LexiconTagger", "tag", "postag.tag"),
    ("perturbe.postag", "LexiconTagger", "lexical_tag", "postag.lexical_tag"),
    ("perturbe.perturb", None, "perturb_corpus", "perturb.corpus"),
    ("perturbe.vocab", None, "count_frequencies", "vocab.count"),
    ("perturbe.vocab", None, "build_vocabulary", "vocab.build"),
    ("perturbe.semgate", None, "score_records", "semgate.score"),
    ("perturbe.semgate", None, "gate", "semgate.gate"),
    ("perturbe.augment", None, "build_matrix", "augment.build_matrix"),
    ("perturbe.augment", None, "save_corpus", "corpus.save"),
    ("perturbe.corpus", None, "save_corpus", "corpus.save"),
    ("perturbe.corpus", None, "load_corpus", "corpus.load"),
    ("perturbe.corpus", None, "split_corpus", "corpus.split"),
    ("perturbe.metrics", None, "syntactic_accuracy", "metrics.syn"),
    ("perturbe.metrics", None, "cohort_breakdown", "metrics.cohort"),
)

PER_LAYER = (
    [
        "embedding.load_s",
        "embedding.topk_calls",
        "embedding.topk_distinct",
        "embedding.topk_s",
        "embedding.topk_ms_p50",
        "embedding.topk_ms_p90",
        "embedding.encode_calls",
        "embedding.encode_s",
        "embedding.oov_tokens",
        "preprocess.tokenize_calls",
        "preprocess.tokenize_s",
        "postag.tag_calls",
        "postag.tag_s",
        "postag.lexical_tag_calls",
    ]
    + [f"perturb.{m}.{k}" for m in ("corpus_s", "records", "skipped", "yield") for k in KINDS]
    + ["vocab.count_s", "vocab.build_s", "vocab.unique_words"]
    + ["semgate.score_s", "semgate.gate_s"]
    + [f"semgate.pass_rate.{k}" for k in KINDS]
    + [
        "augment.build_matrix_s",
        "augment.cells",
        "corpus.save_calls",
        "corpus.save_s",
        "corpus.bytes_written",
        "corpus.load_s",
        "corpus.split_s",
        "metrics.syn_s",
        "metrics.checks",
        "metrics.checker_timeouts",
        "metrics.check_ms_p50",
        "metrics.check_ms_p99",
        "metrics.cohort_s",
        "cli.other_s",
        "trace.overhead_s",
    ]
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from the part of its name after the layer."""
    metric = name.split(".")[1]
    if "_ms_" in metric:
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric in ("pass_rate", "yield"):
        return "share"
    if metric == "bytes_written":
        return "bytes"
    return "count"


class _SubprocessProxy:
    """Stands in for the ``subprocess`` module inside ``perturbe.metrics`` so
    each checker invocation becomes a span."""

    def __init__(self, run):
        self.run = run

    def __getattr__(self, name):
        return getattr(subprocess, name)


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, attrs or None]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.topk_words: set[str] = set()
        self.oov_by_encoder: dict[int, int] = {}
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def begin(self, name: str) -> int | None:
        """Open a span; returns None when the innermost open span already has
        this name (one call seen through two patched bindings)."""
        stack = self._stack()
        if stack and self.spans[stack[-1]][0] == name:
            return None
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        record = [name, time.perf_counter(), None, parent, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int | None) -> None:
        if index is None:
            return
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    # -- patching ----------------------------------------------------------

    def _wrap(self, original, name: str, after):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None and index is not None:
                after(tracer, index, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        for module_name, class_name, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{class_name + '.' if class_name else ''}{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, _AFTER.get(span)))
        metrics = importlib.import_module("perturbe.metrics")
        if getattr(metrics, "subprocess", None) is subprocess:
            self._patches.append((metrics, "subprocess", subprocess))
            metrics.subprocess = _SubprocessProxy(self._checked_run)
        else:
            self.missing.append("perturbe.metrics.subprocess")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _checked_run(self, *args, **kwargs):
        index = self.begin("metrics.check")
        self.count("checks")
        try:
            return subprocess.run(*args, **kwargs)
        except subprocess.TimeoutExpired:
            self.count("checker_timeouts")
            raise
        finally:
            self.end(index)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                children[parent].append((start, end))
        out = []
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            duration = (end or start) - start
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end or start)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out.append(duration - covered)
        return out

    def self_by_layer(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0]] += own
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, which needs the
        untraced runs."""
        own = self.self_times()
        inclusive: dict[str, float] = defaultdict(float)
        exclusive: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for span, self_s in zip(self.spans, own):
            name, start, end, _, attrs = span
            key = name if attrs is None else f"{name}.{attrs}"
            inclusive[key] += end - start
            exclusive[key] += self_s
            durations[name].append(end - start)
        c = self.counters
        m: dict[str, float] = {
            "embedding.load_s": inclusive["embedding.load"],
            "embedding.topk_calls": len(durations["embedding.topk"]),
            "embedding.topk_distinct": len(self.topk_words),
            "embedding.topk_s": inclusive["embedding.topk"],
            "embedding.topk_ms_p50": _pct(durations["embedding.topk"], 50),
            "embedding.topk_ms_p90": _pct(durations["embedding.topk"], 90),
            "embedding.encode_calls": len(durations["embedding.encode"]),
            "embedding.encode_s": inclusive["embedding.encode"],
            "embedding.oov_tokens": sum(self.oov_by_encoder.values()),
            "preprocess.tokenize_calls": len(durations["preprocess.tokenize"]),
            "preprocess.tokenize_s": inclusive["preprocess.tokenize"],
            "postag.tag_calls": len(durations["postag.tag"]),
            "postag.tag_s": inclusive["postag.tag"],
            "postag.lexical_tag_calls": len(durations["postag.lexical_tag"]),
        }
        for kind in KINDS:
            attempted = c[f"attempted.{kind}"]
            scored = c[f"scored.{kind}"]
            m[f"perturb.corpus_s.{kind}"] = exclusive[f"perturb.corpus.{kind}"]
            m[f"perturb.records.{kind}"] = c[f"records.{kind}"]
            m[f"perturb.skipped.{kind}"] = c[f"skipped.{kind}"]
            m[f"perturb.yield.{kind}"] = c[f"records.{kind}"] / attempted if attempted else 0.0
            m[f"semgate.pass_rate.{kind}"] = c[f"passed.{kind}"] / scored if scored else 0.0
        root = [i for i, span in enumerate(self.spans) if span[0] == "cli.main"]
        m.update(
            {
                "vocab.count_s": inclusive["vocab.count"],
                "vocab.build_s": inclusive["vocab.build"],
                "vocab.unique_words": c["unique_words"],
                "semgate.score_s": exclusive["semgate.score"],
                "semgate.gate_s": inclusive["semgate.gate"],
                "augment.build_matrix_s": exclusive["augment.build_matrix"],
                "augment.cells": c["cells"],
                "corpus.save_calls": len(durations["corpus.save"]),
                "corpus.save_s": inclusive["corpus.save"],
                "corpus.bytes_written": c["bytes_written"],
                "corpus.load_s": inclusive["corpus.load"],
                "corpus.split_s": inclusive["corpus.split"],
                "metrics.syn_s": inclusive["metrics.syn"],
                "metrics.checks": c["checks"],
                "metrics.checker_timeouts": c["checker_timeouts"],
                "metrics.check_ms_p50": _pct(durations["metrics.check"], 50),
                "metrics.check_ms_p99": _pct(durations["metrics.check"], 99),
                "metrics.cohort_s": inclusive["metrics.cohort"],
                "cli.other_s": sum(own[i] for i in root),
            }
        )
        return m

    def dump(self, path: Path, extra: dict) -> None:
        """Write the spans and the self time of each layer."""
        payload = {
            **extra,
            "self_s": self.self_by_layer(),
            "spans": [
                {
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    **({"kind": attrs} if attrs is not None else {}),
                }
                for i, (name, start, end, parent, attrs) in enumerate(self.spans)
            ],
        }
        path.write_text(json.dumps(payload) + "\n", "utf-8")


def _pct(values: list[float], q: int) -> float:
    """q-th percentile in milliseconds (0 when there are no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


# -- per-call counters, run after the wrapped call returns -------------------


def _after_topk(tracer, index, args, kwargs, result):
    tracer.topk_words.add(args[0] if args else kwargs["word"])


def _after_encode(tracer, index, args, kwargs, result):
    encoder = args[0]
    tracer.oov_by_encoder[id(encoder)] = getattr(encoder, "oov_skipped", 0)


def _after_perturb(tracer, index, args, kwargs, result):
    corpus = args[0] if args else kwargs["corpus"]
    kind = (args[1] if len(args) > 1 else kwargs["kind"]).value
    tracer.spans[index][4] = kind
    tracer.count(f"attempted.{kind}", len(corpus))
    tracer.count(f"records.{kind}", len(result.records))
    tracer.count(f"skipped.{kind}", len(result.skipped))


def _after_build_vocab(tracer, index, args, kwargs, result):
    codegen = args[0] if args else kwargs["codegen"]
    tracer.count("unique_words", codegen.unique_count)


def _after_gate(tracer, index, args, kwargs, result):
    passed, failed = result
    for record in passed:
        tracer.count(f"passed.{record.kind.value}")
        tracer.count(f"scored.{record.kind.value}")
    for record in failed:
        tracer.count(f"scored.{record.kind.value}")


def _after_build_matrix(tracer, index, args, kwargs, result):
    tracer.count("cells", len(result[0]))


def _after_save(tracer, index, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("bytes_written", Path(path).stat().st_size)


_AFTER = {
    "embedding.topk": _after_topk,
    "embedding.encode": _after_encode,
    "perturb.corpus": _after_perturb,
    "vocab.build": _after_build_vocab,
    "semgate.gate": _after_gate,
    "augment.build_matrix": _after_build_matrix,
    "corpus.save": _after_save,
}
