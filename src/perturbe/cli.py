"""Command-line surface for the perturbation pipeline.

Every run requires an explicit seed, so any two runs with the same config
and seed produce byte-identical output trees.

``COMMANDS`` is the one table of subcommands: each one's handler, help text
and options, every option with its argparse arguments and one role (input
file, output file, output directory or parameter), and the function that
derives, from the parsed arguments, every file the command writes. ``main``
builds a parser holding only the command that ``argv`` names; the parser of
all ten is built only for top-level ``--help``, ``--version``, or a missing
or unknown command. Before the handler runs, ``main`` refuses (exit 1, naming
both options or config keys) any file the command would write, its run
manifest included, that resolves to one of its inputs or to another file it
would write, and any ``matrix`` input in the cells directory it writes. The
handler writes every planned file but the run manifest and returns nothing.
``main`` then writes the run manifest, when the plan names one: the digest of
the parsed options, their ``--seed`` (null for a command without one) and
the digest of every planned file. ``matrix`` alone returns its seed and
config, because both come from its config file.

``matrix`` runs the subcommands' stage functions (``mine_vocabulary``,
``perturb_split``, ``score_records`` and ``gate``), so chaining ``split``,
``build-vocab`` on the full corpus, ``perturb`` for each kind in the order
subst-constrained, omit-action, omit-structure, omit-name, and ``gate``
reproduces its vocabulary and records byte for byte. ``augment`` of a split
with the config's seed, a family and a p > 0 writes every cell file of those.

A corpus path ending in ``.csv`` (any case) is CSV, any other JSONL. The
vocabulary records the registers, stopwords and tag lexicon it was mined
with; ``perturb``, ``matrix`` and ``stats --vocab`` build their tagger from
it, and ``perturb`` takes its stoplist from it, so no later stage can tag or
filter otherwise than the mining did.

Exit codes: 0 success, 1 invalid configuration, 2 data error (including
any missing input file), 3 external checker failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import perturbe
from perturbe import augment as augment_mod
from perturbe import corpus as corpus_mod
from perturbe import metrics as metrics_mod
from perturbe import perturb as perturb_mod
from perturbe import semgate as semgate_mod
from perturbe import vocab as vocab_mod
from perturbe._util import (
    canonical_json,
    pretty_json,
    read_json_object,
    sha256_file,
    sha256_text,
    write_json,
    write_jsonl,
)
from perturbe.embedding import MeanVectorEncoder, PrecomputedEncoder, load_vectors
from perturbe.errors import CheckerError, ConfigError, DataError, PerturbeError
from perturbe.postag import FileTagger, LexiconTagger, load_tag_lexicon
from perturbe.preprocess import load_stopwords


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exits with code 2
        raise ConfigError(message)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _split_ratios(text: str) -> list[float]:
    ratios = _parse_floats(text)
    if len(ratios) != 3:
        raise ValueError(f"expected three values, got {text!r}")
    return ratios


def _parsed(name: str, parse, text: str):
    """``parse(text)``, with a malformed value reported as a configuration
    error that names the option or key it was given for."""
    try:
        return parse(text)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


# SplitSpec's default ratios. The default of --ratios is their text: the run
# manifest digests str() of every option.
_DEFAULT_SPLIT = [
    corpus_mod.SplitSpec.train_ratio,
    corpus_mod.SplitSpec.val_ratio,
    corpus_mod.SplitSpec.test_ratio,
]


_COMMENT = re.compile(r"(?:^|\s)#")


def read_config(path: str | Path) -> dict[str, str]:
    """Flat key = value lines, each key at most once. '#' starts a comment at
    the start of a line or after whitespace, so a value such as
    ``runs#3/corpus.jsonl`` keeps its '#'."""
    config: dict[str, str] = {}
    text = Path(path).read_text("utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if key in config:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is set twice")
        config[key] = value.strip()
    return config


def _write_run_manifest(command: str, files: dict[str, Path], seed: int | None, config) -> None:
    """Write the run manifest of ``command`` to ``files["--manifest"]``. Each
    other file is keyed by its path relative to the manifest's directory."""
    manifest_path = files["--manifest"]
    outputs = [path for label, path in files.items() if label != "--manifest"]
    manifest = {
        "command": command,
        "seed": seed,
        "config_digest": sha256_text(canonical_json({k: str(v) for k, v in config.items()})),
        "outputs": {os.path.relpath(p, manifest_path.parent): sha256_file(p) for p in outputs},
    }
    write_json(manifest_path, manifest)


def _mine_vocabulary(
    corpus: corpus_mod.Corpus,
    stopwords: str | None,
    registers: str | None,
    comparison: str | None,
    threshold: float,
    tag_lexicon: str | None,
) -> vocab_mod.Vocabulary:
    """The vocabulary of build-vocab and matrix, mined over every intent of
    ``corpus``; a None path reads the shipped file."""
    return vocab_mod.mine_vocabulary(
        (s.intent for s in corpus),
        load_stopwords(stopwords),
        vocab_mod.load_registers(registers),
        comparison=comparison,
        threshold=threshold,
        tag_lexicon=load_tag_lexicon(tag_lexicon),
    )


def _load_tagger(
    vocabulary: vocab_mod.Vocabulary, tags: str | None = None
) -> LexiconTagger | FileTagger:
    """The tagger of perturb, matrix and stats: the vocabulary's tag lexicon
    and registers, under the ``tags`` overrides."""
    lexicon = LexiconTagger(vocabulary.tag_lexicon, vocabulary.registers)
    return FileTagger(tags, fallback=lexicon) if tags else lexicon


# Where each command writes, from its arguments alone: every output file by
# a label that names the option it comes from, and the run manifest's default
# path under "--manifest". main checks these paths before the handler runs,
# and the handler writes to them.


def _writes_out(args) -> dict[str, Path]:
    """ingest and augment: --out, and the run manifest beside it."""
    out = Path(args.out)
    return {"--out": out, "--manifest": out.with_suffix(out.suffix + ".manifest.json")}


def _writes_perturb(args) -> dict[str, Path]:
    out = Path(args.out)
    return {
        "--out": out,
        "--out (.skips.jsonl)": out.with_suffix(out.suffix + ".skips.jsonl"),
        "--manifest": out.with_suffix(out.suffix + ".manifest.json"),
    }


def _writes_out_stem(args) -> dict[str, Path]:
    """build-vocab and stats: --out when set, and the run manifest beside it."""
    if not args.out:
        return {}
    out = Path(args.out)
    return {"--out": out, "--manifest": out.with_suffix(".manifest.json")}


def _writes_gate(args) -> dict[str, Path]:
    records = Path(args.records)
    files = {
        "--out-passed": Path(args.out_passed or records.with_suffix(".passed.jsonl")),
        "--out-failed": Path(args.out_failed or records.with_suffix(".failed.jsonl")),
    }
    if args.sweep:
        files["--sweep-out"] = Path(args.sweep_out or records.with_suffix(".sweep.csv"))
    files["--manifest"] = records.with_suffix(".gate.manifest.json")
    return files


def _in_out_dir(out_dir: str | Path, names, option: str = "--out-dir") -> dict[str, Path]:
    """The files ``names`` in ``out_dir``, labelled by the ``option`` that
    names the directory, and the run manifest there."""
    out_dir = Path(out_dir)
    files = {f"{option} ({name})": out_dir / name for name in names}
    files["--manifest"] = out_dir / "run_manifest.json"
    return files


_SPLITS = ("train", "val", "test")


def _writes_split(args) -> dict[str, Path]:
    return _in_out_dir(args.out_dir, [f"{name}.jsonl" for name in _SPLITS])


# The files `matrix` writes besides its cells, whose names come from the
# config's kinds and ratios (manifest.json digests them).
_MATRIX_FILES = ("manifest.json", "vocab.json", *(f"records_{name}.jsonl" for name in _SPLITS))


def _writes_matrix(args) -> dict[str, Path]:
    """Without --out-dir the directory is the config's out_dir key."""
    if args.out_dir:
        return _in_out_dir(args.out_dir, _MATRIX_FILES)
    out_dir = _matrix_settings(read_config(args.config), args.config)["out_dir"]
    return _in_out_dir(out_dir, _MATRIX_FILES, "out_dir")


def _writes_evaluate(args) -> dict[str, Path]:
    names = ["metrics.json"]
    if args.checker or args.auto_checker:
        names.append("syn_verdicts.jsonl")
    if not args.labels:
        names.append("exact_match_labels.jsonl")
    return _in_out_dir(args.out_dir, names)


def _writes_report(args) -> dict[str, Path]:
    return _in_out_dir(args.out_dir, ("metrics.csv", "summary.txt"))


def _cmd_ingest(args, files) -> None:
    corpus = corpus_mod.load_corpus(args.infile)
    corpus_mod.save_corpus(corpus, files["--out"])
    print(f"ingested {len(corpus)} samples -> {files['--out']}")


def _cmd_split(args, files) -> None:
    spec = corpus_mod.SplitSpec(*_parsed("--ratios", _split_ratios, args.ratios), seed=args.seed)
    corpus = corpus_mod.load_corpus(args.infile)
    parts = corpus_mod.split_corpus(corpus, spec)
    for name, part in zip(_SPLITS, parts):
        corpus_mod.save_corpus(part, files[f"--out-dir ({name}.jsonl)"])
    train, val, test = (len(part) for part in parts)
    print(f"split {len(corpus)} -> train {train}, val {val}, test {test}")


def _cmd_build_vocab(args, files) -> None:
    vocabulary = _mine_vocabulary(
        corpus_mod.load_corpus(args.corpus),
        args.stopwords,
        args.registers,
        args.comparison,
        args.threshold,
        args.tag_lexicon,
    )
    vocab_mod.save_vocabulary(vocabulary, files["--out"])
    print(
        f"vocabulary: {len(vocabulary.structure_words)} structure words, "
        f"{len(vocabulary.name_words)} name words -> {files['--out']}"
    )


def _cmd_perturb(args, files) -> None:
    kind = perturb_mod.PerturbKind(args.kind)
    corpus = corpus_mod.load_corpus(args.infile)
    vocabulary = vocab_mod.load_vocabulary(args.vocab)
    store = load_vectors(args.vectors) if args.vectors else None
    cfg = perturb_mod.SubstitutionConfig(ratio=args.ratio, k=args.k, tau=args.tau, seed=args.seed)
    tagger = _load_tagger(vocabulary, args.tags)
    result = perturb_mod.perturb_split(
        corpus, [kind], cfg, vocabulary, store, tagger, vocabulary.stopwords
    )
    out = files["--out"]
    perturb_mod.write_records(result.records, out)
    write_jsonl(
        files["--out (.skips.jsonl)"],
        ({"id": s.sample_id, "kind": s.kind.value, "reason": s.reason} for s in result.skipped),
    )
    print(f"perturbed {len(result.records)} samples ({len(result.skipped)} skipped) -> {out}")


def _cmd_gate(args, files) -> None:
    thresholds = _parsed("--sweep", _parse_floats, args.sweep) if args.sweep else None
    records = perturb_mod.read_records(args.records)
    if args.embeddings:
        encoder = PrecomputedEncoder(args.embeddings)
    elif args.vectors:
        encoder = MeanVectorEncoder(load_vectors(args.vectors))
    else:
        raise ConfigError("gate needs --vectors (default encoder) or --embeddings")
    cfg = semgate_mod.GateConfig(threshold=args.threshold)
    scored = semgate_mod.score_records(records, encoder)
    passed, failed = semgate_mod.gate(scored, cfg)
    perturb_mod.write_records(passed, files["--out-passed"])
    perturb_mod.write_records(failed, files["--out-failed"])
    if thresholds is not None:
        semgate_mod.write_sweep_csv(scored, thresholds, files["--sweep-out"])
    print(f"gate at {args.threshold}: {len(passed)} passed, {len(failed)} failed")


# What `augment --kind` names: a family, or a single perturbation kind.
_PLAN_KINDS = {k.value: k for k in (*perturb_mod.KindFamily, *perturb_mod.PerturbKind)}


def _cmd_augment(args, files) -> None:
    split = corpus_mod.load_corpus(args.split)
    records = perturb_mod.read_records(args.records)
    plan = augment_mod.AugmentPlan(ratio_p=args.p, kind=_PLAN_KINDS[args.kind], seed=args.seed)
    augmented = augment_mod.augment_split(split, records, plan)
    corpus_mod.save_corpus(augmented, files["--out"])
    print(f"augmented {len(augmented)} samples at p={args.p} -> {files['--out']}")


# The perturbation kinds `matrix` runs for each family, in record order.
_MATRIX_KINDS = {
    perturb_mod.KindFamily.SUBSTITUTION: (perturb_mod.PerturbKind.SUBST_CONSTRAINED,),
    perturb_mod.KindFamily.OMISSION: (
        perturb_mod.PerturbKind.OMIT_ACTION,
        perturb_mod.PerturbKind.OMIT_STRUCTURE,
        perturb_mod.PerturbKind.OMIT_NAME,
    ),
}


def _families(text: str) -> list[perturb_mod.KindFamily]:
    families = [perturb_mod.KindFamily(part.strip()) for part in text.split(",")]
    if len(set(families)) < len(families):
        raise ValueError(f"a family is listed twice in {text!r}")
    return families


def _augment_ratios(text: str) -> list[float]:
    family = perturb_mod.KindFamily.SUBSTITUTION  # AugmentPlan checks each ratio
    ratios = [augment_mod.AugmentPlan(p, family).ratio_p for p in _parse_floats(text)]
    if not ratios:
        raise ValueError("expected at least one ratio")
    if len({augment_mod.ratio_label(p) for p in ratios}) < len(ratios):
        raise ValueError(f"two ratios in {text!r} share a cell id, which names p in whole percents")
    return ratios


def _true_or_false(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


# An option's or a matrix config key's role: what main's path check does with
# its value. An input file may not be an output; an output file, and the
# files a command derives from an output file or directory, may not be an
# input or another output.
INPUT, OUTPUT, OUTPUT_DIR, PARAMETER = "input file", "output file", "output directory", "parameter"

_REQUIRED = object()

# Every key `matrix` reads from its config file: how its value is parsed, the
# value it takes when the key is absent, and its role. Any other key is an
# error, and so is a required key that is absent or empty. A None or empty
# path reads the shipped file; a None subst.k takes the kind's default.
_MATRIX_KEYS = {
    "corpus": (str, _REQUIRED, INPUT),
    "out_dir": (str, _REQUIRED, OUTPUT_DIR),
    "seed": (int, _REQUIRED, PARAMETER),
    "vectors": (str, _REQUIRED, INPUT),
    "split.ratios": (_split_ratios, _DEFAULT_SPLIT, PARAMETER),
    "stopwords": (str, None, INPUT),
    "registers": (str, None, INPUT),
    "comparison": (str, None, INPUT),
    "vocab.threshold": (vocab_mod.check_threshold, vocab_mod.DEFAULT_RATIO_THRESHOLD, PARAMETER),
    "tag_lexicon": (str, None, INPUT),
    "kinds": (_families, list(perturb_mod.KindFamily), PARAMETER),
    "ratios": (_augment_ratios, [0.0, 0.25, 0.5, 1.0], PARAMETER),
    "subst.ratio": (float, perturb_mod.SubstitutionConfig.ratio, PARAMETER),
    "subst.k": (int, perturb_mod.SubstitutionConfig.k, PARAMETER),
    "subst.tau": (float, perturb_mod.SubstitutionConfig.tau, PARAMETER),
    "gate.threshold": (float, semgate_mod.GateConfig.threshold, PARAMETER),
    "apply_to_validation": (_true_or_false, True, PARAMETER),
}


def _matrix_settings(config: dict[str, str], where: str) -> dict:
    """Every ``_MATRIX_KEYS`` key, parsed from the config or defaulted."""
    unknown = sorted(set(config) - set(_MATRIX_KEYS))
    if unknown:
        raise ConfigError(f"{where}: unknown matrix config key(s): {', '.join(unknown)}")
    settings = {}
    for key, (parse, default, _) in _MATRIX_KEYS.items():
        value = config.get(key)
        if default is _REQUIRED and not value:
            raise ConfigError(f"matrix config missing {key!r}")
        settings[key] = default if value is None else _parsed(f"{where}: {key}", parse, value)
    return settings


def _cmd_matrix(args, files) -> tuple[int, dict[str, str]]:
    config = read_config(args.config)
    settings = _matrix_settings(config, args.config)
    seed = settings["seed"]
    out_dir = Path(args.out_dir or settings["out_dir"])
    spec = corpus_mod.SplitSpec(*settings["split.ratios"], seed=seed)
    cfg = perturb_mod.SubstitutionConfig(
        ratio=settings["subst.ratio"], k=settings["subst.k"], tau=settings["subst.tau"], seed=seed
    )
    gate_cfg = semgate_mod.GateConfig(threshold=settings["gate.threshold"])
    kinds = settings["kinds"]
    kind_list = [k for family in _MATRIX_KINDS if family in kinds for k in _MATRIX_KINDS[family]]

    corpus = corpus_mod.load_corpus(settings["corpus"])
    train, val, test = corpus_mod.split_corpus(corpus, spec)
    splits = {"train": train, "val": val, "test": test}

    # The vocabulary is mined over the whole corpus, test split included.
    vocabulary = _mine_vocabulary(
        corpus,
        settings["stopwords"],
        settings["registers"],
        settings["comparison"],
        settings["vocab.threshold"],
        settings["tag_lexicon"],
    )
    tagger = _load_tagger(vocabulary)
    store = load_vectors(settings["vectors"])
    encoder = MeanVectorEncoder(store)

    records_by_split: dict[str, list[perturb_mod.PerturbationRecord]] = {}
    for split_name, part in splits.items():
        # One gate pass per split, records in kind order: the kinds of a
        # sample share one encode of its original, and gate keeps the order.
        records = perturb_mod.perturb_split(
            part, kind_list, cfg, vocabulary, store, tagger, vocabulary.stopwords
        ).records
        passed, _ = semgate_mod.gate(semgate_mod.score_records(records, encoder), gate_cfg)
        records_by_split[split_name] = passed

    # build_matrix makes every augmentation before it writes a file, so an
    # error anywhere up to here leaves out_dir as it was.
    cells, digest = augment_mod.build_matrix(
        splits,
        records_by_split,
        kinds,
        settings["ratios"],
        seed,
        out_dir,
        apply_to_validation=settings["apply_to_validation"],
    )
    vocab_mod.save_vocabulary(vocabulary, out_dir / "vocab.json")
    for split_name, passed in records_by_split.items():
        perturb_mod.write_records(passed, out_dir / f"records_{split_name}.jsonl")
    print(f"matrix: {len(cells)} cells -> {out_dir} (digest {digest[:12]}...)")
    return seed, config


def _cmd_evaluate(args, files) -> None:
    preds = metrics_mod.load_predictions(args.preds)
    references = corpus_mod.load_corpus(args.refs)
    result: dict = {"model": args.model, "n": len(preds)}

    # Every label input is read and checked before the checker starts, and
    # nothing is written before every metric is computed.
    if args.labels:
        labels = metrics_mod.load_labels(args.labels)
    else:
        labels = metrics_mod.exact_match_labels(preds, references)
    result["sem"] = metrics_mod.semantic_accuracy(labels)
    result["sem_provenance"] = labels.provenance
    result["sem_cohorts"] = metrics_mod.cohort_breakdown(labels.entries, references)
    if args.labels_before:
        before = metrics_mod.load_labels(args.labels_before)
        rob = metrics_mod.robust_accuracy(metrics_mod.RobInput(before=before, after=labels))
        result["rob"] = rob if rob is not None else "undefined"

    syn_report = None
    if args.checker or args.auto_checker:
        if args.checker:
            scaffold = metrics_mod.GAS_SCAFFOLD if args.scaffold == "gas" else metrics_mod.NASM_SCAFFOLD
            checker = metrics_mod.CheckerConfig(
                template=args.checker, scaffold=scaffold, timeout=args.timeout, workers=args.workers
            )
        else:
            checker = metrics_mod.detect_checker(timeout=args.timeout, workers=args.workers)
            if checker is None:
                raise CheckerError("no x86 assembler found for --auto-checker")
        syn_report = metrics_mod.syntactic_accuracy(preds, checker)
        result["syn"] = syn_report.accuracy
        result["syn_cohorts"] = metrics_mod.cohort_breakdown(syn_report.verdicts, references)

    if syn_report is not None:
        write_jsonl(
            files["--out-dir (syn_verdicts.jsonl)"],
            (
                {"id": sid, "ok": ok, "diagnostic": syn_report.diagnostics.get(sid, "")}
                for sid, ok in sorted(syn_report.verdicts.items())
            ),
        )
    if not args.labels:
        metrics_mod.save_labels(labels, files["--out-dir (exact_match_labels.jsonl)"])
    write_json(files["--out-dir (metrics.json)"], result)
    print(pretty_json(result))


def _is_number(value, *also) -> bool:
    """Whether ``value`` is a JSON number (a bool is not one) or one of ``also``."""
    return value in also or (isinstance(value, (int, float)) and not isinstance(value, bool))


def _is_cohorts(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(c, dict) and all(_is_number(v, None) for v in c.values())
        for c in value.values()
    )


# The metrics.json keys `report` reads: a test that a present value must
# pass, and what that test asks for.
_REPORT_KEYS = {
    "model": (lambda v: isinstance(v, str), "a string"),
    "kind": (lambda v: isinstance(v, str), "a string"),
    "train_p": (_is_number, "a number"),
    "test_p": (_is_number, "a number"),
    "syn": (lambda v: _is_number(v, None), "a number or null"),
    "sem": (lambda v: _is_number(v, None), "a number or null"),
    "rob": (lambda v: _is_number(v, None, "undefined"), 'a number, null or "undefined"'),
    "sem_cohorts": (_is_cohorts, "an object of objects of numbers or nulls"),
}


def _cmd_report(args, files) -> None:
    cells = []
    for path in args.metrics:
        payload = read_json_object(path)
        for key, (valid, what) in _REPORT_KEYS.items():
            if key in payload and not valid(payload[key]):
                raise DataError(f"{path}: {key!r} must be {what}")
        cells.append(payload)
    csv_path, summary_path = files["--out-dir (metrics.csv)"], files["--out-dir (summary.txt)"]
    metrics_mod.report(cells, csv_path, summary_path)
    print(f"report -> {csv_path}, {summary_path}")


def _cmd_stats(args, files) -> None:
    corpus = corpus_mod.load_corpus(args.corpus)
    stoplist = load_stopwords(args.stopwords)
    table = vocab_mod.count_frequencies((s.intent for s in corpus), stoplist)
    result: dict = {
        "samples": len(corpus),
        "unique_tokens": table.unique_count,
        "multi_line": sum(1 for s in corpus if s.multi_line),
    }
    if args.vocab:
        vocabulary = vocab_mod.load_vocabulary(args.vocab)
        tagger = _load_tagger(vocabulary)
        rates = metrics_mod.omission_rate_stats(corpus, vocabulary, tagger)
        result["omission_rates"] = {kind.category: rate for kind, rate in rates.items()}
    if args.against:
        other = corpus_mod.load_corpus(args.against)
        result["jsd"] = metrics_mod.jsd(corpus, other, stoplist)
    if args.variants:
        variants = [corpus] + [corpus_mod.load_corpus(p) for p in args.variants]
        result["vocab_growth"] = augment_mod.vocab_growth(variants, stoplist)
    print(pretty_json(result))
    if files:
        write_json(files["--out"], result)


class Option(NamedTuple):
    flag: str
    role: str
    kwargs: dict  # add_argument's keyword arguments


def _opt(flag: str, role: str, **kwargs) -> Option:
    return Option(flag, role, kwargs)


class Command(NamedTuple):
    func: Callable  # the handler: (args, files) -> None; matrix returns (seed, config)
    help: str
    options: tuple[Option, ...]
    writes: Callable  # args -> the files the handler writes, by label


# Every command takes it first: where the run manifest goes.
_MANIFEST = _opt("--manifest", OUTPUT)

COMMANDS = {
    "ingest": Command(_cmd_ingest, "validate and normalize a dataset", (
        _opt("--in", INPUT, dest="infile", required=True),
        _opt("--out", OUTPUT, required=True),
    ), _writes_out),
    "split": Command(_cmd_split, "seeded train/val/test split", (
        _opt("--in", INPUT, dest="infile", required=True),
        _opt("--out-dir", OUTPUT_DIR, required=True),
        _opt("--ratios", PARAMETER, default=",".join(map(str, _DEFAULT_SPLIT))),
        _opt("--seed", PARAMETER, type=int, required=True),
    ), _writes_split),
    "build-vocab": Command(_cmd_build_vocab, "mine the protected vocabulary", (
        _opt("--corpus", INPUT, required=True),
        _opt("--comparison", INPUT, help="plain-text comparison corpus (default: shipped)"),
        _opt("--threshold", PARAMETER, type=float, default=vocab_mod.DEFAULT_RATIO_THRESHOLD),
        _opt("--stopwords", INPUT),
        _opt("--registers", INPUT),
        _opt("--tag-lexicon", INPUT, dest="tag_lexicon"),
        _opt("--out", OUTPUT, required=True),
    ), _writes_out_stem),
    "perturb": Command(_cmd_perturb, "generate perturbation records", (
        _opt("--kind", PARAMETER, required=True,
             choices=[k.value for k in perturb_mod.PerturbKind]),
        _opt("--in", INPUT, dest="infile", required=True),
        _opt("--vocab", INPUT, required=True),
        _opt("--vectors", INPUT, help="word-vector file (required for substitution kinds)"),
        _opt("--out", OUTPUT, required=True),
        _opt("--seed", PARAMETER, type=int, required=True),
        _opt("--ratio", PARAMETER, type=float, default=perturb_mod.SubstitutionConfig.ratio),
        _opt("--k", PARAMETER, type=int),
        _opt("--tau", PARAMETER, type=float, default=perturb_mod.SubstitutionConfig.tau),
        _opt("--tags", INPUT, help="external tag override file (JSONL id/tags)"),
    ), _writes_perturb),
    "gate": Command(_cmd_gate, "score and filter records by similarity", (
        _opt("--records", INPUT, required=True),
        _opt("--vectors", INPUT),
        _opt("--embeddings", INPUT, help="precomputed sentence-embedding JSONL"),
        _opt("--threshold", PARAMETER, type=float, default=semgate_mod.DEFAULT_THRESHOLD),
        _opt("--sweep", PARAMETER, help="comma-separated thresholds for the sweep CSV"),
        _opt("--out-passed", OUTPUT),
        _opt("--out-failed", OUTPUT),
        _opt("--sweep-out", OUTPUT),
    ), _writes_gate),
    "augment": Command(_cmd_augment, "size-preserving training-set augmentation", (
        _opt("--split", INPUT, required=True),
        _opt("--records", INPUT, required=True, help="gate-passing records"),
        _opt("--p", PARAMETER, type=float, required=True),
        _opt("--kind", PARAMETER, required=True, choices=_PLAN_KINDS, help="kind or family"),
        _opt("--seed", PARAMETER, type=int, required=True),
        _opt("--out", OUTPUT, required=True),
    ), _writes_out),
    "matrix": Command(_cmd_matrix, "materialize the full experiment matrix", (
        _opt("--config", INPUT, required=True),
        _opt("--out-dir", OUTPUT_DIR),
        _opt("--workers", PARAMETER, type=int, default=1,
             help="ignored; accepted so older command lines still run"),
    ), _writes_matrix),
    "evaluate": Command(_cmd_evaluate, "compute SYN/SEM/ROB for predictions", (
        _opt("--preds", INPUT, required=True),
        _opt("--refs", INPUT, required=True),
        _opt("--model", PARAMETER, default=""),
        _opt("--labels", INPUT, help="semantic labels (JSONL id/correct)"),
        _opt("--labels-before", INPUT, dest="labels_before", help="baseline labels for ROB"),
        _opt("--checker", PARAMETER,
             help='checker template, e.g. "nasm -f elf32 {file} -o /dev/null"'),
        _opt("--auto-checker", PARAMETER, action="store_true",
             help="detect an installed assembler"),
        _opt("--scaffold", PARAMETER, choices=("nasm", "gas"), default="nasm"),
        _opt("--timeout", PARAMETER, type=float, default=metrics_mod.DEFAULT_CHECK_TIMEOUT),
        _opt("--workers", PARAMETER, type=int, default=metrics_mod.CheckerConfig.workers),
        _opt("--out-dir", OUTPUT_DIR, required=True),
    ), _writes_evaluate),
    "report": Command(_cmd_report, "aggregate metrics files into CSV + summary", (
        _opt("--metrics", INPUT, nargs="+", required=True),
        _opt("--out-dir", OUTPUT_DIR, required=True),
    ), _writes_report),
    "stats": Command(_cmd_stats, "corpus statistics (tokens, omission rates, JSD)", (
        _opt("--corpus", INPUT, required=True),
        _opt("--vocab", INPUT),
        _opt("--against", INPUT, help="second corpus for JSD"),
        _opt("--variants", INPUT, nargs="*", help="corpora for vocabulary-growth counts"),
        _opt("--stopwords", INPUT),
        _opt("--out", OUTPUT),
    ), _writes_out_stem),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every command, or, given a name in ``COMMANDS``, one
    that parses that command's arguments as the full parser does."""
    parser = _Parser(prog="perturbe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"perturbe {perturbe.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command else COMMANDS:
        _, help, options, _ = COMMANDS[name]
        p = sub.add_parser(name, help=help)
        for flag, _, kwargs in (_MANIFEST, *options):
            p.add_argument(flag, **kwargs)
    return parser


def _dest(option: Option) -> str:
    """The attribute argparse stores a long option under."""
    return option.kwargs.get("dest", option.flag[2:].replace("-", "_"))


def _planned_files(command: Command, args) -> dict[str, Path]:
    """The files ``command`` would write for ``args``, by label; the run
    manifest goes to --manifest when it is given."""
    files = command.writes(args)
    if args.manifest and "--manifest" in files:
        files["--manifest"] = Path(args.manifest)
    return files


def _matrix_inputs(args) -> list[tuple[str, str]]:
    """The input files a matrix config names, by key. Raise ConfigError when
    one lies in the run's cells directory, which matrix writes."""
    settings = _matrix_settings(read_config(args.config), args.config)
    cells = Path(args.out_dir or settings["out_dir"]) / "cells"
    inputs = [(key, settings[key]) for key, (*_, role) in _MATRIX_KEYS.items()
              if role == INPUT and settings[key]]
    for key, path in inputs:
        if Path(path).resolve().is_relative_to(cells.resolve()):
            raise ConfigError(f"{key} names a file in {cells}, which matrix writes: {path}")
    return inputs


def _refuse_overwrites(command: Command, args, files: dict[str, Path]) -> None:
    """Raise ConfigError, naming both options or config keys, when a file the
    command would write resolves to one of its inputs or to another file it
    would write."""
    owners: dict[Path, str] = {}
    for option in command.options:
        if option.role == INPUT:
            value = getattr(args, _dest(option)) or []
            for path in value if isinstance(value, list) else [value]:  # nargs gives a list
                owners.setdefault(Path(path).resolve(), option.flag)
    for label, path in files.items():
        if owners.setdefault(path.resolve(), label) != label:
            raise ConfigError(f"{owners[path.resolve()]} and {label} name one file: {path}")
    for key, path in _matrix_inputs(args) if args.command == "matrix" else []:
        if (label := owners.setdefault(Path(path).resolve(), key)) in files:
            raise ConfigError(f"{key} and {label} name one file: {path}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A command's own parser: the full one only for top-level help, --version,
    # or a missing or unknown command.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        command = COMMANDS[args.command]
        files = _planned_files(command, args)
        _refuse_overwrites(command, args, files)
        # Only matrix returns its seed and config: they are its config file's.
        seed, config = command.func(args, files) or (getattr(args, "seed", None), vars(args))
        if "--manifest" in files:
            _write_run_manifest(args.command, files, seed, config)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input path that names no file, or a directory
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"data error: {exc.filename}: {reason}", file=sys.stderr)
        return 2
    except CheckerError as exc:
        print(f"checker error: {exc}", file=sys.stderr)
        return 3
    except PerturbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
