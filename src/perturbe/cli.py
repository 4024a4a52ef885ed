"""Command-line surface for the perturbation pipeline.

Every run requires an explicit seed and writes a run manifest (config
digest, seed, output digests) so any two runs with the same config and seed
produce byte-identical output trees.

``matrix`` runs the subcommands' stage functions (``mine_vocabulary``,
``perturb_split``, ``score_records`` and ``gate``), so chaining ``split``,
``build-vocab`` on the full corpus, ``perturb`` for each kind in the order
subst-constrained, omit-action, omit-structure, omit-name, and ``gate``
reproduces its vocabulary and records byte for byte. ``augment`` of a split
with the config's seed, a family and a p > 0 writes every cell file of those.

A corpus path ending in ``.csv`` (any case) is CSV, any other JSONL. Every
tagger takes its register list from the vocabulary, which records it.

Exit codes: 0 success, 1 invalid configuration, 2 data error (including
any missing input file), 3 external checker failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import perturbe
from perturbe import augment as augment_mod
from perturbe import corpus as corpus_mod
from perturbe import metrics as metrics_mod
from perturbe import perturb as perturb_mod
from perturbe import semgate as semgate_mod
from perturbe import vocab as vocab_mod
from perturbe._util import canonical_json, read_json_object, sha256_file, sha256_text, write_jsonl
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
    """Flat key = value lines. '#' starts a comment at the start of a line or
    after whitespace, so a value such as ``runs#3/corpus.jsonl`` keeps its '#'."""
    config: dict[str, str] = {}
    text = Path(path).read_text("utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        config[key.strip()] = value.strip()
    return config


def _write_run_manifest(
    args, default: Path, seed: int | None, outputs: list[Path], config: dict | None = None
) -> None:
    """Write the run manifest of ``args.command`` to ``--manifest``, or to
    ``default`` when that option is unset. ``config`` defaults to the parsed
    arguments."""
    manifest_path = Path(args.manifest) if args.manifest else default
    if config is None:  # the handler function's repr is a memory address
        config = {k: v for k, v in vars(args).items() if k != "func"}
    base = manifest_path.parent
    manifest = {
        "command": args.command,
        "seed": seed,
        "config_digest": sha256_text(canonical_json({k: str(v) for k, v in config.items()})),
        "outputs": {
            str(p.relative_to(base) if p.is_relative_to(base) else p.name): sha256_file(p)
            for p in outputs
        },
    }
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")


def _load_tagger(
    lexicon_path: str | None, registers: set[str], tags: str | None = None
) -> LexiconTagger | FileTagger:
    """The tagger of perturb, matrix and stats: the tag lexicon at ``lexicon_path``
    (shipped when unset) with a vocabulary's registers, under the ``tags`` overrides."""
    lexicon = LexiconTagger(load_tag_lexicon(lexicon_path), registers)
    return FileTagger(tags, fallback=lexicon) if tags else lexicon


def _cmd_ingest(args) -> int:
    corpus = corpus_mod.load_corpus(args.infile)
    out = Path(args.out)
    corpus_mod.save_corpus(corpus, out)
    _write_run_manifest(args, out.with_suffix(out.suffix + ".manifest.json"), None, [out])
    print(f"ingested {len(corpus)} samples -> {out}")
    return 0


def _cmd_split(args) -> int:
    spec = corpus_mod.SplitSpec(*_parsed("--ratios", _split_ratios, args.ratios), seed=args.seed)
    corpus = corpus_mod.load_corpus(args.infile)
    train, val, test = corpus_mod.split_corpus(corpus, spec)
    out_dir = Path(args.out_dir)
    outputs = []
    for name, part in (("train", train), ("val", val), ("test", test)):
        target = out_dir / f"{name}.jsonl"
        corpus_mod.save_corpus(part, target)
        outputs.append(target)
    _write_run_manifest(args, out_dir / "run_manifest.json", args.seed, outputs)
    print(f"split {len(corpus)} -> train {len(train)}, val {len(val)}, test {len(test)}")
    return 0


def _cmd_build_vocab(args) -> int:
    stoplist = load_stopwords(args.stopwords)
    corpus = corpus_mod.load_corpus(args.corpus)
    vocabulary = vocab_mod.mine_vocabulary(
        (s.intent for s in corpus),
        stoplist,
        vocab_mod.load_registers(args.registers),
        comparison=args.comparison,
        threshold=args.threshold,
    )
    out = Path(args.out)
    vocab_mod.save_vocabulary(vocabulary, out)
    _write_run_manifest(args, out.with_suffix(".manifest.json"), None, [out])
    print(
        f"vocabulary: {len(vocabulary.structure_words)} structure words, "
        f"{len(vocabulary.name_words)} name words -> {out}"
    )
    return 0


def _cmd_perturb(args) -> int:
    kind = perturb_mod.PerturbKind(args.kind)
    corpus = corpus_mod.load_corpus(args.infile)
    vocabulary = vocab_mod.load_vocabulary(args.vocab)
    store = load_vectors(args.vectors) if args.vectors else None
    cfg = perturb_mod.SubstitutionConfig(ratio=args.ratio, k=args.k, tau=args.tau, seed=args.seed)
    stoplist = load_stopwords(args.stopwords)
    tagger = _load_tagger(args.tag_lexicon, vocabulary.registers, args.tags)
    result = perturb_mod.perturb_split(corpus, [kind], cfg, vocabulary, store, tagger, stoplist)
    out = Path(args.out)
    perturb_mod.write_records(result.records, out)
    skips_path = out.with_suffix(out.suffix + ".skips.jsonl")
    write_jsonl(
        skips_path,
        ({"id": s.sample_id, "kind": s.kind.value, "reason": s.reason} for s in result.skipped),
    )
    manifest = out.with_suffix(out.suffix + ".manifest.json")
    _write_run_manifest(args, manifest, args.seed, [out, skips_path])
    print(f"perturbed {len(result.records)} samples ({len(result.skipped)} skipped) -> {out}")
    return 0


def _cmd_gate(args) -> int:
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
    records_path = Path(args.records)
    out_passed = Path(args.out_passed) if args.out_passed else records_path.with_suffix(".passed.jsonl")
    out_failed = Path(args.out_failed) if args.out_failed else records_path.with_suffix(".failed.jsonl")
    perturb_mod.write_records(passed, out_passed)
    perturb_mod.write_records(failed, out_failed)
    outputs = [out_passed, out_failed]
    if args.sweep:
        thresholds = _parsed("--sweep", _parse_floats, args.sweep)
        sweep_path = Path(args.sweep_out) if args.sweep_out else records_path.with_suffix(".sweep.csv")
        semgate_mod.write_sweep_csv(scored, thresholds, sweep_path)
        outputs.append(sweep_path)
    _write_run_manifest(args, records_path.with_suffix(".gate.manifest.json"), None, outputs)
    print(f"gate at {args.threshold}: {len(passed)} passed, {len(failed)} failed")
    return 0


# What `augment --kind` names: a family, or a single perturbation kind.
_PLAN_KINDS = {k.value: k for k in (*augment_mod.KindFamily, *perturb_mod.PerturbKind)}


def _cmd_augment(args) -> int:
    split = corpus_mod.load_corpus(args.split)
    records = perturb_mod.read_records(args.records)
    plan = augment_mod.AugmentPlan(ratio_p=args.p, kind=_PLAN_KINDS[args.kind], seed=args.seed)
    augmented = augment_mod.augment_split(split, records, plan)
    out = Path(args.out)
    corpus_mod.save_corpus(augmented, out)
    _write_run_manifest(args, out.with_suffix(out.suffix + ".manifest.json"), args.seed, [out])
    print(f"augmented {len(augmented)} samples at p={args.p} -> {out}")
    return 0


# The perturbation kinds `matrix` runs for each family, in record order.
_MATRIX_KINDS = {
    augment_mod.KindFamily.SUBSTITUTION: (perturb_mod.PerturbKind.SUBST_CONSTRAINED,),
    augment_mod.KindFamily.OMISSION: (
        perturb_mod.PerturbKind.OMIT_ACTION,
        perturb_mod.PerturbKind.OMIT_STRUCTURE,
        perturb_mod.PerturbKind.OMIT_NAME,
    ),
}


def _families(text: str) -> list[augment_mod.KindFamily]:
    families = [augment_mod.KindFamily(part.strip()) for part in text.split(",")]
    if len(set(families)) < len(families):
        raise ValueError(f"a family is listed twice in {text!r}")
    return families


def _augment_ratios(text: str) -> list[float]:
    family = augment_mod.KindFamily.SUBSTITUTION  # AugmentPlan checks each ratio
    ratios = [augment_mod.AugmentPlan(p, family).ratio_p for p in _parse_floats(text)]
    if not ratios:
        raise ValueError("expected at least one ratio")
    if len({round(p * 100) for p in ratios}) < len(set(ratios)):
        raise ValueError(f"two ratios in {text!r} share a cell id, which names p in whole percents")
    return ratios


def _true_or_false(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


_REQUIRED = object()

# Every key `matrix` reads from its config file: how its value is parsed and
# the value it takes when the key is absent. Any other key is an error. A
# None path reads the shipped file; a None subst.k takes the kind's default.
_MATRIX_KEYS = {
    "corpus": (str, _REQUIRED),
    "out_dir": (str, _REQUIRED),
    "seed": (int, _REQUIRED),
    "vectors": (str, _REQUIRED),
    "split.ratios": (_split_ratios, _DEFAULT_SPLIT),
    "stopwords": (str, None),
    "registers": (str, None),
    "comparison": (str, None),
    "vocab.threshold": (vocab_mod.check_threshold, vocab_mod.DEFAULT_RATIO_THRESHOLD),
    "tag_lexicon": (str, None),
    "kinds": (_families, list(augment_mod.KindFamily)),
    "ratios": (_augment_ratios, [0.0, 0.25, 0.5, 1.0]),
    "subst.ratio": (float, perturb_mod.SubstitutionConfig.ratio),
    "subst.k": (int, perturb_mod.SubstitutionConfig.k),
    "subst.tau": (float, perturb_mod.SubstitutionConfig.tau),
    "gate.threshold": (float, semgate_mod.GateConfig.threshold),
    "apply_to_validation": (_true_or_false, True),
}


def _matrix_settings(config: dict[str, str], where: str) -> dict:
    """Every ``_MATRIX_KEYS`` key, parsed from the config or defaulted."""
    unknown = sorted(set(config) - set(_MATRIX_KEYS))
    if unknown:
        raise ConfigError(f"{where}: unknown matrix config key(s): {', '.join(unknown)}")
    settings = {}
    for key, (parse, default) in _MATRIX_KEYS.items():
        if key in config:
            settings[key] = _parsed(f"{where}: {key}", parse, config[key])
        elif default is _REQUIRED:
            raise ConfigError(f"matrix config missing {key!r}")
        else:
            settings[key] = default
    return settings


def _cmd_matrix(args) -> int:
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

    # The vocabulary is mined over the whole corpus, test split included. Every
    # input is read before the first output is written.
    stoplist = load_stopwords(settings["stopwords"])
    vocabulary = vocab_mod.mine_vocabulary(
        (s.intent for s in corpus),
        stoplist,
        vocab_mod.load_registers(settings["registers"]),
        comparison=settings["comparison"],
        threshold=settings["vocab.threshold"],
    )
    tagger = _load_tagger(settings["tag_lexicon"], vocabulary.registers)
    vocab_mod.save_vocabulary(vocabulary, out_dir / "vocab.json")

    store = load_vectors(settings["vectors"])
    encoder = MeanVectorEncoder(store)

    records_by_split: dict[str, list[perturb_mod.PerturbationRecord]] = {}
    for split_name, part in splits.items():
        # One gate pass per split, records in kind order: the kinds of a
        # sample share one encode of its original, and gate keeps the order.
        records = perturb_mod.perturb_split(
            part, kind_list, cfg, vocabulary, store, tagger, stoplist
        ).records
        passed, _ = semgate_mod.gate(semgate_mod.score_records(records, encoder), gate_cfg)
        records_by_split[split_name] = passed
        perturb_mod.write_records(passed, out_dir / f"records_{split_name}.jsonl")

    cells, digest = augment_mod.build_matrix(
        splits,
        records_by_split,
        kinds,
        settings["ratios"],
        seed,
        out_dir,
        apply_to_validation=settings["apply_to_validation"],
    )
    outputs = [out_dir / "manifest.json", out_dir / "vocab.json"]
    outputs.extend(out_dir / f"records_{name}.jsonl" for name in splits)
    _write_run_manifest(args, out_dir / "run_manifest.json", seed, outputs, config)
    print(f"matrix: {len(cells)} cells -> {out_dir} (digest {digest[:12]}...)")
    return 0


def _cmd_evaluate(args) -> int:
    preds = metrics_mod.load_predictions(args.preds)
    references = corpus_mod.load_corpus(args.refs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result: dict = {"model": args.model, "n": len(preds)}
    outputs: list[Path] = []

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
        verdicts_path = out_dir / "syn_verdicts.jsonl"
        outputs.append(verdicts_path)
        write_jsonl(
            verdicts_path,
            (
                {"id": sid, "ok": ok, "diagnostic": syn_report.diagnostics.get(sid, "")}
                for sid, ok in sorted(syn_report.verdicts.items())
            ),
        )

    if args.labels:
        labels = metrics_mod.load_labels(args.labels)
    else:
        labels = metrics_mod.exact_match_labels(preds, references)
        labels_path = out_dir / "exact_match_labels.jsonl"
        outputs.append(labels_path)
        metrics_mod.save_labels(labels, labels_path)
    result["sem"] = metrics_mod.semantic_accuracy(labels)
    result["sem_provenance"] = labels.provenance
    result["sem_cohorts"] = metrics_mod.cohort_breakdown(labels.entries, references)

    if args.labels_before:
        before = metrics_mod.load_labels(args.labels_before)
        rob = metrics_mod.robust_accuracy(metrics_mod.RobInput(before=before, after=labels))
        result["rob"] = rob if rob is not None else "undefined"

    metrics_path = out_dir / "metrics.json"
    metrics_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", "utf-8")
    _write_run_manifest(args, out_dir / "run_manifest.json", None, [metrics_path, *outputs])
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


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


def _cmd_report(args) -> int:
    cells = []
    for path in args.metrics:
        payload = read_json_object(path)
        for key, (valid, what) in _REPORT_KEYS.items():
            if key in payload and not valid(payload[key]):
                raise DataError(f"{path}: {key!r} must be {what}")
        rob = payload.get("rob")
        cells.append(
            metrics_mod.CellMetrics(
                model_name=payload.get("model", ""),
                kind=payload.get("kind", "-"),
                train_p=float(payload.get("train_p", 0.0)),
                test_p=float(payload.get("test_p", 0.0)),
                syn=payload.get("syn"),
                sem=payload.get("sem"),
                rob=None if rob in (None, "undefined") else float(rob),
                cohorts=payload.get("sem_cohorts", {}),
            )
        )
    csv_path, summary_path = metrics_mod.report(cells, args.out_dir)
    outputs = [csv_path, summary_path]
    _write_run_manifest(args, Path(args.out_dir) / "run_manifest.json", None, outputs)
    print(f"report -> {csv_path}, {summary_path}")
    return 0


def _cmd_stats(args) -> int:
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
        tagger = _load_tagger(None, vocabulary.registers)
        rates = metrics_mod.omission_rate_stats(corpus, vocabulary, tagger)
        result["omission_rates"] = {cat.value: rate for cat, rate in rates.items()}
    if args.against:
        other = corpus_mod.load_corpus(args.against)
        result["jsd"] = metrics_mod.jsd(corpus, other, stoplist)
    if args.variants:
        variants = [corpus] + [corpus_mod.load_corpus(p) for p in args.variants]
        result["vocab_growth"] = augment_mod.vocab_growth(variants, stoplist)
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", "utf-8")
        _write_run_manifest(args, out.with_suffix(".manifest.json"), None, [out])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="perturbe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"perturbe {perturbe.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--manifest")  # where the run manifest goes
        p.set_defaults(func=func)
        return p

    p = command("ingest", _cmd_ingest, "validate and normalize a dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = command("split", _cmd_split, "seeded train/val/test split")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ratios", default=",".join(map(str, _DEFAULT_SPLIT)))
    p.add_argument("--seed", type=int, required=True)

    p = command("build-vocab", _cmd_build_vocab, "mine the protected vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--comparison", help="plain-text comparison corpus (default: shipped)")
    p.add_argument("--threshold", type=float, default=vocab_mod.DEFAULT_RATIO_THRESHOLD)
    p.add_argument("--stopwords")
    p.add_argument("--registers")
    p.add_argument("--out", required=True)

    p = command("perturb", _cmd_perturb, "generate perturbation records")
    p.add_argument("--kind", required=True, choices=[k.value for k in perturb_mod.PerturbKind])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--vectors", help="word-vector file (required for substitution kinds)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ratio", type=float, default=perturb_mod.SubstitutionConfig.ratio)
    p.add_argument("--k", type=int)
    p.add_argument("--tau", type=float, default=perturb_mod.SubstitutionConfig.tau)
    p.add_argument("--stopwords")
    p.add_argument("--tag-lexicon", dest="tag_lexicon")
    p.add_argument("--tags", help="external tag override file (JSONL id/tags)")

    p = command("gate", _cmd_gate, "score and filter records by similarity")
    p.add_argument("--records", required=True)
    p.add_argument("--vectors")
    p.add_argument("--embeddings", help="precomputed sentence-embedding JSONL")
    p.add_argument("--threshold", type=float, default=semgate_mod.DEFAULT_THRESHOLD)
    p.add_argument("--sweep", help="comma-separated thresholds for the sweep CSV")
    p.add_argument("--out-passed")
    p.add_argument("--out-failed")
    p.add_argument("--sweep-out")

    p = command("augment", _cmd_augment, "size-preserving training-set augmentation")
    p.add_argument("--split", required=True)
    p.add_argument("--records", required=True, help="gate-passing records")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--kind", required=True, choices=_PLAN_KINDS, help="kind or family")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = command("matrix", _cmd_matrix, "materialize the full experiment matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.add_argument(
        "--workers", type=int, default=1, help="ignored; accepted so older command lines still run"
    )

    p = command("evaluate", _cmd_evaluate, "compute SYN/SEM/ROB for predictions")
    p.add_argument("--preds", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--model", default="")
    p.add_argument("--labels", help="semantic labels (JSONL id/correct)")
    p.add_argument("--labels-before", dest="labels_before", help="baseline labels for ROB")
    p.add_argument("--checker", help='checker template, e.g. "nasm -f elf32 {file} -o /dev/null"')
    p.add_argument("--auto-checker", action="store_true", help="detect an installed assembler")
    p.add_argument("--scaffold", choices=("nasm", "gas"), default="nasm")
    p.add_argument("--timeout", type=float, default=metrics_mod.DEFAULT_CHECK_TIMEOUT)
    p.add_argument("--workers", type=int, default=metrics_mod.CheckerConfig.workers)
    p.add_argument("--out-dir", required=True)

    p = command("report", _cmd_report, "aggregate metrics files into CSV + summary")
    p.add_argument("--metrics", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)

    p = command("stats", _cmd_stats, "corpus statistics (tokens, omission rates, JSD)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab")
    p.add_argument("--against", help="second corpus for JSD")
    p.add_argument("--variants", nargs="*", help="corpora for vocabulary-growth counts")
    p.add_argument("--stopwords")
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
