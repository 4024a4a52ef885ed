import math
import os
import random
import shutil
import stat
import subprocess

import numpy as np
import pytest

from perturbe.corpus import Corpus, Sample
from perturbe.errors import CheckerError, ConfigError, DataError
from perturbe import metrics
from perturbe.metrics import (
    GAS_SCAFFOLD,
    NASM_SCAFFOLD,
    CheckerConfig,
    CellMetrics,
    RobInput,
    SemLabelSet,
    cohort_breakdown,
    detect_checker,
    exact_match_labels,
    jsd,
    jsd_from_counts,
    omission_rate_stats,
    report,
    robust_accuracy,
    semantic_accuracy,
    snippet_to_source,
    syntactic_accuracy,
)
from perturbe.perturb import OmissionCategory

import helpers

HAVE_ASSEMBLER = detect_checker() is not None
GNU_AS = shutil.which("as")


def brute_force_rob(before, after):
    """Definitional enumeration: walk every id, count survivors."""
    numerator = 0
    denominator = 0
    for sample_id in before:
        if before[sample_id]:
            denominator += 1
            if after[sample_id]:
                numerator += 1
    if denominator == 0:
        return None
    return numerator / denominator


def brute_force_jsd(p, q):
    """KL-to-midpoint with base-2 logs, straight from the definition."""
    m = [(pi + qi) / 2 for pi, qi in zip(p, q)]

    def kl(a, b):
        total = 0.0
        for ai, bi in zip(a, b):
            if ai > 0:
                total += ai * math.log2(ai / bi)
        return total

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


class TestRobustAccuracy:
    def test_hand_enumerated(self):
        before = SemLabelSet({"a": True, "b": True, "c": False, "d": True})
        after = SemLabelSet({"a": True, "b": False, "c": True, "d": True})
        rob = robust_accuracy(RobInput(before=before, after=after))
        assert rob == pytest.approx(2 / 3)

    def test_identity_after(self):
        labels = {"a": True, "b": False, "c": True}
        rob = robust_accuracy(RobInput(SemLabelSet(labels), SemLabelSet(dict(labels))))
        assert rob == 1.0

    def test_empty_denominator_undefined(self):
        before = SemLabelSet({"a": False, "b": False})
        after = SemLabelSet({"a": True, "b": True})
        assert robust_accuracy(RobInput(before, after)) is None

    def test_mismatched_universe_rejected(self):
        with pytest.raises(DataError):
            RobInput(SemLabelSet({"a": True}), SemLabelSet({"b": True}))

    def test_oracle_equivalence_random(self):
        rng = random.Random(12345)
        for _ in range(1000):
            n = rng.randint(1, 50)
            ids = [f"s{i}" for i in range(n)]
            before = {i: rng.random() < 0.5 for i in ids}
            after = {i: rng.random() < 0.5 for i in ids}
            expected = brute_force_rob(before, after)
            got = robust_accuracy(RobInput(SemLabelSet(before), SemLabelSet(after)))
            assert got == expected

    def test_equals_sem_restricted_to_before_correct(self):
        rng = random.Random(9)
        for _ in range(100):
            ids = [f"s{i}" for i in range(rng.randint(2, 40))]
            before = {i: rng.random() < 0.6 for i in ids}
            after = {i: rng.random() < 0.6 for i in ids}
            if not any(before.values()):
                continue
            restricted = SemLabelSet({i: after[i] for i in ids if before[i]})
            rob = robust_accuracy(RobInput(SemLabelSet(before), SemLabelSet(after)))
            assert rob == semantic_accuracy(restricted)


class TestSemanticAccuracy:
    def test_half(self):
        assert semantic_accuracy(SemLabelSet({"a": True, "b": True, "c": False, "d": False})) == 0.5

    def test_all_true(self):
        assert semantic_accuracy(SemLabelSet({"a": True, "b": True})) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            semantic_accuracy(SemLabelSet({}))

    def test_reordering_invariant(self):
        entries = {f"s{i}": i % 3 == 0 for i in range(30)}
        shuffled = dict(sorted(entries.items(), key=lambda kv: hash(kv[0])))
        assert semantic_accuracy(SemLabelSet(entries)) == semantic_accuracy(SemLabelSet(shuffled))


class TestExactMatch:
    def test_identical(self):
        refs = Corpus([Sample("a", "two pushes", "push eax \\n push edx")])
        preds = {"a": "push eax \\n push edx"}
        labels = exact_match_labels(preds, refs)
        assert labels.entries == {"a": True}
        assert labels.provenance == "exact-match-proxy"

    def test_whitespace_normalized(self):
        refs = Corpus([Sample("a", "subtract", "sub bl, al")])
        preds = {"a": "sub  bl,   al"}
        assert exact_match_labels(preds, refs).entries == {"a": True}

    def test_equivalent_but_different_is_false(self):
        refs = Corpus([Sample("a", "zero eax", "xor eax, eax")])
        preds = {"a": "sub eax, eax"}  # equivalent, textually different
        assert exact_match_labels(preds, refs).entries == {"a": False}

    def test_missing_reference(self):
        refs = Corpus([Sample("a", "x", "y")])
        with pytest.raises(DataError):
            exact_match_labels({"zz": "y"}, refs)


class TestJsd:
    def test_identical_corpora_zero(self, demo_corpus, stopwords):
        assert jsd(demo_corpus, demo_corpus, stopwords) == 0.0

    def test_disjoint_exactly_one(self):
        a = Corpus([Sample("a", "alpha beta gamma", "x")])
        b = Corpus([Sample("b", "delta epsilon zeta", "x")])
        assert jsd(a, b, stoplist=set()) == 1.0

    def test_disjoint_uneven_counts_exactly_one(self):
        assert jsd_from_counts({"a": 1, "b": 1, "c": 1}, {"d": 5, "e": 2}) == 1.0

    def test_symmetry(self, demo_corpus, stopwords):
        half = Corpus(demo_corpus.samples[:60], name="h1")
        rest = Corpus(demo_corpus.samples[60:], name="h2")
        assert jsd(half, rest, stopwords) == pytest.approx(jsd(rest, half, stopwords), abs=1e-12)

    def test_bounds(self, demo_corpus, stopwords):
        half = Corpus(demo_corpus.samples[:60], name="h1")
        rest = Corpus(demo_corpus.samples[60:], name="h2")
        assert 0.0 <= jsd(half, rest, stopwords) <= 1.0

    def test_oracle_equivalence_random(self):
        rng = random.Random(777)
        for _ in range(1000):
            vocab_size = rng.randint(2, 30)
            words = [f"w{i}" for i in range(vocab_size)]
            counts_a = {w: rng.randint(0, 20) for w in words}
            counts_b = {w: rng.randint(0, 20) for w in words}
            counts_a = {w: c for w, c in counts_a.items() if c} or {"w0": 1}
            counts_b = {w: c for w, c in counts_b.items() if c} or {"w1": 1}
            union = sorted(set(counts_a) | set(counts_b))
            total_a = sum(counts_a.values())
            total_b = sum(counts_b.values())
            p = [counts_a.get(w, 0) / total_a for w in union]
            q = [counts_b.get(w, 0) / total_b for w in union]
            expected = brute_force_jsd(p, q)
            assert jsd_from_counts(counts_a, counts_b) == pytest.approx(expected, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            jsd_from_counts({}, {"a": 1})

    def test_matches_reference_bit_for_bit(self, demo_corpus, stopwords):
        for seed in range(10):
            a, b = helpers.seeded_corpora(demo_corpus, seed, 2)
            for stoplist in (stopwords, set(), {"the", "eax"}):
                got = jsd(a, b, stoplist)
                assert got.hex() == helpers.reference_jsd(a, b, stoplist).hex()


class TestOmissionStats:
    def test_single_intent_direct_count(self, tagger):
        from perturbe.vocab import Vocabulary

        vocab = Vocabulary(structure_words=set(), name_words={"eax"})
        corpus = Corpus([Sample("a", "push eax", "push eax")])
        rates = omission_rate_stats(corpus, vocab, tagger)
        assert rates[OmissionCategory.ACTION] == 0.5
        assert rates[OmissionCategory.NAME] == 0.5
        assert rates[OmissionCategory.STRUCTURE] == 0.0

    def test_no_category_words_contribute_zero(self, tagger):
        from perturbe.vocab import Vocabulary

        vocab = Vocabulary(structure_words={"stack"}, name_words=set())
        corpus = Corpus(
            [Sample("a", "push the stack", "x"), Sample("b", "the contents", "y")]
        )
        rates = omission_rate_stats(corpus, vocab, tagger)
        assert rates[OmissionCategory.STRUCTURE] == pytest.approx((1 / 3 + 0) / 2)

    def test_matches_reference(self, demo_corpus, demo_vocab, tagger):
        one_token = Corpus([Sample("p", "Push", "push eax"), Sample("e", "EAX", "push eax")])
        corpora = [demo_corpus, one_token] + helpers.seeded_corpora(demo_corpus, 4, 8)
        for corpus in corpora:
            got = omission_rate_stats(corpus, demo_vocab, tagger)
            expected = helpers.reference_omission_rates(corpus, demo_vocab, tagger)
            assert {c: r.hex() for c, r in got.items()} == {
                c: r.hex() for c, r in expected.items()
            }


class TestSyntaxChecker:
    def test_template_requires_placeholder(self):
        with pytest.raises(ConfigError):
            CheckerConfig(template="nasm -f elf32")
        with pytest.raises(ConfigError, match="workers"):
            CheckerConfig(template="nasm -f elf32 {file}", workers=0)

    def test_missing_binary(self):
        checker = CheckerConfig(template="definitely-not-a-real-assembler {file}")
        with pytest.raises(CheckerError):
            syntactic_accuracy({"a": "nop"}, checker)

    def test_snippet_to_source_expands_marker(self):
        source = snippet_to_source("push eax \\n pop ebx", "{code}\n")
        assert source == "push eax\npop ebx\n"

    def test_exit_codes_with_mock(self, tmp_path):
        script = tmp_path / "fakecheck"
        script.write_text("#!/bin/sh\ngrep -q GOOD \"$1\"\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        checker = CheckerConfig(template=f"{script} {{file}}", scaffold="{code}\n", workers=2)
        preds = {"a": "GOOD code", "b": "BAD code", "c": ""}
        got = syntactic_accuracy(preds, checker)
        assert got.verdicts == {"a": True, "b": False, "c": False}
        assert got.accuracy == pytest.approx(1 / 3)
        assert "empty" in got.diagnostics["c"]

    def test_timeout_counts_as_failure(self, tmp_path):
        script = tmp_path / "slowcheck"
        script.write_text("#!/bin/sh\nsleep 5\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        checker = CheckerConfig(
            template=f"{script} {{file}}", scaffold="{code}\n", timeout=0.2, workers=1
        )
        got = syntactic_accuracy({"a": "nop"}, checker)
        assert got.verdicts == {"a": False}
        assert "timed out" in got.diagnostics["a"]

    @pytest.mark.skipif(not HAVE_ASSEMBLER, reason="no x86 assembler installed")
    def test_real_assembler_accepts_references(self, demo_corpus):
        checker = detect_checker()
        preds = {s.id: s.snippet for s in demo_corpus.samples[:20]}
        got = syntactic_accuracy(preds, checker)
        assert got.accuracy == 1.0

    @pytest.mark.skipif(not HAVE_ASSEMBLER, reason="no x86 assembler installed")
    def test_real_assembler_rejects_malformed(self):
        checker = detect_checker()
        preds = {"a": "xor ecx, ecx", "b": "xor ecx,"}
        got = syntactic_accuracy(preds, checker)
        assert got.verdicts == {"a": True, "b": False}
        assert got.accuracy == 0.5


def gas_checker(argv0, workers=1, timeout=10.0):
    return CheckerConfig(
        template=f"{argv0} --32 {{file}} -o /dev/null",
        scaffold=GAS_SCAFFOLD,
        timeout=timeout,
        workers=workers,
    )


@pytest.fixture
def checker_runs(monkeypatch):
    """Records the argv of every checker process syntactic_accuracy starts."""
    calls = []
    real_run = subprocess.run

    def run(argv, **kwargs):
        calls.append(argv)
        return real_run(argv, **kwargs)

    monkeypatch.setattr(metrics.subprocess, "run", run)
    return calls


def _mutant(snippet):
    """The first mnemonic gets a suffix no assembler knows."""
    mnemonic, sep, rest = snippet.partition(" ")
    return f"{mnemonic}zz{sep}{rest}"


def seeded_mix(seed, corpus):
    """Valid snippets, zz mutants (some on a later line of a multi-line
    snippet), empty predictions and multi-line snippets in random order."""
    rng = random.Random(seed)
    single = [s.snippet for s in corpus if not s.multi_line]
    multi = [s.snippet for s in corpus if s.multi_line]
    entries = {}
    for i in range(40):
        roll = rng.random()
        if roll < 0.35:
            text = rng.choice(single)
        elif roll < 0.6:
            text = rng.choice(multi)
        elif roll < 0.75:
            text = _mutant(rng.choice(single))
        elif roll < 0.85:
            lines = rng.choice(multi).split(" \\n ")
            lines[-1] = _mutant(lines[-1])
            text = " \\n ".join(lines)
        else:
            text = rng.choice(["", "   ", " \\n "])
        entries[f"p{rng.randrange(10**6):06d}"] = text
    return entries


@pytest.mark.skipif(GNU_AS is None, reason="GNU as not installed")
class TestBatchedGnuAs:
    """Batched proofs against the standalone-only path: the same assembler
    under another name, which is never batched."""

    @pytest.fixture
    def standalone(self, tmp_path):
        link = tmp_path / "gas"
        link.symlink_to(GNU_AS)
        return gas_checker(link)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_seeded_mix_matches_standalone(self, seed, demo_corpus, standalone, checker_runs):
        preds = seeded_mix(seed, demo_corpus)
        expected = syntactic_accuracy(preds, standalone)
        checker_runs.clear()
        got = syntactic_accuracy(preds, gas_checker("as", workers=2))
        assert got == expected
        failing = [sid for sid, ok in expected.verdicts.items() if not ok and preds[sid].strip()]
        assert failing and any(expected.verdicts.values())
        # One batch fails on the mutants and gives their diagnostics, the
        # second proves the rest; nothing is assembled on its own.
        assert len(checker_runs) == 2
        assert all("snippet.s:" in expected.diagnostics[sid] for sid in failing)

    def test_all_valid_needs_one_run(self, demo_corpus, checker_runs):
        preds = {s.id: s.snippet for s in demo_corpus}
        got = syntactic_accuracy(preds, gas_checker("as", workers=2))
        assert got.accuracy == 1.0 and got.diagnostics == {}
        assert len(checker_runs) == 1

    @pytest.mark.parametrize(
        "entries",
        [
            {"a": ".macro m \\n nop \\n .endm", "b": "m"},
            {"a": "jmp 1f", "b": "1: nop"},
            {"a": ".att_syntax", "b": "mov eax, 1", "c": "movl %eax, %ebx"},
            {"a": "x: nop", "b": "x: nop"},
            {"a": "rep", "b": "lock", "c": "cs", "d": "data16"},
            {"a": "lock", "b": "mov eax, ebx"},
            {"a": "rep"},
        ],
    )
    def test_adversarial_neighbors_match_standalone(self, entries, standalone):
        fillers = {"y1": "push eax", "y2": "xor ecx, ecx \\n inc ecx", "z": "pop ebx"}
        preds = {**entries, **fillers}
        assert syntactic_accuracy(preds, gas_checker("as")) == syntactic_accuracy(preds, standalone)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_failing_mix_matches_standalone(self, seed, standalone):
        rng = random.Random(seed)
        preds = {f"f{i:02d}": rng.choice(FAILING_MIX) for i in range(rng.randint(2, 14))}
        assert syntactic_accuracy(preds, gas_checker("as")) == syntactic_accuracy(preds, standalone)

    def test_failing_diagnostics_come_from_the_batch(self, standalone, checker_runs):
        preds = {f"f{i:02d}": text for i, text in enumerate(FAILING_MIX) if text.strip()}
        batchable = {sid: text for sid, text in preds.items() if ";" not in text and "." not in text}
        expected = syntactic_accuracy(batchable, standalone)
        checker_runs.clear()
        got = syntactic_accuracy(batchable, gas_checker("as"))
        assert got == expected
        assert len(checker_runs) == 2
        # The write-phase error of foo-bar after a parse error, the warning
        # that follows an error and the last of several errors.
        assert set(got.diagnostics.values()) >= {
            "snippet.s:6: Error: can't resolve foo - bar",
            "snippet.s:6: Warning: 0x12c shortened to 0x2c",
            "snippet.s:7: Error: no such instruction: `inczz ecx'",
        }

    @pytest.mark.parametrize(
        "preds",
        [
            {"a": "pushzz eax", "b": "mov eax, (1", "c": "mov eax, foo-bar"},
            {"a": "pushzz eax", "b": "int 300", "c": "push eax"},
        ],
        ids=["all-failing", "one-survivor"],
    )
    def test_small_second_batch_falls_back(self, preds, standalone, checker_runs):
        expected = syntactic_accuracy(preds, standalone)
        checker_runs.clear()
        assert syntactic_accuracy(preds, gas_checker("as")) == expected
        assert len(checker_runs) == 1 + len(preds)


# Snippets whose messages test the batched diagnostics: write-phase errors
# (foo-bar) before and after parse errors, warnings before and after errors,
# several errors in one snippet, lone prefixes, and two that are never
# batched.
FAILING_MIX = [
    "mov eax, foo-bar",
    "movzz eax, 1 \\n mov eax, foo-bar",
    "mov eax, foo-bar \\n movzz eax, 1",
    "movzz eax, 1 \\n mov al, 300",
    "mov al, 300 \\n xorzz eax, eax",
    "mov al, 300",
    "pushzz eax \\n popzz ebx \\n inczz ecx",
    "mov eax, foo-bar \\n mov ebx, baz-qux \\n pushzz eax",
    "int 300",
    "mov eax, (1",
    "mov eax, [ebx+ecx*3]",
    "foo bar baz",
    "rep",
    "lock",
    "push eax \\n \\n pop ebx",
    "xor ecx, ecx \\n inc ecx",
    "mov eax, [ebx+ecx*4+8]",
    "nop",
    "",
    "mov eax, 1 ; comment",
    ".byte 300",
]


FAKE_AS = """\
#!/bin/sh
log=$(dirname "$0")/log
lines=$(wc -l < "$1")
echo $((lines - 4)) >> "$log"
if [ "$lines" -gt 5 ]; then
    case MODE in
        timeout) exec sleep 5 ;;
        garbage) echo garbage >&2; exit 1 ;;
        header) echo "$1:2: Error: junk" >&2; exit 1 ;;
        last) echo "$1:$lines: Error: junk" >&2; exit 1 ;;
        warn) echo "$1:5: Warning: harmless" >&2 ;;
        outside) extra="$1:$((lines + 1)): Error: junk" ;;
    esac
fi
errors=$(grep -n zz "$1" | cut -d: -f1)
[ -z "$errors$extra" ] && exit 0
echo "$1: Assembler messages:" >&2
for n in $errors; do echo "$1:$n: Error: no such instruction" >&2; done
[ -n "$extra" ] && echo "$extra" >&2
exit 1
"""


class TestBatchedFakeAs:
    """A scripted stand-in for GNU as, installed under the name ``as`` (batched)
    and ``gas`` (never batched); its log records how many code lines each
    run saw."""

    PREDS = {"a": "nop", "b": "pushzz eax", "c": "push eax", "d": "", "e": "pop ebx"}

    def fake(self, tmp_path, name, mode, timeout=10.0):
        folder = tmp_path / name
        folder.mkdir()
        script = folder / name
        script.write_text(FAKE_AS.replace("MODE", mode))
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        checker = CheckerConfig(
            template=f"{script} {{file}}", scaffold=GAS_SCAFFOLD, timeout=timeout, workers=1
        )
        return checker, folder / "log"

    def run_both(self, tmp_path, mode, timeout=10.0):
        batched, log = self.fake(tmp_path, "as", mode, timeout)
        standalone, reference_log = self.fake(tmp_path, "gas", mode, timeout)
        got = syntactic_accuracy(self.PREDS, batched)
        assert got == syntactic_accuracy(self.PREDS, standalone)
        assert reference_log.read_text().split() == ["1"] * 4
        assert got.verdicts == {"a": True, "b": False, "c": True, "d": False, "e": True}
        assert got.diagnostics["b"] == "snippet.s:5: Error: no such instruction"
        return log.read_text().split()

    def test_batch_proves_the_rest(self, tmp_path):
        assert self.run_both(tmp_path, "plain") == ["4", "3"]

    def test_warnings_drop_nothing(self, tmp_path):
        assert self.run_both(tmp_path, "warn") == ["4", "3"]

    def test_timeout_falls_back(self, tmp_path):
        assert self.run_both(tmp_path, "timeout", timeout=0.5) == ["4"] + ["1"] * 4

    @pytest.mark.parametrize("mode", ["garbage", "header", "outside"])
    def test_unattributed_stderr_falls_back(self, tmp_path, mode):
        assert self.run_both(tmp_path, mode) == ["4"] + ["1"] * 4

    def test_second_failure_is_the_last_batch(self, tmp_path):
        assert self.run_both(tmp_path, "last") == ["4", "3"] + ["1"] * 4

    def test_nasm_scaffold_is_never_batched(self, tmp_path):
        checker, log = self.fake(tmp_path, "as", "plain")
        checker = CheckerConfig(template=checker.template, scaffold=NASM_SCAFFOLD, workers=1)
        syntactic_accuracy(self.PREDS, checker)
        assert len(log.read_text().split()) == 4

    def test_other_checkers_are_never_batched(self, tmp_path):
        log = tmp_path / "log"
        script = tmp_path / "fakecheck"
        script.write_text(f"#!/bin/sh\necho run >> {log}\ngrep -q GOOD \"$1\"\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        checker = CheckerConfig(template=f"{script} {{file}}", scaffold=GAS_SCAFFOLD, workers=2)
        preds = {"a": "GOOD code", "b": "BAD code", "c": "GOOD", "d": ""}
        got = syntactic_accuracy(preds, checker)
        assert got.verdicts == {"a": True, "b": False, "c": True, "d": False}
        assert log.read_text().split() == ["run"] * 3


class TestReport:
    def test_csv_and_summary(self, tmp_path):
        cells = [
            CellMetrics("seq2seq", "substitution", 0.5, 1.0, syn=0.91, sem=0.57, rob=0.85),
            CellMetrics("seq2seq", "omission", 0.0, 1.0, syn=0.81, sem=0.33, rob=None),
        ]
        csv_path, summary_path = report(cells, tmp_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "model,kind,train_p,test_p,SYN,SEM,ROB"
        assert lines[1] == "seq2seq,substitution,0.5,1.0,0.9100,0.5700,0.8500"
        assert lines[2].endswith(",-")  # undefined ROB stays undefined
        assert "substitution" in summary_path.read_text()

    def test_empty_report(self, tmp_path):
        csv_path, _ = report([], tmp_path)
        assert csv_path.read_text().strip() == "model,kind,train_p,test_p,SYN,SEM,ROB"

    def test_cohort_breakdown(self, tagger):
        corpus = Corpus(
            [
                Sample("a", "one liner", "push eax"),
                Sample("b", "two liner", "push eax \\n pop ebx"),
            ]
        )
        verdicts = {"a": True, "b": False}
        cohorts = cohort_breakdown(verdicts, corpus)
        assert cohorts["single-line"]["accuracy"] == 1.0
        assert cohorts["multi-line"]["accuracy"] == 0.0
