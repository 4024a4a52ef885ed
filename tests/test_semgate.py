import json
import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbe.embedding import MeanVectorEncoder, PrecomputedEncoder
from perturbe.errors import ConfigError, DataError
from perturbe.perturb import (
    GATE_FAIL,
    GATE_PASS,
    PerturbationRecord,
    PerturbKind,
    SubstitutionConfig,
    perturb_split,
)
from perturbe.preprocess import tokenize
from perturbe.semgate import GateConfig, gate, score_records, threshold_sweep, write_sweep_csv

import helpers


def make_record(sample_id="s", original="a b", perturbed="a c", similarity=None):
    return PerturbationRecord(
        sample_id=sample_id,
        kind=PerturbKind.SUBST_CONSTRAINED,
        original_intent=original,
        perturbed_intent=perturbed,
        changed_positions=[1],
        similarity=similarity,
    )


class TestScore:
    def test_identical_token_multisets_score_one(self):
        store = helpers.store_of({"push": np.array([1.0, 2.0]), "eax": np.array([0.5, 1.0])})
        encoder = MeanVectorEncoder(store)
        record = make_record(original="push eax", perturbed="eax push")
        [scored] = score_records([record], encoder)
        assert scored.similarity == pytest.approx(1.0, abs=1e-12)

    def test_two_token_omission_hand_computed(self):
        # removing "b" ([1, 0.1]-ish direction close to the mean) keeps sim near 1
        store = helpers.store_of({"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.1])})
        encoder = MeanVectorEncoder(store)
        record = PerturbationRecord(
            sample_id="s",
            kind=PerturbKind.OMIT_STRUCTURE,
            original_intent="a b",
            perturbed_intent="a",
            changed_positions=[1],
        )
        [scored] = score_records([record], encoder)
        mean = np.array([1.0, 0.05])
        expected = float(np.dot(mean, [1.0, 0.0]) / np.linalg.norm(mean))
        assert scored.similarity == pytest.approx(expected, abs=1e-12)
        assert scored.similarity > 0.99

    def test_substitution_closed_form(self, golden_store):
        # replace store -> save in a two-word sentence; oracle recomputes the
        # means directly from the fixture vectors
        encoder = MeanVectorEncoder(golden_store)
        record = make_record(original="store value", perturbed="save value")
        [scored] = score_records([record], encoder)
        v_store = helpers.row_of(golden_store, "store")
        v_save = helpers.row_of(golden_store, "save")
        # "value" has no vector in the golden store, so the mean is one word
        expected = float(
            np.dot(v_store, v_save) / (np.linalg.norm(v_store) * np.linalg.norm(v_save))
        )
        assert scored.similarity == pytest.approx(expected, abs=1e-12)
        assert scored.similarity == pytest.approx(0.90, abs=1e-9)

    def test_all_oov_flags_unevaluable(self):
        store = helpers.store_of({"x": np.array([1.0])})
        encoder = MeanVectorEncoder(store)
        [scored] = score_records([make_record(original="q w", perturbed="q z")], encoder)
        assert math.isnan(scored.similarity)
        assert scored.gate_pass == "unevaluated"

    def test_similarity_clipped_to_unit_interval(self):
        store = helpers.store_of({"a": np.array([1.0, 0.0]), "z": np.array([-1.0, 0.0])})
        encoder = MeanVectorEncoder(store)
        [scored] = score_records([make_record(original="a", perturbed="z")], encoder)
        assert scored.similarity == 0.0


class TestGate:
    def test_partition_example(self):
        records = [make_record(similarity=s) for s in (0.95, 0.79, 0.81)]
        passed, failed = gate(records, GateConfig(threshold=0.80))
        assert [r.similarity for r in passed] == [0.95, 0.81]
        assert [r.similarity for r in failed] == [0.79]
        assert all(r.gate_pass == GATE_PASS for r in passed)
        assert all(r.gate_pass == GATE_FAIL for r in failed)

    def test_threshold_zero_all_pass(self):
        records = [make_record(similarity=s) for s in (0.1, 0.5, 0.99)]
        passed, failed = gate(records, GateConfig(threshold=0.0))
        assert len(passed) == 3 and not failed

    def test_threshold_one_all_fail(self):
        records = [make_record(similarity=s) for s in (0.1, 0.5, 0.99, 1.0)]
        passed, failed = gate(records, GateConfig(threshold=1.0))
        assert not passed and len(failed) == 4

    def test_strictly_greater(self):
        records = [make_record(similarity=0.80)]
        passed, failed = gate(records, GateConfig(threshold=0.80))
        assert not passed and len(failed) == 1

    def test_unscored_rejected(self):
        with pytest.raises(DataError):
            gate([make_record(similarity=None)], GateConfig())

    def test_unevaluable_goes_to_failed(self):
        records = [make_record(similarity=math.nan)]
        passed, failed = gate(records, GateConfig(threshold=0.0))
        assert not passed and len(failed) == 1

    def test_order_preserved(self):
        sims = [0.9, 0.7, 0.95, 0.5, 0.85]
        records = [make_record(sample_id=f"s{i}", similarity=s) for i, s in enumerate(sims)]
        passed, failed = gate(records, GateConfig(threshold=0.80))
        assert [r.sample_id for r in passed] == ["s0", "s2", "s4"]
        assert [r.sample_id for r in failed] == ["s1", "s3"]

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError):
            GateConfig(threshold=1.5)


class TestSweep:
    def test_uniform_085(self):
        records = [make_record(similarity=0.85) for _ in range(4)]
        rates = threshold_sweep(records, [0.7, 0.8, 0.9])
        assert list(rates.values()) == [1.0, 1.0, 0.0]

    def test_counting_oracle(self):
        rng = random.Random(17)
        sims = [rng.uniform(0, 1) for _ in range(500)]
        records = [make_record(similarity=s) for s in sims]
        for threshold in (0.1, 0.4, 0.8, 0.95):
            expected = sum(1 for s in sims if s > threshold) / len(sims)
            assert threshold_sweep(records, [threshold])[threshold] == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=60))
    def test_monotone_non_increasing(self, sims):
        records = [make_record(similarity=s) for s in sims]
        rates = threshold_sweep(records, [0.70, 0.80, 0.90])
        assert rates[0.70] >= rates[0.80] >= rates[0.90]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            threshold_sweep([], [0.8])

    def test_sweep_csv(self, tmp_path):
        records = [make_record(similarity=0.85), make_record(similarity=0.75)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, [0.7, 0.8], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,kind,pass_rate"
        assert lines[1].startswith("0.7,subst-constrained,1.0")
        assert lines[2].startswith("0.8,subst-constrained,0.5")


class TestScoreRecords:
    def test_batch_scoring(self, golden_store):
        encoder = MeanVectorEncoder(golden_store)
        records = [
            make_record(sample_id="a", original="store value", perturbed="save value"),
            make_record(sample_id="b", original="clear value", perturbed="empty value"),
        ]
        scored = score_records(records, encoder)
        assert all(r.similarity is not None for r in scored)


class CountingEncoder:
    """Records every (key, text) it is asked to encode."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def encode(self, text, key=None):
        self.calls[(key, text)] += 1
        return self.inner.encode(text, key=key)


def bits(record):
    return record.similarity.hex()


@pytest.fixture(scope="module")
def mixed_records(demo_corpus, demo_store, demo_vocab, tagger, stopwords):
    """Every kind's records over the demo corpus plus two unencodable
    originals, shuffled so one sample's kinds are not adjacent."""
    cfg = SubstitutionConfig(seed=3)
    records = []
    for kind in PerturbKind:
        records.extend(
            perturb_split(
                demo_corpus, [kind], cfg, demo_vocab, demo_store, tagger=tagger, stoplist=stopwords
            ).records
        )
    for kind in (PerturbKind.OMIT_ACTION, PerturbKind.OMIT_NAME):
        records.append(
            PerturbationRecord("oov", kind, "Frob the quux 0x99", f"Frob the {kind.value}", [2])
        )
    records.append(PerturbationRecord("gone", PerturbKind.OMIT_NAME, "Push eax", "qq zz", [0, 1]))
    random.Random(5).shuffle(records)
    return records


class TestScoreRecordsMemo:
    def test_matches_per_record_score_bit_for_bit(self, mixed_records, demo_store):
        batch = score_records([replace(r) for r in mixed_records], MeanVectorEncoder(demo_store))
        single = [
            helpers.reference_score(replace(r), MeanVectorEncoder(demo_store)) for r in mixed_records
        ]
        assert len({r.kind for r in batch}) == len(PerturbKind)
        assert [bits(r) for r in batch] == [bits(r) for r in single]
        assert sum(math.isnan(r.similarity) for r in batch) >= 3

    def test_each_original_encoded_once(self, mixed_records, demo_store):
        encoder = CountingEncoder(MeanVectorEncoder(demo_store))
        score_records([replace(r) for r in mixed_records], encoder)
        originals = {(r.sample_id, r.original_intent) for r in mixed_records}
        for sample_id, text in originals:
            assert encoder.calls[(sample_id, text)] == 1
        assert all(n == 1 for n in encoder.calls.values())
        perturbed = sum(1 for r in mixed_records if r.sample_id != "oov")
        assert sum(encoder.calls.values()) == len(originals) + perturbed

    def test_oov_counts_only_performed_encodes(self, mixed_records, demo_store):
        encoder = MeanVectorEncoder(demo_store)
        score_records([replace(r) for r in mixed_records], encoder)
        seen, expected = set(), 0
        for r in mixed_records:
            if (r.sample_id, r.original_intent) not in seen:
                seen.add((r.sample_id, r.original_intent))
                expected += sum(1 for t in tokenize(r.original_intent).tokens if t not in demo_store)
            if r.sample_id != "oov":
                expected += sum(1 for t in tokenize(r.perturbed_intent).tokens if t not in demo_store)
        assert encoder.oov_skipped == expected

    def test_unencodable_original_is_nan_for_every_kind(self):
        store = helpers.store_of({"push": np.array([1.0, 2.0]), "eax": np.array([0.5, 1.0])})
        encoder = CountingEncoder(MeanVectorEncoder(store))
        records = [
            PerturbationRecord("s", kind, "frob the quux", f"frob {kind.value}", [1])
            for kind in (PerturbKind.OMIT_ACTION, PerturbKind.OMIT_STRUCTURE, PerturbKind.OMIT_NAME)
        ]
        records.insert(1, make_record(sample_id="t", original="push eax", perturbed="push"))
        scored = score_records(records, encoder)
        assert [math.isnan(r.similarity) for r in scored] == [True, False, True, True]
        assert encoder.calls[("s", "frob the quux")] == 1
        assert not any(key.startswith("s#") for key, _ in encoder.calls)
        passed, failed = gate(scored, GateConfig(threshold=0.0))
        assert [r.sample_id for r in passed] == ["t"]
        assert [r.sample_id for r in failed] == ["s", "s", "s"]

    def test_same_id_with_another_original_is_encoded_again(self, golden_store):
        encoder = CountingEncoder(MeanVectorEncoder(golden_store))
        records = [
            make_record(sample_id="s", original="store value", perturbed="save value"),
            make_record(sample_id="s", original="clear value", perturbed="save value"),
        ]
        batch = score_records([replace(r) for r in records], encoder)
        reference = MeanVectorEncoder(golden_store)
        single = [helpers.reference_score(replace(r), reference) for r in records]
        assert [bits(r) for r in batch] == [bits(r) for r in single]
        assert batch[0].similarity != batch[1].similarity
        assert encoder.calls[("s", "store value")] == encoder.calls[("s", "clear value")] == 1

    def test_precomputed_keys_honoured(self, tmp_path):
        rows = {
            "s1": [1.0, 0.0],
            "s1#omit-action": [1.0, 1.0],
            "s1#omit-name": [0.0, 1.0],
            "s2#omit-name": [1.0, 0.0],
        }
        path = tmp_path / "emb.jsonl"
        path.write_text("".join(json.dumps({"id": k, "vec": v}) + "\n" for k, v in rows.items()))
        encoder = CountingEncoder(PrecomputedEncoder(path))
        records = [
            PerturbationRecord(sid, kind, "same text", f"other {kind.value}", [1])
            for sid in ("s1", "s2")
            for kind in (PerturbKind.OMIT_ACTION, PerturbKind.OMIT_STRUCTURE, PerturbKind.OMIT_NAME)
        ]
        scored = score_records(records, encoder)
        sims = [r.similarity for r in scored]
        assert sims[0] == pytest.approx(math.sqrt(0.5))
        assert math.isnan(sims[1])  # no embedding for s1#omit-structure
        assert sims[2] == 0.0
        assert all(math.isnan(s) for s in sims[3:])  # s2's original has no embedding
        assert encoder.calls[("s1", "same text")] == encoder.calls[("s2", "same text")] == 1
