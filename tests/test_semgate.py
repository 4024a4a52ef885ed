import json
import math
import random
import tracemalloc
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
from perturbe import semgate
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
    """Records every (key, text) it is asked to encode, and each batch."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()
        self.batches = []

    def encode(self, texts, keys):
        self.calls.update(zip(keys, texts))
        self.batches.append(len(texts))
        return self.inner.encode(texts, keys)


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
        reference = helpers.ReferenceMeanEncoder(demo_store)
        single = [helpers.reference_score(replace(r), reference) for r in mixed_records]
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
        reference = helpers.ReferenceMeanEncoder(golden_store)
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


def precomputed_pair(tmp_path, vectors):
    """The batched PrecomputedEncoder over a file holding ``vectors``, and the
    per-key reference over the same dict."""
    path = tmp_path / "emb.jsonl"
    path.write_text("".join(json.dumps({"id": k, "vec": v}) + "\n" for k, v in vectors.items()))
    return PrecomputedEncoder(path), helpers.ReferencePrecomputedEncoder(vectors)


def random_records(seed, words, samples, max_tokens):
    """Records over ``words`` plus an out-of-vocabulary word: each sample has
    1 to 3 kinds, intents of 1 to ``max_tokens`` tokens, and some samples
    reuse an id with another original."""
    rng = random.Random(seed)
    kinds = [PerturbKind.OMIT_ACTION, PerturbKind.OMIT_STRUCTURE, PerturbKind.OMIT_NAME]

    def intent():
        if rng.random() < 0.05:
            return "zzz qq"  # no token has a vector
        return " ".join(rng.choice(words + ["zzz"]) for _ in range(rng.randint(1, max_tokens)))

    records = []
    for i in range(samples):
        sample_id = f"s{i // 2 if rng.random() < 0.2 else i}"
        original = intent()
        for kind in rng.sample(kinds, rng.randint(1, 3)):
            perturbed = intent()
            if perturbed != original:
                records.append(PerturbationRecord(sample_id, kind, original, perturbed, [0]))
    rng.shuffle(records)
    return records


def assert_same_bits(records, encoder, reference):
    batch = score_records([replace(r) for r in records], encoder)
    single = [helpers.reference_score(replace(r), reference) for r in records]
    assert [bits(r) for r in batch] == [bits(r) for r in single]
    return batch


class TestBatchedScoreDifferential:
    """Batched ``score_records`` against one pair scored at a time
    (``helpers.reference_score``), compared by ``float.hex``."""

    @pytest.mark.parametrize("dim", [128, 300])
    def test_seeded_stores(self, dim):
        # Up to 40 in-vocabulary tokens per intent: the per-text reduction
        # must add rows in np.mean's order.
        gen = np.random.default_rng(dim)
        words = [f"w{i}" for i in range(150)]
        store = helpers.store_of({w: gen.standard_normal(dim) * 2.5 for w in words})
        records = random_records(dim, words, 400, 40)
        encoder = MeanVectorEncoder(store)
        reference = helpers.ReferenceMeanEncoder(store)
        batch = assert_same_bits(records, encoder, reference)
        assert encoder.oov_skipped > 0
        assert 0 < sum(math.isnan(r.similarity) for r in batch) < len(batch)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    def test_groups_straddle_chunk_boundaries(self, chunk, mixed_records, demo_store, monkeypatch):
        monkeypatch.setattr(semgate, "CHUNK_TEXTS", chunk)
        encoder = CountingEncoder(MeanVectorEncoder(demo_store))
        assert_same_bits(mixed_records, encoder, helpers.ReferenceMeanEncoder(demo_store))
        # Two encodes per chunk, originals first; a chunk closes at the first
        # group that reaches the limit, so it holds at most `chunk` originals.
        originals = encoder.batches[::2]
        groups = len({(r.sample_id, r.original_intent) for r in mixed_records})
        assert sum(originals) == groups and max(originals) <= chunk
        assert len(originals) >= groups / chunk

    def test_negative_zero_cosine_clips_to_zero(self, tmp_path):
        vectors = {"s": [2.0, 0.0], "s#subst-constrained": [-5e-324, 2.0]}
        assert math.copysign(1.0, helpers.reference_cosine(*vectors.values())) == -1.0
        encoder, reference = precomputed_pair(tmp_path, vectors)
        [scored] = assert_same_bits([make_record(sample_id="s")], encoder, reference)
        assert bits(scored) == "0x0.0p+0"

    def test_nan_component_clips_to_zero(self, tmp_path):
        vectors = {
            "s": [1.0, math.nan],
            "s#subst-constrained": [1.0, 0.0],
            "t": [1.0, 1.0],
            "t#subst-constrained": [1.0, 0.5],
        }
        encoder, reference = precomputed_pair(tmp_path, vectors)
        records = [make_record(sample_id="s"), make_record(sample_id="t")]
        scored = assert_same_bits(records, encoder, reference)
        assert scored[0].similarity == 0.0 and 0.9 < scored[1].similarity < 1.0

    def test_missing_keys_are_nan(self, tmp_path):
        vectors = {
            "s": [1.0, 0.0],
            "t#subst-constrained": [1.0, 0.0],
            "u": [0.0, 1.0],
            "u#subst-constrained": [1.0, 1.0],
        }
        encoder, reference = precomputed_pair(tmp_path, vectors)
        records = [make_record(sample_id=sid) for sid in ("s", "t", "u")]
        scored = assert_same_bits(records, encoder, reference)
        assert [math.isnan(r.similarity) for r in scored] == [True, True, False]

    @pytest.mark.parametrize(
        "vectors",
        [
            {"s": [1.0, 0.0], "s#subst-constrained": [0.0, 0.0]},
            {"s": [0.0, 0.0], "s#subst-constrained": [1.0, 0.0]},
        ],
        ids=["zero-perturbed", "zero-original"],
    )
    def test_errors_have_the_reference_text(self, tmp_path, vectors):
        with pytest.raises(DataError) as ref:
            helpers.reference_score(
                make_record(sample_id="s"), helpers.ReferencePrecomputedEncoder(vectors)
            )
        encoder, _ = precomputed_pair(tmp_path, vectors)
        with pytest.raises(DataError) as new:
            score_records([make_record(sample_id="s")], encoder)
        assert str(new.value) == str(ref.value)

    def test_length_mismatch_is_refused_at_load_with_the_reference_text(self, tmp_path):
        # The file is refused before any pair is scored; the message is the
        # reference's, prefixed by the file and line of the first odd vector.
        vectors = {"s": [1.0, 0.0], "s#subst-constrained": [1.0, 0.0, 0.0]}
        with pytest.raises(DataError) as ref:
            helpers.reference_score(
                make_record(sample_id="s"), helpers.ReferencePrecomputedEncoder(vectors)
            )
        with pytest.raises(DataError) as new:
            precomputed_pair(tmp_path, vectors)
        assert str(new.value) == f"{tmp_path / 'emb.jsonl'}:2: {ref.value}"

    def test_zero_vector_without_a_partner_is_not_an_error(self, tmp_path):
        vectors = {
            "s": [0.0, 0.0],
            "t#subst-constrained": [0.0, 0.0],
            "u": [1.0, 0.0],
            "u#subst-constrained": [1.0, 0.0],
        }
        encoder, reference = precomputed_pair(tmp_path, vectors)
        records = [make_record(sample_id=sid) for sid in ("s", "t", "u")]
        scored = assert_same_bits(records, encoder, reference)
        assert scored[2].similarity == 1.0

    def test_chunking_bounds_peak_memory(self):
        # About 5 MB in chunks; scored in one piece, 5,000 records at D = 300
        # peak above 100 MB.
        gen = np.random.default_rng(3)
        words = [f"w{i}" for i in range(300)]
        store = helpers.store_of({w: gen.standard_normal(300) for w in words})
        rng = random.Random(3)
        records = [
            PerturbationRecord(
                f"s{i // 4}",
                PerturbKind.OMIT_NAME,
                " ".join(words[(i // 4 + j) % 300] for j in range(8)),
                " ".join(rng.choice(words) for _ in range(6)),
                [0],
            )
            for i in range(5000)
        ]
        encoder = MeanVectorEncoder(store)
        tracemalloc.start()
        try:
            score_records(records, encoder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
