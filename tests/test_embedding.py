import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perturbe import embedding
from perturbe.embedding import (
    MeanVectorEncoder,
    PrecomputedEncoder,
    VectorStore,
    cosines,
    load_vectors,
    top_k_neighbors,
)
from perturbe.errors import DataError
from perturbe.preprocess import tokenize

import helpers
from helpers import EncodingFailure


def cosine(a, b):
    """One pair through the batched ``cosines``."""
    return float(cosines(np.array([a], dtype=np.float64), np.array([b], dtype=np.float64))[0])


def encode_one(encoder, text):
    """One text through the batched ``encode``: its unit vector, or
    EncodingFailure where the encoder marks it as not encoded."""
    vectors, encoded = encoder.encode([text])
    if not encoded[0]:
        raise EncodingFailure(text)
    return vectors[0]


def assert_batch_matches_reference(encoder, texts, store):
    """Encode ``texts`` in one batch; each row must have the bytes of
    reference_sentence_embedding, and a row is marked not encoded exactly
    where the reference raises."""
    vectors, encoded = encoder.encode(texts)
    assert vectors.shape == (len(texts), store._matrix.shape[1])
    for text, vector, ok in zip(texts, vectors, encoded):
        try:
            expected = helpers.reference_sentence_embedding(tokenize(text).tokens, store)
        except EncodingFailure:
            assert not ok
            assert not vector.any()
        else:
            assert ok
            assert vector.tobytes() == expected.tobytes()


def brute_force_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


class TestLoadVectors:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0\nb 0 1\n")
        store = load_vectors(path)
        assert store._matrix.shape == (2, 2)

    def test_header_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        store = load_vectors(path)
        assert store._matrix.shape == (2, 3)

    def test_dimension_error_reports_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0 0\nb 1 0\n")
        with pytest.raises(DataError, match=":2"):
            load_vectors(path)

    def test_unparseable_float(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 x\n")
        with pytest.raises(DataError, match="float"):
            load_vectors(path)

    def test_duplicate_last_wins(self, tmp_path, caplog):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0\na 0 1\n")
        with caplog.at_level("WARNING"):
            store = load_vectors(path)
        assert list(helpers.row_of(store, "a")) == [0.0, 1.0]
        assert any("duplicate" in r.message for r in caplog.records)


def _load_outcome(loader, path, caplog):
    """(store or None, DataError message or None, warning messages)."""
    caplog.clear()
    store = error = None
    with caplog.at_level("WARNING", logger="perturbe.embedding"):
        try:
            store = loader(path)
        except DataError as exc:
            error = str(exc)
    return store, error, [r.getMessage() for r in caplog.records]


def assert_loads_like_reference(path, caplog):
    ref_store, ref_error, ref_warnings = _load_outcome(helpers.reference_load_vectors, path, caplog)
    store, error, warnings = _load_outcome(load_vectors, path, caplog)
    assert error == ref_error
    assert warnings == ref_warnings
    if ref_store is not None:
        assert store._words == ref_store._words
        assert store._matrix.shape == ref_store._matrix.shape
        assert store._matrix.dtype == np.float64
        assert store._matrix.tobytes() == ref_store._matrix.tobytes()
    return store, error, warnings


def _format_component(rng, x):
    style = rng.randrange(5)
    if style == 0:
        return repr(float(x))
    if style == 1:
        return f"{x:.6f}"
    if style == 2:
        return f"{x:.3e}"
    if style == 3:
        return f"{x:g}"
    return str(int(x * 10))


def seeded_vector_text(seed, header):
    """Random words, some repeated, and components in mixed float formats,
    joined by runs of spaces and tabs, with blank and whitespace-only lines
    in between."""
    rng = random.Random(seed)
    dim = rng.randint(1, 12)
    count = rng.randint(1, 40)
    words = [
        "#" if rng.random() < 0.1 else f"w{rng.randrange(count + 5)}" for _ in range(count)
    ]
    lines = [f"{count} {dim}"] if header else []
    for word in words:
        seps = [rng.choice([" ", "  ", "\t", " \t "]) for _ in range(dim)]
        comps = [_format_component(rng, rng.gauss(0, 3)) for _ in range(dim)]
        body = "".join(sep + comp for sep, comp in zip(seps, comps))
        lines.append(rng.choice(["", " ", "\t"]) + word + body + rng.choice(["", " ", "\t "]))
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "   ", "\t"]))
    return "\n".join(lines) + rng.choice(["", "\n"])


class TestLoadVectorsDifferential:
    """The bulk loader gives the reference loader's store, errors and warnings."""

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_files(self, tmp_path, caplog, seed, header):
        path = tmp_path / "v.txt"
        path.write_text(seeded_vector_text(seed, header), "utf-8")
        store, error, _ = assert_loads_like_reference(path, caplog)
        assert error is None and len(store._words) > 0

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("# 1 2\nhash#tag 3 4\n#x 5 6\n", id="hash-words"),
            pytest.param("a 1 2\n# 3 4  # 5\n", id="hash-after-word-is-data"),
            pytest.param("a nan -nan\nb inf -inf\nc 1e400 -1e400\n", id="nan-inf"),
            pytest.param("a 5e-324 2.2250738585072014e-308\nb 1. -0.0\n", id="subnormal-and-signed-zero"),
            pytest.param("a 1_0 2\nb 3 4\n", id="underscore-digits"),
            pytest.param("a \u0663 1\nb 2 3\n", id="non-ascii-digit"),
            pytest.param("a \xa01.5 2\n", id="nbsp-padded"),
            pytest.param("a 1 2\nb 3 4\na 5 6\nc 7 8\nb 9 10\n", id="duplicates"),
            pytest.param("only 0.25 -0.5 1e-3\n", id="single-line"),
            pytest.param("only 0.25", id="single-line-no-newline"),
            pytest.param("a 1 0\r\nb 0 1\r\n", id="crlf"),
            pytest.param("\n\n  \na 1 2\n\n", id="leading-blank-lines"),
            pytest.param("1 3\n", id="header-only"),
            pytest.param("", id="empty"),
            pytest.param("\n  \n", id="blank-only"),
            pytest.param("2 3\na 1 2 3\nb 4 5 6\n", id="header"),
            pytest.param("2 3.5\na 1 2\n", id="non-integer-header-is-a-word"),
            pytest.param("3 7\n", id="two-integer-line-is-a-header"),
            pytest.param("word\nb 1 2\n", id="word-only-first-line"),
            pytest.param("a 1 2\nword\nb 1 2\n", id="word-only-later-line"),
            pytest.param("2 0\nx\ny\n", id="zero-dimension-header"),
            pytest.param("a 1 2 3\nb 1 2 3\nc 1 2\nd 1 2 3\n", id="short-row-at-line-3"),
            pytest.param("a 1 2\nb 1 2\nc 1 2 3\n", id="long-row-at-line-3"),
            pytest.param("2 3\na 1 2 3\nb 1 2\n", id="short-row-after-header"),
            pytest.param("2 3\na 1 2\nb 1 2\n", id="every-row-misses-header-dimension"),
            pytest.param("a 1 2\nb 1 x\nc 1 2\n", id="unparseable-float"),
            pytest.param("a 1 2\nb 1,5 2\n", id="comma-decimal"),
            pytest.param("a 1 2\na 1\n", id="duplicate-with-wrong-count"),
            pytest.param("a 1 2\na 3 4\nb x\n", id="duplicate-then-bad-line"),
        ],
    )
    def test_edge_cases(self, tmp_path, caplog, text):
        path = tmp_path / "v.txt"
        path.write_bytes(text.encode("utf-8"))
        assert_loads_like_reference(path, caplog)

    def test_errors_name_the_line(self, tmp_path, caplog):
        path = tmp_path / "v.txt"
        path.write_text("2 3\na 1 2 3\n\nb 1 2\n")
        _, error, _ = assert_loads_like_reference(path, caplog)
        assert error == f"{path}:4: expected 3 components, got 2"

    def test_duplicate_keeps_first_position_and_last_value(self, tmp_path, caplog):
        path = tmp_path / "v.txt"
        path.write_text("a 1 2\nb 3 4\na 5 6\n")
        store, _, warnings = assert_loads_like_reference(path, caplog)
        assert store._words == ["a", "b"]
        assert list(helpers.row_of(store, "a")) == [5.0, 6.0]
        assert warnings == [f"{path}:3: duplicate token 'a', keeping last"]

    def test_well_formed_files_take_the_bulk_path(self, tmp_path, monkeypatch):
        def no_exact_parse(path):
            raise AssertionError("fell back to the exact parse")

        monkeypatch.setattr("perturbe.embedding._load_vectors_exact", no_exact_parse)
        path = tmp_path / "v.txt"
        for seed in range(4):
            for header in (False, True):
                path.write_text(seeded_vector_text(seed, header), "utf-8")
                assert len(load_vectors(path)._words) > 0
        path.write_text("# 1 2\na nan inf\na 3 4\n")
        assert load_vectors(path)._words == ["#", "a"]

    def test_demo_vector_file(self, tmp_path, caplog):
        path = tmp_path / "v.txt"
        helpers.write_vector_file(helpers.demo_vectors(), path, header=True)
        assert_loads_like_reference(path, caplog)


class TestStoreMatrix:
    def test_vectors_are_read_only_rows_of_the_matrix(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 2\nb 3 4\nc 5 6\n")
        store = load_vectors(path)
        assert store._words == ["a", "b", "c"]
        for row, word in enumerate(store._words):
            vec = helpers.row_of(store, word)
            assert np.array_equal(vec, store._matrix[row])
            assert np.shares_memory(vec, store._matrix)
            with pytest.raises(ValueError):
                vec[0] = 0.0
        assert np.array_equal(helpers.row_of(store, "B"), store._matrix[1])  # lowercase fallback

    def test_store_adopts_its_matrix_without_copying(self):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
        store = VectorStore(["a", "b"], matrix)
        assert store._matrix is matrix
        assert not matrix.flags.writeable

    def test_row_norms_match_one_full_call(self):
        rng = np.random.default_rng(5)
        rows = 3 * 4096 + 123  # several norm blocks and a partial one
        matrix = rng.standard_normal((rows, 37)) * rng.choice([1e-3, 1.0, 1e3], size=(rows, 1))
        matrix[[0, 4095, 4096, 8191, rows - 1]] = 0.0
        expected = np.linalg.norm(matrix, axis=1)
        expected[expected == 0.0] = np.nan
        store = VectorStore([f"w{i}" for i in range(rows)], matrix)
        assert store._norms.tobytes() == expected.tobytes()

    def test_get_missing_word(self):
        store = helpers.store_of({"a": np.array([1.0])})
        assert store.resolve("zzz") is None
        assert "zzz" not in store


class TestCosine:
    def test_self_similarity(self):
        assert cosine(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_against_brute_force(self):
        a, b = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        got = cosine(np.array(a), np.array(b))
        assert got == pytest.approx(brute_force_cosine(a, b), abs=1e-12)
        assert got == pytest.approx(0.9746318461970762, abs=1e-12)

    def test_symmetry_random(self):
        rng = random.Random(4)
        for _ in range(50):
            a = np.array([rng.uniform(-1, 1) for _ in range(6)])
            b = np.array([rng.uniform(-1, 1) for _ in range(6)])
            assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-9)

    def test_zero_norm_rejected(self):
        with pytest.raises(DataError):
            cosine(np.zeros(3), np.ones(3))


class TestTopK:
    def test_tiny_store(self):
        store = helpers.store_of(
            {"q": np.array([1.0, 0.0]), "a": np.array([1.0, 0.01]), "b": np.array([0.0, 1.0])}
        )
        neighbors = top_k_neighbors("q", 1, store)
        assert [n.word for n in neighbors] == ["a"]

    def test_k_larger_than_vocab(self):
        store = helpers.store_of(
            {"q": np.array([1.0, 0.0]), "a": np.array([1.0, 0.1]), "b": np.array([1.0, 0.2])}
        )
        neighbors = top_k_neighbors("q", 10, store)
        assert len(neighbors) == 2

    def test_tie_break_lexicographic(self):
        store = helpers.store_of(
            {
                "q": np.array([1.0, 0.0]),
                "zeta": np.array([2.0, 0.0]),
                "alpha": np.array([3.0, 0.0]),
            }
        )
        neighbors = top_k_neighbors("q", 2, store)
        assert [n.word for n in neighbors] == ["alpha", "zeta"]

    def test_out_of_vocabulary(self):
        store = helpers.store_of({"a": np.array([1.0])})
        with pytest.raises(DataError):
            top_k_neighbors("missing", 1, store)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        words = [f"w{i:03d}" for i in range(1000)]
        store = helpers.store_of({w: rng.normal(size=12) for w in words})
        for query in ("w000", "w137", "w999"):
            got = top_k_neighbors(query, 15, store)
            expected = sorted(
                (
                    (cosine(helpers.row_of(store, query), helpers.row_of(store, w)), w)
                    for w in words
                    if w != query
                ),
                key=lambda item: (-item[0], item[1]),
            )[:15]
            assert [n.word for n in got] == [w for _, w in expected]
            for n, (sim, _) in zip(got, expected):
                assert n.similarity == pytest.approx(sim, abs=1e-6)

    def test_lowercase_fallback(self, golden_store):
        upper = top_k_neighbors("Store", 3, golden_store)
        lower = top_k_neighbors("store", 3, golden_store)
        assert [n.word for n in upper] == [n.word for n in lower]


def tricky_store(seed: int) -> VectorStore:
    """Random words plus every shape that stresses tie-breaking: small-integer
    vectors (many exact cosine ties), scaled copies of one vector, an exact
    twin of it and zero vectors, inserted in shuffled order."""
    rng = np.random.default_rng(seed)
    dim = 6
    vectors = {}
    for i in range(30):
        if i % 2:
            vectors[f"w{i:03d}"] = rng.normal(size=dim)
        else:
            vectors[f"w{i:03d}"] = rng.integers(-2, 3, size=dim).astype(np.float64)
    base = rng.normal(size=dim)
    vectors["base"] = base
    for name, scale in (("tie_a", 2.0), ("tie_b", 0.5), ("tie_c", 3.0), ("tie_d", 4.0)):
        vectors[name] = scale * base
    vectors["twin"] = base.copy()
    vectors["zero1"] = np.zeros(dim)
    vectors["zero2"] = np.zeros(dim)
    order = rng.permutation(len(vectors))  # row order must not decide ties
    words = list(vectors)
    return helpers.store_of({words[i]: vectors[words[i]] for i in order})


class TestTopKDifferential:
    """The partial-selection path equals the full-sort reference exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_reference(self, seed):
        store = tricky_store(seed)
        size = len(store._words)
        # Capitalized queries go through the lowercase fallback.
        queries = [w for w in store._words if not w.startswith("zero")] + ["Base", "TWIN"]
        straddles = 0
        for query in queries:
            full = helpers.reference_top_k_neighbors(query, size, store)
            for k in (1, 5, size - 1, size + 3):
                expected = helpers.reference_top_k_neighbors(query, k, store)
                assert top_k_neighbors(query, k, store) == expected, (seed, query, k)
                if k < len(full) and full[k - 1].similarity == full[k].similarity:
                    straddles += 1
        assert straddles > 0  # some tie crossed the k-th place

    @pytest.mark.parametrize("seed", range(4))
    def test_scaled_copies_and_twin_tie_by_word(self, seed):
        # Scaling by a power of two leaves the cosine bit-identical.
        store = tricky_store(seed)
        exact_ties = ["base", "tie_b", "tie_d", "twin"]
        ranked = top_k_neighbors("tie_a", 5, store)
        tied = [n for n in ranked if n.word in exact_ties]
        assert [n.word for n in tied] == exact_ties
        assert len({n.similarity for n in tied}) == 1
        for k in (1, 2, 3):
            assert top_k_neighbors("tie_a", k, store) == ranked[:k]

    def test_zero_vectors_never_neighbors(self):
        store = tricky_store(1)
        words = [n.word for n in top_k_neighbors("w001", len(store._words) + 3, store)]
        assert "zero1" not in words and "zero2" not in words
        assert len(words) == len(store._words) - 3  # query and two zero vectors excluded


class TestTopKMemo:
    def test_repeated_call_returns_equal_list(self):
        store = tricky_store(2)
        first = top_k_neighbors("w005", 5, store)
        assert top_k_neighbors("w005", 5, store) == first
        assert top_k_neighbors("w005", 1, store) == first[:1]

    def test_mutating_result_does_not_change_memo(self):
        store = tricky_store(3)
        first = top_k_neighbors("w005", 5, store)
        expected = list(first)
        first.clear()
        assert top_k_neighbors("w005", 5, store) == expected

    def test_case_variants_share_one_entry(self):
        store = helpers.golden_store()
        upper = top_k_neighbors("Store", 3, store)
        lower = top_k_neighbors("store", 3, store)
        assert upper == lower
        assert list(store._neighbor_memo) == [("store", 3)]

    def test_concurrent_queries_agree_with_reference(self):
        store = tricky_store(5)
        queries = [w for w in store._words if not w.startswith("zero")] * 8
        expected = [helpers.reference_top_k_neighbors(q, 5, store) for q in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(top_k_neighbors, q, 5, store) for q in queries]
                results = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected
        assert set(store._neighbor_memo) == {(q, 5) for q in queries}

    def test_errors_are_not_memoized(self):
        store = tricky_store(4)
        for _ in range(2):
            with pytest.raises(DataError):
                top_k_neighbors("zero1", 3, store)
            with pytest.raises(DataError):
                top_k_neighbors("missing", 3, store)
        assert store._neighbor_memo == {}


def sentence_embedding(tokens, store):
    return encode_one(MeanVectorEncoder(store), " ".join(tokens))


class TestSentenceEmbedding:
    def test_single_token_is_normalized_vector(self):
        store = helpers.store_of({"a": np.array([3.0, 4.0]), "b": np.array([0.0, 1.0])})
        vec = sentence_embedding(["a"], store)
        assert np.allclose(vec, [0.6, 0.8])

    def test_duplicate_tokens_same_as_single(self):
        store = helpers.store_of({"a": np.array([3.0, 4.0])})
        assert np.allclose(sentence_embedding(["a", "a"], store), sentence_embedding(["a"], store))

    def test_order_free(self):
        store = helpers.store_of({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
        assert np.allclose(
            sentence_embedding(["a", "b"], store), sentence_embedding(["b", "a"], store)
        )

    def test_unit_norm(self, demo_store):
        vec = sentence_embedding(["store", "register", "eax"], demo_store)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_oov_skipped(self):
        store = helpers.store_of({"a": np.array([1.0, 0.0])})
        vec = sentence_embedding(["a", "zzz"], store)
        assert np.allclose(vec, [1.0, 0.0])

    def test_all_oov_raises(self):
        store = helpers.store_of({"a": np.array([1.0, 0.0])})
        with pytest.raises(EncodingFailure):
            sentence_embedding(["zzz", "yyy"], store)


class TestNormDifferential:
    """The batched norms, cosines and encodes take each norm as a stacked
    ``sqrt(v . v)`` product; every row must equal the one-vector reference
    (np.linalg.norm, reference_cosine, reference_sentence_embedding) bit for
    bit at every size and scale."""

    SCALES = [1e-160, 1e-150, 1e-8, 1.0, 3.7, 1e8, 1e150, 1e155]

    @pytest.fixture(autouse=True)
    def _quiet_overflow(self):
        # 1e155-scaled vectors overflow to inf in both implementations alike.
        with np.errstate(over="ignore", invalid="ignore"):
            yield

    @staticmethod
    def _bits(x):
        return float(x).hex()

    def test_norm_matches_linalg_norm(self):
        rng = random.Random(31)
        gen = np.random.default_rng(31)
        for _ in range(2000):
            v = gen.standard_normal(rng.randint(1, 301)) * rng.choice(self.SCALES)
            for view in (v, v[::2], v[::-1]):
                row = np.ascontiguousarray(view)
                got = embedding._row_norms(row[None, :])
                assert self._bits(got[0]) == self._bits(np.linalg.norm(row))
        for size in (1, 2, 57, 128, 300):
            rows = gen.standard_normal((40, size)) * np.array(
                [rng.choice(self.SCALES) for _ in range(40)]
            )[:, None]
            got = embedding._row_norms(rows)
            assert [self._bits(x) for x in got] == [self._bits(np.linalg.norm(r)) for r in rows]

    def test_cosine_matches_reference(self):
        rng = random.Random(37)
        gen = np.random.default_rng(37)
        checked = 0
        for _ in range(1500):
            size = rng.randint(1, 301)
            a = gen.standard_normal(size) * rng.choice(self.SCALES)
            b = gen.standard_normal(size) * rng.choice(self.SCALES)
            try:
                expected = helpers.reference_cosine(a, b)
            except DataError as exc:
                with pytest.raises(DataError, match=str(exc)):
                    cosine(a, b)
                continue
            assert self._bits(cosine(a, b)) == self._bits(expected)
            checked += 1
        rows = (gen.standard_normal((50, 40)) * 1e-150).T.copy()  # one batch of 39 pairs
        got = cosines(rows[:-1].copy(), rows[1:].copy())
        expected = [helpers.reference_cosine(rows[j], rows[j + 1]) for j in range(39)]
        assert [self._bits(x) for x in got] == [self._bits(x) for x in expected]
        assert checked > 1400

    def test_encode_matches_reference(self):
        rng = random.Random(41)
        gen = np.random.default_rng(41)
        dim = 57
        vectors = {f"w{i}": gen.standard_normal(dim) * rng.choice(self.SCALES) for i in range(80)}
        # Capitalized words of their own: the exact form must win over the
        # lowercase fallback, as in VectorStore.resolve.
        vectors.update({f"W{i}": gen.standard_normal(dim) for i in range(0, 80, 3)})
        store = helpers.store_of(vectors)
        encoder = MeanVectorEncoder(store)
        texts = [
            " ".join(
                rng.choice([f"w{rng.randrange(80)}", f"W{rng.randrange(80)}", "zzz"])
                for _ in range(rng.randint(1, 30))
            )
            for _ in range(600)
        ]
        oov = sum(1 for text in texts for t in tokenize(text).tokens if t not in store)
        assert_batch_matches_reference(encoder, texts, store)
        assert encoder.oov_skipped == oov > 0


class TestEncoders:
    def test_mean_encoder_counts_oov(self, demo_store):
        encoder = MeanVectorEncoder(demo_store)
        encoder.encode(["Store the unknownword in EAX"])
        assert encoder.oov_skipped >= 2  # "the" and "unknownword" and "in"

    def test_mean_encoder_matches_sentence_embedding(self):
        rng = random.Random(17)
        vectors = np.random.default_rng(17).standard_normal((60, 16))
        store = helpers.store_of({f"w{i}": vectors[i] for i in range(60)})
        encoder = MeanVectorEncoder(store)
        texts = [
            " ".join(
                rng.choice([f"w{rng.randrange(60)}", f"W{rng.randrange(60)}", "zzz"])
                for _ in range(rng.randint(1, 12))
            )
            for _ in range(200)
        ]
        oov = sum(1 for text in texts for t in tokenize(text).tokens if t not in store)
        for start in range(0, 200, 70):  # batches of several sizes, one of them short
            assert_batch_matches_reference(encoder, texts[start : start + 70], store)
        assert encoder.oov_skipped == oov > 0

    def test_row_reduction_matches_np_mean_bit_for_bit(self):
        # Wide rows, long texts and repeated words: each text's slice of the
        # gathered rows must give np.mean's bits, not just values within
        # rounding.
        rng = random.Random(23)
        vectors = np.random.default_rng(23).standard_normal((400, 300)) * 3.0
        store = helpers.store_of({f"w{i}": vectors[i] for i in range(400)})
        texts = [
            " ".join(f"w{rng.randrange(400)}" for _ in range(rng.randint(1, 40)))
            for _ in range(600)
        ]
        assert_batch_matches_reference(MeanVectorEncoder(store), texts, store)

    def test_empty_batch(self, demo_store):
        vectors, encoded = MeanVectorEncoder(demo_store).encode([])
        assert vectors.shape == (0, demo_store._matrix.shape[1]) and encoded.shape == (0,)

    def test_cancelling_vectors_fail(self):
        store = helpers.store_of({"a": np.array([1.0, 2.0]), "b": np.array([-1.0, -2.0])})
        with pytest.raises(EncodingFailure):
            encode_one(MeanVectorEncoder(store), "a b")

    def test_precomputed_encoder(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"id": "s1", "vec": [1.0, 0.0]}\n{"id": "s1#omit-name", "vec": [0.0, 1.0]}\n'
        )
        encoder = PrecomputedEncoder(path)
        vectors, encoded = encoder.encode(["ignored"] * 3, ["s1#omit-name", "missing", "s1"])
        assert encoded.tolist() == [True, False, True]
        assert vectors.tolist() == [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]

    def test_precomputed_lengths_must_agree(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"id": "s1", "vec": [1.0, 0.0]}\n{"id": "s1#omit-name", "vec": [0, 1, 2]}\n'
        )
        with pytest.raises(DataError, match=r"emb\.jsonl:2: dimension mismatch: \(2,\) vs \(3,\)$"):
            PrecomputedEncoder(path)

    @pytest.mark.parametrize("vec", ["1.0", "[[1.0, 0.0]]"])
    def test_precomputed_vec_must_be_a_list_of_numbers(self, tmp_path, vec):
        path = tmp_path / "emb.jsonl"
        path.write_text(f'{{"id": "s1", "vec": [1.0]}}\n{{"id": "s2", "vec": {vec}}}\n')
        with pytest.raises(DataError, match='emb.jsonl:2: "vec" must be a list of numbers'):
            PrecomputedEncoder(path)
