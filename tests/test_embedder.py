"""Tests for the lexical embedder and the vector index."""

import hashlib
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutkit import embedder as embedder_module
from mutkit.corpus import CorpusRecord
from mutkit.embedder import (
    DEFAULT_DIMENSION,
    EmbeddingError,
    IndexFormatError,
    LexicalEmbedder,
    VectorIndex,
    build_index,
    tokenize,
)
from oracles import _ORACLE_TOKEN_RE, oracle_embed, oracle_rank


class TestTokenizer:
    def test_identifiers_numbers_operators(self):
        assert tokenize("int x = a1 + 2;") == ["int", "x", "=", "a1", "+", "2", ";"]

    def test_multichar_operators_kept_whole(self):
        assert tokenize("a != b && c <= d") == ["a", "!=", "b", "&&", "c", "<=", "d"]

    def test_unicode_digits_are_one_number(self):
        assert tokenize("x=\u0663\u0664.5 -1") == ["x", "=", "\u0663\u0664.5", "-", "1"]

    def test_trailing_whitespace_and_lone_operator_starts(self):
        assert tokenize("a-b :c . @d \t\n ") == ["a", "-", "b", ":", "c", ".", "@", "d"]


@settings(max_examples=500, deadline=None)
@given(code=st.text())
def test_tokenize_matches_the_oracle_pattern(code):
    assert tokenize(code) == _ORACLE_TOKEN_RE.findall(code)


class TestLexicalEmbedder:
    def test_matches_independent_histogram_oracle(self):
        embedder = LexicalEmbedder(dimension=64)
        for code in ("int x = count + 1;", "int x = total + 1;",
                     "x = y; x = y; x = y; x = y;", 'String s = "h\u00e9llo";'):
            np.testing.assert_array_equal(embedder.embed(code), oracle_embed(code, 64))

    def test_one_identifier_change_changes_vector(self):
        embedder = LexicalEmbedder(dimension=DEFAULT_DIMENSION)
        a = embedder.embed("int x = count + 1;")
        b = embedder.embed("int x = total + 1;")
        assert a.shape == (DEFAULT_DIMENSION,) and a.dtype == np.float32
        assert not np.array_equal(a, b)

    def test_deterministic_across_instances(self):
        code = "for (int i = 0; i < n; i++) { sum += i; }"
        first = LexicalEmbedder().embed(code)
        second = LexicalEmbedder().embed(code)
        np.testing.assert_array_equal(first, second)

    def test_short_inputs_still_embed(self):
        assert LexicalEmbedder(dimension=32).embed("x").sum() > 0

    def test_empty_input_rejected(self):
        with pytest.raises(EmbeddingError, match="empty"):
            LexicalEmbedder().embed("   \n ")

    def test_vector_is_raw_counts(self):
        # 6 trigrams from 4 tokens plus 4 sentinels.
        assert LexicalEmbedder(dimension=16).embed("a b c d").sum() == 6.0

    def test_embed_many_of_nothing_is_an_empty_matrix(self):
        vectors = LexicalEmbedder(dimension=37).embed_many([])
        assert vectors.shape == (0, 37) and vectors.dtype == np.float32

    @pytest.mark.parametrize("texts", [["", "int x;"], ["int x;", " \n\t"]])
    def test_embed_many_rejects_an_empty_text_anywhere(self, texts):
        with pytest.raises(EmbeddingError, match="cannot embed empty code"):
            LexicalEmbedder().embed_many(texts)

    def test_a_literal_boundary_token_counts_as_the_boundary(self):
        embedder = LexicalEmbedder(dimension=64)
        vectors = embedder.embed_many(["\x02 a", "a", "\x02"])
        np.testing.assert_array_equal(vectors[0], oracle_embed("\x02 a", 64))
        np.testing.assert_array_equal(vectors[1], oracle_embed("a", 64))
        # Padded, "\x02" is five boundary tokens: three equal trigrams.
        assert vectors[2].max() == vectors[2].sum() == 3.0


# Token sources for batches: identifiers, numbers (Unicode digits too) and
# operators, the boundary sentinel itself, and non-ASCII text (one token per
# character).
CODE_TOKENS = st.sampled_from([
    "x", "count", "$tmp", "_", "0", "42", "3.14", "==", ">>>=", "->", "(", ")",
    "{", "}", ";", "+", "-", "-=", "::", "&&", ".", "@", "\x02", "é", "λx", "日本",
    '"s"', "\u0663\u0664", "\uff11.\uff12"])


@st.composite
def code_texts(draw):
    """A non-blank code text, sometimes a line repeated."""
    tokens = draw(st.lists(CODE_TOKENS, min_size=1, max_size=12))
    line = draw(st.sampled_from([" ", "", "\t"])).join(tokens)
    return "\n".join([line] * draw(st.integers(1, 3)))


@settings(max_examples=80, deadline=None)
@given(texts=st.lists(code_texts(), min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 5), max_size=12),
       dimension=st.sampled_from([1, 2, 37, 512]))
def test_embed_many_matches_the_per_text_oracle(texts, picks, dimension):
    batch = texts + [texts[i % len(texts)] for i in picks]
    vectors = LexicalEmbedder(dimension=dimension).embed_many(batch)
    assert vectors.shape == (len(batch), dimension) and vectors.dtype == np.float32
    for text, row in zip(batch, vectors):
        np.testing.assert_array_equal(row, oracle_embed(text, dimension))
        np.testing.assert_array_equal(
            LexicalEmbedder(dimension=dimension).embed(text), row)


@settings(max_examples=10, deadline=None)
@given(texts=st.lists(code_texts(), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_a_batch_longer_than_one_count_block(texts, seed):
    rng = random.Random(seed)
    dimension = 512
    rows_per_block = embedder_module._COUNT_BLOCK_CELLS // dimension
    batch = [rng.choice(texts) for _ in range(2 * rows_per_block + 3)]
    vectors = LexicalEmbedder(dimension=dimension).embed_many(batch)
    oracle = {text: oracle_embed(text, dimension) for text in texts}
    for text, row in zip(batch, vectors):
        np.testing.assert_array_equal(row, oracle[text])


def index_of(entries, metric="euclidean", dimension=None):
    """A VectorIndex of (id, vector) entries, in entry order."""
    vectors = (np.stack([vector for _, vector in entries]) if entries
               else np.zeros((0, dimension), dtype=np.float32))
    return VectorIndex([entry_id for entry_id, _ in entries], vectors.astype(np.float32),
                       metric=metric, backend_id="toy")


def embedded_index(embedder, codes: dict, metric="euclidean"):
    """An index of embedded code texts keyed by their dict keys."""
    return VectorIndex(list(codes), embedder.embed_many(list(codes.values())),
                       metric=metric, backend_id=embedder.backend_id)


class TestVectorIndex:
    def build_two_entry_index(self):
        return index_of(float32_entries(a=[0.0, 0.0], b=[3.0, 4.0]))

    def test_euclidean_scores_on_two_dimensional_fixture(self):
        index = self.build_two_entry_index()
        results = index.query(np.array([0.0, 0.0], dtype=np.float32), n=2)
        assert results == [("a", 0.0), ("b", 5.0)]

    def test_self_query_distance_zero(self):
        embedder = LexicalEmbedder(dimension=128)
        codes = {"p1": "int a = 1;", "p2": "int b = 2;", "p3": "while (x) { y(); }"}
        index = embedded_index(embedder, codes)
        top_id, top_score = index.query(embedder.embed(codes["p2"]), n=1)[0]
        assert top_id == "p2"
        assert top_score == 0.0

    def test_ranking_independent_of_insertion_order(self):
        embedder = LexicalEmbedder(dimension=128)
        codes = {f"p{i}": f"int v{i} = {i} + {i};" for i in range(12)}
        probe = embedder.embed("int v3 = 3 + 3;")
        rankings = []
        for seed in (1, 2, 3):
            order = list(codes)
            random.Random(seed).shuffle(order)
            index = embedded_index(embedder, {pair_id: codes[pair_id] for pair_id in order})
            rankings.append(index.query(probe, n=6))
        assert rankings[0] == rankings[1] == rankings[2]

    def test_equidistant_ties_broken_by_id(self):
        index = index_of(float32_entries(z=[1.0, 0.0], m=[1.0, 0.0], a=[1.0, 0.0]))
        results = index.query(np.array([0.0, 0.0], dtype=np.float32), n=3)
        assert [i for i, _ in results] == ["a", "m", "z"]

    def test_cosine_and_dot_rank_descending(self):
        index = index_of(float32_entries(small=[1.0, 0.0], large=[5.0, 0.0]), "dot")
        assert index.query(np.array([1.0, 0.0]), n=2)[0][0] == "large"

        cosine = index_of(float32_entries(aligned=[2.0, 0.0], off=[1.0, 1.0]), "cosine")
        results = cosine.query(np.array([1.0, 0.0]), n=2)
        assert results[0][0] == "aligned"
        assert results[0][1] == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self):
        index = self.build_two_entry_index()
        with pytest.raises(EmbeddingError, match="dimension"):
            index.query(np.zeros(3, dtype=np.float32), n=1)

    def test_query_empty_index_rejected(self):
        index = index_of([], dimension=4)
        assert index.dimension == 4 and len(index) == 0
        with pytest.raises(EmbeddingError, match="empty"):
            index.query(np.zeros(4, dtype=np.float32), n=1)

    def test_unknown_metric_rejected(self):
        with pytest.raises(EmbeddingError, match="metric"):
            index_of(float32_entries(a=[1.0]), metric="manhattan")

    def test_thousand_entries_bounded(self):
        embedder = LexicalEmbedder(dimension=64)
        index = embedded_index(
            embedder, {f"p{i:04d}": f"int value{i} = {i} * 3;" for i in range(1000)})
        assert len(index) == 1000
        assert index.matrix().shape == (1000, 64)
        results = index.query(embedder.embed("int value500 = 500 * 3;"), n=6)
        assert results[0][0] == "p0500"

    def test_ties_across_the_cut_are_ordered_by_id(self):
        index = index_of(float32_entries(d=[1.0], b=[1.0], c=[1.0], a=[1.0], e=[0.0]))
        probe = np.array([0.0], dtype=np.float32)
        assert [i for i, _ in index.query(probe, n=1)] == ["e"]
        assert [i for i, _ in index.query(probe, n=2)] == ["e", "a"]
        assert [i for i, _ in index.query(probe, n=3)] == ["e", "a", "b"]

    def test_nan_scores_rank_last(self):
        big = 3e38
        index = index_of(float32_entries(a=[big, big], b=[1.0, 0.0]), "dot")
        probe = np.array([big, -big], dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):  # a's score is inf - inf
            assert [i for i, _ in index.query(probe, n=1)] == ["b"]
            assert [i for i, _ in index.query(probe, n=2)] == ["b", "a"]

    def test_duplicate_id_rejected(self):
        with pytest.raises(EmbeddingError, match="duplicate index entry id 'a'"):
            VectorIndex(["a", "b", "a"], np.zeros((3, 2), dtype=np.float32))

    def test_the_matrix_is_kept_uncopied(self):
        vectors = np.array([[0.0, 0.0], [3.0, 4.0]], dtype=np.float32)
        index = VectorIndex(["a", "b"], vectors)
        assert np.shares_memory(index.matrix(), vectors)

    def test_matrix_is_a_read_only_view_of_the_filled_rows(self):
        index = self.build_two_entry_index()
        stored = index.matrix()
        np.testing.assert_array_equal(stored, [[0.0, 0.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            stored[0, 0] = 1.0

    def test_real_valued_scores_match_the_oracle_bit_for_bit(self):
        rng = np.random.default_rng(7)
        entries = [(f"e{i:03d}", rng.normal(size=24).astype(np.float32) * 10.0 ** (i % 5 - 2))
                   for i in range(300)]
        probes = [rng.normal(size=24).astype(np.float32) for _ in range(5)]
        for metric in ("euclidean", "cosine", "dot"):
            index = index_of(entries, metric)
            for probe in probes:
                for n in (1, 10, 300):
                    assert index.query(probe, n) == oracle_rank(entries, probe, metric, n)
            for n in (1, 10, 300):
                assert index.query_many(probes, n) == [
                    oracle_rank(entries, probe, metric, n) for probe in probes]


def float32_entries(**vectors):
    return [(entry_id, np.array(values, dtype=np.float32))
            for entry_id, values in vectors.items()]


def paths_taken(monkeypatch) -> list[str]:
    """Record each product-path block and each elementwise-scored probe."""
    taken = []
    product, elementwise = VectorIndex._product_scores, VectorIndex._elementwise_scores

    def spy_product(self, block, squares):
        taken.append("product")
        return product(self, block, squares)

    def spy_elementwise(self, vector):
        taken.append("elementwise")
        return elementwise(self, vector)

    monkeypatch.setattr(VectorIndex, "_product_scores", spy_product)
    monkeypatch.setattr(VectorIndex, "_elementwise_scores", spy_elementwise)
    return taken


class TestQueryMany:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "dot"])
    def test_integer_vectors_take_one_product_per_block(self, monkeypatch, metric):
        embedder = LexicalEmbedder(dimension=16)
        entries = [(f"p{i:02d}", embedder.embed(f"int v{i % 7} = {i} + w;"))
                   for i in range(40)]
        probes = [embedder.embed(f"int v{i} = w;") for i in range(37)]
        index = index_of(entries, metric, 16)
        taken = paths_taken(monkeypatch)
        many = index.query_many(probes, 5)
        assert taken == ["product"] * 3  # blocks of `dimension` probes
        assert many == [oracle_rank(entries, probe, metric, 5) for probe in probes]

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "dot"])
    def test_real_valued_vectors_take_the_elementwise_path(self, monkeypatch, metric):
        real = index_of(float32_entries(a=[0.5, 1.0], b=[2.0, -1.0]), metric, 2)
        integral = index_of(float32_entries(a=[1.0, 1.0], b=[2.0, -1.0]), metric, 2)
        taken = paths_taken(monkeypatch)
        real.query_many([np.array([1.0, 2.0]), np.array([-1.0, 0.0])], 2)
        assert taken == ["elementwise"] * 2
        taken.clear()
        integral.query_many([np.array([1.0, 2.0]), np.array([0.25, 0.0])], 2)
        assert taken == ["elementwise"] * 2  # one real-valued probe sends its block

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "dot"])
    def test_a_squared_norm_of_two_to_the_24_takes_the_fallback(self, monkeypatch, metric):
        entries = float32_entries(big=[4096.0, 0.0], one=[1.0, 1.0], zero=[0.0, 0.0])
        probes = [np.array([3.0, -5.0]), np.array([0.0, 0.0])]
        index = index_of(entries, metric, 2)
        taken = paths_taken(monkeypatch)
        many = index.query_many(probes, 3)
        assert taken == ["elementwise"] * 2
        assert many == [oracle_rank(entries, probe, metric, 3) for probe in probes]

    def test_the_bound_is_two_to_the_23_for_signed_vectors(self, monkeypatch):
        # ‖s‖² + ‖p‖² is below 2**24, but ‖s − p‖² is not, and the product
        # formula and the elementwise sum round it differently.
        entries = float32_entries(s=[2165.0, 2703.0])
        probe = np.array([-2082.0, 360.0], dtype=np.float32)
        index = index_of(entries, "euclidean", 2)
        taken = paths_taken(monkeypatch)
        expected = oracle_rank(entries, probe, "euclidean", 1)
        assert index.query_many([probe], 1) == [expected]
        assert taken == ["elementwise"]
        stored = entries[0][1]
        product = np.sqrt((np.float32(-2.0) * (stored @ probe) + stored @ stored)
                          + probe @ probe)
        assert product != np.float32(expected[0][1])

    def test_just_inside_the_bound_takes_the_product_path(self, monkeypatch):
        entries = float32_entries(s=[2047.0, 2.0], t=[-2000.0, 45.0])
        probe = np.array([-1537.0, 1355.0], dtype=np.float32)
        assert 2047 ** 2 + 2 ** 2 + 1537 ** 2 + 1355 ** 2 == 2 ** 23 - 1
        for metric in ("euclidean", "cosine", "dot"):
            index = index_of(entries, metric, 2)
            taken = paths_taken(monkeypatch)
            assert index.query_many([probe], 2) == [oracle_rank(entries, probe, metric, 2)]
            assert taken == ["product"]
        index = index_of(float32_entries(s=[2048.0, 0.0]), "euclidean", 2)
        taken = paths_taken(monkeypatch)
        assert index.query_many([np.array([-2048.0, 0.0])], 1) == [[("s", 4096.0)]]
        assert taken == ["elementwise"]  # 2**22 + 2**22 is on the bound

    def test_no_probes_give_no_results(self):
        assert index_of(float32_entries(a=[1.0]), "dot", 1).query_many([], 3) == []

    def test_a_bad_probe_fails_the_whole_call(self):
        index = index_of(float32_entries(a=[1.0, 0.0]), "dot", 2)
        with pytest.raises(EmbeddingError, match="dimension"):
            index.query_many([np.zeros(2), np.zeros(3)], 1)


@st.composite
def small_indexes(draw):
    """Entries with tiny integer vectors (many ties), zero vectors included."""
    dimension = draw(st.integers(min_value=1, max_value=3))
    vectors = st.lists(st.integers(min_value=-2, max_value=2),
                       min_size=dimension, max_size=dimension)
    ids = draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=3),
                        min_size=1, max_size=10, unique=True))
    entries = [(entry_id, np.array(draw(vectors), dtype=np.float32)) for entry_id in ids]
    if draw(st.booleans()):
        entries[0] = (entries[0][0], np.zeros(dimension, dtype=np.float32))
    probe = np.array(draw(vectors), dtype=np.float32)
    return dimension, entries, probe


@given(case=small_indexes(), metric=st.sampled_from(["euclidean", "cosine", "dot"]))
@settings(max_examples=150, deadline=None)
def test_query_matches_the_full_sort_oracle(case, metric):
    dimension, entries, probe = case
    for count in range(1, len(entries) + 1):
        index = index_of(entries[:count], metric)
        for n in range(1, count + 2):
            assert index.query(probe, n) == oracle_rank(entries[:count], probe, metric, n)


@given(case=small_indexes(), metric=st.sampled_from(["euclidean", "cosine", "dot"]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_query_many_matches_query_and_the_oracle(case, metric, data):
    dimension, entries, probe = case
    more = data.draw(st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                                       min_size=dimension, max_size=dimension),
                              max_size=4))
    probes = [probe, np.zeros(dimension, dtype=np.float32)] + [
        np.array(values, dtype=np.float32) for values in more]
    index = index_of(entries, metric)
    for n in range(1, len(entries) + 2):
        many = index.query_many(probes, n)
        assert many == [index.query(p, n) for p in probes]
        assert many == [oracle_rank(entries, p, metric, n) for p in probes]


class TestIndexPersistence:
    def test_save_load_round_trip(self, tmp_path):
        embedder = LexicalEmbedder(dimension=32)
        index = embedded_index(embedder, {f"id{i}": f"return x + {i};" for i in range(5)},
                               "cosine")
        path = str(tmp_path / "index.bin")
        index.save(path)
        loaded = VectorIndex.load(path)
        assert loaded.ids == index.ids
        assert loaded.metric == "cosine"
        assert loaded.backend_id == embedder.backend_id
        np.testing.assert_array_equal(loaded.matrix(), index.matrix())

    def test_truncated_file_rejected(self, tmp_path):
        embedder = LexicalEmbedder(dimension=32)
        index = embedded_index(embedder, {"id0": "return 1;"})
        path = tmp_path / "index.bin"
        index.save(str(path))
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 7])
        with pytest.raises(IndexFormatError, match="truncated"):
            VectorIndex.load(str(path))

    def test_duplicate_entry_id_rejected(self, tmp_path):
        header = (b"MKIX" + struct.pack("<IIB", 1, 2, 9) + b"euclidean"
                  + struct.pack("<H", 3) + b"toy" + struct.pack("<I", 2))
        record = struct.pack("<H", 1) + b"a" + struct.pack("<2f", 1.0, 2.0)
        path = tmp_path / "index.bin"
        path.write_bytes(header + record + record)
        with pytest.raises(IndexFormatError, match="repeats entry id 'a'"):
            VectorIndex.load(str(path))

    @pytest.mark.parametrize("metric, backend, entry_id", [
        (b"\xff", b"toy", b"a"), (b"euclidean", b"\xff", b"a"),
        (b"euclidean", b"toy", b"\xff")])
    def test_names_that_are_not_utf8_rejected(self, tmp_path, metric, backend,
                                              entry_id):
        header = (b"MKIX" + struct.pack("<IIB", 1, 2, len(metric)) + metric
                  + struct.pack("<H", len(backend)) + backend + struct.pack("<I", 1))
        record = struct.pack("<H", len(entry_id)) + entry_id + struct.pack("<2f", 1.0, 2.0)
        path = tmp_path / "index.bin"
        path.write_bytes(header + record)
        with pytest.raises(IndexFormatError, match=f"^{path} holds a name that is not UTF-8"):
            VectorIndex.load(str(path))

    def test_count_beyond_the_file_rejected_before_allocating(self, tmp_path):
        header = (b"MKIX" + struct.pack("<IIB", 1, 512, 9) + b"euclidean"
                  + struct.pack("<H", 3) + b"toy" + struct.pack("<I", 2 ** 32 - 1))
        path = tmp_path / "index.bin"
        path.write_bytes(header)
        with pytest.raises(IndexFormatError, match="truncated"):
            VectorIndex.load(str(path))

    # Recorded from the list-of-vectors index that the single float32
    # matrix replaced; the file format must not change.
    GOLDEN_INDEX_SHA256 = {
        "cosine": "4fd00c6c499680b14aaeb02d3d340bd9b680b8afcbf39f780f84387547568cdc",
        "euclidean": "a204e299d7b6feeae270baea5bec80b5f4c5c32c061df8182c841d9110cfbda7",
    }

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_saved_bytes_match_golden_digest(self, tmp_path, metric):
        embedder = LexicalEmbedder(dimension=64)
        index = embedded_index(
            embedder, {f"p{i:04d}": f"int value{i} = {i} * {i % 7};" for i in range(1000)},
            metric)
        path = tmp_path / "index.bin"
        index.save(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN_INDEX_SHA256[metric]
        loaded = VectorIndex.load(str(path))
        loaded.save(str(tmp_path / "again.bin"))
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not an index at all")
        with pytest.raises(IndexFormatError, match="magic"):
            VectorIndex.load(str(path))


def make_pair(pair_id: str, pre: str, post: str) -> CorpusRecord:
    return CorpusRecord(id=pair_id, project="demo", pre_fix_code=pre,
                        post_fix_code=post, line_no=1)


class TestBuildIndex:
    def pairs(self):
        return [
            make_pair("p1", "int a = 1;\nreturn a;", "int a = 2;\nreturn a;"),
            make_pair("p2", "int b = 1;\nreturn b;", "int b = 3;\nreturn b;"),
        ]

    def test_default_keys_on_post_fix(self):
        pairs = self.pairs()
        index = build_index(pairs)
        embedder = LexicalEmbedder()
        top = index.query(embedder.embed(pairs[0].post_fix_code), n=1)
        assert top[0] == ("p1", 0.0)

    def test_pre_fix_key_side(self):
        pairs = self.pairs()
        index = build_index(pairs, key_side="pre_fix")
        embedder = LexicalEmbedder()
        top = index.query(embedder.embed(pairs[1].pre_fix_code), n=1)
        assert top[0] == ("p2", 0.0)

    def test_bad_key_side_rejected(self):
        with pytest.raises(EmbeddingError, match="key_side"):
            build_index(self.pairs(), key_side="middle")

    def test_duplicate_pair_id_rejected(self):
        pairs = self.pairs()
        with pytest.raises(EmbeddingError, match="duplicate index entry id 'p1'"):
            build_index([pairs[0], pairs[1], pairs[0]])

    def test_an_empty_key_is_rejected(self):
        pairs = self.pairs() + [make_pair("p3", "int c = 1;", "   ")]
        with pytest.raises(EmbeddingError, match="cannot embed empty code"):
            build_index(pairs)

    def test_the_index_keeps_the_embedded_matrix(self, monkeypatch):
        embedder = LexicalEmbedder(dimension=16)
        embedded = []

        def embed_many(texts):
            embedded.append(LexicalEmbedder.embed_many(embedder, texts))
            return embedded[-1]

        monkeypatch.setattr(embedder, "embed_many", embed_many)
        index = build_index(self.pairs(), backend=embedder)
        assert np.shares_memory(index.matrix(), embedded[0])

    def test_the_index_is_built_at_its_final_size(self):
        pairs = [make_pair(f"p{i:04d}", f"int value{i} = {i};",
                           f"int value{i} = {i} * {i % 7};") for i in range(2000)]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            index = build_index(pairs, backend=LexicalEmbedder(dimension=512))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.matrix().shape == (2000, 512)
        # One full-size matrix: growing it by doubling held the 1024- and
        # 2048-row matrices at once, and peaked at 1.8 times the final one.
        assert peak < 1.5 * index.matrix().nbytes

    def test_the_index_saves_as_one_of_single_embeddings(self, tmp_path):
        pairs = [make_pair(f"p{i:04d}", "int a = 0;", f"int value{i} = {i} * {i % 7};")
                 for i in range(300)]
        embedder = LexicalEmbedder(dimension=64)
        single = VectorIndex([pair.id for pair in pairs],
                             np.stack([embedder.embed(pair.post_fix_code) for pair in pairs]),
                             backend_id=embedder.backend_id)
        single.save(str(tmp_path / "single.bin"))
        build_index(pairs, backend=embedder).save(str(tmp_path / "built.bin"))
        assert (tmp_path / "built.bin").read_bytes() == (tmp_path / "single.bin").read_bytes()
