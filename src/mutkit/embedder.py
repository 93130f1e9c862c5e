"""A code-to-vector embedding backend and a brute-force nearest-neighbor index.

The default backend is a deterministic lexical embedder: code is tokenized,
token trigrams are hashed into a fixed number of buckets, and the vector is
the raw bucket-count histogram (feature hashing).  Hashing uses BLAKE2, so
vectors are stable across processes and platforms.  Every index records which
backend produced it.

``LexicalEmbedder.embed_many`` embeds a batch of texts at once: tokens are
interned to integers, every trigram of the batch becomes one integer code,
each distinct trigram is hashed once, and the counts go into one float32
matrix through ``np.bincount``.  ``build_index`` embeds the whole corpus in
one such batch and builds the index on that matrix, uncopied.

``VectorIndex.query_many`` answers many probes at once.  Because the
histograms are small integer counts, it scores a block of probes with one
float32 matrix product whose result is bit-identical to scoring each probe
entry by entry; indexes of real-valued vectors, or of norms too large for
that to be exact, are scored entry by entry.
"""

from __future__ import annotations

import hashlib
import logging
import re
import struct
from collections import defaultdict

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_DIMENSION = 512
METRICS = ("euclidean", "cosine", "dot")
KEY_SIDES = ("post_fix", "pre_fix")

_BOUNDARY = "\x02"
_SEPARATOR = "\x1f"

# One match skips a run of whitespace and takes one token: an identifier, a
# one-character token that cannot start a longer operator, a number (Unicode
# digits included), a multi-character operator, or any other character.
_TOKEN_RE = re.compile(
    r"\s*([A-Za-z_$][A-Za-z0-9_$]*"
    r"|[^\s\dA-Za-z_$=!<>&|+\-:*/%^]"
    r"|\d+(?:\.\d+)?"
    r"|==|!=|<=|>=|&&|\|\||\+\+|--|->|::|<<|>>>|>>|\+=|-=|\*=|/=|%=|&=|\|=|\^="
    r"|[^\sA-Za-z0-9_])"
)

_MAGIC = b"MKIX"
_FORMAT_VERSION = 1


class EmbeddingError(Exception):
    """Raised for unembeddable inputs or backend mismatches."""


class IndexFormatError(Exception):
    """Raised when an index file is truncated, corrupt, or wrong-version."""


def tokenize(code: str) -> list[str]:
    """Split code into identifiers, numbers, and operator tokens."""
    return _TOKEN_RE.findall(code)


# embed_many counts at most this many matrix cells per np.bincount call, so
# its int64 count temporary stays small whatever the batch size.
_COUNT_BLOCK_CELLS = 1 << 16


class LexicalEmbedder:
    """Deterministic hashed token-trigram embedder."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        self.dimension = dimension
        self.backend_id = f"lexical-trigram-{dimension}"

    def embed(self, code: str) -> np.ndarray:
        """Embed one code snippet as a float32 trigram-count histogram.

        Token sequences are padded with boundary sentinels on both sides, so
        inputs with fewer than three tokens still produce trigrams.  Raises
        EmbeddingError for empty or whitespace-only input.
        """
        return self.embed_many([code])[0]

    def embed_many(self, texts) -> np.ndarray:
        """``embed(text)`` of every text, as rows of one float32 matrix.

        The rows are counted with ``np.bincount`` over blocks of at most
        ``_COUNT_BLOCK_CELLS`` cells, into a matrix allocated once the
        trigrams are hashed.  Raises EmbeddingError if any text is empty or
        whitespace-only.
        """
        buckets, counts = _trigram_buckets(texts, self.dimension)
        vectors = np.empty((len(counts), self.dimension), dtype=np.float32)
        bounds = np.cumsum([0] + counts)
        step = max(1, _COUNT_BLOCK_CELLS // self.dimension)
        for first in range(0, len(counts), step):
            last = min(first + step, len(counts))
            rows = np.repeat(np.arange(last - first), counts[first:last])
            cells = buckets[bounds[first]:bounds[last]] + rows * self.dimension
            vectors[first:last] = np.bincount(
                cells, minlength=(last - first) * self.dimension).reshape(last - first, -1)
        return vectors


def _trigram_buckets(texts, dimension: int) -> tuple[np.ndarray, list[int]]:
    """The bucket of every trigram of the padded texts, in text order, and
    each text's trigram count (its token count plus two).

    Each text's tokens are interned to integer ids as it is tokenized, so
    only the distinct token strings of the batch are kept; a literal
    boundary token gets the boundary's id.  The id sequences are joined
    with two boundary ids before, between and after the texts, so every
    window of three ids is exactly one trigram of one padded text.  A
    trigram gets one int64 code (its first two ids are coded as a pair
    first, so no code overflows), and each distinct code is hashed once.
    """
    token_ids: defaultdict[str, int] = defaultdict()
    token_ids.default_factory = token_ids.__len__
    token_ids[_BOUNDARY] = 0
    flat = [0, 0]
    counts = []
    for text in texts:
        if not text or not text.strip():
            raise EmbeddingError("cannot embed empty code")
        before = len(flat)
        flat.extend(map(token_ids.__getitem__, tokenize(text)))
        flat += (0, 0)
        counts.append(len(flat) - before)
    ids = np.array(flat, dtype=np.int64)
    vocabulary = len(token_ids)
    pairs, pair_of = np.unique(ids[:-2] * vocabulary + ids[1:-1], return_inverse=True)
    trigrams, trigram_of = np.unique(pair_of * vocabulary + ids[2:], return_inverse=True)
    firsts, seconds = np.divmod(pairs[trigrams // vocabulary], vocabulary)
    # The UTF-8 of a "\x1f"-joined trigram is its tokens' UTF-8, joined.
    tokens = [token.encode("utf-8") for token in token_ids]
    separator = _SEPARATOR.encode("utf-8")
    blake2b = hashlib.blake2b
    digests = b"".join(
        blake2b(separator.join((tokens[a], tokens[b], tokens[c])), digest_size=8).digest()
        for a, b, c in zip(firsts.tolist(), seconds.tolist(),
                           (trigrams % vocabulary).tolist()))
    buckets = np.frombuffer(digests, dtype="<u8") % dimension
    # As int64: uint64 plus the int64 row offsets would promote to float64.
    return buckets.astype(np.int64)[trigram_of], counts


def _as_vector(probe, dimension: int) -> np.ndarray:
    values = np.asarray(probe, dtype=np.float32)
    if values.shape != (dimension,):
        raise EmbeddingError(f"probe dimension {values.shape} does not match index ({dimension})")
    return values


def _first_repeat(ids: list[str]) -> str | None:
    """The first id that occurs a second time, or None."""
    seen: set[str] = set()
    for entry_id in ids:
        if entry_id in seen:
            return entry_id
        seen.add(entry_id)
    return None


# Below this bound every partial sum of the product path is an integer that
# float32 holds exactly (see VectorIndex.query_many).
_EXACT_BOUND = 2.0 ** 23


class VectorIndex:
    """Exact nearest-neighbor index with linear scan over stored vectors.

    The index is built once, from the entry ids and a float32 matrix that
    holds their vectors, one row per id; ``build_index`` and ``load`` make
    it.
    Vectors are stored unnormalized and the matrix is kept as given, not
    copied, so it must not change afterwards.  The cosine metric
    normalizes at query time, with the per-row norms computed once.
    ``query_many`` scores a block of probes with one matrix product when
    that is exact (integer vectors of bounded norm, as the lexical
    embedder makes) and entry by entry otherwise; either way it picks the
    n best with ``np.argpartition``, keeps every entry tied with the n-th
    best, and orders those by (score, entry id) with ``np.lexsort``.
    Ranking ties are therefore broken by ascending entry id, so results do
    not depend on entry order; an entry whose score is NaN ranks last.
    """

    def __init__(self, ids, vectors: np.ndarray, metric: str = "euclidean",
                 backend_id: str = ""):
        if metric not in METRICS:
            raise EmbeddingError(f"unknown metric {metric!r}; expected one of {METRICS}")
        self.ids: list[str] = list(ids)
        duplicate = _first_repeat(self.ids)
        if duplicate is not None:
            raise EmbeddingError(f"duplicate index entry id {duplicate!r}")
        self._vectors = vectors
        self.dimension = vectors.shape[1]
        self.metric = metric
        self.backend_id = backend_id
        self._norms: np.ndarray | None = None
        self._id_ranks: np.ndarray | None = None
        self._squares: np.ndarray | None = None
        self._room = 0.0

    def __len__(self) -> int:
        return len(self.ids)

    def matrix(self) -> np.ndarray:
        """The stored vectors in entry order, as a read-only view."""
        view = self._vectors.view()
        view.flags.writeable = False
        return view

    def _row_norms(self) -> np.ndarray:
        if self._norms is None:
            self._norms = np.linalg.norm(self.matrix(), axis=1)
        return self._norms

    def _ranks(self) -> np.ndarray:
        """Each entry's position in ascending id order (the tie-break key)."""
        if self._id_ranks is None:
            by_id = sorted(range(len(self.ids)), key=self.ids.__getitem__)
            self._id_ranks = np.empty(len(self.ids), dtype=np.intp)
            self._id_ranks[by_id] = np.arange(len(self.ids))
        return self._id_ranks

    def _exact_room(self) -> float:
        """How large a probe's squared norm may be for the product path.

        It is ``_EXACT_BOUND`` minus the largest stored squared norm, or
        0 when a stored value is not an integer or not finite; computed
        once, with the squared row norms.  A float32 sum of
        non-negative terms is exact while below 2**24 and never rounds back
        below a power of two it has reached, so a squared norm computed in
        float32 is below the bound exactly when the true one is.
        """
        if self._squares is None:
            stored = self.matrix()
            self._squares = np.einsum("ij,ij->i", stored, stored)
            largest = float(self._squares.max(initial=0.0))
            # trunc keeps a NaN, which then differs from itself; an infinite
            # value gives an infinite squared norm.  Row slices keep the
            # temporaries small.
            step = max(1, (1 << 16) // self.dimension)
            integral = all(np.array_equal(stored[i:i + step], np.trunc(stored[i:i + step]))
                           for i in range(0, len(stored), step))
            self._room = _EXACT_BOUND - largest if integral else 0.0
        return self._room

    def query(self, probe, n: int) -> list[tuple[str, float]]:
        """Return the top-n entries for a probe embedding.

        Euclidean scores are distances (ascending is better); cosine and dot
        scores are similarities (descending is better).
        """
        return self.query_many([probe], n)[0]

    def query_many(self, probes, n: int) -> list[list[tuple[str, float]]]:
        """``[self.query(probe, n) for probe in probes]``, scores bit for bit.

        Probes are scored in blocks of ``dimension`` probes, so a block's
        score matrix is never larger than the stored matrix.  A block takes
        the product path when every stored and probe value is an integer
        and ``max‖s‖² + max‖p‖² < 2**23`` over the stored rows s and the
        block's probes p; otherwise each probe is scored entry by entry.

        The product path computes euclidean distances as
        ``sqrt((‖s‖² − 2·p·s) + ‖p‖²)``, dot scores as ``p·s``, and cosine
        scores as ``p·s`` with the entry-by-entry path's norms, divide and
        zero-norm rule, taking every ``p·s`` of a block from one matrix
        product.  Under the bound it is exact.  Every product term, partial
        sum and intermediate of either path is an integer of magnitude
        below 2**24: ``|p·s| ≤ ‖p‖‖s‖ ≤ (‖p‖² + ‖s‖²)/2`` bounds the
        partial dot products and ``‖s‖² − 2·p·s``, and
        ``‖s − p‖² ≤ 2(‖s‖² + ‖p‖²)`` bounds the squared differences and
        their partial sums.  float32 holds all such integers exactly, so no
        step rounds and no summation order can change a bit.  The bound is
        2**23 rather than 2**24 because vectors may be negative:
        ``s = (a,)`` and ``p = (−a,)`` give ``‖s − p‖² = 4a²``.
        """
        if not self.ids:
            raise EmbeddingError("cannot query an empty index")
        if n < 1:
            raise EmbeddingError(f"n must be positive, got {n}")
        vectors = [_as_vector(probe, self.dimension) for probe in probes]
        results = []
        for start in range(0, len(vectors), self.dimension):
            block = np.stack(vectors[start:start + self.dimension])
            squares = np.einsum("ij,ij->i", block, block)
            if (squares.max() < self._exact_room()
                    and np.array_equal(block, np.trunc(block))):
                scored = self._product_scores(block, squares)
            else:
                scored = map(self._elementwise_scores, block)
            results.extend(self._top(scores, n) for scores in scored)
        return results

    def _product_scores(self, block: np.ndarray, squares: np.ndarray):
        """Each probe's scores from one matrix product (exact, see query_many)."""
        products = block @ self.matrix().T
        if self.metric == "euclidean":
            products *= -2.0
            products += self._squares
            products += squares[:, None]
            return np.sqrt(products, out=products)
        if self.metric == "dot":
            return products
        return [self._cosine(row, vector) for row, vector in zip(products, block)]

    def _elementwise_scores(self, vector: np.ndarray) -> np.ndarray:
        """One probe's scores, entry by entry."""
        stored = self.matrix()
        if self.metric == "euclidean":
            # The ufuncs np.linalg.norm(stored - vector, axis=1) runs for real
            # input, squared in place: the same bits, one temporary not three.
            deltas = stored - vector
            np.multiply(deltas, deltas, out=deltas)
            return np.sqrt(np.add.reduce(deltas, axis=1))
        if self.metric == "dot":
            return stored @ vector
        return self._cosine(stored @ vector, vector)

    def _cosine(self, products: np.ndarray, vector: np.ndarray) -> np.ndarray:
        norms = self._row_norms()
        probe_norm = float(np.linalg.norm(vector))
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = products / (norms * probe_norm)
        return np.where((norms == 0) | (probe_norm == 0), 0.0, scores)

    def _top(self, scores: np.ndarray, n: int) -> list[tuple[str, float]]:
        """The n best entries by (key, id rank), with ties across the cut."""
        keys = scores if self.metric == "euclidean" else -scores
        if n < len(keys):
            cut = keys[np.argpartition(keys, n - 1)[n - 1]]
            # "not worse than the cut" rather than "<= cut": a NaN cut keeps
            # every entry, and lexsort then puts the NaN keys last.
            candidates = np.flatnonzero(~(keys > cut))
        else:
            candidates = np.arange(len(keys))
        order = candidates[np.lexsort((self._ranks()[candidates], keys[candidates]))]
        return [(self.ids[i], float(scores[i])) for i in order[:n]]

    def save(self, path: str) -> None:
        """Write the index in the binary format (little-endian float32 records)."""
        metric_bytes = self.metric.encode("utf-8")
        backend_bytes = self.backend_id.encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(struct.pack("<IIB", _FORMAT_VERSION, self.dimension, len(metric_bytes)))
            handle.write(metric_bytes)
            handle.write(struct.pack("<H", len(backend_bytes)))
            handle.write(backend_bytes)
            handle.write(struct.pack("<I", len(self.ids)))
            for entry_id, values in zip(self.ids, self.matrix().astype("<f4", copy=False)):
                id_bytes = entry_id.encode("utf-8")
                handle.write(struct.pack("<H", len(id_bytes)))
                handle.write(id_bytes)
                handle.write(values.tobytes())

    @classmethod
    def load(cls, path: str) -> "VectorIndex":
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise IndexFormatError(f"cannot read index file {path}: {exc}") from exc
        view = memoryview(data)
        try:
            if bytes(view[:4]) != _MAGIC:
                raise IndexFormatError(f"{path} is not an index file (bad magic)")
            offset = 4
            version, dimension, metric_len = struct.unpack_from("<IIB", view, offset)
            offset += struct.calcsize("<IIB")
            if version != _FORMAT_VERSION:
                raise IndexFormatError(f"{path} has unsupported index version {version}")
            metric = bytes(view[offset:offset + metric_len]).decode("utf-8")
            if metric not in METRICS:
                raise IndexFormatError(f"{path} has unknown metric {metric!r}")
            offset += metric_len
            (backend_len,) = struct.unpack_from("<H", view, offset)
            offset += 2
            backend_id = bytes(view[offset:offset + backend_len]).decode("utf-8")
            offset += backend_len
            (count,) = struct.unpack_from("<I", view, offset)
            offset += 4
            record_size = 4 * dimension
            # Every record holds at least its id length and its vector, so a
            # count the remaining bytes cannot hold is truncation, caught
            # before the matrix is allocated.
            if count * (2 + record_size) > len(data) - offset:
                raise IndexFormatError(f"{path} is truncated")
            ids = []
            vectors = np.empty((count, dimension), dtype=np.float32)
            for row in range(count):
                (id_len,) = struct.unpack_from("<H", view, offset)
                offset += 2
                ids.append(bytes(view[offset:offset + id_len]).decode("utf-8"))
                offset += id_len
                if offset + record_size > len(data):
                    raise IndexFormatError(f"{path} is truncated")
                vectors[row] = np.frombuffer(view, dtype="<f4", count=dimension, offset=offset)
                offset += record_size
            if offset != len(data):
                raise IndexFormatError(f"{path} has trailing bytes")
        except struct.error as exc:
            raise IndexFormatError(f"{path} is truncated: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"{path} holds a name that is not UTF-8: {exc}") from exc
        duplicate = _first_repeat(ids)
        if duplicate is not None:
            raise IndexFormatError(f"{path} repeats entry id {duplicate!r}")
        return cls(ids, vectors, metric=metric, backend_id=backend_id)


def build_index(pairs, backend=None, metric: str = "euclidean",
                key_side: str = "post_fix") -> VectorIndex:
    """Embed one side of every corpus pair and build the index.

    Args:
        pairs: the records of an ingested Corpus (anything with ``id``,
            ``pre_fix_code`` and ``post_fix_code``).
        backend: embedding backend; defaults to LexicalEmbedder().
        metric: euclidean, cosine, or dot.
        key_side: which text each pair is keyed on, post_fix (default)
            or pre_fix.

    Returns:
        A VectorIndex with one entry per pair, keyed by pair id, whose
        matrix is the one ``embed_many`` returns for all keys.
    """
    if key_side not in KEY_SIDES:
        raise EmbeddingError(f"key_side must be one of {KEY_SIDES}, got {key_side!r}")
    backend = backend or LexicalEmbedder()
    pairs = list(pairs)
    index = VectorIndex(
        [pair.id for pair in pairs],
        backend.embed_many([pair.post_fix_code if key_side == "post_fix" else pair.pre_fix_code
                            for pair in pairs]),
        metric=metric, backend_id=backend.backend_id)
    logger.info("built %s index with %d entries (metric=%s)",
                index.backend_id, len(index), metric)
    return index


def describe_index(index: VectorIndex) -> dict:
    """Small JSON-friendly summary of an index (for CLI output)."""
    return {
        "entries": len(index),
        "dimension": index.dimension,
        "metric": index.metric,
        "backend_id": index.backend_id,
    }
