"""Walkthrough: ingest a bug-fix corpus and retrieve similar fixes.

Builds a small JSONL corpus of single-line bug fixes, ingests it, turns
one side of every pair into a vector, and queries the index with a new
snippet.  Run it from anywhere after installing the package:

    python3 demos/01_corpus_and_retrieval.py
"""

import json
import tempfile
from pathlib import Path

from mutkit.corpus import diff_hunk, ingest_corpus
from mutkit.embedder import LexicalEmbedder, VectorIndex, build_index

RECORDS = [
    {
        "id": "fix-001",
        "project": "Calc",
        "pre_fix_code": "int area(int w, int h) {\n    return w + h;\n}",
        "post_fix_code": "int area(int w, int h) {\n    return w * h;\n}",
    },
    {
        "id": "fix-002",
        "project": "Calc",
        "pre_fix_code": "int half(int x) {\n    return x / 3;\n}",
        "post_fix_code": "int half(int x) {\n    return x / 2;\n}",
    },
    {
        "id": "fix-003",
        "project": "Text",
        "pre_fix_code": "boolean blank(String s) {\n    return s.length() > 0;\n}",
        "post_fix_code": "boolean blank(String s) {\n    return s.length() == 0;\n}",
    },
    {
        "id": "fix-004",
        "project": "Text",
        "pre_fix_code": "int clip(int x) {\n    if (x >= 100) {\n        return 100;\n    }\n    return x;\n}",
        "post_fix_code": "int clip(int x) {\n    if (x > 100) {\n        return 100;\n    }\n    return x;\n}",
    },
    {
        # Multi-line edit: ingested fine, but skipped by the few-shot
        # renderer later because its hunk is not one-to-one.
        "id": "fix-005",
        "project": "Calc",
        "pre_fix_code": "int sum(int n) {\n    int t = 0;\n    return t;\n}",
        "post_fix_code": "int sum(int n) {\n    int t = 0;\n    t += n;\n    return t;\n}",
    },
    {
        # Rejected at ingest: the two sides are identical.
        "id": "fix-006",
        "project": "Calc",
        "pre_fix_code": "int id(int x) {\n    return x;\n}",
        "post_fix_code": "int id(int x) {\n    return x;\n}",
    },
]


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="mutkit-demo-") as scratch:
        corpus_path = Path(scratch) / "corpus.jsonl"
        with corpus_path.open("w", encoding="utf-8") as handle:
            for record in RECORDS:
                handle.write(json.dumps(record) + "\n")

        print("== 1. Ingest ==")
        corpus = ingest_corpus(str(corpus_path))
        print(f"accepted {len(corpus.pairs)} pairs, skipped {len(corpus.skipped)}")
        for skip in corpus.skipped:
            print(f"  skipped {skip.record_id}: {skip.reason}")

        print("\n== 2. The diff hunk of one pair ==")
        pair = corpus.pairs[0]
        hunk = diff_hunk(pair.pre_fix_code, pair.post_fix_code)
        print(f"pair {pair.id} ({pair.project})")
        print(f"  buggy lines: {[text for _, text in hunk.pre_lines]}")
        print(f"  fixed lines: {[text for _, text in hunk.post_lines]}")

        print("\n== 3. Build and persist the index ==")
        embedder = LexicalEmbedder(dimension=128)
        index = build_index(corpus.pairs, backend=embedder, metric="euclidean")
        index_path = Path(scratch) / "corpus.index"
        index.save(str(index_path))
        reloaded = VectorIndex.load(str(index_path))
        print(f"{len(reloaded)} entries, metric={reloaded.metric}, "
              f"backend={reloaded.backend_id}")

        print("\n== 4. Query with a new snippet ==")
        probe = "int scale(int w, int h) {\n    return w * h * 2;\n}"
        neighbors = reloaded.query(embedder.embed(probe), n=3)
        print("probe:")
        for line in probe.split("\n"):
            print(f"  | {line}")
        print("nearest fixed-side neighbors (euclidean, smaller is closer):")
        for entry_id, score in neighbors:
            print(f"  {entry_id}  distance={score:.4f}")


if __name__ == "__main__":
    main()
