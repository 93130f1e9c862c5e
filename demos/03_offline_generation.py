"""Walkthrough: generate mutants offline with the scripted mock backend.

The mock backend answers prompts from a script keyed by prompt digest.
Authoring that script takes two passes: a record pass that captures
every prompt the pipeline would send, and a real pass that answers from
the crafted script, a JSONL file that the config's backend settings
name.  The demo ends by exporting the mutants as supervised fine-tuning
instances.

    python3 demos/03_offline_generation.py
"""

import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

from mutkit.config import PipelineConfig, TargetSpec
from mutkit.corpus import ingest_corpus
from mutkit.embedder import LexicalEmbedder, build_index
from mutkit.generate import run_generate
from mutkit.llm import MockBackend
from mutkit.sft import SftContext, export, write_instances

FOCAL_METHOD = """\
public static int discount(int price) {
    int threshold = 50;
    if (price > threshold) {
        return price - 10;
    }
    return price;
}"""

CHUNK_MARKER = "Only mutate these lines: "
CHUNK_END = "\n\n[Few-Shot Examples]"


def write_corpus(path: Path) -> None:
    records = []
    for i in range(8):
        fixed = (f"public static int scale{i}(int x) {{\n"
                 f"    int factor = {i + 2};\n"
                 f"    return x * factor;\n"
                 f"}}")
        buggy = fixed.replace(f"factor = {i + 2}", f"factor = {i + 3}")
        records.append({"id": f"pair-{i:03d}", "project": "Calc",
                        "pre_fix_code": buggy, "post_fix_code": fixed})
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def craft_response(prompt: str) -> str:
    """Stand-in for a model: bump the first integer on each chunk line."""
    start = prompt.index(CHUNK_MARKER) + len(CHUNK_MARKER)
    chunk = prompt[start:prompt.index(CHUNK_END, start)]
    pairs = []
    for line in chunk.split("\n"):
        bumped, hits = re.subn(r"\d+", lambda m: str(int(m.group()) + 1),
                               line.strip(), count=1)
        if hits:
            pairs.append({"precode": line.strip(), "aftercode": bumped})
    return f"<json> {json.dumps(pairs)} </json>"


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="mutkit-demo-") as scratch:
        base = Path(scratch)
        corpus_path = base / "corpus.jsonl"
        index_path = base / "corpus.index"
        write_corpus(corpus_path)
        index = build_index(ingest_corpus(str(corpus_path)).pairs,
                            backend=LexicalEmbedder(dimension=64))
        index.save(str(index_path))

        config = PipelineConfig(corpus=str(corpus_path), index=str(index_path),
                                dimension=64, output_dir=str(base / "out"),
                                retrieval_n=3)
        targets = [TargetSpec(bug_id="Disc-1", method=FOCAL_METHOD,
                              project="Shop")]

        print("== 1. Record pass: capture the prompts ==")
        record_path = base / "record.jsonl"
        recorder = MockBackend({}, record_path=str(record_path))
        run_generate(config, targets, backend=recorder)
        recorded = [json.loads(line) for line
                    in record_path.read_text(encoding="utf-8").splitlines()]
        print(f"captured {len(recorded)} prompts (one per chunk)")

        print("\n== 2. Script the answers and rerun ==")
        # A mock script is plain JSONL, one reply per prompt digest; the
        # configured backend reads it and checks every field's type.
        script_path = base / "script.jsonl"
        script_path.write_text("".join(
            json.dumps({"prompt_digest": item["prompt_digest"],
                        "response_text": craft_response(item["prompt"]),
                        "prompt_tokens": 10, "completion_tokens": 5}) + "\n"
            for item in recorded), encoding="utf-8")
        outcome = run_generate(
            replace(config, backend={"mode": "mock", "script": str(script_path)}),
            targets)
        totals = outcome.summary["totals"]
        print(f"targets succeeded: {totals['succeeded']}/{totals['targets']}")
        print(f"pairs parsed: {totals['pairs_parsed']}, "
              f"materialized: {totals['materialized']}, "
              f"rejected: {totals['rejected']}")

        print("\n== 3. One materialized mutant ==")
        mutant = outcome.mutants[sorted(outcome.mutants)[0]]
        print(f"{mutant.id} edits line {mutant.target_line}:")
        print(f"  - {mutant.original_line_text.strip()}")
        print(f"  + {mutant.mutated_line_text.strip()}")

        print("\n== 4. Export fine-tuning instances ==")
        contexts = {(row["bug_id"], row["chunk_id"]):
                    SftContext(bug_id=row["bug_id"], chunk_id=row["chunk_id"],
                               prompt=row["prompt"], project="Shop")
                    for row in outcome.prompts}
        # A real run would take the coupled subset from the effectiveness
        # report; the demo keeps every mutant.
        result = export(outcome.mutants.values(), set(outcome.mutants),
                        contexts, grouped=True)
        sft_path = base / "sft.jsonl"
        write_instances(result.instances, sft_path)
        print(f"wrote {len(result.instances)} grouped instances to sft.jsonl")
        first = result.instances[0]
        print(f"first instance covers mutants: {list(first.mutant_ids)}")
        print(f"response text: {first.response}")


if __name__ == "__main__":
    main()
