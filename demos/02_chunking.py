"""Walkthrough: split a focal method into logic-coherent chunks.

Parses a nested Java method, lists the statement tree the parser saw,
and prints the chunk partition: every line lands in exactly one chunk,
and each control-flow construct travels with the declarations it needs.

    python3 demos/02_chunking.py
"""

from mutkit.chunker import chunk_method, chunks_as_dicts, parse_method

METHOD = """\
public static int score(int[] values, int limit) {
    int total = 0;
    int bonus = 5;
    for (int i = 0; i < values.length; i++) {
        if (values[i] > limit) {
            total += bonus;
        } else {
            total += values[i];
        }
    }
    while (total > 100) {
        total -= 10;
    }
    try {
        check(total);
    } catch (Exception e) {
        return -1;
    }
    return total;
}"""


def main() -> None:
    print("== 1. The focal method ==")
    numbered = METHOD.split("\n")
    for i, line in enumerate(numbered, start=1):
        print(f"  {i:2d} | {line}")

    method = parse_method(METHOD)
    print(f"\nparsed lines {method.lines[0]}..{method.lines[-1]}")

    print("\n== 2. The chunk partition ==")
    chunks = chunk_method(method)
    for item in chunks_as_dicts(chunks):
        lines = item["line_numbers"]
        print(f"{item['chunk_id']}  kind={item['kind']:<8} lines={lines}")
        for line in item["text"].split("\n"):
            print(f"      | {line}")

    print("\n== 3. Partition check ==")
    covered = sorted(n for chunk in chunks for n in chunk.line_numbers)
    print(f"lines covered once each: {covered == list(method.lines)}")
    print(f"chunk count: {len(chunks)}")


if __name__ == "__main__":
    main()
