"""Tests for method parsing and logic-based chunking."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutkit import chunker
from mutkit.chunker import (
    MethodSyntaxError,
    chunk_method,
    chunks_as_dicts,
    parse_method,
    whole_method_chunk,
)
from oracles import oracle_chunks
from test_pipeline import CLAMP_FIXED

NESTED = "\n".join([
    "void demo() {",              # 1
    "    int a = 0;",             # 2
    "    int b = 1;",             # 3
    "    if (a < b) {",           # 4
    "        int c = 2;",         # 5
    "        while (c > 0) {",    # 6
    "            c--;",           # 7
    "        }",                  # 8
    "    }",                      # 9
    "    return a;",              # 10
    "}",                          # 11
])


def assert_partition(method, chunks):
    seen = []
    for chunk in chunks:
        seen.extend(chunk.line_numbers)
    assert sorted(seen) == list(method.lines)
    assert len(seen) == len(set(seen))


def targets(source):
    """(kind, start line, end line, depth, declaration run) of each
    control-flow statement, in the pre-order of the chunker's one walk."""
    walk = chunker._targets(parse_method(source).root, 0, frozenset())
    return [(stmt.kind, stmt.start_line, stmt.end_line, depth, sorted(run))
            for stmt, depth, run in walk]


def preorder(stmt, depth=0):
    """(kind, start line, end line, depth) of every statement under stmt."""
    yield stmt.kind, stmt.start_line, stmt.end_line, depth
    for child in stmt.children:
        yield from preorder(child, depth + 1)


def reconstruct(method, chunks):
    pairs = []
    for chunk in chunks:
        texts = chunk.text.split("\n")
        assert len(texts) == len(chunk.line_numbers)
        pairs.extend(zip(chunk.line_numbers, texts))
    pairs.sort()
    return "\n".join(text for _, text in pairs)


class TestParseMethod:
    def test_line_range_counts_trailing_blank_lines(self):
        source = "void a() {\n    return;\n}\n\n\n"
        # Oracle: str.splitlines() yields 5 lines for this text.
        assert len(source.splitlines()) == 5
        method = parse_method(source)
        assert method.lines == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("declaration", [
        r'String s = "say \"}\" now";',
        r'String s = "ends in a backslash \\";',
        r"char c = '\'';",
        r"char c = '\\';",
    ])
    def test_escapes_inside_literals(self, declaration):
        method = parse_method(f"void a() {{\n    {declaration}\n    int k = 1;\n}}")
        assert [(s.kind, s.start_line) for s in method.root.children] == [
            ("decl", 2), ("decl", 3)]

    @pytest.mark.parametrize("tail", ['"abc;\n}', "'a;\n}", '"ends in an escape \\'])
    def test_unterminated_literal_reports_its_line(self, tail):
        with pytest.raises(MethodSyntaxError, match="unterminated literal") as err:
            parse_method(f"void a() {{\n    int k = 1;\n    String s = {tail}")
        assert err.value.line == 3

    def test_a_newline_inside_a_string_is_accepted_and_counted(self):
        # Java rejects this.  The lexer accepts it and counts the line, because
        # text blocks (next test) lex through the same path.
        method = parse_method('void a() {\n    String s = "one\ntwo";\n    int k = 1;\n}')
        assert [(s.kind, s.start_line, s.end_line) for s in method.root.children] == [
            ("decl", 2, 3), ("decl", 4, 4)]

    def test_a_text_block_is_counted_line_by_line(self):
        # The lexer reads a text block as the literals "", "<body>" and "",
        # so its lines are counted and the block stays one declaration.
        source = "\n".join([
            "void a() {",                 # 1
            '    String s = """',         # 2
            "        hello",              # 3
            '        """;',               # 4
            "    if (s.isEmpty()) {",     # 5
            "        return;",            # 6
            "    }",                      # 7
            "    x();",                   # 8
            "}",                          # 9
        ])
        method = parse_method(source)
        assert [(s.kind, s.start_line, s.end_line) for s in method.root.children] == [
            ("decl", 2, 4), ("if", 5, 7), ("expr", 8, 8)]
        assert [c.line_numbers for c in chunk_method(method)] == [
            (1,), (2, 3, 4, 5, 6, 7), (8, 9)]

    @pytest.mark.parametrize("literal", ['"one\\\ntwo"', "'\\\n'"])
    def test_an_escaped_newline_inside_a_literal_is_counted(self, literal):
        method = parse_method(f"void a() {{\n    String s = {literal};\n    int k = 1;\n}}")
        assert [(s.kind, s.start_line, s.end_line) for s in method.root.children] == [
            ("decl", 2, 3), ("decl", 4, 4)]

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_only_a_newline_breaks_a_line(self, separator):
        # A Unicode line separator inside a literal stays on its line, as
        # the lexer, promptgen.materialize and validity.dedup count lines.
        source = CLAMP_FIXED.replace(
            "int limit = 10;", f'String label = "a{separator}b"; int limit = 10;')
        method = parse_method(source)
        assert method.lines == (1, 2, 3, 4, 5, 6, 7)
        chunks = chunk_method(method)
        assert_partition(method, chunks)
        assert reconstruct(method, chunks) == source
        assert any(f'"a{separator}b"' in chunk.text for chunk in chunks)

    def test_unbalanced_brace_reports_line(self):
        source = "void a() {\n    if (x) {\n    return;\n}"
        with pytest.raises(MethodSyntaxError) as err:
            parse_method(source)
        assert err.value.line == 1  # the method brace is left unclosed

    def test_missing_semicolon_rejected(self):
        with pytest.raises(MethodSyntaxError):
            parse_method("void a() {\n    int x = 1\n}")

    @pytest.mark.parametrize("statement", [
        "int x = (a];",
        "if (a]) {}",
        "run(() -> { x(a[0)]; });",
        "switch (k) { case (1]: break; }",
        "class Local { int[) f; }",
    ])
    def test_wrong_closer_is_a_syntax_error(self, statement):
        with pytest.raises(MethodSyntaxError, match="mismatched bracket") as err:
            parse_method(f"void a() {{\n    {statement}\n}}")
        assert err.value.line == 2

    @pytest.mark.parametrize("source, message, line", [
        ("void g]nerated() {\n    return;\n}", "unexpected ']'", 1),
        ("void )generated() {\n    return;\n}", "unexpected ')'", 1),
        ("void a() {\n    class L ] { }\n}", "unexpected ']'", 2),
        ("void a() {\n    switch (k) { case 1 ) : break; }\n}", "unexpected ')'", 2),
        ("void a() {\n    switch (k) { case 1 }\n}", "unexpected '}'", 2),
        ("void a() {\n    x = a);\n}", "unexpected ')'", 2),
        ("void a() {\n    int x = 1\n}", "statement missing ';'", 3),
        ("void a() {\n    x = 1", "statement missing ';'", 2),
        ("void a() {\n    class L", "expected '{' in type declaration", 2),
        ("void a()\n", "method body not found", 1),
    ])
    def test_stray_closers_are_named_at_their_line(self, source, message, line):
        with pytest.raises(MethodSyntaxError) as err:
            parse_method(source)
        assert str(err.value) == f"line {line}: {message}"

    def test_wrong_closer_in_signature_is_a_syntax_error(self):
        with pytest.raises(MethodSyntaxError, match="mismatched bracket"):
            parse_method("void a(int x]) {\n    return;\n}")

    def test_synchronized_requires_parentheses(self):
        with pytest.raises(MethodSyntaxError, match="expected '\\('"):
            parse_method("void a() {\n    synchronized {\n        x();\n    }\n}")

    def test_running_out_of_stack_is_a_syntax_error_at_the_current_token(
            self, monkeypatch):
        # A stand-in for a method nested past the recursion limit; test_cli.py
        # runs real ones in a child process.
        def exhausted(parser):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(chunker._Parser, "parse_headed", exhausted)
        with pytest.raises(MethodSyntaxError) as err:
            parse_method("void a() {\n    x();\n    if (x) {\n    }\n}")
        assert str(err.value) == "line 3: statements nested too deep to parse"

    def test_empty_text_rejected(self):
        with pytest.raises(MethodSyntaxError):
            parse_method("   \n  ")

    def test_comments_and_literals_do_not_confuse_parser(self):
        source = "\n".join([
            "void a() {",
            "    // a comment with { and ;",
            "    String s = \"if (x) { }\";",
            "    /* multi",
            "       line } */",
            "    char c = '}';",
            "}",
        ])
        method = parse_method(source)
        assert [s.kind for s in method.root.children] == ["decl", "decl"]

    def test_annotation_arguments_before_body_are_skipped(self):
        source = "@Deprecated\nvoid a(@Named({1, 2}) int x) {\n    return;\n}"
        method = parse_method(source)
        assert method.root.start_line == 2


class TestStatementKinds:
    def test_do_while_single_node_spanning_do_to_semicolon(self):
        source = "\n".join([
            "void a() {",      # 1
            "    do {",        # 2
            "        x();",    # 3
            "    } while (y);",  # 4
            "}",               # 5
        ])
        assert targets(source) == [("do_while", 2, 4, 1, [])]

    def test_try_catch_finally_is_one_node(self):
        source = "\n".join([
            "void a() {",             # 1
            "    try {",              # 2
            "        risky();",       # 3
            "    } catch (Exception e) {",  # 4
            "        log(e);",        # 5
            "    } finally {",        # 6
            "        close();",       # 7
            "    }",                  # 8
            "}",                      # 9
        ])
        assert targets(source) == [("try", 2, 8, 1, [])]

    def test_try_with_resources(self):
        source = "void a() {\n    try (Reader r = open()) {\n        use(r);\n    }\n}"
        assert [target[0] for target in targets(source)] == ["try"]

    def test_enhanced_for_is_a_for_node(self):
        source = "void a() {\n    for (String s : items) {\n        use(s);\n    }\n}"
        assert [target[0] for target in targets(source)] == ["for"]

    def test_else_if_chain_is_nested_if(self):
        source = "\n".join([
            "void a() {",              # 1
            "    if (x) {",            # 2
            "        one();",          # 3
            "    } else if (y) {",     # 4
            "        two();",          # 5
            "    }",                   # 6
            "}",                       # 7
        ])
        assert targets(source) == [("if", 2, 6, 1, []), ("if", 4, 6, 2, [])]

    def test_switch_is_not_a_target_but_children_are_visited(self):
        source = "\n".join([
            "void a() {",
            "    switch (x) {",
            "        case 1:",
            "            if (y) {",
            "                z();",
            "            }",
            "            break;",
            "        default:",
            "            w();",
            "    }",
            "}",
        ])
        assert [target[0] for target in targets(source)] == ["if"]

    def test_labeled_loop(self):
        source = "void a() {\n    outer: for (;;) {\n        break outer;\n    }\n}"
        assert targets(source) == [("for", 2, 4, 2, [])]

    def test_braceless_branches(self):
        source = "void a() {\n    if (x)\n        y();\n    else\n        z();\n}"
        assert targets(source) == [("if", 2, 5, 1, [])]

    @pytest.mark.parametrize("statement", ["@1 x;", "final;", "a<1> b;", "a < b;"])
    def test_statements_that_start_like_declarations_are_expressions(self, statement):
        method = parse_method(f"void a() {{\n    {statement}\n}}")
        assert [(s.kind, s.start_line) for s in method.root.children] == [("expr", 2)]


class TestWalk:
    """The one walk yields each target with its depth and declaration run."""

    def test_targets_come_in_pre_order_with_depth_and_run(self):
        assert targets(NESTED) == [("if", 4, 9, 1, [2, 3]), ("while", 6, 8, 3, [5])]

    def test_run_stops_at_first_non_declaration(self):
        source = "\n".join([
            "void a() {",        # 1
            "    int a = 0;",    # 2
            "    log(a);",       # 3
            "    int b = 1;",    # 4
            "    while (b > 0) {",  # 5
            "        b--;",      # 6
            "    }",             # 7
            "}",                 # 8
        ])
        assert targets(source) == [("while", 5, 7, 1, [4])]

    def test_a_run_holds_the_declaration_lines_only(self):
        source = "\n".join([
            "void a() {",        # 1
            "    int a = 0;",    # 2
            "",                  # 3
            "    // b next",     # 4
            "    int b = 1; if (a < b) {",  # 5
            "        b--;",      # 6
            "    }",             # 7
            "}",                 # 8
        ])
        assert targets(source) == [("if", 5, 7, 1, [2, 5])]

    def test_a_statement_outside_a_block_has_no_run(self):
        source = "void a() {\n    int a = 0;\n    if (x)\n        while (y)\n            z();\n}"
        assert targets(source) == [("if", 3, 5, 1, [2]), ("while", 4, 5, 2, [])]

    def test_a_switch_body_passes_no_run(self):
        source = "\n".join([
            "void a() {",               # 1
            "    switch (k) {",         # 2
            "        case 1:",          # 3
            "            int v = 0;",   # 4
            "            if (v > k) {",  # 5
            "                v--;",     # 6
            "            }",            # 7
            "    }",                    # 8
            "}",                        # 9
        ])
        assert targets(source) == [("if", 5, 7, 2, [])]

    @pytest.mark.parametrize("labels", ["outer: ", "outer: inner: "])
    def test_a_label_hands_its_run_on_to_the_statement_it_labels(self, labels):
        source = "\n".join([
            "void a(int[] xs) {",      # 1
            "    int total = 0;",      # 2
            f"    {labels}for (int x : xs) {{",  # 3
            "        total += x;",     # 4
            "    }",                   # 5
            "}",                       # 6
        ])
        depth = 1 + labels.count(":")
        assert targets(source) == [("for", 3, 5, depth, [2])]


class TestTargetOrdering:
    def test_same_line_tie_broken_by_depth(self):
        # The else-if, one level deeper, claims line 3 first; it has no
        # declaration run, and the outer if is left nothing to claim.
        source = "void a() {\n    int v = 0;\n    if (x) { y(); } else if (z) { w(); }\n}"
        assert [(c.line_numbers, c.kind) for c in chunk_method(parse_method(source))] == [
            ((1, 2), "segment"), ((3,), "control_flow"), ((4,), "segment")]

    def test_same_line_siblings_keep_pre_order(self):
        # The first if claims the line and the declaration above it.
        source = "void a() {\n    int v = 0;\n    if (a) x(); if (b) y();\n}"
        assert [(c.line_numbers, c.kind) for c in chunk_method(parse_method(source))] == [
            ((1,), "segment"), ((2, 3), "control_flow"), ((4,), "segment")]


class TestChunkMethod:
    def test_straight_line_body_is_one_segment(self):
        source = "void a() {\n    x();\n    y();\n    z();\n}"
        method = parse_method(source)
        chunks = chunk_method(method)
        assert len(chunks) == 1
        assert chunks[0].kind == "segment"
        assert chunks[0].line_numbers == (1, 2, 3, 4, 5)

    def test_decl_plus_if_then_return(self):
        source = "\n".join([
            "void a() {",        # 1
            "    int v = 0;",    # 2
            "    if (x) {",      # 3
            "        v = 1;",    # 4
            "    }",             # 5
            "    return v;",     # 6  (with 7 = closing brace)
            "}",
        ])
        chunks = chunk_method(parse_method(source))
        by_kind = {}
        for chunk in chunks:
            by_kind.setdefault(chunk.kind, []).append(chunk.line_numbers)
        assert by_kind["control_flow"] == [(2, 3, 4, 5)]
        assert by_kind["segment"] == [(1,), (6, 7)]

    def test_nested_while_claimed_before_outer_if(self):
        method = parse_method(NESTED)
        chunks = chunk_method(method)
        assert [(c.line_numbers, c.kind) for c in chunks] == [
            ((1,), "segment"),
            ((2, 3, 4, 9), "control_flow"),
            ((5, 6, 7, 8), "control_flow"),
            ((10, 11), "segment"),
        ]

    def test_a_loop_on_the_line_of_its_if_leaves_the_if_nothing_to_claim(self):
        source = "void a() {\n    if (a) while (b) {\n        x();\n    }\n}"
        chunks = chunk_method(parse_method(source))
        assert [(c.line_numbers, c.kind) for c in chunks] == [
            ((1,), "segment"), ((2, 3, 4), "control_flow"), ((5,), "segment")]

    def test_partition_and_reconstruction(self):
        method = parse_method(NESTED)
        chunks = chunk_method(method)
        assert_partition(method, chunks)
        assert reconstruct(method, chunks) == NESTED

    def test_determinism(self):
        first = chunk_method(parse_method(NESTED))
        second = chunk_method(parse_method(NESTED))
        assert first == second

    def test_control_chunk_lines_subset_of_node_plus_decls(self):
        allowed = set()
        for _, start, end, _, run in targets(NESTED):
            allowed |= set(range(start, end + 1)) | set(run)
        for chunk in chunk_method(parse_method(NESTED)):
            if chunk.kind == "control_flow":
                assert set(chunk.line_numbers) <= allowed

    def test_a_run_line_already_claimed_stays_with_its_first_claimer(self):
        source = "\n".join([
            "void a() {",                                  # 1
            "    int v = 0; if (v > 0) { while (v > 0) {",  # 2
            "        v--;",                                # 3
            "    }",                                       # 4
            "    }",                                       # 5
            "}",                                           # 6
        ])
        assert [(c.line_numbers, c.kind) for c in chunk_method(parse_method(source))] == [
            ((1,), "segment"), ((2, 3, 4), "control_flow"), ((5,), "control_flow"),
            ((6,), "segment")]

    @pytest.mark.parametrize("label", ["", "outer: "])
    def test_a_labelled_loop_claims_the_declarations_above_its_label(self, label):
        source = "\n".join([
            "int f(int[] a) {",                 # 1
            "    int total = 0;",               # 2
            f"    {label}for (int x : a) {{",    # 3
            "        total += x;",              # 4
            "    }",                            # 5
            "    return total;",                # 6
            "}",                                # 7
        ])
        assert [(c.line_numbers, c.kind) for c in chunk_method(parse_method(source))] == [
            ((1,), "segment"), ((2, 3, 4, 5), "control_flow"), ((6, 7), "segment")]

    def test_whole_method_chunk(self):
        method = parse_method(NESTED)
        chunk = whole_method_chunk(method)
        assert chunk.line_numbers == method.lines
        assert chunk.text == NESTED

    def test_chunk_listing_shape(self):
        listing = chunks_as_dicts(chunk_method(parse_method(NESTED)))
        assert listing[0]["chunk_id"] == "c00"
        assert set(listing[0]) == {"chunk_id", "kind", "line_numbers", "text"}


# Statement templates: one tuple of lines each, "VAR" stands for a fresh name.
DECLS = (
    ("int VAR = a * 3;",),
    ("final int VAR = 2;",),
    ("@SuppressWarnings(\"x\") final int VAR = 0;",),
    ("@Deprecated long VAR;",),
    ("@Ann(key = {1, 2}) long VAR = 4L;",),
    ("Map<String, List<Integer>> VAR = new HashMap<>();",),
    ("List<? extends Number> VAR = List.of();",),
    ("java.util.List<String> VAR = null;",),
    ("Map.Entry<String, int[]> VAR = null;",),
    ("int[] VAR = {1, 2, 3};",),
    ("Object[][] VAR = new Object[2][3];",),
    ("String VAR = \"{([\"; // ) ] }",),
    ("char VAR = '}';",),
    ("var VAR = compute(a, (b));",),
    ("int VAR, wVAR = 1;",),
    ("int VAR = a",
     "        + 2;"),
    ("Runnable VAR = new Runnable() {",
     "    public void run() { if (a > 0) { work(); } }",
     "};"),
    ("Function<Integer, Integer> VAR = x -> {",
     "    return x + 1;",
     "};"),
    ("int VAR = switch (a) {",
     "    case 1 -> 10;",
     "    default -> 0;",
     "};"),
)
EXPRS = (
    ("update(3);",),
    ("a = a + 1;",),
    ("b += a - 2; /* { */",),
    ("i++;",),
    ("list.add(\"x)\");",),
    ("obj.field = other[1];",),
    ("this.call(a, b);",),
    ("work(/* ) */ 1);",),
    ("run(() -> {",
     "    if (a > 0) { work(); }",
     "});"),
    ("new Thread(new Runnable() {",
     "    public void run() { }",
     "}).start();"),
    ("log(\"a\", // }",
     "    b);"),
)
SIMPLES = (
    ("return;",),
    ("break;",),
    ("continue;",),
    ("assert a > 0 : \"a(\";",),
    ("throw new IllegalStateException(\"]\");",),
    ("throw new IllegalArgumentException(",
     "        \"bad {\" + a);"),
)
LOCAL_TYPES = (
    ("class LocalVAR {",
     "    int f() { return \"}\".length(); }",
     "}"),
    ("interface ShapeVAR { double area(); }",),
    ("enum ColorVAR {",
     "    RED, GREEN;",
     "    ColorVAR next() { return RED; }",
     "}"),
    ("class BoxVAR<T extends Number> implements Comparable<BoxVAR<T>> {",
     "    public int compareTo(BoxVAR<T> o) { return 0; }",
     "}"),
)
COMMENTS = (
    ("// note: } ) ] {",),
    ("/* block { (",
     "   ends ] */"),
    ("",),
)
HEADERS = (
    ("void generated() {",),
    ("@Override",
     "public int generated(@Named({1, 2}) int a, int[] xs) {"),
    ("static <T extends Comparable<T>> void generated(",
     "        List<T> items) throws IOException {"),
)
CONDITIONS = ("a > 1", "xs[0] < (b + 1)", "s.equals(\")\")", "check(a, new int[] {1, 2})")
LOOP_HEADERS = (
    ("for", ("for (int i = 0; i < 9; i++)",)),
    ("for", ("for (String s : items)",)),
    ("for", ("for (int i = 0;", "        i < n; i++)")),
    ("for", ("for (;;)",)),
    ("while", ("while (a < 3)",)),
)
COLON_LABELS = ("case 1:", "case RED:", "case 'x':", "case \"}\":", "case (1 + 2):",
                "case 2: case 3:", "default:")
ARROW_LABELS = ("case 1 -> ", "case 2, 3 -> ", "case \"}\" -> ", "default -> ")
LEAVES = ("decl", "decl", "decl", "expr", "expr", "simple", "comment", "empty",
          "local_type")
MAX_LEVEL = 3  # compound statements nest at most this deep
COMPOUNDS = ("if_chain", "braceless_if", "loop", "braceless_loop", "do_while",
             "try_stmt", "switch_colon", "switch_arrow", "labelled", "synchronized",
             "bare_block")


class MethodWriter:
    """Writes a random Java method and the statement tree it must parse to.

    ``choose`` picks one item of a sequence: ``random.Random.choice`` or a
    hypothesis draw.  ``tree`` holds one ``[kind, start_line, end_line,
    depth]`` per statement in pre-order;
    ``used`` names every template and compound that was written.
    """

    def __init__(self, choose):
        self.choose = choose
        self.lines: list[str] = []
        self.tree: list[list] = []
        self.used: set[str] = set()
        self.prefix = ""
        self.names = 0

    def method(self) -> tuple[str, list[tuple]]:
        header = self.choose(HEADERS)
        for text in header[:-1]:
            self.emit(0, text)
        root = self.node("block", 0)
        self.emit(0, header[-1])
        self.statements(1, 1, 0)
        root[2] = self.emit(0, "}")
        return "\n".join(self.lines), [tuple(record) for record in self.tree]

    # -- bookkeeping
    def emit(self, indent: int, text: str) -> int:
        self.lines.append("    " * indent + self.prefix + text)
        self.prefix = ""
        return len(self.lines)

    def node(self, kind: str, depth: int, start: int | None = None) -> list:
        record = [kind, start or len(self.lines) + 1, None, depth]
        self.tree.append(record)
        return record

    def template(self, kind: str | None, templates, indent: int, depth: int) -> None:
        lines = self.choose(templates)
        self.used.add(lines[0])
        self.names += 1
        record = self.node(kind, depth) if kind else None
        for text in lines:
            end = self.emit(indent, text.replace("VAR", f"v{self.names}"))
        if record:
            record[2] = end

    def statements(self, indent: int, depth: int, level: int) -> None:
        for _ in range(self.choose((1, 1, 2, 3))):
            kinds = LEAVES + COMPOUNDS if level < MAX_LEVEL else LEAVES
            kind = self.choose(kinds)
            self.used.add(kind)
            getattr(self, kind)(indent, depth, level)

    # -- leaves
    def decl(self, indent, depth, level):
        self.template("decl", DECLS, indent, depth)

    def expr(self, indent, depth, level):
        self.template("expr", EXPRS, indent, depth)

    def simple(self, indent, depth, level):
        self.template("simple", SIMPLES, indent, depth)

    def local_type(self, indent, depth, level):
        self.template("local_type", LOCAL_TYPES, indent, depth)

    def comment(self, indent, depth, level):
        self.template(None, COMMENTS, indent, depth)

    def empty(self, indent, depth, level):
        record = self.node("empty", depth)
        record[2] = self.emit(indent, ";")

    # -- compounds
    def if_chain(self, indent, depth, level):
        node = self.node("if", depth)
        block = self.node("block", depth + 1)
        self.emit(indent, f"if ({self.choose(CONDITIONS)}) {{")
        self.statements(indent + 1, depth + 2, level + 1)
        tail = self.choose(("", "else", "else if") if level < MAX_LEVEL else ("", "else"))
        if tail == "else if":
            block[2] = len(self.lines) + 1
            self.prefix = "} else "
            node[2] = self.if_chain(indent, depth + 1, level + 1)[2]
            return node
        if tail == "else":
            line = self.emit(indent, "} else {")
            block[2] = line
            block = self.node("block", depth + 1, start=line)
            self.statements(indent + 1, depth + 2, level + 1)
        node[2] = block[2] = self.emit(indent, "}")
        return node

    def braceless_if(self, indent, depth, level):
        node = self.node("if", depth)
        self.emit(indent, f"if ({self.choose(CONDITIONS)})")
        self.braceless_body(indent + 1, depth + 1)
        if self.choose((False, True)):
            self.emit(indent, "else")
            self.braceless_body(indent + 1, depth + 1)
        node[2] = len(self.lines)

    def braceless_body(self, indent, depth):
        """An expression, a jump, or a braceless loop around one; never an if."""
        choice = self.choose(("expr", "simple", "braceless_loop"))
        getattr(self, choice)(indent, depth, MAX_LEVEL)

    def loop(self, indent, depth, level):
        kind, header = self.choose(LOOP_HEADERS)
        node = self.node(kind, depth)
        for text in header[:-1]:
            self.emit(indent, text)
        block = self.node("block", depth + 1)
        self.emit(indent, header[-1] + " {")
        self.statements(indent + 1, depth + 2, level + 1)
        node[2] = block[2] = self.emit(indent, "}")
        return node

    def braceless_loop(self, indent, depth, level):
        kind, header = self.choose(LOOP_HEADERS)
        node = self.node(kind, depth)
        for text in header:
            self.emit(indent, text)
        self.expr(indent + 1, depth + 1, level)
        node[2] = len(self.lines)

    def do_while(self, indent, depth, level):
        node = self.node("do_while", depth)
        if self.choose((True, False)):
            block = self.node("block", depth + 1)
            self.emit(indent, "do {")
            self.statements(indent + 1, depth + 2, level + 1)
            node[2] = block[2] = self.emit(indent, f"}} while ({self.choose(CONDITIONS)});")
        else:
            self.emit(indent, "do")
            self.expr(indent + 1, depth + 1, level)
            node[2] = self.emit(indent, f"while ({self.choose(CONDITIONS)});")
        return node

    def try_stmt(self, indent, depth, level):
        node = self.node("try", depth)
        block = self.node("block", depth + 1)
        self.emit(indent, self.choose((
            "try {", "try (Reader r = open(\"(\")) {",
            "try (Reader r = open(); Writer w = sink()) {")))
        self.statements(indent + 1, depth + 2, level + 1)
        for clause in self.choose((("catch",), ("catch", "catch"), ("finally",),
                                   ("catch", "finally"))):
            line = self.emit(indent, "} catch (IOException | RuntimeException e) {"
                             if clause == "catch" else "} finally {")
            block[2] = line
            block = self.node("block", depth + 1, start=line)
            self.statements(indent + 1, depth + 2, level + 1)
        node[2] = block[2] = self.emit(indent, "}")

    def switch_colon(self, indent, depth, level):
        node = self.node("switch", depth)
        self.emit(indent, "switch (a + b) {")
        for _ in range(self.choose((1, 2, 3))):
            self.emit(indent + 1, self.choose(COLON_LABELS))
            self.statements(indent + 2, depth + 1, level + 1)
        node[2] = self.emit(indent, "}")

    def switch_arrow(self, indent, depth, level):
        node = self.node("switch", depth)
        self.emit(indent, "switch (kind()) {")
        for _ in range(self.choose((1, 2, 3))):
            self.prefix = self.choose(ARROW_LABELS)
            arm = self.choose(("expr", "simple", "block"))
            if arm != "block":
                getattr(self, arm)(indent + 1, depth + 1, level)
                continue
            block = self.node("block", depth + 1)
            self.emit(indent + 1, "{")
            self.statements(indent + 2, depth + 2, level + 1)
            block[2] = self.emit(indent + 1, "}")
        node[2] = self.emit(indent, "}")

    def labelled(self, indent, depth, level):
        node = self.node("label", depth)
        self.names += 1
        self.prefix = f"outer{self.names}: "
        inner = self.choose((self.loop, self.do_while))(indent, depth + 1, level)
        node[2] = inner[2]

    def synchronized(self, indent, depth, level):
        node = self.node("synchronized", depth)
        block = self.node("block", depth + 1)
        self.emit(indent, "synchronized (this.lock) {")
        self.statements(indent + 1, depth + 2, level + 1)
        node[2] = block[2] = self.emit(indent, "}")

    def bare_block(self, indent, depth, level):
        block = self.node("block", depth)
        self.emit(indent, "{")
        self.statements(indent + 1, depth + 1, level + 1)
        block[2] = self.emit(indent, "}")


def round_robin():
    """A chooser that takes the options of each sequence in turn."""
    turns = Counter()

    def choose(options):
        turns[options] += 1
        return options[(turns[options] - 1) % len(options)]

    return choose


def synthesize_method(rng: random.Random) -> str:
    """A generated method's text, drawn from a seeded random source."""
    return MethodWriter(rng.choice).method()[0]


@st.composite
def java_methods(draw):
    """A generated method and the statement tree it must parse to."""
    return MethodWriter(lambda options: draw(st.sampled_from(options))).method()


def check_generated(source: str, tree: list[tuple]) -> None:
    """The method parses to the recorded tree, the walk finds its targets
    at their recorded depths, and the chunks are the oracle's."""
    method = parse_method(source)
    assert list(preorder(method.root)) == tree
    assert [target[:4] for target in targets(source)] == [
        record for record in tree if record[0] in chunker.TARGET_KINDS]
    chunks = chunk_method(method)
    assert_partition(method, chunks)
    assert reconstruct(method, chunks) == source
    assert [(c.kind, c.line_numbers, c.text) for c in chunks] == oracle_chunks(source, tree)


def declaration_above_a_label(tree: list[tuple]) -> bool:
    """Whether some label in a block comes right after a declaration."""
    for i, (kind, _, _, depth) in enumerate(tree):
        if kind != "label":
            continue
        earlier = [record for record in reversed(tree[:i]) if record[3] <= depth]
        parent = next(record for record in earlier if record[3] < depth)
        if earlier[0][3] == depth and earlier[0][0] == "decl" and parent[0] == "block":
            return True
    return False


class TestSyntheticPartition:
    def test_random_methods_partition_and_reconstruct(self):
        rng = random.Random(1234)
        for _ in range(30):
            check_generated(*MethodWriter(rng.choice).method())

    def test_round_robin_methods_write_every_construct(self):
        choose = round_robin()
        used = set()
        for _ in range(20):
            writer = MethodWriter(choose)
            check_generated(*writer.method())
            used |= writer.used
        templates = DECLS + EXPRS + SIMPLES + LOCAL_TYPES + COMMENTS
        assert used == {lines[0] for lines in templates} | set(LEAVES + COMPOUNDS)

    @given(java_methods())
    @settings(max_examples=150, deadline=None)
    def test_generated_methods_parse_to_recorded_tree(self, case):
        check_generated(*case)

    def test_seeded_methods_chunk_as_the_oracle_does(self):
        labelled = 0
        for seed in range(3000):
            source, tree = MethodWriter(random.Random(seed).choice).method()
            check_generated(source, tree)
            labelled += declaration_above_a_label(tree)
        # 45 of the methods have a declaration right above a label in a
        # block, the case where the label passes the run on.
        assert labelled == 45
