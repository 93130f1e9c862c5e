"""Logic-based chunking of Java-style methods.

A method body is partitioned into chunks by claiming control-flow
constructs bottom-up.  One pre-order walk of the statement tree yields
each if/for/while/do-while/try statement with its depth and the lines of
the run of local-variable declarations immediately above it in the same
block.  A label hands the run above it on to the statement it labels, so
``int n = 0; outer: for (...)`` claims the declaration as the unlabelled
loop would.  The statements are visited in descending order of start line
(the deeper first on ties, pre-order among equals), each claims its own
not-yet-claimed lines plus those of its declaration run, and whatever
remains is split into maximal runs of consecutive lines.  Every physical
line of the method lands in exactly one chunk.

The lexer is one regular expression, matched once per token: it skips
blanks and comments, then takes a literal (which may span lines), a word,
a number, ``::`` or ``->``, or any other single character.  A token's line
is the line it starts on, and only "\\n" breaks a line.  A literal or block
comment that nothing closes is a ``MethodSyntaxError`` at its first line.
A statement-level recursive descent parser that builds no expression
trees then parses:

- blocks, empty statements, and labelled statements;
- ``if``/``else`` (else-if chains nest), ``for`` and enhanced ``for``,
  ``while``, ``do``-``while`` and ``synchronized``, with braced or
  braceless bodies;
- ``try`` with resources, ``catch`` clauses and ``finally``;
- ``switch`` with ``case X:`` and ``case X ->`` labels;
- local ``class``/``interface``/``enum`` declarations, kept whole;
- ``return``/``throw``/``break``/``continue``/``assert``, and every other
  statement up to its ``;``, which is a declaration when it reads as
  ``[final|@Annotation(...)]* Type[<args>][[]]* name`` followed by ``=``,
  ``,``, ``[`` or the ``;`` (otherwise an expression).

Anonymous-class and lambda bodies are consumed as opaque expression text,
so control flow inside them is not chunked separately.

Bracket rule: ``(``, ``[`` and ``{`` groups nest, and each must be closed
by its own closer.  A closer of the wrong type, or one with no opener,
is a ``MethodSyntaxError`` wherever it occurs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

TARGET_KINDS = ("if", "for", "while", "do_while", "try")

_KEYWORDS = frozenset("""
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
""".split())

_PRIMITIVES = frozenset(
    ["boolean", "byte", "char", "short", "int", "long", "float", "double"])

# A word starts with "$" or with anything \w matches but a decimal digit:
# re has no class for str.isdigit, so a digit such as "²" starts a word.
_TOKEN = re.compile(r"""
    (?: [ \t\r\f\n]+ | //[^\n]* | /\*.*?\*/ )*
    (?: (?P<literal> "[^"\\]*(?:\\.[^"\\]*)*" | '[^'\\]*(?:\\.[^'\\]*)*' )
      | (?P<unclosed> ["'] | /\* )
      | (?P<word> (?!\d)[\w$]+ )
      | (?P<number> \d[\w.]* )
      | (?P<punct> :: | -> | . )
      | (?P<end> \Z ) )
""", re.VERBOSE | re.DOTALL)


class ChunkerError(Exception):
    """Base error for the chunking pipeline."""


class MethodSyntaxError(ChunkerError):
    """Raised when the method text cannot be parsed; carries a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Token:
    kind: str  # ident | keyword | number | literal | punct
    text: str
    line: int


@dataclass
class Stmt:
    """One parsed statement with its physical line span."""

    kind: str
    start_line: int
    end_line: int
    children: list["Stmt"] = field(default_factory=list)

    def lines(self) -> set[int]:
        return set(range(self.start_line, self.end_line + 1))


@dataclass
class FocalMethod:
    """A parsed method: source text, its line range, and the statement tree."""

    source: str
    lines: tuple[int, ...]
    root: Stmt


@dataclass(frozen=True)
class CodeChunk:
    """One chunk: a set of physical lines, their text, and the chunk kind."""

    line_numbers: tuple[int, ...]
    text: str
    kind: str  # control_flow | segment


def _lex(source: str) -> list[Token]:
    """Tokenize method source, skipping whitespace and comments.

    A token's line is the line it starts on: the line breaks between one
    token's start and the next are counted as the scan moves on.
    """
    tokens: list[Token] = []
    line, start = 1, 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        line += source.count("\n", start, match.start(kind))
        start = match.start(kind)
        text = match.group(kind)
        if kind == "end":
            break
        if kind == "unclosed":
            raise MethodSyntaxError("unterminated block comment" if text == "/*"
                                    else "unterminated literal", line)
        if kind == "word":
            kind = "keyword" if text in _KEYWORDS else "ident"
        tokens.append(Token(kind, text, line))
    return tokens


# Only punct tokens can have these texts: literals keep their quotes.
_CLOSER_OF = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = frozenset(_CLOSER_OF.values())


def _skip_group(tokens: list[Token], i: int) -> int:
    """Index just past the bracket group that opens at ``tokens[i]``."""
    expected: list[str] = []
    for j in range(i, len(tokens)):
        text = tokens[j].text
        if text in _CLOSER_OF:
            expected.append(_CLOSER_OF[text])
        elif text in _CLOSERS:
            if text != expected.pop():
                raise MethodSyntaxError("mismatched bracket", tokens[j].line)
            if not expected:
                return j + 1
    raise MethodSyntaxError(f"unclosed '{tokens[i].text}'", tokens[i].line)


class _Parser:
    """Statement-level recursive descent over the token stream."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.handlers = {
            "if": self.parse_headed,
            "for": self.parse_headed,
            "while": self.parse_headed,
            "synchronized": self.parse_headed,
            "do": self.parse_do,
            "try": self.parse_try,
            "switch": self.parse_switch,
            "class": self.parse_local_type,
            "interface": self.parse_local_type,
            "enum": self.parse_local_type,
        }

    def peek(self, offset: int = 0) -> Token | None:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at(self, text: str, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token is not None and token.text == text

    def expect(self, text: str, message: str) -> Token:
        if not self.at(text):
            raise self.error(message)
        return self.advance()

    def error(self, message: str) -> MethodSyntaxError:
        """``message`` at the current token, or at the last one at the end."""
        return MethodSyntaxError(message, (self.peek() or self.tokens[-1]).line)

    def last_line(self) -> int:
        return self.tokens[self.pos - 1].line

    def skip_parens(self) -> None:
        self.expect("(", "expected '('")
        self.pos = _skip_group(self.tokens, self.pos - 1)

    def skip_to(self, stops: tuple[str, ...], message: str, line: int | None = None) -> None:
        """Move to the next token in ``stops`` outside any bracket group.

        A closer with no opener raises ``unexpected '<closer>'`` at its own
        line; the end of input raises ``message`` at ``line`` (default: the
        last token's line).
        """
        tokens = self.tokens
        while self.pos < len(tokens):
            token = tokens[self.pos]
            if token.text in stops:
                return
            if token.text in _CLOSERS:
                raise MethodSyntaxError(f"unexpected '{token.text}'", token.line)
            self.pos = _skip_group(tokens, self.pos) if token.text in _CLOSER_OF else self.pos + 1
        raise MethodSyntaxError(message, self.last_line() if line is None else line)

    # --- statement parsing -----------------------------------------------

    def parse_statements(self, opener: Token,
                         labels: bool = False) -> tuple[list[Stmt], Token]:
        """Statements up to the '}' that closes ``opener``, and that '}'.

        In a switch body (``labels``) the case labels are skipped.
        """
        children: list[Stmt] = []
        while True:
            token = self.peek()
            if token is None:
                raise MethodSyntaxError("unclosed '{'", opener.line)
            if token.text == "}":
                return children, self.advance()
            if labels and token.text in ("case", "default"):
                self.skip_to((":", "->"), "unterminated case label", token.line)
                self.pos += 1
            else:
                children.append(self.parse_statement())

    def parse_block(self) -> Stmt:
        opener = self.expect("{", "expected '{'")
        children, closer = self.parse_statements(opener)
        return Stmt("block", opener.line, closer.line, children)

    def parse_statement(self) -> Stmt:
        token = self.peek()
        if token is None:
            raise MethodSyntaxError("unexpected end of input", self.last_line())
        if token.kind == "punct":
            if token.text == "{":
                return self.parse_block()
            if token.text == ";":
                self.advance()
                return Stmt("empty", token.line, token.line)
            if token.text in _CLOSERS:
                raise MethodSyntaxError(f"unexpected '{token.text}'", token.line)
        if token.kind == "keyword":
            handler = self.handlers.get(token.text)
            if handler is not None:
                return handler()
            if token.text in ("return", "throw", "break", "continue", "assert"):
                self.advance()
                self.skip_statement()
                return Stmt("simple", token.line, self.last_line())
        if token.kind == "ident" and self.at(":", 1):
            self.pos += 2
            inner = self.parse_statement()
            return Stmt("label", token.line, inner.end_line, [inner])
        start = self.pos
        self.skip_statement()
        kind = "decl" if _is_declaration(self.tokens[start:self.pos - 1]) else "expr"
        return Stmt(kind, token.line, self.last_line())

    def skip_statement(self) -> None:
        """Move past the statement's top-level ';'.

        A '}' before it ends the block, so the ';' is what is missing.
        """
        self.skip_to((";", "}"), "statement missing ';'")
        if not self.at(";"):
            raise self.error("statement missing ';'")
        self.pos += 1

    def parse_headed(self) -> Stmt:
        """``keyword (...) body``, plus an ``else`` branch after an if."""
        start = self.advance()
        self.skip_parens()
        children = [self.parse_statement()]
        if start.text == "if" and self.at("else"):
            self.advance()
            children.append(self.parse_statement())
        return Stmt(start.text, start.line, children[-1].end_line, children)

    def parse_do(self) -> Stmt:
        start = self.advance()
        body = self.parse_statement()
        self.expect("while", "expected 'while' after do body")
        self.skip_parens()
        closer = self.expect(";", "expected ';' after do-while")
        return Stmt("do_while", start.line, closer.line, [body])

    def parse_try(self) -> Stmt:
        start = self.advance()
        if self.at("("):
            self.skip_parens()
        children = [self.parse_block()]
        while self.at("catch"):
            self.advance()
            self.skip_parens()
            children.append(self.parse_block())
        if self.at("finally"):
            self.advance()
            children.append(self.parse_block())
        return Stmt("try", start.line, children[-1].end_line, children)

    def parse_switch(self) -> Stmt:
        start = self.advance()
        self.skip_parens()
        opener = self.expect("{", "expected '{' after switch")
        children, closer = self.parse_statements(opener, labels=True)
        return Stmt("switch", start.line, closer.line, children)

    def parse_local_type(self) -> Stmt:
        start = self.advance()
        self.skip_to(("{",), "expected '{' in type declaration", start.line)
        self.pos = _skip_group(self.tokens, self.pos)
        return Stmt("local_type", start.line, self.last_line())


_TYPE_ARGUMENT_TEXTS = frozenset(
    [",", ".", "?", "&", "[", "]", "extends", "super"]) | _PRIMITIVES


def _is_declaration(tokens: list[Token]) -> bool:
    """Heuristic: does this statement (without its ';') declare a local?

    Matches [final | @Annotation[(...)]]* Type [generics] [arrays] name
    followed by '=', ',', '[', or the statement end.  Types may be
    primitives, 'var', or dotted identifiers with balanced generic
    arguments.
    """
    n = len(tokens)
    j = 0
    while j < n and tokens[j].text in ("final", "@"):
        if tokens[j].text == "final":
            j += 1
            continue
        if j + 1 >= n or tokens[j + 1].kind not in ("ident", "keyword"):
            return False
        j += 2
        if j < n and tokens[j].text == "(":
            j = _skip_group(tokens, j)

    if j >= n:
        return False
    if tokens[j].text in _PRIMITIVES:
        j += 1
    elif tokens[j].kind == "ident" and tokens[j].text != "yield":
        j += 1
        while j + 1 < n and tokens[j].text == "." and tokens[j + 1].kind in ("ident", "keyword"):
            j += 2
        if j < n and tokens[j].text == "<":
            j = _skip_type_arguments(tokens, j)
            if j < 0:
                return False
    else:
        return False

    while j + 1 < n and tokens[j].text == "[" and tokens[j + 1].text == "]":
        j += 2
    if j >= n or tokens[j].kind != "ident":
        return False
    return j + 1 == n or tokens[j + 1].text in ("=", ",", "[")


def _skip_type_arguments(tokens: list[Token], j: int) -> int:
    """Index just past the <...> type arguments at ``j``; -1 if they are not."""
    depth = 0
    for k in range(j, len(tokens)):
        token = tokens[k]
        if token.text == "<":
            depth += 1
        elif token.text == ">":
            depth -= 1
            if depth == 0:
                return k + 1
        elif token.kind != "ident" and token.text not in _TYPE_ARGUMENT_TEXTS:
            return -1
    return -1


def parse_method(source: str) -> FocalMethod:
    """Parse one method's text into a FocalMethod.

    Args:
        source: the method text, signature through closing brace (trailing
            blank lines allowed and counted).

    Returns:
        FocalMethod with the physical line range (line 1 is the first line
        of ``source``) and statement tree.

    Raises:
        MethodSyntaxError: for unbalanced or unparsable method text, or
            for statements nested deeper than the parser can recurse, with
            the offending line number.
    """
    if not source or not source.strip():
        raise MethodSyntaxError("empty method text", 1)
    tokens = _lex(source)
    if not tokens:
        raise MethodSyntaxError("no tokens in method text", 1)

    parser = _Parser(tokens)
    parser.skip_to(("{",), "method body not found")
    try:
        root = parser.parse_block()
    except RecursionError:
        # The parser recurses once per nesting level (an else-if nests too).
        raise parser.error("statements nested too deep to parse") from None
    if parser.peek() is not None:
        raise parser.error("unexpected tokens after method body")

    lines = tuple(range(1, len(_source_lines(source)) + 1))
    return FocalMethod(source=source, lines=lines, root=root)


def _targets(stmt: Stmt, depth: int, run: frozenset[int]):
    """Each control-flow statement at or under ``stmt``, in pre-order, as
    (statement, depth, lines of the declaration run right above it in its
    block); ``run`` is that of ``stmt`` itself.  A label hands its run on
    to the statement it labels."""
    if stmt.kind in TARGET_KINDS:
        yield stmt, depth, run
    if stmt.kind == "label":
        yield from _targets(stmt.children[0], depth + 1, run)
        return
    run = frozenset()
    for child in stmt.children:
        yield from _targets(child, depth + 1, run)
        in_run = stmt.kind == "block" and child.kind == "decl"
        run = run | child.lines() if in_run else frozenset()


def _consecutive_segments(lines: set[int]) -> list[tuple[int, ...]]:
    segments: list[tuple[int, ...]] = []
    run: list[int] = []
    for line in sorted(lines):
        if run and line != run[-1] + 1:
            segments.append(tuple(run))
            run = []
        run.append(line)
    if run:
        segments.append(tuple(run))
    return segments


def _source_lines(source: str) -> list[str]:
    """The physical lines of ``source`` as the lexer counts them: only
    "\n" breaks a line, and a final "\n" ends the last line."""
    lines = source.split("\n")
    if len(lines) > 1 and not lines[-1]:
        lines.pop()
    return lines


def _chunk_text(source_lines: list[str], line_numbers: tuple[int, ...]) -> str:
    return "\n".join(source_lines[n - 1] for n in line_numbers)


def chunk_method(method: FocalMethod) -> list[CodeChunk]:
    """Partition the method's physical lines into chunks.

    Control-flow chunks are claimed bottom-up (see module docstring); the
    leftovers become segment chunks of maximal consecutive lines.  The
    returned list is ordered by each chunk's minimum line number.

    The chunks partition method.lines exactly: every line appears in one
    and only one chunk.
    """
    source_lines = _source_lines(method.source)
    # A stable sort: targets on one line at one depth keep their pre-order.
    targets = sorted(_targets(method.root, 0, frozenset()),
                     key=lambda target: (target[0].start_line, target[1]), reverse=True)
    remaining = set(method.lines)
    chunks: list[CodeChunk] = []
    for node, _, run in targets:
        node_lines = node.lines()
        claim = remaining & node_lines
        if not claim:
            continue
        content = tuple(sorted(claim | (run & remaining)))
        chunks.append(CodeChunk(line_numbers=content,
                                text=_chunk_text(source_lines, content),
                                kind="control_flow"))
        remaining -= node_lines | run
    for segment in _consecutive_segments(remaining):
        chunks.append(CodeChunk(line_numbers=segment,
                                text=_chunk_text(source_lines, segment),
                                kind="segment"))
    chunks.sort(key=lambda chunk: chunk.line_numbers[0])
    return chunks


def whole_method_chunk(method: FocalMethod) -> CodeChunk:
    """A single chunk spanning the entire method (chunking disabled)."""
    return CodeChunk(line_numbers=tuple(method.lines),
                     text="\n".join(_source_lines(method.source)),
                     kind="segment")


def chunks_as_dicts(chunks: list[CodeChunk]) -> list[dict]:
    """JSON-friendly chunk listing (for the CLI)."""
    return [
        {
            "chunk_id": f"c{i:02d}",
            "kind": chunk.kind,
            "line_numbers": list(chunk.line_numbers),
            "text": chunk.text,
        }
        for i, chunk in enumerate(chunks)
    ]
