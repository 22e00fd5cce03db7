"""Lexer for TeamPlay-C.

Two scanners produce the same token stream, each the only one for its job:

* :func:`scan` — the parser's fast path: a :class:`TokenStream` of three
  parallel arrays (interned integer *kind ids*, value strings, line
  numbers) with **no token objects at all**.  The cursor parser drives
  integer comparisons against these arrays.
* :func:`tokenize` — the exact view: a flat list of :class:`Token` named
  tuples with line *and* column positions, produced by the seed's
  character loop.  It is Unicode-aware and owns every error message and
  position; ``scan`` defers to it for columns (only error paths need them,
  see :meth:`TokenStream.token`) and for any input it does not classify.

The fast path is built on ``re.findall`` rather than the scanner protocol:
one C-level pass yields every token text (newline runs are matched
explicitly so line tracking is a single integer add, and a trailing ``\\S``
alternative guarantees no character is skipped silently), and one Python
loop classifies the texts through a single dict whose keys are every
operator and keyword.  Texts the dict does not know (identifiers, numbers)
are classified once by first character and *memoised into a scan-local
copy of the dict*, so a variable name seen twice is a dict hit the second
time.  Anything unusual — non-ASCII input, an unexpected character, an
unterminated comment, a non-``#pragma`` directive — falls back to
:func:`tokenize`, which either raises with an exact line/column or yields
the token list the stream is then (slowly, correctly) built from.

``#pragma teamplay`` lines are emitted as single ``PRAGMA`` tokens whose
value is the directive text, so the parser can attach them to the
following function or loop.

Both scanners produce identical kinds/values/line numbers for every input
(cross-checked by the scanner golden tests and the hypothesis property
tests); the ``Token.kind`` strings are module-level interned constants, so
identity comparison (``tok.kind is KIND_ID``) is valid everywhere.
"""

from __future__ import annotations

import re
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import FrontendError

#: Interned ``Token.kind`` strings.  Every token built in this module uses
#: these exact objects, so ``tok.kind is KIND_ID`` is a valid (and fast)
#: comparison anywhere a :class:`Token` travels.
KIND_ID = sys.intern("ID")
KIND_NUM = sys.intern("NUM")
KIND_KEYWORD = sys.intern("KEYWORD")
KIND_OP = sys.intern("OP")
KIND_PRAGMA = sys.intern("PRAGMA")
KIND_EOF = sys.intern("EOF")

KEYWORDS = {"int", "void", "if", "else", "while", "for", "return"}

#: Multi-character operators, longest first so maximal munch works.
_MULTI_OPS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
]
_SINGLE_OPS = set("+-*/%<>=!&|^~(){}[];,")


class Token(NamedTuple):
    """A lexical token with its source position.

    A ``NamedTuple`` rather than a frozen dataclass: token construction is
    the lexer's hot loop, and the tuple constructor is several times faster
    than per-field ``object.__setattr__``.  ``kind`` is always one of the
    module-level interned constants (:data:`KIND_ID` … :data:`KIND_EOF`),
    so identity comparison on it is valid.
    """

    kind: str      # KIND_ID, KIND_NUM, KIND_KEYWORD, KIND_OP, KIND_PRAGMA, KIND_EOF
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


# ---------------------------------------------------------------------------
# Interned integer kind ids (the token-cursor fast path)
# ---------------------------------------------------------------------------
#: Fine-grained kind ids: the classes the parser dispatches on by value
#: (identifier, number, pragma) get one id each; every keyword and every
#: operator gets its *own* id, so ``check``/``accept``/``expect`` in the
#: cursor parser are single integer comparisons with no string compare.
K_EOF = 0
K_ID = 1
K_NUM = 2
K_PRAGMA = 3

#: Keyword name -> kind id (ids 4..10).
KEYWORD_IDS: Dict[str, int] = {
    keyword: 4 + index for index, keyword in enumerate(sorted(KEYWORDS))
}

#: Operator text -> kind id (ids from 11 upward, multi-char first).
OP_IDS: Dict[str, int] = {
    op: 11 + index
    for index, op in enumerate(_MULTI_OPS + sorted(_SINGLE_OPS))
}

_N_KINDS = 11 + len(OP_IDS)

#: kind id -> coarse ``Token.kind`` string (the :func:`tokenize` view).
KIND_NAMES: Tuple[str, ...] = tuple(
    [KIND_EOF, KIND_ID, KIND_NUM, KIND_PRAGMA]
    + [KIND_KEYWORD] * len(KEYWORD_IDS)
    + [KIND_OP] * len(OP_IDS)
)

#: kind id -> fixed token text for keyword/operator ids (None otherwise).
KIND_TEXTS: List[Optional[str]] = [None] * _N_KINDS
for _text, _kid in KEYWORD_IDS.items():
    KIND_TEXTS[_kid] = sys.intern(_text)
for _text, _kid in OP_IDS.items():
    KIND_TEXTS[_kid] = sys.intern(_text)
KIND_TEXTS = list(KIND_TEXTS)

#: The classification dict of the fast scan loop: every fixed token text to
#: its kind id.  Identifier/number texts are classified by first character
#: and memoised into a scan-local copy.
_KIND_IDS: Dict[str, int] = {}
_KIND_IDS.update(KEYWORD_IDS)
_KIND_IDS.update(OP_IDS)

#: Coarse name -> representative id for stream construction from Token
#: lists (keywords and operators resolve through their text instead).
_COARSE_IDS = {KIND_EOF: K_EOF, KIND_ID: K_ID, KIND_NUM: K_NUM,
               KIND_PRAGMA: K_PRAGMA}


class TokenStream:
    """The indexed token cursor: three parallel arrays plus the source.

    ``kinds[i]``/``values[i]``/``lines[i]`` describe token ``i``; the last
    token is always ``K_EOF``.  Columns are not tracked — the only
    consumers are error messages, and :meth:`token` materialises the exact
    token (line *and* column) on demand by re-running :func:`tokenize`,
    which is paid only on the cold error path.
    """

    __slots__ = ("kinds", "values", "lines", "source", "_tokens")

    def __init__(self, kinds: List[int], values: List[str],
                 lines: List[int], source: str,
                 tokens: Optional[List[Token]] = None):
        self.kinds = kinds
        self.values = values
        self.lines = lines
        self.source = source
        self._tokens = tokens

    def __len__(self) -> int:
        return len(self.kinds)

    def token(self, index: int) -> Token:
        """The exact token at ``index`` (lazy, error paths)."""
        if self._tokens is None:
            self._tokens = tokenize(self.source)
        return self._tokens[index]


def scan(source: str) -> TokenStream:
    """Scan ``source`` into a :class:`TokenStream` (the parser fast path).

    Raises :class:`FrontendError` on bad input with the same message and
    position :func:`tokenize` reports (anomalies are re-scanned through
    :func:`tokenize`, which owns error reporting).
    """
    if source.isascii():
        try:
            return _scan_ascii(source)
        except _ScanFallback:
            pass
    # Non-ASCII input or an anomaly the fast loop does not classify:
    # tokenize() either raises the exact error or yields the token list
    # the stream is built from.
    tokens = tokenize(source)
    return _stream_from_tokens(tokens, source)


class _ScanFallback(Exception):
    """Internal: the fast scan met something the slow path must re-judge."""


#: Master pattern of the fast scan.  Alternation order is by token
#: frequency under two correctness constraints: the ``/``-leading comment
#: alternatives must precede ``/=?`` (so ``//`` and ``/*`` win over the
#: operator, and the terminated block comment over the unterminated
#: opener), and hex must precede decimal.  Operators are factored by
#: leading character (``<<=?|<=?`` instead of a flat longest-first list)
#: because CPython tries alternatives sequentially — this caps the
#: alternation walk per punctuation token at a handful of first-character
#: misses while preserving maximal munch.  Newline runs are explicit
#: tokens (line tracking); the final ``\S`` catches any character no other
#: alternative covers, so nothing is silently skipped (plain
#: spaces/tabs/carriage returns are the only non-matching gaps).
_SCAN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"
    r"|[;,(){}\[\]]"
    r"|0[xX][0-9a-fA-F]*|[0-9]+"
    r"|\n+"
    r"|==?|\+=?|<<=?|<=?|-=?|\*=?"
    r"|//[^\n]*|/\*(?:[^*]|\*(?!/))*\*/|/\*|/=?"
    r"|>>=?|>=?|&&|&=?|\|\||\|=?|\^=?|!=?|%=?|~"
    r"|#[^\n]*"
    r"|\S"
)


def _scan_ascii(source: str) -> TokenStream:
    """One ``findall`` pass plus one classification loop over its texts.

    The classification dict maps newline runs to *negative* ids (memoised
    like identifiers), so the hot loop is a single dict probe and sign
    check per text.  Line numbers are recorded as run-length breaks —
    ``(token_count_so_far, line_after)`` pairs, one per newline run — and
    expanded into the per-token array afterwards with C-level
    ``list.extend``, saving one append per token.
    """
    kinds: List[int] = []
    values: List[str] = []
    append_kind = kinds.append
    append_value = values.append
    # Scan-local copy: first-character classifications are memoised here,
    # so repeated identifiers/numbers/newline-runs are dict hits after the
    # first time.
    known = dict(_KIND_IDS)
    get = known.get
    line = 1
    breaks: List[Tuple[int, int]] = []
    append_break = breaks.append
    for text in _SCAN_RE.findall(source):
        kind = get(text)
        if kind is not None:
            if kind >= 0:
                append_kind(kind)
                append_value(text)
            else:  # a memoised newline run of -kind newlines
                line -= kind
                append_break((len(kinds), line))
            continue
        first = text[0]
        if "a" <= first <= "z" or "A" <= first <= "Z" or first == "_":
            known[text] = K_ID
            append_kind(K_ID)
            append_value(text)
        elif first == "\n":
            known[text] = -len(text)
            line += len(text)
            append_break((len(kinds), line))
        elif "0" <= first <= "9":
            known[text] = K_NUM
            append_kind(K_NUM)
            append_value(text)
        elif first == "/":
            # A dict miss starting with "/" is a comment ("/" and "/=" are
            # operators and hit the dict): "//…" is skipped outright, a
            # terminated block comment only advances the line counter, and
            # a bare "/*" is the unterminated opener.
            if text[1] == "*":
                if len(text) == 2:
                    raise _ScanFallback  # unterminated block comment
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    append_break((len(kinds), line))
        elif first == "#":
            stripped = text.strip()
            if not stripped.startswith("#pragma"):
                raise _ScanFallback  # unsupported preprocessor directive
            append_kind(K_PRAGMA)
            append_value(stripped[len("#pragma"):].strip())
        else:
            raise _ScanFallback  # unexpected character
    append_kind(K_EOF)
    append_value("")
    lines: List[int] = []
    extend_lines = lines.extend
    previous = 0
    current = 1
    for index, next_line in breaks:
        extend_lines([current] * (index - previous))
        previous = index
        current = next_line
    extend_lines([current] * (len(kinds) - previous))
    return TokenStream(kinds, values, lines, source)


def _stream_from_tokens(tokens: List[Token], source: str) -> TokenStream:
    """Build a stream from a :func:`tokenize` token list (slow, exact)."""
    kinds: List[int] = []
    values: List[str] = []
    lines: List[int] = []
    for token in tokens:
        kind = token.kind
        if kind is KIND_KEYWORD:
            kinds.append(KEYWORD_IDS[token.value])
        elif kind is KIND_OP:
            kinds.append(OP_IDS[token.value])
        else:
            kinds.append(_COARSE_IDS[kind])
        values.append(token.value)
        lines.append(token.line)
    return TokenStream(kinds, values, lines, source, tokens)


# ---------------------------------------------------------------------------
# The exact scanner (Token objects with exact line/column)
# ---------------------------------------------------------------------------
def tokenize(source: str) -> List[Token]:
    """Tokenise TeamPlay-C ``source``; raises :class:`FrontendError` on bad input.

    The seed character loop: Unicode-aware (``str.isalpha``/``isdigit``)
    and the owner of exact columns and error positions.
    """
    tokens: List[Token] = []
    line = 1
    column = 1
    i = 0
    length = len(source)

    def error(message: str) -> FrontendError:
        return FrontendError(message, line, column)

    while i < length:
        ch = source[i]

        # -- whitespace ------------------------------------------------------
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue

        # -- comments --------------------------------------------------------
        if source.startswith("//", i):
            while i < length and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            i = end + 2
            continue

        # -- pragmas ----------------------------------------------------------
        if ch == "#":
            end = source.find("\n", i)
            if end < 0:
                end = length
            text = source[i:end].strip()
            if text.startswith("#pragma"):
                directive = text[len("#pragma"):].strip()
                tokens.append(Token(KIND_PRAGMA, directive, line, column))
            else:
                raise error(f"unsupported preprocessor directive {text!r}")
            i = end
            continue

        # -- numbers ----------------------------------------------------------
        if ch.isdigit():
            start = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                i += 2
                while i < length and source[i] in "0123456789abcdefABCDEF":
                    i += 1
            else:
                while i < length and source[i].isdigit():
                    i += 1
            text = source[start:i]
            tokens.append(Token(KIND_NUM, text, line, column))
            column += i - start
            continue

        # -- identifiers / keywords --------------------------------------------
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = KIND_KEYWORD if text in KEYWORDS else KIND_ID
            tokens.append(Token(kind, text, line, column))
            column += i - start
            continue

        # -- operators ----------------------------------------------------------
        matched = False
        for op in _MULTI_OPS:
            if source.startswith(op, i):
                tokens.append(Token(KIND_OP, op, line, column))
                i += len(op)
                column += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE_OPS:
            tokens.append(Token(KIND_OP, ch, line, column))
            i += 1
            column += 1
            continue

        raise error(f"unexpected character {ch!r}")

    tokens.append(Token(KIND_EOF, "", line, column))
    return tokens
