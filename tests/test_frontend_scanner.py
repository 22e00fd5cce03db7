"""Token-golden tests for the two scanners.

``tokenize`` (the seed character loop) is the exact scanner: these tests
pin its token stream — kinds, values, line/column positions — and its error
messages verbatim.  ``scan`` (one compiled regex, parallel arrays) is the
fast path ``parse`` runs: it must raise the same errors at the same
positions and agree with ``tokenize`` on kinds, values and lines on every
shape of input, and its lazily materialised tokens must carry the exact
columns.
"""

import pytest

from oracles import parse_reference
from repro.errors import FrontendError
from repro.frontend.lexer import KEYWORDS, KIND_NAMES, Token, scan, tokenize
from repro.frontend.parser import parse
from repro.usecases import camera_pill, space

#: Every multi-character operator plus representative singles, with exact
#: positions — the maximal-munch kitchen sink.
OPERATOR_SOURCE = "a <<= b >>= c == d != e <= f >= g && h || i << j >> k"

#: Inputs covering every scanner branch: identifiers vs keywords, hex and
#: decimal numbers, both comment styles (with and without newlines),
#: pragmas, whitespace runs, empty and whitespace-only files, maximal
#: munch, keyword prefixes, EOF without trailing newline.
ROUND_TRIP_SOURCES = [
    "",
    "   \t \r\n  \n",
    "int x = 0x1F + 42;",
    "int x=0XABC;",
    OPERATOR_SOURCE,
    "a+++b---c",
    "x+=1; y-=2; z*=3; w/=4; v%=5; u&=6; t|=7; s^=8;",
    "integer intx forx whilex returns voids elsewhere iffy",
    "_leading _under_score x_1",
    "int a; // trailing comment\nint b;",
    "/* one line */ int a;",
    "/* multi\nline\ncomment */ int a;",
    "int a;/*x*/int b;//y\nint c;",
    "int f(void) { return 0; } // comment at eof",
    "#pragma teamplay task(capture) period(100 ms)\nint f(void) { return 0; }",
    "   #pragma teamplay loopbound(8)\nwhile (x) { }",
    "#pragma teamplay secret(key)",  # pragma at EOF, no newline
    "\n\n\nint late_line(void) { return 3; }",
    "a\n  b\n    c\n",
    camera_pill.CAMERA_PILL_SOURCE,
    space.SPACE_SOURCE,
]


class TestTokenGolden:
    def test_operator_token_stream(self):
        tokens = tokenize(OPERATOR_SOURCE)
        ops = [t.value for t in tokens if t.kind == "OP"]
        assert ops == ["<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||",
                       "<<", ">>"]
        # Exact positions of the first few tokens on line 1.
        assert tokens[0] == Token("ID", "a", 1, 1)
        assert tokens[1] == Token("OP", "<<=", 1, 3)
        assert tokens[2] == Token("ID", "b", 1, 7)

    def test_keywords_vs_identifiers(self):
        tokens = tokenize("int integer; for forx; return returns;")
        kinds = {t.value: t.kind for t in tokens if t.kind in ("ID", "KEYWORD")}
        assert kinds == {"int": "KEYWORD", "integer": "ID",
                         "for": "KEYWORD", "forx": "ID",
                         "return": "KEYWORD", "returns": "ID"}
        for keyword in KEYWORDS:
            assert tokenize(keyword)[0] == Token("KEYWORD", keyword, 1, 1)

    def test_pragma_token_value_and_position(self):
        tokens = tokenize("  #pragma teamplay task(avg) poi(avg)\nint f;")
        assert tokens[0] == Token("PRAGMA", "teamplay task(avg) poi(avg)",
                                  1, 3)
        assert tokens[1] == Token("KEYWORD", "int", 2, 1)

    def test_numbers(self):
        tokens = tokenize("0 7 42 0x0 0xDEADbeef 0X1f")
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            ("NUM", "0"), ("NUM", "7"), ("NUM", "42"),
            ("NUM", "0x0"), ("NUM", "0xDEADbeef"), ("NUM", "0X1f")]

    def test_line_column_across_comments(self):
        tokens = tokenize("int a; /* two\nlines */ int b;\n// gone\nint c;")
        b = next(t for t in tokens if t.value == "b")
        c = next(t for t in tokens if t.value == "c")
        assert (b.line, b.column) == (2, 14)
        assert (c.line, c.column) == (4, 5)

    def test_eof_token_positions(self):
        assert tokenize("")[-1] == Token("EOF", "", 1, 1)
        assert tokenize("int a;")[-1] == Token("EOF", "", 1, 7)
        assert tokenize("int a;\n")[-1] == Token("EOF", "", 2, 1)


class TestErrorGolden:
    @pytest.mark.parametrize("source,message,line,column", [
        ("int a = $;", "unexpected character '$'", 1, 9),
        ("a\n  @", "unexpected character '@'", 2, 3),
        ("/* never closed", "unterminated block comment", 1, 1),
        ("int a;\n/* nope", "unterminated block comment", 2, 1),
        ("#include <stdio.h>",
         "unsupported preprocessor directive '#include <stdio.h>'", 1, 1),
    ])
    def test_messages_and_positions_verbatim(self, source, message, line,
                                             column):
        for scanner in (tokenize, scan):
            with pytest.raises(FrontendError) as excinfo:
                scanner(source)
            error = excinfo.value
            assert message in str(error)
            assert (error.line, error.column) == (line, column)


class TestPathEquivalence:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_regex_path_equals_character_loop(self, source):
        stream = scan(source)
        # ASCII input without anomalies never touches the character loop:
        # the stream holds no materialised tokens until one is asked for.
        assert stream._tokens is None
        tokens = tokenize(source)
        assert len(stream) == len(tokens)
        for index, token in enumerate(tokens):
            assert KIND_NAMES[stream.kinds[index]] is token.kind
            assert stream.values[index] == token.value
            assert stream.lines[index] == token.line
            assert stream.token(index) == token  # the exact column too

    def test_non_ascii_takes_the_fallback(self):
        # Unicode identifiers only lex through the character loop, which is
        # Unicode-aware by construction; scan and parse defer to it.
        expected = Token("ID", "α", 1, 5)
        assert tokenize("int α = 1;")[1] == expected
        stream = scan("int α = 1;")
        assert (KIND_NAMES[stream.kinds[1]], stream.values[1],
                stream.lines[1]) == ("ID", "α", 1)
        assert stream.token(1) == expected
        source = "int f(int α) {\n    int β = α;\n    return β + 1;\n}"
        module = parse(source)
        assert module.functions[0].params == ["α"]
        assert module == parse_reference(source)
        with pytest.raises(FrontendError) as excinfo:
            parse("int f(void) {\n  return α $ 1;\n}")
        assert "unexpected character '$'" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (2, 12)

    def test_tokens_are_token_instances(self):
        for token in tokenize("int a = 1; // c"):
            assert type(token) is Token
