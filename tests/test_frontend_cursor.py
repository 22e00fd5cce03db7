"""Tests for the token-cursor parser, the scan fast path and the parse cache.

Four layers of assurance for the frontend rewrite:

* **Property tests** (hypothesis): over generated TeamPlay-C programs, the
  cursor parser and the seed parser (the ``parse_reference`` oracle in
  ``tests/oracles.py``) produce *equal* ASTs and identical error messages,
  and the ``scan`` stream agrees token-for-token with ``tokenize``.
* **AST goldens**: the parse trees of the E1/E2/E3/E6 experiment sources
  are pinned bit-for-bit under ``tests/golden/`` (regenerate with
  ``tests/golden/capture.py``).
* **Diagnostics**: errors at end of input report the last real token's
  position (not the synthetic EOF token's), everything else matches the
  seed parser message-for-message and position-for-position; a malformed
  integer literal is a positioned ``FrontendError``, never a bare
  ``ValueError``.
* **Parse cache**: engine-cache ``stats()`` convention, LRU eviction, and
  the pipeline's frontend-stage key widening per the PR 4 contract.
"""

import json
import pathlib
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import build_program, parse_reference
from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import CompilationPipeline, Pass, PassManager
from repro.errors import FrontendError
from repro.frontend import ast_nodes as ast
from repro.frontend import lexer, parser
from repro.frontend.ast_nodes import ast_to_dict
from repro.frontend.lexer import KIND_NAMES, scan, tokenize
from repro.frontend.parser import (
    ParseCache,
    clear_parse_cache,
    parse,
    parse_cache_stats,
    parse_cached,
)
from repro.frontend.pragmas import _PRAGMA_CACHE, parse_pragma_cached
from repro.hw.presets import nucleo_stm32f091rc

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

# ---------------------------------------------------------------------------
# Program generator (source text, so the lexers are exercised too)
# ---------------------------------------------------------------------------
_NAMES = ("a", "b", "counter", "idx", "tmp", "value_2", "_buf", "out")
_BINARY_OPS = tuple(parser._PRECEDENCE)
_ASSIGN_OPS = tuple(sorted(parser._ASSIGN_OPS))
_SPACE = st.sampled_from(("", " ", "  ", "\t", "\n", " // note\n",
                          " /* c */ ", "/* multi\n line */\n"))


@st.composite
def _expression(draw, depth):
    pad = draw(_SPACE)
    choice = draw(st.integers(0, 7 if depth > 0 else 3))
    if choice == 0:
        return pad + str(draw(st.integers(0, 2 ** 31 - 1)))
    if choice == 1:
        return pad + hex(draw(st.integers(0, 0xFFFF)))
    if choice == 2:
        return pad + draw(st.sampled_from(_NAMES))
    if choice == 3:
        return (pad + draw(st.sampled_from(("-", "!", "~", "+")))
                + draw(_expression(depth - 1)))
    if choice == 4:
        op = draw(st.sampled_from(_BINARY_OPS))
        right = draw(_expression(depth - 1))
        if op == "/" and right[:1] in ("/", "*"):
            # `/` + `/*...*/` (or `// ...`) would fuse into a comment and
            # change the token stream; keep the division operator intact.
            right = " " + right
        return draw(_expression(depth - 1)) + pad + op + right
    if choice == 5:
        return pad + "(" + draw(_expression(depth - 1)) + ")"
    if choice == 6:
        args = draw(st.lists(_expression(depth - 1), max_size=3))
        return (pad + draw(st.sampled_from(_NAMES))
                + "(" + ",".join(args) + ")")
    return (pad + draw(st.sampled_from(_NAMES))
            + "[" + draw(_expression(depth - 1)) + "]")


@st.composite
def _statement(draw, depth):
    pad = draw(_SPACE)
    choice = draw(st.integers(0, 7 if depth > 0 else 3))
    if choice == 0:
        name = draw(st.sampled_from(_NAMES))
        init = draw(st.one_of(st.none(), _expression(1)))
        return (pad + f"int {name}"
                + (f" = {init};" if init is not None else ";"))
    if choice == 1:
        target = draw(st.sampled_from(_NAMES))
        index = draw(st.one_of(st.none(), _expression(1)))
        op = draw(st.sampled_from(_ASSIGN_OPS))
        lhs = target if index is None else f"{target}[{index}]"
        return pad + f"{lhs} {op} " + draw(_expression(1)) + ";"
    if choice == 2:
        value = draw(st.one_of(st.none(), _expression(1)))
        return pad + ("return;" if value is None else f"return {value};")
    if choice == 3:
        return pad + draw(_expression(1)) + ";"
    if choice == 4:
        name = draw(st.sampled_from(_NAMES))
        size = draw(st.integers(1, 64))
        return pad + f"int {name}[{size}];"
    if choice == 5:
        cond = draw(_expression(1))
        then = draw(_statement(depth - 1))
        alt = draw(st.one_of(st.none(), _statement(depth - 1)))
        body = "{" + then + "}" if draw(st.booleans()) else then
        suffix = "" if alt is None else " else {" + alt + "}"
        return pad + f"if ({cond}) {body}{suffix}"
    if choice == 6:
        bound = draw(st.one_of(st.none(), st.integers(1, 128)))
        pragma = ("" if bound is None
                  else f"#pragma teamplay loopbound({bound})\n")
        return (pad + pragma + "while (" + draw(_expression(1)) + ") {"
                + draw(_statement(depth - 1)) + "}")
    counter = draw(st.sampled_from(_NAMES))
    limit = draw(st.integers(1, 32))
    return (pad + f"for (int {counter} = 0; {counter} < {limit}; "
            + f"{counter} += 1) {{" + draw(_statement(depth - 1)) + "}")


@st.composite
def _program(draw):
    parts = []
    for name in draw(st.lists(st.sampled_from(_NAMES), max_size=2,
                              unique=True)):
        size = draw(st.integers(1, 8))
        init = draw(st.lists(st.integers(-99, 99), max_size=size))
        suffix = (" = {" + ", ".join(map(str, init)) + "}") if init else ""
        parts.append(f"int g_{name}[{size}]{suffix};")
    for index in range(draw(st.integers(1, 3))):
        params = draw(st.lists(st.sampled_from(_NAMES), max_size=3,
                               unique=True))
        header = f"int fn_{index}(" + (", ".join(f"int {p}" for p in params)
                                       or draw(st.sampled_from(("", "void")))
                                       ) + ")"
        if draw(st.booleans()):
            # Pragmas swallow to end of line, so the part carries its own
            # newline (the join separator may be empty).
            parts.append(f"#pragma teamplay task(t{index}) period(10 ms)\n")
        body = draw(st.lists(_statement(2), max_size=4))
        parts.append(header + " {" + "".join(body) + "}")
    return draw(_SPACE).join(parts) + draw(_SPACE)


class TestParserEquivalence:
    """The cursor parser is observationally equal to the seed parser."""

    @given(source=_program())
    @settings(max_examples=60, deadline=None)
    def test_cursor_and_reference_parsers_agree(self, source):
        assert parse(source) == parse_reference(source)

    @given(source=_program())
    @settings(max_examples=60, deadline=None)
    def test_scan_stream_matches_tokenize(self, source):
        stream = scan(source)
        tokens = tokenize(source)
        assert len(stream) == len(tokens)
        for index, token in enumerate(tokens):
            assert KIND_NAMES[stream.kinds[index]] is token.kind
            assert stream.values[index] == token.value
            assert stream.lines[index] == token.line
            # The lazy compatibility token restores the exact column too.
            assert stream.token(index) == token

    def test_known_sources_parse_identically(self):
        from repro.dl.kernels import (conv2d_kernel_source,
                                      matmul_kernel_source)
        from repro.usecases.camera_pill import CAMERA_PILL_SOURCE
        from repro.usecases.space import SPACE_SOURCE

        for source in (CAMERA_PILL_SOURCE, SPACE_SOURCE,
                       matmul_kernel_source(), conv2d_kernel_source()):
            assert parse(source) == parse_reference(source)

    def test_parsed_module_pickles(self):
        # Process workers ship modules across pickle; __slots__ nodes must
        # round-trip (protocol >= 2 handles slots automatically).
        module = parse("int f(int x) { return x + 1; }")
        assert pickle.loads(pickle.dumps(module)) == module

    @given(source=_program(), cut=st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_truncated_programs_raise_identical_messages(self, source, cut):
        truncated = source[:max(len(source) - cut, 1)]

        def bare_message(error: FrontendError) -> str:
            return re.sub(r"^line \d+:\d+: ", "", str(error))

        try:
            parse_reference(truncated)
            reference_error = None
        except FrontendError as error:
            reference_error = bare_message(error)
        try:
            parse(truncated)
            cursor_error = None
        except FrontendError as error:
            cursor_error = bare_message(error)
        # Same verdict and same message; positions may legitimately differ
        # at end of input (the cursor parser reports the last real token).
        assert cursor_error == reference_error


class TestAstGoldens:
    """E1/E2/E3/E6 parse trees are pinned bit-for-bit."""

    @pytest.mark.parametrize("fixture, loader", [
        ("ast_camera_pill_e1.json",
         lambda: __import__("repro.usecases.camera_pill",
                            fromlist=["x"]).CAMERA_PILL_SOURCE),
        ("ast_space_e2.json",
         lambda: __import__("repro.usecases.space",
                            fromlist=["x"]).SPACE_SOURCE),
        ("ast_matmul_e3.json",
         lambda: __import__("repro.dl.kernels",
                            fromlist=["x"]).matmul_kernel_source()),
        ("ast_conv2d_e6.json",
         lambda: __import__("repro.dl.kernels",
                            fromlist=["x"]).conv2d_kernel_source()),
    ])
    def test_golden_ast(self, fixture, loader):
        golden = json.loads((GOLDEN_DIR / fixture).read_text())
        assert ast_to_dict(parse(loader())) == golden


class TestEndOfInputDiagnostics:
    """Errors at EOF report the last real token, not the EOF sentinel."""

    def test_unterminated_block_reports_last_statement(self):
        source = "int f(void) {\n    return 1;\n"
        with pytest.raises(FrontendError) as excinfo:
            parse(source)
        error = excinfo.value
        assert "unexpected end of file inside a block" in str(error)
        # The seed parser pointed at the synthetic EOF (line 3, column 1);
        # the trailing ';' of line 2 is where the eye should land.
        assert (error.line, error.column) == (2, 13)

    def test_truncated_declaration_reports_last_token(self):
        with pytest.raises(FrontendError) as excinfo:
            parse("int f(")
        error = excinfo.value
        assert "expected" in str(error) and "found 'EOF'" in str(error)
        assert (error.line, error.column) == (1, 6)  # the '('

    def test_interior_errors_keep_exact_seed_positions(self):
        source = "int f(void) {\n    int 9bad = 1;\n}\n"
        with pytest.raises(FrontendError) as cursor_error:
            parse(source)
        with pytest.raises(FrontendError) as reference_error:
            parse_reference(source)
        assert str(cursor_error.value) == str(reference_error.value)

    def test_empty_source_still_reports_eof_position(self):
        with pytest.raises(FrontendError) as excinfo:
            parse("}")
        assert "expected a declaration" in str(excinfo.value)


class TestIntegerLiterals:
    """A malformed literal is a positioned error, never a bare ValueError."""

    @pytest.mark.parametrize("source, literal, line", [
        ("int f(void) { return 007; }", "007", 1),
        ("int f(void) { return 08; }", "08", 1),
        ("int f(void) { return -0x; }", "0x", 1),
        ("int f(void) {\n    return ² + 1;\n}", "²", 2),
        ("int g[0x];", "0x", 1),
        ("int g[2] = {1, 09};", "09", 1),
        ("int f(void) {\n    int a[007];\n    return 0;\n}", "007", 2),
    ])
    def test_bad_integer_literal_is_a_positioned_error(self, source,
                                                         literal, line):
        with pytest.raises(FrontendError) as cursor_error:
            parse(source)
        error = cursor_error.value
        assert f"invalid integer literal {literal!r}" in str(error)
        column = source.splitlines()[line - 1].index(literal) + 1
        assert (error.line, error.column) == (line, column)
        with pytest.raises(FrontendError) as reference_error:
            parse_reference(source)
        assert str(reference_error.value) == str(error)


class TestTokenInterning:
    """Token.kind strings are interned module-level constants."""

    def test_kind_identity(self):
        for token in tokenize("int f(void) { return 42; } // x\n#pragma x"):
            assert token.kind in (lexer.KIND_ID, lexer.KIND_NUM,
                                  lexer.KIND_KEYWORD, lexer.KIND_OP,
                                  lexer.KIND_PRAGMA, lexer.KIND_EOF)
            assert any(token.kind is constant for constant in (
                lexer.KIND_ID, lexer.KIND_NUM, lexer.KIND_KEYWORD,
                lexer.KIND_OP, lexer.KIND_PRAGMA, lexer.KIND_EOF))

    def test_token_is_a_named_tuple(self):
        token = tokenize("x")[0]
        assert isinstance(token, tuple)
        assert token._fields == ("kind", "value", "line", "column")


class TestPragmaMemo:
    def test_repeated_directives_share_one_parse(self):
        _PRAGMA_CACHE.clear()
        first = parse_pragma_cached("teamplay loopbound(8)", 3)
        second = parse_pragma_cached("teamplay loopbound(8)", 99)
        assert first is second and first == {"loopbound": 8}

    def test_failures_are_not_cached(self):
        _PRAGMA_CACHE.clear()
        for line in (7, 21):
            with pytest.raises(FrontendError) as excinfo:
                parse_pragma_cached("teamplay", line)
            assert excinfo.value.line == line


class TestParseCache:
    def test_stats_convention_matches_engine_caches(self):
        cache = ParseCache(max_entries=2)
        assert cache.stats() == {"entries": 0, "max_entries": 2,
                                 "hits": 0, "misses": 0, "evictions": 0}

    def test_lru_eviction(self):
        cache = ParseCache(max_entries=2)
        module_a, module_b, module_c = (parse(f"int f{i}(void) {{ }}")
                                        for i in range(3))
        cache.put(("a",), module_a)
        cache.put(("b",), module_b)
        assert cache.get(("a",)) is module_a  # refresh: "b" is now LRU
        cache.put(("c",), module_c)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is module_a
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["entries"] == 2
        assert stats["hits"] == 2 and stats["misses"] == 3  # puts + miss-get

    def test_clear_preserves_counters(self):
        cache = ParseCache()
        cache.put(("k",), parse("int f(void) { }"))
        cache.clear()
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["misses"] == 1

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            ParseCache(max_entries=0)

    def test_parse_cached_returns_shared_module(self):
        clear_parse_cache()
        before = parse_cache_stats()
        source = "int shared(void) { return 7; }"
        first = parse_cached(source)
        second = parse_cached(source)
        assert first is second
        after = parse_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_extra_key_separates_entries(self):
        clear_parse_cache()
        source = "int keyed(void) { return 1; }"
        stock = parse_cached(source, extra_key=("parse",))
        custom = parse_cached(source, extra_key=("parse", "my-pass"))
        assert stock is not custom and stock == custom


class TestPipelineParseCache:
    def test_frontend_key_widens_with_registered_passes(self):
        manager = PassManager()
        assert manager.frontend_key() == ("parse",)
        manager.register(Pass(name="my-frontend-pass", stage="frontend",
                              apply=lambda ctx: None))
        assert manager.frontend_key() == ("parse", "my-frontend-pass")

    def test_pipeline_parse_hits_cache_and_counts(self):
        clear_parse_cache()
        pipeline = CompilationPipeline(nucleo_stm32f091rc())
        source = "int p(void) { return 3; }"
        before = parse_cache_stats()
        first = pipeline.parse(source)
        second = pipeline.parse(source)
        assert first is second
        after = parse_cache_stats()
        assert after["hits"] == before["hits"] + 1
        # The parse marker pass was timed for both calls.
        assert pipeline.stats()["parse"]["invocations"] >= 2

    def test_custom_frontend_pass_gets_separate_entries(self):
        clear_parse_cache()
        source = "int q(void) { return 4; }"
        stock = CompilationPipeline(nucleo_stm32f091rc())
        custom = CompilationPipeline(nucleo_stm32f091rc())
        custom.manager.register(Pass(name="strip-comments",
                                     stage="frontend",
                                     apply=lambda ctx: None))
        module_stock = stock.parse(source)
        module_custom = custom.parse(source)
        assert module_stock is not module_custom
        assert module_stock == module_custom

    def test_cached_module_feeds_identical_builds(self):
        clear_parse_cache()
        source = ("int g_data[4] = {1, 2, 3, 4};\n"
                  "#pragma teamplay loopbound(4)\n"
                  "int total(void) {\n"
                  "    int acc = 0;\n"
                  "    for (int i = 0; i < 4; i += 1) { acc += g_data[i]; }\n"
                  "    return acc;\n"
                  "}\n")
        pipeline = CompilationPipeline(nucleo_stm32f091rc())
        config = CompilerConfig()
        module = pipeline.parse(source)
        snapshot = ast_to_dict(module)
        _, stats_cold = build_program(pipeline, module, config)
        _, stats_warm = build_program(pipeline, pipeline.parse(source), config)
        assert stats_cold == stats_warm
        # The build cloned before mutating: the shared cached module is
        # byte-identical to its freshly parsed self.
        assert ast_to_dict(pipeline.parse(source)) == snapshot
