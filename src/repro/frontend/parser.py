"""Recursive-descent parser for TeamPlay-C over an indexed token cursor.

The parser runs on the :class:`~repro.frontend.lexer.TokenStream` fast path:
three parallel arrays (interned integer kind ids, value strings, line
numbers) and an integer cursor.  Every ``check``/``accept``/``expect`` is
an integer comparison against module-level id constants; operator
precedence and assignment-operator membership are flat tuples indexed by
kind id; pragma headers parse through a process-wide memo
(:func:`~repro.frontend.pragmas.parse_pragma_cached`) so repeated
directives cost one dict hit.  Columns are not tracked in the hot path —
error reporting (the only consumer) materialises the exact token on
demand, and errors *at end of input* report the last real token's
position rather than the synthetic EOF token's.

This is the only parser in the package.  The seed Token-object parser it
replaced lives on as a test oracle in ``tests/oracles.py``: the
hypothesis property tests cross-check both for AST equality and identical
error messages over generated programs, and the frontend benchmarks time
it as the seed baseline.

On top sits a process-wide parse cache (:class:`ParseCache`, same LRU +
``stats()`` convention as the engine caches) keyed by the source text's
fingerprint — the string's cached hash makes repeat lookups O(1) — plus
the pipeline's frontend-stage identity, so registering a custom frontend
pass widens the key automatically per the PR 4 contract.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.counters import _BoundedCacheMixin
from repro.errors import FrontendError
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import (
    K_EOF,
    K_ID,
    K_NUM,
    K_PRAGMA,
    KEYWORD_IDS,
    KIND_NAMES,
    KIND_TEXTS,
    OP_IDS,
    TokenStream,
    scan,
)
from repro.frontend.pragmas import parse_pragma_cached

#: Binary operator precedence, higher binds tighter.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

# -- kind-id constants and dispatch tables ----------------------------------
_KW_INT = KEYWORD_IDS["int"]
_KW_VOID = KEYWORD_IDS["void"]
_KW_IF = KEYWORD_IDS["if"]
_KW_ELSE = KEYWORD_IDS["else"]
_KW_WHILE = KEYWORD_IDS["while"]
_KW_FOR = KEYWORD_IDS["for"]
_KW_RETURN = KEYWORD_IDS["return"]

_OP_LPAREN = OP_IDS["("]
_OP_RPAREN = OP_IDS[")"]
_OP_LBRACE = OP_IDS["{"]
_OP_RBRACE = OP_IDS["}"]
_OP_LBRACKET = OP_IDS["["]
_OP_RBRACKET = OP_IDS["]"]
_OP_SEMICOLON = OP_IDS[";"]
_OP_COMMA = OP_IDS[","]
_OP_ASSIGN = OP_IDS["="]
_OP_MINUS = OP_IDS["-"]
_OP_PLUS = OP_IDS["+"]
_OP_BANG = OP_IDS["!"]
_OP_TILDE = OP_IDS["~"]

_N_KINDS = len(KIND_NAMES)

#: kind id -> binary precedence (0 = not a binary operator).  Indexed in
#: the expression hot loop; ``min_precedence`` is always >= 1, so the
#: non-operator case needs no extra branch.
_PREC_BY_ID: Tuple[int, ...] = tuple(
    _PRECEDENCE.get(KIND_TEXTS[kid] or "", 0) for kid in range(_N_KINDS))

#: kind id -> is an assignment operator.
_IS_ASSIGN: Tuple[bool, ...] = tuple(
    (KIND_TEXTS[kid] or "") in _ASSIGN_OPS for kid in range(_N_KINDS))

#: Shared read-only empty pragma dict for statements with no pragmas.
_NO_PRAGMAS: Dict[str, object] = {}

#: Memo for numeric-literal conversion: real programs repeat a handful of
#: constants, and ``int(text, 0)`` (prefix handling) costs several times a
#: dict hit.  Failures (``007``, a bare ``0x``, ``²``) are never cached;
#: each raises a positioned :class:`FrontendError` from
#: :meth:`_Parser._int_value`.
_INT_CACHE: Dict[str, int] = {}


class _Parser:
    """The token-cursor parser (see the module docstring)."""

    __slots__ = ("stream", "kinds", "values", "lines", "pos", "source_name")

    def __init__(self, stream: TokenStream, source_name: str):
        self.stream = stream
        self.kinds = stream.kinds
        self.values = stream.values
        self.lines = stream.lines
        self.pos = 0
        self.source_name = source_name

    # -- error helpers ------------------------------------------------------
    def _positioned(self, index: int, message: str) -> FrontendError:
        """An error at token ``index``, with exact line *and* column.

        End-of-input errors report the last real token's position — the
        synthetic EOF token sits one line past a trailing newline, which
        pointed users at an empty line.
        """
        if self.kinds[index] == K_EOF and index > 0:
            index -= 1
        token = self.stream.token(index)
        return FrontendError(message, token.line, token.column)

    def _fail_expect(self, kind_id: int):
        expected = KIND_TEXTS[kind_id] or KIND_NAMES[kind_id]
        pos = self.pos
        found = self.values[pos] or KIND_NAMES[self.kinds[pos]]
        raise self._positioned(
            pos, f"expected {expected!r} but found {found!r}")

    def error(self, message: str) -> FrontendError:
        return self._positioned(self.pos, message)

    # -- token helpers ------------------------------------------------------
    def _int_value(self, index: int) -> int:
        """The value of the integer literal at token ``index``."""
        text = self.values[index]
        value = _INT_CACHE.get(text)
        if value is None:
            try:
                value = int(text, 0)
            except ValueError:
                raise self._positioned(
                    index, f"invalid integer literal {text!r}") from None
            if len(_INT_CACHE) >= 4096:
                _INT_CACHE.clear()
            _INT_CACHE[text] = value
        return value

    def _expect(self, kind_id: int) -> int:
        """Consume a token of ``kind_id`` and return its index."""
        pos = self.pos
        if self.kinds[pos] == kind_id:
            self.pos = pos + 1
            return pos
        self._fail_expect(kind_id)

    def _accept(self, kind_id: int) -> bool:
        if self.kinds[self.pos] == kind_id:
            self.pos += 1
            return True
        return False

    # -- module -------------------------------------------------------------
    def parse_module(self) -> ast.SourceModule:
        module = ast.SourceModule(source_name=self.source_name)
        functions = module.functions
        globals_ = module.globals
        kinds = self.kinds
        pending_pragmas: Dict[str, object] = {}
        while True:
            kind = kinds[self.pos]
            if kind == _KW_INT or kind == _KW_VOID:
                decl = self._parse_top_level(pending_pragmas)
                pending_pragmas = {}
                if decl.__class__ is ast.FunctionDef:
                    functions.append(decl)
                else:
                    globals_.append(decl)
            elif kind == K_PRAGMA:
                pos = self.pos
                pending_pragmas.update(
                    parse_pragma_cached(self.values[pos], self.lines[pos]))
                self.pos = pos + 1
            elif kind == K_EOF:
                break
            else:
                raise self.error("expected a declaration")
        return module

    def _parse_top_level(self, pragmas: Dict[str, object]):
        type_index = self.pos  # 'int' or 'void'
        self.pos = type_index + 1
        name_index = self._expect(K_ID)
        if self.kinds[self.pos] == _OP_LPAREN:
            return self._parse_function(name_index, pragmas)
        if self.kinds[type_index] == _KW_VOID:
            raise self._positioned(type_index,
                                   "global variables must have type int")
        return self._parse_global_array(name_index)

    def _parse_global_array(self, name_index: int) -> ast.GlobalArray:
        self._expect(_OP_LBRACKET)
        size_index = self._expect(K_NUM)
        self._expect(_OP_RBRACKET)
        size = self._int_value(size_index)
        if size <= 0:
            raise self._positioned(size_index, "array size must be positive")
        init: Optional[List[int]] = None
        if self._accept(_OP_ASSIGN):
            self._expect(_OP_LBRACE)
            init = []
            while self.kinds[self.pos] != _OP_RBRACE:
                negative = self._accept(_OP_MINUS)
                value = self._int_value(self._expect(K_NUM))
                init.append(-value if negative else value)
                if not self._accept(_OP_COMMA):
                    break
            self._expect(_OP_RBRACE)
            if len(init) > size:
                name = self.values[name_index]
                raise self._positioned(
                    name_index,
                    f"initialiser for {name!r} has {len(init)} "
                    f"elements but the array holds {size}")
        self._expect(_OP_SEMICOLON)
        return ast.GlobalArray(self.values[name_index], size, init,
                               self.lines[name_index])

    def _parse_function(self, name_index: int,
                        pragmas: Dict[str, object]) -> ast.FunctionDef:
        self._expect(_OP_LPAREN)
        params: List[str] = []
        if self._accept(_KW_VOID):
            pass
        elif self.kinds[self.pos] != _OP_RPAREN:
            while True:
                self._expect(_KW_INT)
                params.append(self.values[self._expect(K_ID)])
                if not self._accept(_OP_COMMA):
                    break
        self._expect(_OP_RPAREN)
        self._expect(_OP_LBRACE)
        body = self._parse_statements_until_brace()
        return ast.FunctionDef(self.values[name_index], params, body,
                               dict(pragmas), self.lines[name_index])

    # -- statements ----------------------------------------------------------
    def _parse_statements_until_brace(self) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        append = stmts.append
        kinds = self.kinds
        while kinds[self.pos] != _OP_RBRACE:
            if kinds[self.pos] == K_EOF:
                raise self.error("unexpected end of file inside a block")
            append(self._parse_statement())
        self.pos += 1  # consume '}'
        return stmts

    def _parse_block(self) -> List[ast.Stmt]:
        if self._accept(_OP_LBRACE):
            return self._parse_statements_until_brace()
        return [self._parse_statement()]

    def _parse_statement(self) -> ast.Stmt:
        kinds = self.kinds
        kind = kinds[self.pos]
        if kind == K_PRAGMA:
            pragmas: Dict[str, object] = {}
            while kinds[self.pos] == K_PRAGMA:
                pos = self.pos
                pragmas.update(
                    parse_pragma_cached(self.values[pos], self.lines[pos]))
                self.pos = pos + 1
            kind = kinds[self.pos]
        else:
            pragmas = _NO_PRAGMAS

        if kind == _KW_INT:
            return self._parse_vardecl()
        if kind == _KW_IF:
            return self._parse_if()
        if kind == _KW_WHILE:
            return self._parse_while(pragmas)
        if kind == _KW_FOR:
            return self._parse_for(pragmas)
        if kind == _KW_RETURN:
            return self._parse_return()
        return self._parse_expression_statement()

    def _parse_vardecl(self) -> ast.VarDecl:
        self._expect(_KW_INT)
        name_index = self._expect(K_ID)
        if self._accept(_OP_LBRACKET):
            size_index = self._expect(K_NUM)
            self._expect(_OP_RBRACKET)
            self._expect(_OP_SEMICOLON)
            size = self._int_value(size_index)
            if size <= 0:
                raise self._positioned(size_index,
                                       "array size must be positive")
            return ast.VarDecl(self.values[name_index], array_size=size,
                               line=self.lines[name_index])
        init = None
        if self._accept(_OP_ASSIGN):
            init = self._parse_expression()
        self._expect(_OP_SEMICOLON)
        return ast.VarDecl(self.values[name_index], init=init,
                           line=self.lines[name_index])

    def _parse_if(self) -> ast.If:
        line = self.lines[self._expect(_KW_IF)]
        self._expect(_OP_LPAREN)
        cond = self._parse_expression()
        self._expect(_OP_RPAREN)
        then_body = self._parse_block()
        else_body: List[ast.Stmt] = []
        if self._accept(_KW_ELSE):
            if self.kinds[self.pos] == _KW_IF:
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_block()
        return ast.If(cond, then_body, else_body, line)

    def _parse_while(self, pragmas: Dict[str, object]) -> ast.While:
        line = self.lines[self._expect(_KW_WHILE)]
        self._expect(_OP_LPAREN)
        cond = self._parse_expression()
        self._expect(_OP_RPAREN)
        body = self._parse_block()
        return ast.While(cond, body, pragmas.get("loopbound"), line)

    def _parse_for(self, pragmas: Dict[str, object]) -> ast.For:
        line = self.lines[self._expect(_KW_FOR)]
        self._expect(_OP_LPAREN)
        init: Optional[ast.Stmt] = None
        if self.kinds[self.pos] != _OP_SEMICOLON:
            if self.kinds[self.pos] == _KW_INT:
                self.pos += 1
                name_index = self._expect(K_ID)
                self._expect(_OP_ASSIGN)
                init_expr = self._parse_expression()
                init = ast.VarDecl(self.values[name_index], init=init_expr,
                                   line=self.lines[name_index])
            else:
                init = self._parse_simple_assignment()
        self._expect(_OP_SEMICOLON)
        cond: Optional[ast.Expr] = None
        if self.kinds[self.pos] != _OP_SEMICOLON:
            cond = self._parse_expression()
        self._expect(_OP_SEMICOLON)
        update: Optional[ast.Stmt] = None
        if self.kinds[self.pos] != _OP_RPAREN:
            update = self._parse_simple_assignment()
        self._expect(_OP_RPAREN)
        body = self._parse_block()
        return ast.For(init, cond, update, body, pragmas.get("loopbound"),
                       line)

    def _parse_simple_assignment(self) -> ast.Stmt:
        expr = self._parse_expression()
        pos = self.pos
        kind = self.kinds[pos]
        if _IS_ASSIGN[kind]:
            self.pos = pos + 1
            value = self._parse_expression()
            if not isinstance(expr, (ast.Var, ast.Index)):
                raise self._positioned(
                    pos, "assignment target must be a variable or "
                         "array element")
            return ast.Assign(expr, KIND_TEXTS[kind], value, self.lines[pos])
        return ast.ExprStmt(expr, self.lines[pos])

    def _parse_return(self) -> ast.Return:
        line = self.lines[self._expect(_KW_RETURN)]
        value = None
        if self.kinds[self.pos] != _OP_SEMICOLON:
            value = self._parse_expression()
        self._expect(_OP_SEMICOLON)
        return ast.Return(value, line)

    def _parse_expression_statement(self) -> ast.Stmt:
        stmt = self._parse_simple_assignment()
        self._expect(_OP_SEMICOLON)
        return stmt

    # -- expressions ---------------------------------------------------------
    def _parse_expression(self, min_precedence: int = 1) -> ast.Expr:
        # Iterative operator-precedence loop: the classic recursive
        # precedence climb costs a Python frame per binary operator; here a
        # pending-operator stack reduces whenever the incoming operator
        # binds no tighter than the stack top (all TeamPlay-C binary
        # operators are left-associative), producing the identical tree.
        # The single-operand case — the overwhelming majority — returns
        # after one table probe without touching the stacks.
        unary = self._parse_unary
        kinds = self.kinds
        precedence_of = _PREC_BY_ID
        lhs = unary()
        kind = kinds[self.pos]
        precedence = precedence_of[kind]
        if precedence < min_precedence:
            return lhs
        lines = self.lines
        pending: List[Tuple[int, int, int]] = []  # (precedence, kind, line)
        operands = [lhs]
        while True:
            while pending and pending[-1][0] >= precedence:
                _, top_kind, top_line = pending.pop()
                rhs = operands.pop()
                operands[-1] = ast.Binary(KIND_TEXTS[top_kind], operands[-1],
                                          rhs, top_line)
            pos = self.pos
            pending.append((precedence, kind, lines[pos]))
            self.pos = pos + 1
            operands.append(unary())
            kind = kinds[self.pos]
            precedence = precedence_of[kind]
            if precedence < min_precedence:
                break
        while pending:
            _, top_kind, top_line = pending.pop()
            rhs = operands.pop()
            operands[-1] = ast.Binary(KIND_TEXTS[top_kind], operands[-1],
                                      rhs, top_line)
        return operands[0]

    def _parse_unary(self) -> ast.Expr:
        # Primary parsing is merged in (one call level per operand saved);
        # the identifier/number cases lead because they dominate real
        # programs, and the trailing ``(``/``[`` checks are inlined rather
        # than routed through ``_accept``.
        pos = self.pos
        kinds = self.kinds
        kind = kinds[pos]
        if kind == K_ID:
            name = self.values[pos]
            line = self.lines[pos]
            pos += 1
            following = kinds[pos]
            if following == _OP_LPAREN:
                self.pos = pos + 1
                args: List[ast.Expr] = []
                if kinds[self.pos] != _OP_RPAREN:
                    while True:
                        args.append(self._parse_expression())
                        if kinds[self.pos] != _OP_COMMA:
                            break
                        self.pos += 1
                if kinds[self.pos] != _OP_RPAREN:
                    self._fail_expect(_OP_RPAREN)
                self.pos += 1
                return ast.Call(name, args, line)
            if following == _OP_LBRACKET:
                self.pos = pos + 1
                index = self._parse_expression()
                if kinds[self.pos] != _OP_RBRACKET:
                    self._fail_expect(_OP_RBRACKET)
                self.pos += 1
                return ast.Index(name, index, line)
            self.pos = pos
            return ast.Var(name, line)
        if kind == K_NUM:
            self.pos = pos + 1
            return ast.Num(self._int_value(pos), self.lines[pos])
        if kind == _OP_MINUS or kind == _OP_BANG or kind == _OP_TILDE:
            line = self.lines[pos]
            self.pos = pos + 1
            operand = self._parse_unary()
            if kind == _OP_MINUS and operand.__class__ is ast.Num:
                return ast.Num(-operand.value, line)
            return ast.Unary(KIND_TEXTS[kind], operand, line)
        if kind == _OP_LPAREN:
            self.pos = pos + 1
            expr = self._parse_expression()
            self._expect(_OP_RPAREN)
            return expr
        if kind == _OP_PLUS:
            self.pos = pos + 1
            return self._parse_unary()
        found = self.values[pos] or KIND_NAMES[kind]
        raise self.error(f"unexpected token {found!r} in expression")


def parse(source: str, source_name: str = "<memory>") -> ast.SourceModule:
    """Parse TeamPlay-C source text into a :class:`SourceModule`."""
    stream = scan(source)
    return _Parser(stream, source_name).parse_module()


# ---------------------------------------------------------------------------
# Process-wide parse cache
# ---------------------------------------------------------------------------
class ParseCache(_BoundedCacheMixin):
    """LRU cache of parsed modules on the engine caches' bounded-LRU base.

    Keys are ``(source_name, extra_key, source)`` tuples — the source
    string's cached hash acts as the fingerprint, so a warm lookup costs
    one tuple hash and one dict probe regardless of source size.  Cached
    modules are shared instances: callers must treat them as read-only
    (the compilation pipeline always clones before running passes).
    """

    def __init__(self, max_entries: Optional[int] = None):
        super().__init__(max_entries)
        self._modules: "OrderedDict[Tuple, ast.SourceModule]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._modules)

    def get(self, key: Tuple) -> Optional[ast.SourceModule]:
        module = self._touch(self._modules, key)
        if module is not None:
            self.hits += 1
        return module

    def put(self, key: Tuple, module: ast.SourceModule) -> None:
        self.misses += 1
        self._insert(self._modules, key, module)

    def clear(self) -> None:
        """Drop every entry (counters are preserved, as engine caches do)."""
        self._modules.clear()


#: Process-wide parse cache for :func:`parse_cached`.  Bounded: scenario
#: sweeps and the long-running evaluation service parse through here
#: indefinitely.
_PARSE_CACHE = ParseCache(max_entries=256)


def parse_cached(source: str, source_name: str = "<memory>",
                 extra_key: Tuple = ()) -> ast.SourceModule:
    """Parse with process-wide memoisation on the source fingerprint.

    Returns a shared :class:`SourceModule` instance: callers must treat it
    as read-only (the compilation pipeline always clones before running
    passes).  Use :func:`parse` when the caller intends to mutate the
    module.  ``extra_key`` widens the cache key — the compilation pipeline
    passes its frontend-stage identity, so registering a custom frontend
    pass invalidates prior entries automatically (the PR 4 contract).
    """
    key = (source_name, extra_key, source)
    module = _PARSE_CACHE.get(key)
    if module is None:
        module = parse(source, source_name)
        _PARSE_CACHE.put(key, module)
    return module


def parse_cache_stats() -> Dict[str, Optional[int]]:
    """Hit/miss/eviction counters of the process-wide parse cache."""
    return _PARSE_CACHE.stats()


def clear_parse_cache() -> None:
    """Empty the process-wide parse cache (tests and benchmarks)."""
    _PARSE_CACHE.clear()
