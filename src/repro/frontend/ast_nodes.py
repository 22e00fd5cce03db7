"""Abstract syntax tree of TeamPlay-C.

The AST is intentionally plain: nodes carry data and no behaviour, so
compiler passes (loop unrolling, inlining, constant folding, ladderisation)
can be written as small transformation functions over it.

One node never comes from the parser: :class:`Repeat`, which loop
unrolling emits for ``count`` back-to-back copies of a body.  The body is
stored once and lowering stamps its IR per copy; :func:`walk_stmts` visits
it once, so a pass that mutates it changes every copy.

Nodes are ``__slots__`` classes rather than dataclasses: the parser builds
tens of thousands of them on every cold parse, and slot storage removes the
per-instance ``__dict__`` (about half the memory and measurably faster
construction and attribute access).  Each class declares its fields once in
``_fields``; the shared :class:`_Node` base derives structural equality and
``repr`` from it, so nodes still compare and print like the dataclasses
they replaced (used by the parser parity tests), and :func:`ast_to_dict`
serialises any node to JSON-ready primitives for the AST golden fixtures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union


class _Node:
    """Shared behaviour of every AST node: field-wise ``==`` and ``repr``."""

    __slots__ = ()
    _fields: tuple = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    __hash__ = None  # mutable nodes, like the dataclasses they replaced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{self.__class__.__name__}({args})"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
class Num(_Node):
    """Integer literal."""

    __slots__ = ("value", "line")
    _fields = __slots__

    def __init__(self, value: int, line: int = 0):
        self.value = value
        self.line = line


class Var(_Node):
    """Reference to a scalar variable or parameter."""

    __slots__ = ("name", "line")
    _fields = __slots__

    def __init__(self, name: str, line: int = 0):
        self.name = name
        self.line = line


class Index(_Node):
    """Array element access ``name[index]``."""

    __slots__ = ("name", "index", "line")
    _fields = __slots__

    def __init__(self, name: str, index: "Expr", line: int = 0):
        self.name = name
        self.index = index
        self.line = line


class Unary(_Node):
    """Unary operation: ``-``, ``!`` or ``~``."""

    __slots__ = ("op", "operand", "line")
    _fields = __slots__

    def __init__(self, op: str, operand: "Expr", line: int = 0):
        self.op = op
        self.operand = operand
        self.line = line


class Binary(_Node):
    """Binary operation with C-like operators."""

    __slots__ = ("op", "lhs", "rhs", "line")
    _fields = __slots__

    def __init__(self, op: str, lhs: "Expr", rhs: "Expr", line: int = 0):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.line = line


class Call(_Node):
    """Function call ``name(arg, ...)``."""

    __slots__ = ("name", "args", "line")
    _fields = __slots__

    def __init__(self, name: str, args: Optional[List["Expr"]] = None,
                 line: int = 0):
        self.name = name
        self.args = [] if args is None else args
        self.line = line


Expr = Union[Num, Var, Index, Unary, Binary, Call]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
class VarDecl(_Node):
    """``int x = e;`` or ``int a[N];``"""

    __slots__ = ("name", "array_size", "init", "line")
    _fields = __slots__

    def __init__(self, name: str, array_size: Optional[int] = None,
                 init: Optional[Expr] = None, line: int = 0):
        self.name = name
        self.array_size = array_size
        self.init = init
        self.line = line


class Assign(_Node):
    """Assignment ``target op= value`` where ``op`` is ``=`` or a compound op."""

    __slots__ = ("target", "op", "value", "line")
    _fields = __slots__

    def __init__(self, target: Union[Var, Index], op: str, value: Expr,
                 line: int = 0):
        self.target = target
        self.op = op
        self.value = value
        self.line = line


class If(_Node):
    __slots__ = ("cond", "then_body", "else_body", "line")
    _fields = __slots__

    def __init__(self, cond: Expr, then_body: Optional[List["Stmt"]] = None,
                 else_body: Optional[List["Stmt"]] = None, line: int = 0):
        self.cond = cond
        self.then_body = [] if then_body is None else then_body
        self.else_body = [] if else_body is None else else_body
        self.line = line


class While(_Node):
    __slots__ = ("cond", "body", "bound", "line")
    _fields = __slots__

    def __init__(self, cond: Expr, body: Optional[List["Stmt"]] = None,
                 bound: Optional[int] = None, line: int = 0):
        self.cond = cond
        self.body = [] if body is None else body
        #: Loop bound from a ``loopbound`` pragma (None = analyse or reject).
        self.bound = bound
        self.line = line


class For(_Node):
    """``for (init; cond; update) body`` with simple init/update statements."""

    __slots__ = ("init", "cond", "update", "body", "bound", "line")
    _fields = __slots__

    def __init__(self, init: Optional["Stmt"], cond: Optional[Expr],
                 update: Optional["Stmt"],
                 body: Optional[List["Stmt"]] = None,
                 bound: Optional[int] = None, line: int = 0):
        self.init = init
        self.cond = cond
        self.update = update
        self.body = [] if body is None else body
        self.bound = bound
        self.line = line


class Repeat(_Node):
    """``count`` back-to-back copies of ``body``, as written out in sequence.

    Emitted by full loop unrolling instead of ``count`` cloned bodies: the
    body (including the loop's update statement) is stored once and
    lowering stamps its IR ``count`` times.  A mutation of ``body`` applies
    to every copy.
    """

    __slots__ = ("count", "body", "line")
    _fields = __slots__

    def __init__(self, count: int, body: Optional[List["Stmt"]] = None,
                 line: int = 0):
        self.count = count
        self.body = [] if body is None else body
        self.line = line


class Return(_Node):
    __slots__ = ("value", "line")
    _fields = __slots__

    def __init__(self, value: Optional[Expr] = None, line: int = 0):
        self.value = value
        self.line = line


class ExprStmt(_Node):
    __slots__ = ("expr", "line")
    _fields = __slots__

    def __init__(self, expr: Expr, line: int = 0):
        self.expr = expr
        self.line = line


Stmt = Union[VarDecl, Assign, If, While, For, Repeat, Return, ExprStmt]


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------
class FunctionDef(_Node):
    __slots__ = ("name", "params", "body", "pragmas", "line")
    _fields = __slots__

    def __init__(self, name: str, params: Optional[List[str]] = None,
                 body: Optional[List[Stmt]] = None,
                 pragmas: Optional[Dict[str, object]] = None, line: int = 0):
        self.name = name
        self.params = [] if params is None else params
        self.body = [] if body is None else body
        #: Parsed ``#pragma teamplay`` directives attached to this function.
        self.pragmas = {} if pragmas is None else pragmas
        self.line = line


class GlobalArray(_Node):
    """Top-level ``int name[N];`` possibly with an initialiser list."""

    __slots__ = ("name", "size", "init", "line")
    _fields = __slots__

    def __init__(self, name: str, size: int,
                 init: Optional[List[int]] = None, line: int = 0):
        self.name = name
        self.size = size
        self.init = init
        self.line = line


class SourceModule(_Node):
    """A parsed TeamPlay-C translation unit, or one build unit of it.

    ``externals`` names the functions defined outside this module that its
    calls may target: the rest of the translation unit when the compiler
    builds one function at a time.  A name maps to that function's body
    when a pass reads it (inlining reads its callees' bodies), else to
    ``None``.  Passes transform only ``functions``; an external body is
    read-only.  A parsed module has no externals.
    """

    __slots__ = ("functions", "globals", "source_name", "externals")
    _fields = ("functions", "globals", "source_name")

    def __init__(self, functions: Optional[List[FunctionDef]] = None,
                 globals: Optional[List[GlobalArray]] = None,
                 source_name: str = "<memory>",
                 externals: Optional[Dict[str, Optional[FunctionDef]]] = None):
        self.functions = [] if functions is None else functions
        self.globals = [] if globals is None else globals
        self.source_name = source_name
        self.externals = {} if externals is None else externals

    def function(self, name: str) -> FunctionDef:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")

    def function_names(self) -> List[str]:
        return [fn.name for fn in self.functions]


# ---------------------------------------------------------------------------
# Generic traversal / cloning helpers used by compiler passes
# ---------------------------------------------------------------------------
def clone_expr(expr: Expr) -> Expr:
    """Deep-copy an expression."""
    if isinstance(expr, Num):
        return Num(expr.value, expr.line)
    if isinstance(expr, Var):
        return Var(expr.name, expr.line)
    if isinstance(expr, Index):
        return Index(expr.name, clone_expr(expr.index), expr.line)
    if isinstance(expr, Unary):
        return Unary(expr.op, clone_expr(expr.operand), expr.line)
    if isinstance(expr, Binary):
        return Binary(expr.op, clone_expr(expr.lhs), clone_expr(expr.rhs), expr.line)
    if isinstance(expr, Call):
        return Call(expr.name, [clone_expr(a) for a in expr.args], expr.line)
    raise TypeError(f"unknown expression {type(expr)!r}")


def clone_stmt(stmt: Stmt) -> Stmt:
    """Deep-copy a statement."""
    if isinstance(stmt, VarDecl):
        init = clone_expr(stmt.init) if stmt.init is not None else None
        return VarDecl(stmt.name, stmt.array_size, init, stmt.line)
    if isinstance(stmt, Assign):
        return Assign(clone_expr(stmt.target), stmt.op, clone_expr(stmt.value),
                      stmt.line)
    if isinstance(stmt, If):
        return If(clone_expr(stmt.cond),
                  [clone_stmt(s) for s in stmt.then_body],
                  [clone_stmt(s) for s in stmt.else_body], stmt.line)
    if isinstance(stmt, While):
        return While(clone_expr(stmt.cond), [clone_stmt(s) for s in stmt.body],
                     stmt.bound, stmt.line)
    if isinstance(stmt, For):
        init = clone_stmt(stmt.init) if stmt.init is not None else None
        cond = clone_expr(stmt.cond) if stmt.cond is not None else None
        update = clone_stmt(stmt.update) if stmt.update is not None else None
        return For(init, cond, update, [clone_stmt(s) for s in stmt.body],
                   stmt.bound, stmt.line)
    if isinstance(stmt, Repeat):
        return Repeat(stmt.count, [clone_stmt(s) for s in stmt.body], stmt.line)
    if isinstance(stmt, Return):
        value = clone_expr(stmt.value) if stmt.value is not None else None
        return Return(value, stmt.line)
    if isinstance(stmt, ExprStmt):
        return ExprStmt(clone_expr(stmt.expr), stmt.line)
    raise TypeError(f"unknown statement {type(stmt)!r}")


def clone_function(fn: FunctionDef) -> FunctionDef:
    return FunctionDef(fn.name, list(fn.params),
                       [clone_stmt(s) for s in fn.body],
                       dict(fn.pragmas), fn.line)


def clone_module(module: SourceModule) -> SourceModule:
    return SourceModule(
        functions=[clone_function(fn) for fn in module.functions],
        globals=[GlobalArray(g.name, g.size, list(g.init) if g.init else None,
                             g.line)
                 for g in module.globals],
        source_name=module.source_name,
        externals=dict(module.externals),
    )


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression."""
    yield expr
    if isinstance(expr, Index):
        yield from walk_expr(expr.index)
    elif isinstance(expr, Unary):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_expr(expr.lhs)
        yield from walk_expr(expr.rhs)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_expr(arg)


def has_call(expr: Expr) -> bool:
    """Whether ``expr`` calls a function anywhere inside it."""
    return any(isinstance(node, Call) for node in walk_expr(expr))


def called_functions(function: FunctionDef) -> List[str]:
    """The names ``function`` calls, each once, in order of first call."""
    names: Dict[str, None] = {}
    for stmt in walk_stmts(function.body):
        for expr in stmt_expressions(stmt):
            for node in walk_expr(expr):
                if isinstance(node, Call):
                    names[node.name] = None
    return list(names)


def walk_stmts(stmts: List[Stmt]):
    """Yield every statement in ``stmts``, recursively.

    A :class:`Repeat`'s body is visited once, not once per copy.
    """
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, (While, Repeat)):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, For):
            if stmt.init is not None:
                yield stmt.init
            if stmt.update is not None:
                yield stmt.update
            yield from walk_stmts(stmt.body)


def stmt_expressions(stmt: Stmt) -> List[Expr]:
    """Top-level expressions contained directly in ``stmt``.

    A :class:`Repeat` has none: its expressions belong to its body.
    """
    if isinstance(stmt, VarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, Assign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, While):
        return [stmt.cond]
    if isinstance(stmt, For):
        return [stmt.cond] if stmt.cond is not None else []
    if isinstance(stmt, Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ExprStmt):
        return [stmt.expr]
    return []


# ---------------------------------------------------------------------------
# Serialisation (AST golden fixtures)
# ---------------------------------------------------------------------------
def ast_to_dict(node) -> object:
    """Serialise an AST node (or list / primitive) to JSON-ready values.

    Every node becomes ``{"node": <class name>, <field>: <value>, ...}``
    with fields in declaration order — a stable, human-diffable form the
    AST golden fixtures under ``tests/golden/`` pin bit-for-bit.
    """
    if isinstance(node, _Node):
        document: Dict[str, object] = {"node": node.__class__.__name__}
        for name in node._fields:
            document[name] = ast_to_dict(getattr(node, name))
        return document
    if isinstance(node, list):
        return [ast_to_dict(item) for item in node]
    if isinstance(node, dict):
        return {key: ast_to_dict(value) for key, value in node.items()}
    if node.__class__.__name__ == "Quantity":  # pragma values (period, …)
        return {"quantity": node.value, "dimension": node.dimension}
    return node
