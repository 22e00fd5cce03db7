"""Source-level (AST) optimisation passes.

All passes operate on a :class:`~repro.frontend.ast_nodes.SourceModule`
*in place* and return a small integer describing how much work they did, so
the driver can report which passes were effective for a configuration.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.frontend import ast_nodes as ast
from repro.ir.instructions import (BINARY_OPCODES, LOGICAL_OPCODES,
                                   UNARY_OPCODES, Opcode, evaluate)
from repro.wcet.loopbounds import infer_for_bound


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------
def _fold_operator(op: str, lhs: int, rhs: int) -> Optional[int]:
    """``lhs op rhs`` as the lowered code computes it (``None``: no value).

    ``&&``/``||`` fold the way lowering decomposes them: each operand
    ``CMPNE`` 0, then ``AND``/``OR``.
    """
    logical = LOGICAL_OPCODES.get(op)
    if logical is None:
        return evaluate(BINARY_OPCODES[op], (lhs, rhs))
    return evaluate(logical, (evaluate(Opcode.CMPNE, (lhs, 0)),
                              evaluate(Opcode.CMPNE, (rhs, 0))))


def _fold_expr(expr: ast.Expr, counter: List[int]) -> ast.Expr:
    if isinstance(expr, (ast.Num, ast.Var)):
        return expr
    if isinstance(expr, ast.Index):
        expr.index = _fold_expr(expr.index, counter)
        return expr
    if isinstance(expr, ast.Call):
        expr.args = [_fold_expr(arg, counter) for arg in expr.args]
        return expr
    if isinstance(expr, ast.Unary):
        expr.operand = _fold_expr(expr.operand, counter)
        if isinstance(expr.operand, ast.Num):
            counter[0] += 1
            return ast.Num(evaluate(UNARY_OPCODES[expr.op],
                                    (expr.operand.value,)), expr.line)
        return expr
    if isinstance(expr, ast.Binary):
        expr.lhs = _fold_expr(expr.lhs, counter)
        expr.rhs = _fold_expr(expr.rhs, counter)
        if isinstance(expr.lhs, ast.Num) and isinstance(expr.rhs, ast.Num):
            value = _fold_operator(expr.op, expr.lhs.value, expr.rhs.value)
            if value is None:  # division by zero keeps trapping at run time
                return expr
            counter[0] += 1
            return ast.Num(value, expr.line)
        # Algebraic identities with a constant operand.
        if isinstance(expr.rhs, ast.Num):
            if expr.op in ("+", "-", "|", "^", "<<", ">>") and expr.rhs.value == 0:
                counter[0] += 1
                return expr.lhs
            if expr.op == "*" and expr.rhs.value == 1:
                counter[0] += 1
                return expr.lhs
            if expr.op == "*" and expr.rhs.value == 0 \
                    and not ast.has_call(expr.lhs):
                counter[0] += 1
                return ast.Num(0, expr.line)
            if expr.op == "/" and expr.rhs.value == 1:
                counter[0] += 1
                return expr.lhs
        if isinstance(expr.lhs, ast.Num):
            if expr.op in ("+", "|", "^") and expr.lhs.value == 0:
                counter[0] += 1
                return expr.rhs
            if expr.op == "*" and expr.lhs.value == 1:
                counter[0] += 1
                return expr.rhs
            if expr.op == "*" and expr.lhs.value == 0 \
                    and not ast.has_call(expr.rhs):
                counter[0] += 1
                return ast.Num(0, expr.line)
        return expr
    raise TypeError(f"unknown expression {type(expr)!r}")  # pragma: no cover


def _fold_stmt(stmt: ast.Stmt, counter: List[int]) -> None:
    if isinstance(stmt, ast.VarDecl) and stmt.init is not None:
        stmt.init = _fold_expr(stmt.init, counter)
    elif isinstance(stmt, ast.Assign):
        stmt.value = _fold_expr(stmt.value, counter)
        if isinstance(stmt.target, ast.Index):
            stmt.target.index = _fold_expr(stmt.target.index, counter)
    elif isinstance(stmt, ast.If):
        stmt.cond = _fold_expr(stmt.cond, counter)
        for child in stmt.then_body + stmt.else_body:
            _fold_stmt(child, counter)
    elif isinstance(stmt, ast.While):
        stmt.cond = _fold_expr(stmt.cond, counter)
        for child in stmt.body:
            _fold_stmt(child, counter)
    elif isinstance(stmt, ast.For):
        if stmt.init is not None:
            _fold_stmt(stmt.init, counter)
        if stmt.cond is not None:
            stmt.cond = _fold_expr(stmt.cond, counter)
        if stmt.update is not None:
            _fold_stmt(stmt.update, counter)
        for child in stmt.body:
            _fold_stmt(child, counter)
    elif isinstance(stmt, ast.Repeat):
        # The body is shared by every copy: fold it once and count the
        # folds once per copy, as if the copies were written out.
        body_folds = [0]
        for child in stmt.body:
            _fold_stmt(child, body_folds)
        counter[0] += body_folds[0] * stmt.count
    elif isinstance(stmt, ast.Return) and stmt.value is not None:
        stmt.value = _fold_expr(stmt.value, counter)
    elif isinstance(stmt, ast.ExprStmt):
        stmt.expr = _fold_expr(stmt.expr, counter)


def fold_constants(module: ast.SourceModule) -> int:
    """Fold constant sub-expressions; returns the number of folds performed."""
    counter = [0]
    for function in module.functions:
        for stmt in function.body:
            _fold_stmt(stmt, counter)
    return counter[0]


def _fact(function: ast.FunctionDef, name: str,
          derive: Callable[[ast.FunctionDef], object]):
    """``derive(function)``, memoised on ``function`` under ``name``.

    The compiler derives these facts from a build chain's step inputs,
    which are shared and never rewritten, so each distinct input AST
    derives each fact once; a clone starts without them (see
    :attr:`~repro.frontend.ast_nodes.FunctionDef.facts`).
    """
    facts = function.facts
    if facts is None:
        facts = function.facts = {}
    try:
        return facts[name]
    except KeyError:
        value = facts[name] = derive(function)
        return value


def _folds(function: ast.FunctionDef) -> bool:
    counter = [0]
    for stmt in ast.clone_function(function).body:
        _fold_stmt(stmt, counter)
    return counter[0] > 0


def folds_anything(function: ast.FunctionDef) -> bool:
    """Whether folding would change ``function``, memoised on it.

    It folds a clone once per function object: every rewrite of the
    folder counts one fold, and one round reaches a fixed point, so a
    function folding left as it was folds nothing.  The engine reads it
    as folding's step key, so neither folding nor its round after
    unrolling runs where nothing folds.  Do not rewrite a function after
    asking: the answer stays on it.
    """
    return _fact(function, "folds", _folds)


# ---------------------------------------------------------------------------
# Loop unrolling (full unroll of small counted loops)
# ---------------------------------------------------------------------------
def _unrollable_bound(stmt: ast.For) -> Optional[int]:
    """The trip count of a loop that unrolling may unroll, else ``None``.

    Only counted loops qualify: a positive trip count that is statically
    exact (no ``loopbound`` pragma overriding it).  Unrolling an inner loop
    leaves an outer loop's qualification unchanged.
    """
    static_bound = infer_for_bound(stmt)
    if static_bound is None or static_bound <= 0:
        return None
    if stmt.bound is not None and stmt.bound != static_bound:
        return None
    return static_bound


def _unrollable_bounds(function: ast.FunctionDef) -> Tuple[int, ...]:
    bounds = {_unrollable_bound(stmt) for stmt in ast.walk_stmts(function.body)
              if isinstance(stmt, ast.For)}
    bounds.discard(None)
    return tuple(sorted(bounds))


def largest_unrollable_bound(function: ast.FunctionDef, limit: int) -> int:
    """The largest trip count ``<= limit`` of a loop unrolling would unroll
    in ``function`` (0 if none).

    Two limits with equal values unroll the same loops of ``function``,
    so they give equal code.  The trip counts are walked once per
    function object and memoised on it, as :func:`folds_anything` is.
    """
    largest = 0
    for bound in _fact(function, "unrollable_bounds", _unrollable_bounds):
        if bound > limit:
            break
        largest = bound
    return largest


def _unroll_body(body: List[ast.Stmt], limit: int, counter: List[int]) -> List[ast.Stmt]:
    result: List[ast.Stmt] = []
    for stmt in body:
        if isinstance(stmt, ast.If):
            stmt.then_body = _unroll_body(stmt.then_body, limit, counter)
            stmt.else_body = _unroll_body(stmt.else_body, limit, counter)
            result.append(stmt)
            continue
        if isinstance(stmt, ast.While):
            stmt.body = _unroll_body(stmt.body, limit, counter)
            result.append(stmt)
            continue
        if isinstance(stmt, ast.For):
            stmt.body = _unroll_body(stmt.body, limit, counter)
            bound = _unrollable_bound(stmt)
            if bound is not None and bound <= limit:
                counter[0] += 1
                if stmt.init is not None:
                    result.append(stmt.init)
                body = list(stmt.body)
                if stmt.update is not None:
                    body.append(stmt.update)
                result.append(ast.Repeat(bound, body, stmt.line))
                continue
            result.append(stmt)
            continue
        result.append(stmt)
    return result


def unroll_loops(module: ast.SourceModule, limit: int) -> int:
    """Fully unroll counted loops with trip count ≤ ``limit``.

    Each unrolled loop becomes its init statement followed by one
    :class:`~repro.frontend.ast_nodes.Repeat` of its body and update, which
    lowering expands into ``bound`` copies of the body's IR.  Returns the
    number of loops unrolled.  ``limit`` of zero disables the pass.
    """
    if limit <= 0:
        return 0
    counter = [0]
    for function in module.functions:
        function.body = _unroll_body(function.body, limit, counter)
    return counter[0]


# ---------------------------------------------------------------------------
# Inlining of simple functions
# ---------------------------------------------------------------------------
def _simple_function_expression(function: ast.FunctionDef) -> Optional[ast.Expr]:
    """The return expression if the function body is a single return."""
    if len(function.body) != 1:
        return None
    stmt = function.body[0]
    if not isinstance(stmt, ast.Return) or stmt.value is None:
        return None
    # The expression must not call anything (avoids unbounded inlining) and
    # must only mention the function's own parameters.
    for node in ast.walk_expr(stmt.value):
        if isinstance(node, ast.Call):
            return None
        if isinstance(node, (ast.Var, ast.Index)):
            name = node.name
            if name not in function.params:
                return None
    return stmt.value


def _substitute(expr: ast.Expr, bindings: Dict[str, ast.Expr]) -> ast.Expr:
    if isinstance(expr, ast.Num):
        return ast.Num(expr.value, expr.line)
    if isinstance(expr, ast.Var):
        if expr.name in bindings:
            return ast.clone_expr(bindings[expr.name])
        return ast.Var(expr.name, expr.line)
    if isinstance(expr, ast.Index):
        return ast.Index(expr.name, _substitute(expr.index, bindings), expr.line)
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, _substitute(expr.operand, bindings), expr.line)
    if isinstance(expr, ast.Binary):
        return ast.Binary(expr.op, _substitute(expr.lhs, bindings),
                          _substitute(expr.rhs, bindings), expr.line)
    if isinstance(expr, ast.Call):
        return ast.Call(expr.name, [_substitute(a, bindings) for a in expr.args],
                        expr.line)
    raise TypeError(f"unknown expression {type(expr)!r}")  # pragma: no cover


def _inline_expr(expr: ast.Expr, inlinable: Dict[str, ast.FunctionDef],
                 counter: List[int]) -> ast.Expr:
    if isinstance(expr, (ast.Num, ast.Var)):
        return expr
    if isinstance(expr, ast.Index):
        expr.index = _inline_expr(expr.index, inlinable, counter)
        return expr
    if isinstance(expr, ast.Unary):
        expr.operand = _inline_expr(expr.operand, inlinable, counter)
        return expr
    if isinstance(expr, ast.Binary):
        expr.lhs = _inline_expr(expr.lhs, inlinable, counter)
        expr.rhs = _inline_expr(expr.rhs, inlinable, counter)
        return expr
    if isinstance(expr, ast.Call):
        expr.args = [_inline_expr(arg, inlinable, counter) for arg in expr.args]
        callee = inlinable.get(expr.name)
        if callee is not None and len(expr.args) == len(callee.params):
            body_expr = _simple_function_expression(callee)
            if body_expr is not None:
                counter[0] += 1
                bindings = dict(zip(callee.params, expr.args))
                return _substitute(body_expr, bindings)
        return expr
    raise TypeError(f"unknown expression {type(expr)!r}")  # pragma: no cover


def is_inlinable(function: ast.FunctionDef) -> bool:
    """Whether inlining replaces calls to ``function``: its body is one
    return of an expression over its own parameters that calls nothing."""
    return _simple_function_expression(function) is not None


def inline_simple_functions(module: ast.SourceModule) -> int:
    """Inline calls to single-return-expression functions; returns call count.

    The callees are the module's functions and its external bodies (see
    :class:`~repro.frontend.ast_nodes.SourceModule`), as they are before
    any call is inlined: an inlinable function calls nothing, so inlining
    never changes one.
    """
    inlinable = {fn.name: fn for fn in module.functions if is_inlinable(fn)}
    inlinable.update((name, fn) for name, fn in module.externals.items()
                     if fn is not None and is_inlinable(fn))
    if not inlinable:
        return 0
    counter = [0]
    for function in module.functions:
        for stmt in ast.walk_stmts(function.body):
            if isinstance(stmt, ast.VarDecl) and stmt.init is not None:
                stmt.init = _inline_expr(stmt.init, inlinable, counter)
            elif isinstance(stmt, ast.Assign):
                stmt.value = _inline_expr(stmt.value, inlinable, counter)
                if isinstance(stmt.target, ast.Index):
                    stmt.target.index = _inline_expr(stmt.target.index,
                                                     inlinable, counter)
            elif isinstance(stmt, (ast.If, ast.While)):
                stmt.cond = _inline_expr(stmt.cond, inlinable, counter)
            elif isinstance(stmt, ast.For) and stmt.cond is not None:
                stmt.cond = _inline_expr(stmt.cond, inlinable, counter)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                stmt.value = _inline_expr(stmt.value, inlinable, counter)
            elif isinstance(stmt, ast.ExprStmt):
                stmt.expr = _inline_expr(stmt.expr, inlinable, counter)
    return counter[0]
