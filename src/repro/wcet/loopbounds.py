"""Loop-bound analysis on the TeamPlay-C AST.

The WCET analysis needs a bound for every loop.  Bounds come from two
sources: explicit ``#pragma teamplay loopbound(N)`` annotations, and this
analysis, which recognises counted ``for`` loops of the common shape::

    for (i = C0; i < C1; i = i + C2) ...      (also <=, >, >=, -=, +=)

with integer-literal ``C0``, ``C1``, ``C2``, whose body never writes ``i``.
Anything else keeps the pragma bound (or no bound, which the WCET analyser
rejects).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.frontend import ast_nodes as ast


def _literal(expr: Optional[ast.Expr]) -> Optional[int]:
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op == "-" and isinstance(expr.operand, ast.Num):
        return -expr.operand.value
    return None


def _induction_variable(stmt: ast.For) -> Optional[str]:
    init = stmt.init
    if isinstance(init, ast.VarDecl) and init.array_size is None:
        return init.name
    if isinstance(init, ast.Assign) and isinstance(init.target, ast.Var) and init.op == "=":
        return init.target.name
    return None


def _step(stmt: ast.For, var: str) -> Optional[int]:
    update = stmt.update
    if update is None or not isinstance(update, ast.Assign):
        return None
    if not isinstance(update.target, ast.Var) or update.target.name != var:
        return None
    if update.op == "+=":
        return _literal(update.value)
    if update.op == "-=":
        value = _literal(update.value)
        return -value if value is not None else None
    if update.op == "=":
        value = update.value
        if isinstance(value, ast.Binary) and isinstance(value.lhs, ast.Var) \
                and value.lhs.name == var:
            step = _literal(value.rhs)
            if step is None:
                return None
            if value.op == "+":
                return step
            if value.op == "-":
                return -step
    return None


def _iterations(start: int, limit: int, step: int, op: str) -> Optional[int]:
    if step == 0:
        return None
    if op == "<":
        if step <= 0:
            return None
        distance = limit - start
    elif op == "<=":
        if step <= 0:
            return None
        distance = limit - start + 1
    elif op == ">":
        if step >= 0:
            return None
        distance = start - limit
        step = -step
    elif op == ">=":
        if step >= 0:
            return None
        distance = start - limit + 1
        step = -step
    else:
        return None
    if distance <= 0:
        return 0
    return math.ceil(distance / step)


def _writes(stmts, var: str) -> bool:
    """Whether any statement in ``stmts`` (recursively) assigns ``var``."""
    for stmt in ast.walk_stmts(stmts):
        if isinstance(stmt, ast.Assign):
            if isinstance(stmt.target, ast.Var) and stmt.target.name == var:
                return True
        elif isinstance(stmt, ast.VarDecl):
            if stmt.array_size is None and stmt.name == var:
                return True
    return False


def infer_for_bound(stmt: ast.For) -> Optional[int]:
    """Bound of a single counted ``for`` loop, or None when not inferable."""
    var = _induction_variable(stmt)
    if var is None or _writes(stmt.body, var):
        return None
    start = _literal(stmt.init.init if isinstance(stmt.init, ast.VarDecl)
                     else stmt.init.value)
    if start is None or stmt.cond is None:
        return None
    if not isinstance(stmt.cond, ast.Binary):
        return None
    cond = stmt.cond
    if not (isinstance(cond.lhs, ast.Var) and cond.lhs.name == var):
        return None
    limit = _literal(cond.rhs)
    if limit is None:
        return None
    step = _step(stmt, var)
    if step is None:
        return None
    return _iterations(start, limit, step, cond.op)


def infer_loop_bounds(module: ast.SourceModule) -> int:
    """Fill in ``bound`` for every inferable loop in ``module``.

    Pragma-provided bounds are never overridden.  Returns the number of loops
    whose bound was inferred by this analysis.
    """
    inferred = 0
    for function in module.functions:
        for stmt in ast.walk_stmts(function.body):
            if isinstance(stmt, ast.For) and stmt.bound is None:
                bound = infer_for_bound(stmt)
                if bound is not None:
                    stmt.bound = bound
                    inferred += 1
            # ``while`` loops always need an explicit pragma; nothing to do.
    return inferred
