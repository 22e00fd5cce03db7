"""The SecurityOptimiser: source-level hardening transformations.

The core transformation is *branch balancing by arithmetic predication*
(the generalisation of ladderisation used for iterative conditional
branching): a branch whose condition depends on secret data is replaced by
straight-line code that always executes both branch bodies, with every
assignment predicated by a 0/1 mask::

    if (c) { x = e1; } else { x = e2; }

becomes::

    int __tp_mask = (c) != 0;
    x = __tp_mask * (e1) + (1 - __tp_mask) * x;
    x = (1 - __tp_mask) * (e2) + __tp_mask * x;

Only branches whose bodies consist purely of assignments (no calls, loops or
declarations) are transformed; everything else is reported as skipped so the
developer can restructure the code, exactly the feedback loop the TeamPlay
methodology prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.frontend import ast_nodes as ast


# ---------------------------------------------------------------------------
# Taint analysis
# ---------------------------------------------------------------------------
def _expr_names(expr: ast.Expr) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.Var):
            names.add(node.name)
        elif isinstance(node, ast.Index):
            names.add(node.name)
    return names


def tainted_variables(function: ast.FunctionDef,
                      secrets: Optional[Sequence[str]] = None) -> Set[str]:
    """Fixed-point taint propagation from the secret parameters.

    A variable (or array) becomes tainted when it is assigned an expression
    mentioning a tainted name.  Calls are treated conservatively: a call with
    a tainted argument taints the assignment target.
    """
    tainted: Set[str] = set(secrets if secrets is not None
                            else function.pragmas.get("secret", []))
    changed = True
    while changed:
        changed = False
        for stmt in ast.walk_stmts(function.body):
            if isinstance(stmt, ast.VarDecl) and stmt.init is not None:
                if _expr_names(stmt.init) & tainted and stmt.name not in tainted:
                    tainted.add(stmt.name)
                    changed = True
            elif isinstance(stmt, ast.Assign):
                sources = _expr_names(stmt.value)
                if isinstance(stmt.target, ast.Index):
                    sources |= _expr_names(stmt.target.index)
                    target_name = stmt.target.name
                else:
                    target_name = stmt.target.name
                if stmt.op != "=":
                    sources.add(target_name)
                if sources & tainted and target_name not in tainted:
                    tainted.add(target_name)
                    changed = True
    return tainted


def secret_dependent_branches(function: ast.FunctionDef,
                              secrets: Optional[Sequence[str]] = None
                              ) -> List[ast.If]:
    """All ``if`` statements whose condition reads tainted data."""
    tainted = tainted_variables(function, secrets)
    return [stmt for stmt in ast.walk_stmts(function.body)
            if isinstance(stmt, ast.If) and _expr_names(stmt.cond) & tainted]


# ---------------------------------------------------------------------------
# Branch balancing by predication
# ---------------------------------------------------------------------------
@dataclass
class HardeningReport:
    """What the SecurityOptimiser did to a module."""

    transformed: List[Tuple[str, int]] = field(default_factory=list)
    skipped: List[Tuple[str, int, str]] = field(default_factory=list)
    functions_visited: List[str] = field(default_factory=list)

    @property
    def transformed_count(self) -> int:
        return len(self.transformed)

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)


def _branch_is_predicable(body: Sequence[ast.Stmt]) -> Optional[str]:
    """None when the branch can be predicated, else the reason it cannot."""
    for stmt in body:
        if not isinstance(stmt, ast.Assign):
            return f"contains a {type(stmt).__name__} statement"
        if ast.has_call(stmt.value):
            return "assignment right-hand side contains a call"
        if isinstance(stmt.target, ast.Index) and ast.has_call(stmt.target.index):
            return "array index contains a call"
    return None


_COMPOUND_TO_BINARY = {
    "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}


def _desugar_assign(stmt: ast.Assign) -> ast.Assign:
    """Rewrite ``x op= e`` into ``x = x op e`` (a copy; original untouched)."""
    target = ast.clone_expr(stmt.target)
    value = ast.clone_expr(stmt.value)
    if stmt.op == "=":
        return ast.Assign(target, "=", value, stmt.line)
    binary = ast.Binary(_COMPOUND_TO_BINARY[stmt.op], ast.clone_expr(stmt.target),
                        value, stmt.line)
    return ast.Assign(target, "=", binary, stmt.line)


def _predicated(assign: ast.Assign, mask: str, when_true: bool) -> ast.Assign:
    """``x = e`` -> ``x = m*(e) + (1-m)*x`` (or with the mask inverted)."""
    mask_expr: ast.Expr = ast.Var(mask)
    inv_mask: ast.Expr = ast.Binary("-", ast.Num(1), ast.Var(mask))
    keep, take = (inv_mask, mask_expr) if when_true else (mask_expr, inv_mask)
    new_value = ast.Binary(
        "+",
        ast.Binary("*", take, assign.value),
        ast.Binary("*", keep, ast.clone_expr(assign.target)),
        assign.line,
    )
    return ast.Assign(ast.clone_expr(assign.target), "=", new_value, assign.line)


class _Hardener:
    def __init__(self, function: ast.FunctionDef,
                 secrets: Optional[Sequence[str]], report: HardeningReport):
        self.function = function
        self.report = report
        self.tainted = tainted_variables(function, secrets)
        self.mask_counter = 0

    def run(self) -> None:
        self.function.body = self._harden_body(self.function.body)

    def _harden_body(self, body: List[ast.Stmt]) -> List[ast.Stmt]:
        result: List[ast.Stmt] = []
        for stmt in body:
            if isinstance(stmt, ast.If):
                result.extend(self._harden_if(stmt))
            elif isinstance(stmt, ast.While):
                stmt.body = self._harden_body(stmt.body)
                result.append(stmt)
            elif isinstance(stmt, ast.For):
                stmt.body = self._harden_body(stmt.body)
                result.append(stmt)
            else:
                result.append(stmt)
        return result

    def _harden_if(self, stmt: ast.If) -> List[ast.Stmt]:
        stmt.then_body = self._harden_body(stmt.then_body)
        stmt.else_body = self._harden_body(stmt.else_body)

        if not (_expr_names(stmt.cond) & self.tainted):
            return [stmt]

        reason = (_branch_is_predicable(stmt.then_body)
                  or _branch_is_predicable(stmt.else_body))
        if ast.has_call(stmt.cond):
            reason = reason or "condition contains a call"
        if reason is not None:
            self.report.skipped.append((self.function.name, stmt.line, reason))
            return [stmt]

        self.mask_counter += 1
        mask = f"__tp_mask_{self.mask_counter}"
        mask_decl = ast.VarDecl(
            mask, init=ast.Binary("!=", ast.clone_expr(stmt.cond), ast.Num(0)),
            line=stmt.line)
        replacement: List[ast.Stmt] = [mask_decl]
        for assign in stmt.then_body:
            replacement.append(
                _predicated(_desugar_assign(assign), mask, when_true=True))
        for assign in stmt.else_body:
            replacement.append(
                _predicated(_desugar_assign(assign), mask, when_true=False))
        self.report.transformed.append((self.function.name, stmt.line))
        return replacement


def harden_function(function: ast.FunctionDef,
                    secrets: Optional[Sequence[str]] = None,
                    report: Optional[HardeningReport] = None) -> HardeningReport:
    """Apply branch balancing to one function *in place*."""
    report = report if report is not None else HardeningReport()
    report.functions_visited.append(function.name)
    _Hardener(function, secrets, report).run()
    return report


def harden_module(module: ast.SourceModule,
                  only_functions: Optional[Sequence[str]] = None
                  ) -> Tuple[ast.SourceModule, HardeningReport]:
    """Harden every function with secret parameters; returns a new module.

    Functions are selected by their ``secret`` pragma unless
    ``only_functions`` restricts the set explicitly.
    """
    hardened = ast.clone_module(module)
    return hardened, harden_secret_functions(hardened, only_functions)


def harden_secret_functions(module: ast.SourceModule,
                            only_functions: Optional[Sequence[str]] = None
                            ) -> HardeningReport:
    """:func:`harden_module` *in place*: harden ``module``'s functions
    with secret parameters (or those ``only_functions`` names)."""
    report = HardeningReport()
    for function in module.functions:
        if only_functions is not None and function.name not in only_functions:
            continue
        if only_functions is None and not function.pragmas.get("secret"):
            continue
        harden_function(function, None, report)
    return report
