"""Slow, obviously-correct oracles for the code in ``src/``.

Each function here is a plain reference: the original loop-based
implementation that a faster version replaced, or the uncached path that a
cached one must match.  The shipped package never calls them; the
differential tests import this module by name and assert exact agreement:

* the seed's O(N^2) double-loop Pareto machinery (``non_dominated_sort``,
  ``crowding_distance``, ``pareto_front`` in
  :mod:`repro.compiler.engine.vectorized`), checked in
  ``tests/test_properties.py`` for front composition *and* ordering,
  crowding tie-breaking and deduplication;
* the per-output-pixel ``np.tensordot`` convolution that
  :meth:`repro.dl.layers.Conv2D.forward` replaced with one batched matmul,
  checked bit for bit in ``tests/test_dl.py``;
* the clone-per-iteration loop unrolling that
  :func:`repro.compiler.passes.ast_passes.unroll_loops` replaced with one
  ``Repeat`` node whose IR lowering stamps, checked IR-for-IR in
  ``tests/test_unroll_stamping.py``;
* the recursive key canonicaliser whose output
  :func:`repro.compiler.engine.persist.key_digest` used to hash, replaced by
  one call into the C JSON encoder, checked digest for digest in
  ``tests/test_persist.py``;
* the seed Token-object recursive-descent parser (``parse_reference``, fed
  by :func:`repro.frontend.lexer.tokenize`, the seed character loop) that
  the token-cursor :func:`repro.frontend.parse` replaced, checked AST for
  AST and error message for error message in
  ``tests/test_frontend_cursor.py`` and timed as the seed baseline by
  ``benchmarks/test_bench_frontend.py``;
* the uncached build and evaluation (``build_program``, the stage chain
  that :class:`~repro.compiler.engine.EvaluationEngine` caches, and
  ``evaluate_config``, which analyses its result with the stock
  :class:`~repro.wcet.analyzer.WCETAnalyzer` and
  :class:`~repro.energy.static_analyzer.EnergyAnalyzer`), checked variant
  for variant in ``tests/test_engine.py`` and ``tests/test_pipeline.py``
  and timed as the uncached baseline by ``benchmarks/test_bench_engine.py``;
* the whole-program cost table (``whole_program_costs``: every function's
  cost, or the analysis error of each that has none) that
  :class:`~repro.compiler.engine.cache.AnalysisCache` replaced with
  costing each query's call closure on demand, read through the cache by
  ``cache_costs`` and checked table for table in
  ``tests/test_analysis_core.py``, ``tests/test_unit_memo.py`` and
  ``tests/test_compact_runs.py``;
* the IPET longest path (``acyclic_longest_path_cost``) and whole-CFG
  feasible-path enumeration (``feasible_longest_path_cost``,
  ``acyclic_longest_feasible_path_cost``) that cross-check the structural
  and path-sensitive engines of :mod:`repro.wcet` in
  ``tests/test_wcet.py`` and ``tests/test_path_feasibility.py``.
"""

from __future__ import annotations

import enum
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.config import CompilerConfig
from repro.compiler.engine.persist import PERSIST_CODEC_VERSION, PersistError
from repro.compiler.evaluate import SecurityEvaluator, Variant
from repro.compiler.passes.spm import INSTRUCTION_BYTES
from repro.compiler.pipeline import CompilationPipeline
from repro.energy.static_analyzer import EnergyAnalyzer
from repro.errors import AnalysisError, CompilationError, FrontendError
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import Token, tokenize
from repro.frontend.parser import _ASSIGN_OPS, _PRECEDENCE
from repro.frontend.pragmas import parse_pragma
from repro.hw.core import Core
from repro.hw.platform import Platform
from repro.ir.cfg import Function, Program
from repro.wcet.analyzer import WCETAnalyzer
from repro.wcet.loopbounds import infer_for_bound
from repro.wcet.paths import (DEFAULT_PATH_CAP, PathStats, _enumerate_paths,
                              _IrregularFlow, _PathCapExceeded, _unit_blocks)
from repro.wcet.structural import InstrCost, StructuralCostEngine


@dataclass
class ObjectivePoint:
    """A minimal stand-in for :class:`Variant` carrying only objectives.

    Useful for exercising the Pareto machinery on raw objective vectors
    (property tests, benchmarks) without building compiled variants.
    """

    values: Tuple[float, ...]

    def objectives(self) -> Tuple[float, ...]:
        return self.values

    def dominates(self, other: "ObjectivePoint") -> bool:
        mine, theirs = self.objectives(), other.objectives()
        if len(mine) != len(theirs):
            raise CompilationError(
                "cannot compare variants with different objective sets")
        return (all(a <= b for a, b in zip(mine, theirs))
                and any(a < b for a, b in zip(mine, theirs)))


def non_dominated_sort_reference(variants: Sequence) -> List[List[int]]:
    """Indices of ``variants`` grouped into successive non-dominated fronts."""
    count = len(variants)
    dominated_by: List[List[int]] = [[] for _ in range(count)]
    domination_count = [0] * count
    fronts: List[List[int]] = [[]]

    for i in range(count):
        for j in range(count):
            if i == j:
                continue
            if variants[i].dominates(variants[j]):
                dominated_by[i].append(j)
            elif variants[j].dominates(variants[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)

    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return [front for front in fronts if front]


def crowding_distance_reference(variants: Sequence,
                                front: Sequence[int]) -> Dict[int, float]:
    """Crowding distance of each index in ``front``."""
    distance = {i: 0.0 for i in front}
    if not front:
        return distance
    objective_count = len(variants[front[0]].objectives())
    for objective in range(objective_count):
        ordered = sorted(front, key=lambda i: variants[i].objectives()[objective])
        low = variants[ordered[0]].objectives()[objective]
        high = variants[ordered[-1]].objectives()[objective]
        distance[ordered[0]] = distance[ordered[-1]] = float("inf")
        if high == low:
            continue
        for position in range(1, len(ordered) - 1):
            previous = variants[ordered[position - 1]].objectives()[objective]
            following = variants[ordered[position + 1]].objectives()[objective]
            distance[ordered[position]] += (following - previous) / (high - low)
    return distance


def pareto_front_reference(variants: Sequence) -> List:
    """Non-dominated subset of ``variants`` (first occurrence wins on ties)."""
    front: List = []
    for candidate in variants:
        if any(other.dominates(candidate) for other in variants
               if other is not candidate):
            continue
        if any(existing.objectives() == candidate.objectives()
               for existing in front):
            continue
        front.append(candidate)
    return front


def conv2d_forward_reference(conv, tensor: np.ndarray) -> np.ndarray:
    """``conv``'s output computed with one ``np.tensordot`` per output pixel."""
    if tensor.ndim == 2:
        tensor = tensor[:, :, np.newaxis]
    kh, kw, _, out_channels = conv.weights.shape
    out_h = (tensor.shape[0] - kh) // conv.stride + 1
    out_w = (tensor.shape[1] - kw) // conv.stride + 1
    output = np.zeros((out_h, out_w, out_channels))
    for row in range(out_h):
        for col in range(out_w):
            r0, c0 = row * conv.stride, col * conv.stride
            patch = tensor[r0:r0 + kh, c0:c0 + kw, :]
            output[row, col, :] = np.tensordot(
                patch, conv.weights, axes=([0, 1, 2], [0, 1, 2])) + conv.bias
    return output


def _unroll_body_by_cloning(body: List, limit: int, counter: List[int]) -> List:
    result: List = []
    for stmt in body:
        if isinstance(stmt, ast.If):
            stmt.then_body = _unroll_body_by_cloning(stmt.then_body, limit,
                                                     counter)
            stmt.else_body = _unroll_body_by_cloning(stmt.else_body, limit,
                                                     counter)
            result.append(stmt)
            continue
        if isinstance(stmt, ast.While):
            stmt.body = _unroll_body_by_cloning(stmt.body, limit, counter)
            result.append(stmt)
            continue
        if isinstance(stmt, ast.For):
            stmt.body = _unroll_body_by_cloning(stmt.body, limit, counter)
            bound = stmt.bound if stmt.bound is not None else infer_for_bound(stmt)
            static_bound = infer_for_bound(stmt)
            # Only fully unroll loops whose trip count is statically exact
            # (counted loops) and small enough.
            if static_bound is not None and static_bound == bound and 0 < bound <= limit:
                counter[0] += 1
                if stmt.init is not None:
                    result.append(stmt.init)
                for _ in range(bound):
                    result.extend(ast.clone_stmt(s) for s in stmt.body)
                    if stmt.update is not None:
                        result.append(ast.clone_stmt(stmt.update))
                continue
            result.append(stmt)
            continue
        result.append(stmt)
    return result


def unroll_by_cloning(module, limit: int) -> int:
    """Fully unroll counted loops by writing out ``bound`` cloned bodies.

    Same contract as :func:`repro.compiler.passes.ast_passes.unroll_loops`
    (in place; returns the number of loops unrolled; ``limit`` 0 disables).
    """
    if limit <= 0:
        return 0
    counter = [0]
    for function in module.functions:
        function.body = _unroll_body_by_cloning(function.body, limit, counter)
    return counter[0]


def canon_key_reference(value):
    """JSON-serialisable canonical form of a key component.

    Handles the structural-fingerprint vocabulary: nested tuples/lists,
    strings, ints, floats, bools, ``None`` and :class:`enum.Enum` members
    (serialised by type and member name, never by implicit ordinal).
    """
    if isinstance(value, (tuple, list)):
        return [canon_key_reference(item) for item in value]
    if isinstance(value, enum.Enum):
        return {"enum": [type(value).__name__, value.name]}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise PersistError(
        f"unsupported key component of type {type(value).__name__!r}")


def key_digest_reference(*parts) -> str:
    """SHA-256 hex digest of the canonical JSON serialisation of ``parts``."""
    blob = json.dumps([PERSIST_CODEC_VERSION, canon_key_reference(list(parts))],
                      separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The seed Token-object parser (replaced by the token-cursor parser)
# ---------------------------------------------------------------------------
def _int_literal(token: Token) -> int:
    """``int(token.value, 0)``; a malformed literal is a positioned error."""
    try:
        return int(token.value, 0)
    except ValueError:
        raise FrontendError(f"invalid integer literal {token.value!r}",
                            token.line, token.column) from None


class _ReferenceParser:
    """The seed Token-object parser, kept as the parity/benchmark baseline.

    Two changes from the seed: the redundant ``min()`` clamp in
    :meth:`peek` is gone (``advance`` never moves past the EOF sentinel, so
    the cursor cannot leave the token list), and a malformed integer
    literal raises :class:`FrontendError` at its position instead of a bare
    ``ValueError``, with the shipped parser's message.
    """

    def __init__(self, tokens: List[Token], source_name: str):
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name

    # -- token helpers ------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        if self.check(kind, value):
            return self.advance()
        token = self.peek()
        expected = value if value is not None else kind
        raise FrontendError(
            f"expected {expected!r} but found {token.value or token.kind!r}",
            token.line, token.column)

    def error(self, message: str) -> FrontendError:
        token = self.peek()
        return FrontendError(message, token.line, token.column)

    # -- module -----------------------------------------------------------------
    def parse_module(self) -> ast.SourceModule:
        module = ast.SourceModule(source_name=self.source_name)
        pending_pragmas: Dict[str, object] = {}
        while not self.check("EOF"):
            if self.check("PRAGMA"):
                token = self.advance()
                pending_pragmas.update(parse_pragma(token.value, token.line))
                continue
            if self.check("KEYWORD", "int") or self.check("KEYWORD", "void"):
                decl = self._parse_top_level(pending_pragmas)
                pending_pragmas = {}
                if isinstance(decl, ast.FunctionDef):
                    module.functions.append(decl)
                else:
                    module.globals.append(decl)
                continue
            raise self.error("expected a declaration")
        return module

    def _parse_top_level(self, pragmas: Dict[str, object]):
        type_token = self.advance()  # 'int' or 'void'
        name_token = self.expect("ID")
        if self.check("OP", "("):
            return self._parse_function(type_token, name_token, pragmas)
        if type_token.value == "void":
            raise FrontendError("global variables must have type int",
                                type_token.line, type_token.column)
        return self._parse_global_array(name_token)

    def _parse_global_array(self, name_token: Token) -> ast.GlobalArray:
        self.expect("OP", "[")
        size_token = self.expect("NUM")
        self.expect("OP", "]")
        size = _int_literal(size_token)
        if size <= 0:
            raise FrontendError("array size must be positive",
                                size_token.line, size_token.column)
        init: Optional[List[int]] = None
        if self.accept("OP", "="):
            self.expect("OP", "{")
            init = []
            while not self.check("OP", "}"):
                negative = bool(self.accept("OP", "-"))
                value_token = self.expect("NUM")
                value = _int_literal(value_token)
                init.append(-value if negative else value)
                if not self.accept("OP", ","):
                    break
            self.expect("OP", "}")
            if len(init) > size:
                raise FrontendError(
                    f"initialiser for {name_token.value!r} has {len(init)} "
                    f"elements but the array holds {size}",
                    name_token.line, name_token.column)
        self.expect("OP", ";")
        return ast.GlobalArray(name_token.value, size, init, name_token.line)

    def _parse_function(self, type_token: Token, name_token: Token,
                        pragmas: Dict[str, object]) -> ast.FunctionDef:
        self.expect("OP", "(")
        params: List[str] = []
        if self.accept("KEYWORD", "void"):
            pass
        elif not self.check("OP", ")"):
            while True:
                self.expect("KEYWORD", "int")
                param = self.expect("ID")
                params.append(param.value)
                if not self.accept("OP", ","):
                    break
        self.expect("OP", ")")
        self.expect("OP", "{")
        body = self._parse_statements_until_brace()
        return ast.FunctionDef(name_token.value, params, body, dict(pragmas),
                               name_token.line)

    # -- statements ----------------------------------------------------------------
    def _parse_statements_until_brace(self) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        while not self.check("OP", "}"):
            if self.check("EOF"):
                raise self.error("unexpected end of file inside a block")
            stmts.append(self._parse_statement())
        self.expect("OP", "}")
        return stmts

    def _parse_block(self) -> List[ast.Stmt]:
        if self.accept("OP", "{"):
            return self._parse_statements_until_brace()
        return [self._parse_statement()]

    def _parse_statement(self) -> ast.Stmt:
        pragmas: Dict[str, object] = {}
        while self.check("PRAGMA"):
            token = self.advance()
            pragmas.update(parse_pragma(token.value, token.line))

        if self.check("KEYWORD", "int"):
            return self._parse_vardecl()
        if self.check("KEYWORD", "if"):
            return self._parse_if()
        if self.check("KEYWORD", "while"):
            return self._parse_while(pragmas)
        if self.check("KEYWORD", "for"):
            return self._parse_for(pragmas)
        if self.check("KEYWORD", "return"):
            return self._parse_return()
        return self._parse_expression_statement()

    def _parse_vardecl(self) -> ast.VarDecl:
        self.expect("KEYWORD", "int")
        name_token = self.expect("ID")
        if self.accept("OP", "["):
            size_token = self.expect("NUM")
            self.expect("OP", "]")
            self.expect("OP", ";")
            size = _int_literal(size_token)
            if size <= 0:
                raise FrontendError("array size must be positive",
                                    size_token.line, size_token.column)
            return ast.VarDecl(name_token.value, array_size=size,
                               line=name_token.line)
        init = None
        if self.accept("OP", "="):
            init = self._parse_expression()
        self.expect("OP", ";")
        return ast.VarDecl(name_token.value, init=init, line=name_token.line)

    def _parse_if(self) -> ast.If:
        token = self.expect("KEYWORD", "if")
        self.expect("OP", "(")
        cond = self._parse_expression()
        self.expect("OP", ")")
        then_body = self._parse_block()
        else_body: List[ast.Stmt] = []
        if self.accept("KEYWORD", "else"):
            if self.check("KEYWORD", "if"):
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_block()
        return ast.If(cond, then_body, else_body, token.line)

    def _parse_while(self, pragmas: Dict[str, object]) -> ast.While:
        token = self.expect("KEYWORD", "while")
        self.expect("OP", "(")
        cond = self._parse_expression()
        self.expect("OP", ")")
        body = self._parse_block()
        bound = pragmas.get("loopbound")
        return ast.While(cond, body, bound, token.line)

    def _parse_for(self, pragmas: Dict[str, object]) -> ast.For:
        token = self.expect("KEYWORD", "for")
        self.expect("OP", "(")
        init: Optional[ast.Stmt] = None
        if not self.check("OP", ";"):
            if self.check("KEYWORD", "int"):
                self.expect("KEYWORD", "int")
                name_token = self.expect("ID")
                self.expect("OP", "=")
                init_expr = self._parse_expression()
                init = ast.VarDecl(name_token.value, init=init_expr,
                                   line=name_token.line)
            else:
                init = self._parse_simple_assignment()
        self.expect("OP", ";")
        cond: Optional[ast.Expr] = None
        if not self.check("OP", ";"):
            cond = self._parse_expression()
        self.expect("OP", ";")
        update: Optional[ast.Stmt] = None
        if not self.check("OP", ")"):
            update = self._parse_simple_assignment()
        self.expect("OP", ")")
        body = self._parse_block()
        bound = pragmas.get("loopbound")
        return ast.For(init, cond, update, body, bound, token.line)

    def _parse_simple_assignment(self) -> ast.Stmt:
        expr = self._parse_expression()
        op_token = self.peek()
        if op_token.kind == "OP" and op_token.value in _ASSIGN_OPS:
            self.advance()
            value = self._parse_expression()
            if not isinstance(expr, (ast.Var, ast.Index)):
                raise FrontendError("assignment target must be a variable or "
                                    "array element", op_token.line,
                                    op_token.column)
            return ast.Assign(expr, op_token.value, value, op_token.line)
        return ast.ExprStmt(expr, op_token.line)

    def _parse_return(self) -> ast.Return:
        token = self.expect("KEYWORD", "return")
        value = None
        if not self.check("OP", ";"):
            value = self._parse_expression()
        self.expect("OP", ";")
        return ast.Return(value, token.line)

    def _parse_expression_statement(self) -> ast.Stmt:
        stmt = self._parse_simple_assignment()
        self.expect("OP", ";")
        return stmt

    # -- expressions -----------------------------------------------------------------
    def _parse_expression(self, min_precedence: int = 1) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            token = self.peek()
            if token.kind != "OP" or token.value not in _PRECEDENCE:
                break
            precedence = _PRECEDENCE[token.value]
            if precedence < min_precedence:
                break
            self.advance()
            rhs = self._parse_expression(precedence + 1)
            lhs = ast.Binary(token.value, lhs, rhs, token.line)
        return lhs

    def _parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "OP" and token.value in ("-", "!", "~"):
            self.advance()
            operand = self._parse_unary()
            if token.value == "-" and isinstance(operand, ast.Num):
                return ast.Num(-operand.value, token.line)
            return ast.Unary(token.value, operand, token.line)
        if token.kind == "OP" and token.value == "+":
            self.advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "NUM":
            self.advance()
            return ast.Num(_int_literal(token), token.line)
        if token.kind == "ID":
            self.advance()
            if self.accept("OP", "("):
                args: List[ast.Expr] = []
                if not self.check("OP", ")"):
                    while True:
                        args.append(self._parse_expression())
                        if not self.accept("OP", ","):
                            break
                self.expect("OP", ")")
                return ast.Call(token.value, args, token.line)
            if self.accept("OP", "["):
                index = self._parse_expression()
                self.expect("OP", "]")
                return ast.Index(token.value, index, token.line)
            return ast.Var(token.value, token.line)
        if token.kind == "OP" and token.value == "(":
            self.advance()
            expr = self._parse_expression()
            self.expect("OP", ")")
            return expr
        raise self.error(f"unexpected token {token.value or token.kind!r} in expression")


def parse_reference(source: str,
                    source_name: str = "<memory>") -> ast.SourceModule:
    """Parse through the seed path: character-loop lexer + Token parser.

    AST-equal to :func:`repro.frontend.parse` for every valid input, with
    the same error message for every invalid one.
    """
    return _ReferenceParser(tokenize(source), source_name).parse_module()


def build_program(pipeline: CompilationPipeline, module: ast.SourceModule,
                  config: CompilerConfig) -> Tuple[Program, Dict[str, int]]:
    """Uncached end-to-end build: every stage of ``pipeline`` in order
    (the evaluation engine adds the cache layers between them)."""
    working, statistics = pipeline.pre_unroll(module, config)
    program = pipeline.unroll_and_lower(working, config, statistics)
    statistics.update(pipeline.ir_passes(program, config))
    statistics.update(pipeline.backend_passes(program, config))
    return program, statistics


def evaluate_config(module: ast.SourceModule, config: CompilerConfig,
                    platform: Platform, entry_function: str,
                    core: Optional[Core] = None,
                    security_evaluator: Optional[SecurityEvaluator] = None,
                    name: Optional[str] = None) -> Variant:
    """Compile ``module`` under ``config`` and statically analyse the result.

    Uncached: the build runs every stage of a fresh
    :class:`~repro.compiler.pipeline.CompilationPipeline` and the bounds
    come from the stock analysers, so this is the reference the evaluation
    engine's cached results are checked against.
    """
    program, statistics = build_program(CompilationPipeline(platform),
                                        module, config)
    if entry_function not in program.functions:
        raise CompilationError(f"entry function {entry_function!r} not found")

    wcet = WCETAnalyzer(platform, core=core).analyze(
        program, entry_function, path_sensitive=config.path_sensitive)
    wcec = EnergyAnalyzer(platform, core=core).analyze(
        program, entry_function, path_sensitive=config.path_sensitive)
    security = (security_evaluator(program, entry_function)
                if security_evaluator is not None else None)
    code_size = program.total_instructions * INSTRUCTION_BYTES

    return Variant(
        name=name or config.short_name(),
        config=config,
        program=program,
        entry_function=entry_function,
        wcet_cycles=wcet.cycles,
        wcet_time_s=wcet.time_s,
        energy_j=wcec.energy_j,
        code_size_bytes=code_size,
        security_level=security,
        pass_statistics=statistics,
    )


def acyclic_longest_path_cost(function: Function, instr_cost: InstrCost,
                              entry: Optional[str] = None) -> float:
    """Longest-path cost through an *acyclic* CFG starting at ``entry``.

    Implicit Path Enumeration (IPET) maximises the sum of block costs times
    execution counts under flow conservation; on an acyclic CFG its optimum
    is the longest weighted path, computed here by a memoised recursion over
    the block successors.  Raises :class:`AnalysisError` when a cycle is
    reachable: loops are the structural engine's job.
    """
    entry = entry or function.entry
    if entry not in function.blocks:
        raise AnalysisError(f"entry block {entry!r} not in CFG")
    longest: Dict[str, float] = {}
    open_labels = set()

    def walk(label: str) -> float:
        if label in open_labels:
            raise AnalysisError(
                f"function {function.name!r} has cycles; IPET longest-path "
                f"requires an acyclic CFG")
        if label not in longest:
            open_labels.add(label)
            block = function.blocks[label]
            tail = max((walk(succ) for succ in block.successors()),
                       default=0.0)
            open_labels.remove(label)
            longest[label] = sum(instr_cost(function, instr)
                                 for instr in block.instrs) + tail
        return longest[label]

    return walk(entry)


def feasible_longest_path_cost(function: Function, instr_cost: InstrCost,
                               entry: Optional[str] = None,
                               path_cap: int = DEFAULT_PATH_CAP,
                               stats: Optional[PathStats] = None
                               ) -> Optional[float]:
    """Max cost over the *feasible* paths of a whole (acyclic) CFG.

    The explicit-enumeration counterpart of
    :func:`acyclic_longest_path_cost`: every entry→exit path is walked with
    the constraint propagation of :mod:`repro.wcet.paths` and contradictory
    paths are skipped.  Returns ``None`` when the path budget runs out or
    the flow is irregular (cycles): callers fall back to the
    path-insensitive bound.
    """
    stats = stats if stats is not None else PathStats()
    labels = set(function.blocks)
    entry = entry or function.entry
    block_costs = {
        label: sum(instr_cost(function, instr) for instr in block.instrs)
        for label, block in function.blocks.items()
    }
    stats.units += 1
    started = time.perf_counter()
    order, blocks = _unit_blocks(function, labels, entry)
    try:
        paths, _ = _enumerate_paths(blocks, path_cap)
    except _PathCapExceeded:
        stats.cap_fallbacks += 1
        return None
    except _IrregularFlow:
        stats.irregular_fallbacks += 1
        return None
    finally:
        stats.wall_s += time.perf_counter() - started
    stats.paths_enumerated += paths.enumerated
    stats.paths_pruned += paths.pruned
    # Each feasible path's blocks, read up its DFS tree from its end, and
    # summed from the entry as the path runs.
    best = None
    for node in paths.ends:
        path = []
        while node:
            path.append(order[paths.blocks[node - 1]])
            node = paths.parents[node - 1]
        cost = 0.0
        for label in reversed(path):
            cost += block_costs[label]
        if best is None or cost > best:
            best = cost
    return best


def acyclic_longest_feasible_path_cost(function: Function,
                                       instr_cost: InstrCost,
                                       entry: Optional[str] = None,
                                       path_cap: int = DEFAULT_PATH_CAP,
                                       stats: Optional[PathStats] = None
                                       ) -> float:
    """Longest *feasible* path cost through an acyclic CFG.

    :func:`feasible_longest_path_cost`, falling back to
    :func:`acyclic_longest_path_cost` when the path budget runs out or
    every path is pruned (only CFGs no input can traverse), so it never
    returns an unsound (too-small) bound and never exceeds the DAG optimum.
    Raises :class:`AnalysisError` on a cycle, as the DAG optimum does.
    """
    bound = acyclic_longest_path_cost(function, instr_cost, entry)
    best = feasible_longest_path_cost(function, instr_cost, entry=entry,
                                      path_cap=path_cap, stats=stats)
    return bound if best is None else best


CostTable = Tuple[Dict[str, float], Dict[str, Exception]]


def whole_program_costs(engine: StructuralCostEngine) -> CostTable:
    """Every function's cost, and the analysis error of each that has none.

    Functions not reachable from an entry may legitimately lack loop
    bounds; they simply don't get a standalone bound.
    """
    table: Dict[str, float] = {}
    errors: Dict[str, Exception] = {}
    for name in engine.program.functions:
        try:
            table[name] = engine.function_cost(name)
        except AnalysisError as error:
            errors[name] = error
    return table, errors


def cache_costs(cache, program: Program, core: Core, opp, path_sensitive: bool,
                names: Optional[Sequence[str]] = None) -> CostTable:
    """:func:`whole_program_costs` through an analysis cache: each function
    (of ``names``, by default all, queried in that order) costed in the
    scope of ``core`` and ``opp`` (``None``: cycles), tabled in program
    order."""
    outcomes = {}
    _, model = cache._energy_analyzer(core)
    for name in program.functions if names is None else names:
        try:
            outcomes[name] = cache._table(program, core, model, opp,
                                          path_sensitive, name)[name]
        except AnalysisError as error:
            outcomes[name] = error
    table: Dict[str, float] = {}
    errors: Dict[str, Exception] = {}
    for name in program.functions:
        outcome = outcomes[name]
        if isinstance(outcome, Exception):
            errors[name] = outcome
        else:
            table[name] = outcome
    return table, errors

