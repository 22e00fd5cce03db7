"""Lowering of the TeamPlay-C AST into the RISC-like IR.

The lowering produces, for each function, a control-flow graph *and* a region
tree that partitions the CFG's blocks.  The invariant maintained here (and
checked by :meth:`repro.ir.cfg.Function.validate`) is that every basic block
appears in exactly one region leaf — this is what allows the WCET and
worst-case-energy analyses to be exact structural recursions.

Semantics notes:

* ``&&`` and ``||`` are *not* short-circuiting; both operands are evaluated
  and combined on their truth values.  This keeps lowering branch-free, which
  is also convenient for the security transformations.
* Arrays are either global or function-local; they cannot be passed as
  parameters (integers are passed by value).
* Scalars live in registers named after them and temporaries in ``t<N>``.
  A function that declares a scalar of that shape gets ``t.<N>``
  temporaries instead (no identifier contains a dot), so the two never
  share a register.
* A :class:`~repro.frontend.ast_nodes.Repeat` (an unrolled loop) is lowered
  once and its IR repeated for the remaining copies; the result is what
  lowering every copy in sequence would give, label for label.  A
  straight-line body stays one :class:`~repro.ir.runs.Run` in its block
  until something reads the block's instruction list.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Dict, List, Optional

from repro.errors import FrontendError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.ir import cfg as ircfg
from repro.ir import instructions as ins
from repro.ir.instructions import (BINARY_OPCODES, LOGICAL_OPCODES,
                                   UNARY_OPCODES, Imm, Opcode, Operand, Reg)
from repro.ir.regions import BlockRegion, IfRegion, LoopRegion, SeqRegion
from repro.ir.runs import Run, Stamper, stamp

#: Register names ``new_temp`` can produce with the default ``t`` prefix.
_TEMP_SHAPED = re.compile(r"t[0-9]+")

_COMPOUND_OPS = {op + "=": BINARY_OPCODES[op]
                 for op in ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")}


class _FunctionLowerer:
    """Lowers a single :class:`FunctionDef` into an IR :class:`Function`."""

    def __init__(self, funcdef: ast.FunctionDef, global_arrays: Dict[str, int],
                 function_names: List[str]):
        self.funcdef = funcdef
        self.global_arrays = global_arrays
        self.function_names = set(function_names)
        self.fn = ircfg.Function(name=funcdef.name, params=list(funcdef.params))
        self.scalars = set(funcdef.params)
        declared = set(funcdef.params)
        declared.update(stmt.name for stmt in ast.walk_stmts(funcdef.body)
                        if isinstance(stmt, ast.VarDecl)
                        and stmt.array_size is None)
        self.temp_prefix = ("t." if any(_TEMP_SHAPED.fullmatch(name)
                                        for name in declared) else "t")
        self.temp_counter = 0
        self.label_counter = 0
        self.loop_counter = 0
        self.current: Optional[ircfg.BasicBlock] = None

    # -- helpers -----------------------------------------------------------------
    def _error(self, message: str, line: int = 0) -> FrontendError:
        return FrontendError(f"{self.funcdef.name}: {message}", line)

    def new_temp(self) -> Reg:
        self.temp_counter += 1
        return Reg(f"{self.temp_prefix}{self.temp_counter}")

    def new_block(self, hint: str) -> ircfg.BasicBlock:
        self.label_counter += 1
        label = f"{hint}.{self.label_counter}"
        return self.fn.add_block(ircfg.BasicBlock(label))

    def emit(self, instr: ins.Instr) -> None:
        assert self.current is not None
        self.current.parts.append(instr)

    # -- entry point ---------------------------------------------------------------
    def lower(self) -> ircfg.Function:
        self._apply_pragmas()
        entry = self.fn.add_block(ircfg.BasicBlock("entry"))
        self.fn.entry = "entry"
        self.current = entry
        region = self.lower_statements(self.funcdef.body)
        if self.current.terminator is None:
            self.emit(ins.ret(Imm(0)))
        self.fn.region = region
        self._prune_unreachable()
        return self.fn

    def _prune_unreachable(self) -> None:
        """Drop blocks that cannot be reached (code after a ``return``).

        Keeping them would be safe but would inflate the structural
        worst-case bounds with code that can never execute.
        """
        reachable = {self.fn.entry}
        worklist = [self.fn.entry]
        while worklist:
            label = worklist.pop()
            for successor in self.fn.blocks[label].successors():
                if successor not in reachable:
                    reachable.add(successor)
                    worklist.append(successor)
        if len(reachable) == len(self.fn.blocks):
            return
        self.fn.blocks = {label: block for label, block in self.fn.blocks.items()
                          if label in reachable}
        pruned = _prune_region(self.fn.region, reachable)
        self.fn.region = pruned if pruned is not None else SeqRegion()

    def _apply_pragmas(self) -> None:
        pragmas = self.funcdef.pragmas
        if "task" in pragmas:
            self.fn.annotations["task"] = pragmas["task"]
        if "poi" in pragmas:
            self.fn.annotations["poi"] = pragmas["poi"]
        for key in ("period", "deadline", "wcet_budget", "energy_budget",
                    "security_level", "version", "on"):
            if key in pragmas:
                self.fn.annotations[key] = pragmas[key]
        secrets = pragmas.get("secret", [])
        for name in secrets:
            if name not in self.funcdef.params:
                raise self._error(
                    f"secret parameter {name!r} is not a parameter",
                    self.funcdef.line)
        self.fn.secret_params = list(secrets)

    # -- statements -------------------------------------------------------------------
    def lower_statements(self, stmts: List[ast.Stmt]) -> SeqRegion:
        """Lower ``stmts`` starting in ``self.current``.

        Returns a region covering every block created, including the block
        left open in ``self.current`` when the method returns.
        """
        seq = SeqRegion()
        for stmt in stmts:
            self.lower_statement(stmt, seq)
        seq.children.append(BlockRegion(self.current.label))
        return seq

    def lower_statement(self, stmt: ast.Stmt, seq: SeqRegion) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._lower_vardecl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt, seq)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt, seq)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt, seq)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt, seq)
        elif isinstance(stmt, ast.Repeat):
            self._lower_repeat(stmt, seq)
        else:  # pragma: no cover - defensive
            raise self._error(f"unsupported statement {type(stmt).__name__}")

    def _lower_vardecl(self, stmt: ast.VarDecl) -> None:
        if stmt.array_size is not None:
            if stmt.name in self.fn.local_arrays or stmt.name in self.global_arrays:
                raise self._error(f"array {stmt.name!r} redeclared", stmt.line)
            self.fn.local_arrays[stmt.name] = stmt.array_size
            return
        self.scalars.add(stmt.name)
        if stmt.init is not None:
            value = self.lower_expr(stmt.init)
            self.emit(ins.mov(Reg(stmt.name), value))
        else:
            self.emit(ins.mov(Reg(stmt.name), Imm(0)))

    def _lower_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.Var):
            if target.name not in self.scalars:
                raise self._error(f"assignment to undeclared variable "
                                  f"{target.name!r}", stmt.line)
            dst = Reg(target.name)
            if stmt.op == "=":
                value = self.lower_expr(stmt.value)
                self.emit(ins.mov(dst, value))
            else:
                opcode = _COMPOUND_OPS[stmt.op]
                value = self.lower_expr(stmt.value)
                self.emit(ins.binop(opcode, dst, dst, value))
            return
        if isinstance(target, ast.Index):
            self._check_array(target.name, stmt.line)
            index = self.lower_expr(target.index)
            if stmt.op == "=":
                value = self.lower_expr(stmt.value)
                self.emit(ins.store(target.name, index, value))
            else:
                opcode = _COMPOUND_OPS[stmt.op]
                old = self.new_temp()
                self.emit(ins.load(old, target.name, index))
                value = self.lower_expr(stmt.value)
                result = self.new_temp()
                self.emit(ins.binop(opcode, result, old, value))
                self.emit(ins.store(target.name, index, result))
            return
        raise self._error("invalid assignment target", stmt.line)

    def _lower_return(self, stmt: ast.Return, seq: SeqRegion) -> None:
        value = self.lower_expr(stmt.value) if stmt.value is not None else Imm(0)
        self.emit(ins.ret(value))
        # Code textually after a return goes into an unreachable block so the
        # current block keeps a single terminator; the finished block joins
        # the region tree here because the end-of-list append will only see
        # the new block.
        seq.children.append(BlockRegion(self.current.label))
        self.current = self.new_block("dead")

    def _lower_if(self, stmt: ast.If, seq: SeqRegion) -> None:
        cond_block = self.new_block("if.cond")
        self.emit(ins.jump(cond_block.label))
        seq.children.append(BlockRegion(self.current.label))

        self.current = cond_block
        cond_value = self.lower_expr(stmt.cond)
        then_block = self.new_block("if.then")
        else_block = self.new_block("if.else")
        join_block = self.new_block("if.join")
        # The branch must live in the block where the condition was computed,
        # which may have changed if the condition contained nested statements.
        self.emit(ins.branch(cond_value, then_block.label, else_block.label))
        cond_label = self.current.label

        self.current = then_block
        then_region = self.lower_statements(stmt.then_body)
        self.emit(ins.jump(join_block.label))

        self.current = else_block
        else_region = self.lower_statements(stmt.else_body)
        self.emit(ins.jump(join_block.label))

        seq.children.append(IfRegion(cond_label, then_region, else_region))
        self.current = join_block

    def _lower_while(self, stmt: ast.While, seq: SeqRegion) -> None:
        cond_block = self.new_block("while.cond")
        self.emit(ins.jump(cond_block.label))
        seq.children.append(BlockRegion(self.current.label))

        self.current = cond_block
        cond_value = self.lower_expr(stmt.cond)
        body_block = self.new_block("while.body")
        exit_block = self.new_block("while.exit")
        self.emit(ins.branch(cond_value, body_block.label, exit_block.label))
        cond_label = self.current.label

        self.current = body_block
        body_region = self.lower_statements(stmt.body)
        self.emit(ins.jump(cond_block.label))

        self.loop_counter += 1
        seq.children.append(LoopRegion(cond_label, body_region,
                                       bound=stmt.bound,
                                       pragma_bound=stmt.bound,
                                       loop_id=self.loop_counter))
        self.current = exit_block

    def _lower_for(self, stmt: ast.For, seq: SeqRegion) -> None:
        if stmt.init is not None:
            self.lower_statement(stmt.init, seq)
        cond_block = self.new_block("for.cond")
        self.emit(ins.jump(cond_block.label))
        seq.children.append(BlockRegion(self.current.label))

        self.current = cond_block
        if stmt.cond is not None:
            cond_value = self.lower_expr(stmt.cond)
        else:
            cond_value = Imm(1)
        body_block = self.new_block("for.body")
        exit_block = self.new_block("for.exit")
        self.emit(ins.branch(cond_value, body_block.label, exit_block.label))
        cond_label = self.current.label

        self.current = body_block
        body_stmts = list(stmt.body)
        if stmt.update is not None:
            body_stmts.append(stmt.update)
        body_region = self.lower_statements(body_stmts)
        self.emit(ins.jump(cond_block.label))

        self.loop_counter += 1
        seq.children.append(LoopRegion(cond_label, body_region,
                                       bound=stmt.bound,
                                       pragma_bound=stmt.bound,
                                       loop_id=self.loop_counter))
        self.current = exit_block

    def _lower_repeat(self, stmt: ast.Repeat, seq: SeqRegion) -> None:
        """Lower the body once, then repeat its IR for the other copies.

        A straight-line body (its first copy created no block) becomes one
        :class:`~repro.ir.runs.Run` in the current block; a body with
        control flow is stamped copy by copy.  Either way the counters end
        where lowering every copy in sequence would leave them.  Arrays are
        function-scoped, so the body's array declarations take effect once;
        a redeclaration within one body still raises.
        """
        start = self.current
        first_part = len(start.parts)
        first_child = len(seq.children)
        temps, labels, loops = (self.temp_counter, self.label_counter,
                                self.loop_counter)
        for child in stmt.body:
            self.lower_statement(child, seq)
        if stmt.count <= 1:
            return
        if self.label_counter == labels:
            body = start.parts[first_part:]
            del start.parts[first_part:]
            width = self.temp_counter - temps
            if body:
                start.append(Run.compile(body, stmt.count, self.temp_prefix,
                                         temps + 1, width))
            self.temp_counter += (stmt.count - 1) * width
            return
        template = _BodyTemplate(self, start, first_part,
                                 seq.children[first_child:],
                                 temps, labels, loops)
        for _ in range(stmt.count - 1):
            template.stamp(self, seq)

    # -- expressions ---------------------------------------------------------------------
    def _check_array(self, name: str, line: int) -> None:
        if name not in self.fn.local_arrays and name not in self.global_arrays:
            raise self._error(f"unknown array {name!r}", line)

    def lower_expr(self, expr: ast.Expr) -> Operand:
        if isinstance(expr, ast.Num):
            return Imm(expr.value)
        if isinstance(expr, ast.Var):
            if expr.name not in self.scalars:
                raise self._error(f"use of undeclared variable {expr.name!r}",
                                  expr.line)
            return Reg(expr.name)
        if isinstance(expr, ast.Index):
            self._check_array(expr.name, expr.line)
            index = self.lower_expr(expr.index)
            dst = self.new_temp()
            self.emit(ins.load(dst, expr.name, index))
            return dst
        if isinstance(expr, ast.Unary):
            operand = self.lower_expr(expr.operand)
            dst = self.new_temp()
            self.emit(ins.unop(UNARY_OPCODES[expr.op], dst, operand))
            return dst
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        raise self._error(f"unsupported expression {type(expr).__name__}")

    def _lower_binary(self, expr: ast.Binary) -> Operand:
        logical = LOGICAL_OPCODES.get(expr.op)
        if logical is not None:
            lhs = self.lower_expr(expr.lhs)
            rhs = self.lower_expr(expr.rhs)
            lhs_bool = self.new_temp()
            rhs_bool = self.new_temp()
            self.emit(ins.binop(Opcode.CMPNE, lhs_bool, lhs, Imm(0)))
            self.emit(ins.binop(Opcode.CMPNE, rhs_bool, rhs, Imm(0)))
            dst = self.new_temp()
            self.emit(ins.binop(logical, dst, lhs_bool, rhs_bool))
            return dst
        opcode = BINARY_OPCODES.get(expr.op)
        if opcode is None:
            raise self._error(f"unsupported operator {expr.op!r}", expr.line)
        lhs = self.lower_expr(expr.lhs)
        rhs = self.lower_expr(expr.rhs)
        dst = self.new_temp()
        self.emit(ins.binop(opcode, dst, lhs, rhs))
        return dst

    def _lower_call(self, expr: ast.Call) -> Operand:
        if expr.name not in self.function_names:
            raise self._error(f"call to unknown function {expr.name!r}",
                              expr.line)
        args = tuple(self.lower_expr(arg) for arg in expr.args)
        dst = self.new_temp()
        self.emit(ins.call(dst, expr.name, args))
        return dst


class _BodyTemplate:
    """The IR one lowered copy of a :class:`Repeat` body with control flow
    produced, stamped once per further copy.

    Copy ``k`` lowers to copy 1's IR with the temp, label and loop-id
    counters advanced by ``k - 1`` times what copy 1 consumed, and with
    copy 1's start block replaced by the block the previous copy ended in.
    Only registers ``new_temp`` produced during copy 1 are renamed.  The
    pool of a copy (see :class:`~repro.ir.runs.Stamper`) holds its block
    labels, then its temps, then the operands that do not change.
    """

    def __init__(self, lowerer: "_FunctionLowerer", start: ircfg.BasicBlock,
                 first_part: int, regions: List, temps: int, labels: int,
                 loops: int):
        created = list(islice(reversed(lowerer.fn.blocks.values()),
                              lowerer.label_counter - labels))[::-1]
        #: Label hints of the created blocks (``if.cond`` of ``if.cond.7``).
        self.hints = [block.label.rsplit(".", 1)[0] for block in created]
        self.labels = [start.label] + [block.label for block in created]
        self.temp_count = lowerer.temp_counter - temps
        self.temp_base = temps
        self.loop_count = lowerer.loop_counter - loops
        self.loop_base = loops
        self.regions = regions
        stamper = Stamper(self.labels,
                          [f"{lowerer.temp_prefix}{temps + 1 + i}"
                           for i in range(self.temp_count)])
        self.end = stamper.label_slots[lowerer.current.label]
        self.blocks = [(0, [stamper.compile(part)
                            for part in start.parts[first_part:]])]
        self.blocks.extend((i, [stamper.compile(part) for part in block.parts])
                           for i, block in enumerate(created, 1))
        self.fixed = stamper.fixed

    def stamp(self, lowerer: "_FunctionLowerer", seq: SeqRegion) -> None:
        """Append one more copy after the current block."""
        temps, labels = lowerer.temp_counter, lowerer.label_counter
        prefix = lowerer.temp_prefix
        blocks = [lowerer.current]
        blocks.extend(
            lowerer.fn.add_block(ircfg.BasicBlock(f"{hint}.{labels + j}"))
            for j, hint in enumerate(self.hints, 1))
        names = [block.label for block in blocks]
        lowerer.temp_counter += self.temp_count
        lowerer.label_counter += len(self.hints)
        pool = (*names,
                *[Reg(f"{prefix}{temps + 1 + i}")
                  for i in range(self.temp_count)],
                *self.fixed)
        shift = temps - self.temp_base
        for i, entries in self.blocks:
            copy: List = []
            stamp(entries, pool, shift, copy)
            for part in copy:
                blocks[i].append(part)
        relabel = dict(zip(self.labels, names))
        loop_offset = lowerer.loop_counter - self.loop_base
        lowerer.loop_counter += self.loop_count
        seq.children.extend(_stamp_region(region, relabel, loop_offset)
                            for region in self.regions)
        lowerer.current = blocks[self.end]


def _stamp_region(region, relabel: Dict[str, str], loop_offset: int):
    """A copy of a template region with labels and loop ids renumbered."""
    if isinstance(region, BlockRegion):
        return BlockRegion(relabel[region.label])
    if isinstance(region, SeqRegion):
        return SeqRegion([_stamp_region(child, relabel, loop_offset)
                          for child in region.children])
    if isinstance(region, IfRegion):
        return IfRegion(relabel[region.cond_label],
                        _stamp_region(region.then_region, relabel, loop_offset),
                        _stamp_region(region.else_region, relabel, loop_offset))
    if isinstance(region, LoopRegion):
        return LoopRegion(relabel[region.cond_label],
                          _stamp_region(region.body_region, relabel,
                                        loop_offset),
                          region.bound, region.pragma_bound,
                          region.loop_id + loop_offset)
    raise TypeError(f"unknown region type {type(region)!r}")  # pragma: no cover


def _prune_region(region, reachable):
    """Remove region-tree leaves whose blocks were pruned; None = all gone."""
    if isinstance(region, BlockRegion):
        return region if region.label in reachable else None
    if isinstance(region, SeqRegion):
        children = []
        for child in region.children:
            kept = _prune_region(child, reachable)
            if kept is not None:
                children.append(kept)
        return SeqRegion(children) if children else None
    if isinstance(region, IfRegion):
        if region.cond_label not in reachable:
            return None
        then_region = _prune_region(region.then_region, reachable) or SeqRegion()
        else_region = _prune_region(region.else_region, reachable) or SeqRegion()
        return IfRegion(region.cond_label, then_region, else_region)
    if isinstance(region, LoopRegion):
        if region.cond_label not in reachable:
            return None
        body = _prune_region(region.body_region, reachable) or SeqRegion()
        return LoopRegion(region.cond_label, body, region.bound,
                          region.pragma_bound, region.loop_id)
    raise TypeError(f"unknown region type {type(region)!r}")  # pragma: no cover


def lower_module(module: ast.SourceModule) -> ircfg.Program:
    """Lower a parsed :class:`SourceModule` into an IR :class:`Program`."""
    program = ircfg.Program(source_name=module.source_name)
    global_init: Dict[str, List[int]] = {}
    for glob in module.globals:
        if glob.name in program.global_arrays:
            raise FrontendError(f"global array {glob.name!r} redeclared",
                                glob.line)
        program.global_arrays[glob.name] = glob.size
        if glob.init is not None:
            global_init[glob.name] = list(glob.init)
    if global_init:
        program.metadata["global_init"] = global_init

    # Calls may also target the module's externals (the rest of the
    # translation unit when one function is built at a time); a call to
    # any other name is rejected while lowering.
    function_names = module.function_names() + list(module.externals)
    for funcdef in module.functions:
        lowerer = _FunctionLowerer(funcdef, program.global_arrays, function_names)
        program.add_function(lowerer.lower()).validate()
    return program


def compile_source(source: str, source_name: str = "<memory>",
                   infer_bounds: bool = True) -> ircfg.Program:
    """Parse and lower TeamPlay-C ``source`` in one step (no optimisation).

    ``infer_bounds`` runs the loop-bound analysis for counted ``for`` loops
    so the result is immediately analysable; ``loopbound`` pragmas are kept
    untouched either way.
    """
    module = parse(source, source_name)
    if infer_bounds:
        # Imported lazily: the loop-bound analysis lives with the WCET
        # analyser but only depends on the AST module.
        from repro.wcet.loopbounds import infer_loop_bounds
        infer_loop_bounds(module)
    return lower_module(module)
