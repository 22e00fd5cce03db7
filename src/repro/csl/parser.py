"""Parser for the Contract Specification Language.

The concrete syntax is deliberately small::

    system camera_pill {
        period 100 ms;
        deadline 100 ms;
        budget energy 40 mJ;

        task capture {
            implements capture_frame;
            budget time 10 ms;
            budget energy 4 mJ;
            security level 0.5;
            version lowres on m0;
        }

        graph {
            capture -> compress -> encrypt -> transmit;
        }
    }

``//`` comments are allowed anywhere.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.csl.ast_nodes import ContractSpec, PlacementHint, TaskContract
from repro.errors import CSLError
from repro.units import Quantity

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<comment>//[^\n]*)"
    r"|(?P<arrow>->)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9\-]*)"
    r"|(?P<symbol>[{};,]))")


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    position = 0
    while position < len(text):
        if not text[position:].strip():
            break
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:position + 20].strip()
            raise CSLError(f"unexpected CSL input near {remainder!r}")
        position = match.end()
        if match.lastgroup == "comment" or match.group().strip() == "":
            continue
        kind = match.lastgroup
        value = match.group(kind)
        tokens.append((kind, value))
    tokens.append(("eof", ""))
    return tokens


class _CslParser:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------------
    def peek(self) -> Tuple[str, str]:
        return self.tokens[self.pos]

    def advance(self) -> Tuple[str, str]:
        token = self.tokens[self.pos]
        if token[0] != "eof":
            self.pos += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        token_kind, token_value = self.peek()
        if token_kind != kind or (value is not None and token_value != value):
            expected = value or kind
            raise CSLError(f"expected {expected!r}, found {token_value!r}")
        self.advance()
        return token_value

    # -- grammar -------------------------------------------------------------
    def parse(self) -> ContractSpec:
        self.expect("ident", "system")
        name = self.expect("ident")
        spec = ContractSpec(system=name)
        self.expect("symbol", "{")
        while not (self.peek() == ("symbol", "}")):
            self._parse_system_item(spec)
        self.expect("symbol", "}")
        spec.validate()
        return spec

    def _parse_quantity(self) -> Quantity:
        number = self.expect("number")
        unit = self.expect("ident")
        try:
            return Quantity.parse(f"{number} {unit}")
        except ValueError as exc:
            raise CSLError(str(exc)) from None

    def _parse_system_item(self, spec: ContractSpec) -> None:
        kind, value = self.peek()
        if kind != "ident":
            raise CSLError(f"unexpected token {value!r} in system body")
        if value == "task":
            self._parse_task(spec)
        elif value == "graph":
            self._parse_graph(spec)
        elif value == "period":
            self.advance()
            spec.period = self._parse_quantity()
            self.expect("symbol", ";")
        elif value == "deadline":
            self.advance()
            spec.deadline = self._parse_quantity()
            self.expect("symbol", ";")
        elif value == "budget":
            self.advance()
            which = self.expect("ident")
            quantity = self._parse_quantity()
            if which == "time":
                spec.time_budget = quantity
            elif which == "energy":
                spec.energy_budget = quantity
            else:
                raise CSLError(f"unknown budget kind {which!r}")
            self.expect("symbol", ";")
        elif value == "security":
            self.advance()
            self.expect("ident", "level")
            spec.security_level = float(self.expect("number"))
            self.expect("symbol", ";")
        else:
            raise CSLError(f"unknown system-level directive {value!r}")

    def _parse_task(self, spec: ContractSpec) -> None:
        self.expect("ident", "task")
        name = self.expect("ident")
        if name in spec.tasks:
            raise CSLError(f"task {name!r} declared twice")
        task = TaskContract(name=name)
        self.expect("symbol", "{")
        while not (self.peek() == ("symbol", "}")):
            self._parse_task_item(task)
        self.expect("symbol", "}")
        spec.tasks[name] = task

    def _parse_task_item(self, task: TaskContract) -> None:
        kind, value = self.peek()
        if kind != "ident":
            raise CSLError(f"unexpected token {value!r} in task {task.name!r}")
        if value == "implements":
            self.advance()
            task.implements = self.expect("ident")
        elif value == "period":
            self.advance()
            task.period = self._parse_quantity()
        elif value == "deadline":
            self.advance()
            task.deadline = self._parse_quantity()
        elif value == "budget":
            self.advance()
            which = self.expect("ident")
            quantity = self._parse_quantity()
            if which == "time":
                task.time_budget = quantity
            elif which == "energy":
                task.energy_budget = quantity
            else:
                raise CSLError(f"unknown budget kind {which!r}")
        elif value == "security":
            self.advance()
            self.expect("ident", "level")
            task.security_level = float(self.expect("number"))
        elif value == "version":
            self.advance()
            version = self.expect("ident")
            self.expect("ident", "on")
            cores = [self.expect("ident")]
            while self.peek() == ("symbol", ","):
                self.advance()
                cores.append(self.expect("ident"))
            task.placements.append(PlacementHint(version=version, cores=cores))
        else:
            raise CSLError(f"unknown task directive {value!r}")
        self.expect("symbol", ";")

    def _parse_graph(self, spec: ContractSpec) -> None:
        self.expect("ident", "graph")
        self.expect("symbol", "{")
        while not (self.peek() == ("symbol", "}")):
            chain = [self.expect("ident")]
            while self.peek() == ("arrow", "->"):
                self.advance()
                chain.append(self.expect("ident"))
            self.expect("symbol", ";")
            for source, destination in zip(chain, chain[1:]):
                spec.edges.append((source, destination))
        self.expect("symbol", "}")


def parse_csl(text: str) -> ContractSpec:
    """Parse CSL ``text`` into a :class:`ContractSpec`."""
    return _CslParser(_tokenize(text)).parse()
