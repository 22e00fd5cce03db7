"""Compiler configuration: the knobs of the multi-criteria compiler.

A configuration selects which optimisation passes run and with which
parameters.  Configurations can be encoded to/decoded from a vector in
``[0, 1]^N`` so the multi-objective search algorithms (Flower Pollination,
NSGA-II) can operate on a continuous representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Sequence

#: Allowed full-unroll limits (0 disables unrolling).
UNROLL_CHOICES = (0, 4, 8, 16, 32)

#: Gene-vector lengths of the two search spaces.  The *base* space is the
#: seed's seven axes; the *extended* space appends the CSE and peephole bits
#: plus the path-sensitive analysis bit (strictly opt-in, so default searches
#: consume their random streams exactly as before and fixed-seed archives
#: stay bit-for-bit reproducible).  Nine-gene vectors — the extended space
#: before path sensitivity existed — still decode, with the new axis off.
BASE_GENE_LENGTH = 7
LEGACY_EXTENDED_GENE_LENGTH = 9
EXTENDED_GENE_LENGTH = 10


@dataclass(frozen=True)
class CompilerConfig:
    """One point in the compiler's optimisation space."""

    constant_folding: bool = True
    unroll_limit: int = 0
    inline_simple_functions: bool = False
    dead_code_elimination: bool = True
    strength_reduction: bool = False
    spm_allocation: bool = False
    harden_security: bool = False
    enable_cse: bool = False
    enable_peephole: bool = False
    #: Opt-in analysis mode: prune infeasible CFG paths when maximising
    #: WCET/WCEC bounds (see :mod:`repro.wcet.paths`).  Changes no generated
    #: code — only how tightly the worst case is bounded.
    path_sensitive: bool = False

    def __post_init__(self):
        if self.unroll_limit not in UNROLL_CHOICES:
            raise ValueError(
                f"unroll_limit must be one of {UNROLL_CHOICES}, "
                f"got {self.unroll_limit}")

    # -- presets --------------------------------------------------------------
    @classmethod
    def baseline(cls) -> "CompilerConfig":
        """The "traditional toolchain" configuration: safe defaults only."""
        return cls(constant_folding=True, unroll_limit=0,
                   inline_simple_functions=False, dead_code_elimination=True,
                   strength_reduction=False, spm_allocation=False,
                   harden_security=False)

    @classmethod
    def performance(cls) -> "CompilerConfig":
        """Aggressive time-oriented configuration."""
        return cls(constant_folding=True, unroll_limit=16,
                   inline_simple_functions=True, dead_code_elimination=True,
                   strength_reduction=True, spm_allocation=True,
                   harden_security=False)

    @classmethod
    def secure(cls) -> "CompilerConfig":
        """Security-hardened configuration."""
        return cls(constant_folding=True, unroll_limit=8,
                   inline_simple_functions=True, dead_code_elimination=True,
                   strength_reduction=True, spm_allocation=True,
                   harden_security=True)

    def with_(self, **changes) -> "CompilerConfig":
        """A copy of this configuration with some fields replaced."""
        return replace(self, **changes)

    # -- encoding for the search algorithms -----------------------------------------
    @staticmethod
    def gene_length(extended: bool = False) -> int:
        """Dimensionality of the search space the optimisers operate on.

        ``extended=True`` adds the two IR cleanup axes (``enable_cse``,
        ``enable_peephole``) and the path-sensitive analysis axis.  The base
        space is the default so existing fixed-seed searches draw the exact
        random streams they always did.
        """
        return EXTENDED_GENE_LENGTH if extended else BASE_GENE_LENGTH

    @classmethod
    def from_genes(cls, genes: Sequence[float]) -> "CompilerConfig":
        """Decode a vector in ``[0, 1]^7`` (base) or ``[0, 1]^10`` (extended).

        Seven-gene vectors leave the extended axes at their defaults (off),
        so base-space searches never wander onto them; nine-gene vectors —
        the pre-path-sensitivity extended space — decode with
        ``path_sensitive`` off, keeping archived gene vectors valid.
        """
        if len(genes) not in (BASE_GENE_LENGTH, LEGACY_EXTENDED_GENE_LENGTH,
                              EXTENDED_GENE_LENGTH):
            raise ValueError(
                f"expected {BASE_GENE_LENGTH}, "
                f"{LEGACY_EXTENDED_GENE_LENGTH} or {EXTENDED_GENE_LENGTH} "
                f"genes, got {len(genes)}")
        clamped = [min(max(float(g), 0.0), 1.0) for g in genes]
        unroll_index = min(int(clamped[1] * len(UNROLL_CHOICES)),
                           len(UNROLL_CHOICES) - 1)
        extended = len(genes) >= LEGACY_EXTENDED_GENE_LENGTH
        full = len(genes) == EXTENDED_GENE_LENGTH
        return cls(
            constant_folding=clamped[0] > 0.5,
            unroll_limit=UNROLL_CHOICES[unroll_index],
            inline_simple_functions=clamped[2] > 0.5,
            dead_code_elimination=clamped[3] > 0.5,
            strength_reduction=clamped[4] > 0.5,
            spm_allocation=clamped[5] > 0.5,
            harden_security=clamped[6] > 0.5,
            enable_cse=clamped[7] > 0.5 if extended else False,
            enable_peephole=clamped[8] > 0.5 if extended else False,
            path_sensitive=clamped[9] > 0.5 if full else False,
        )

    def to_genes(self, extended: bool = False) -> List[float]:
        """Encode this configuration as the centre of its decoding region.

        Pass ``extended=True`` when the vector feeds an extended-space
        search (the optimisers do this for you); the base encoding simply
        drops the CSE, peephole and path-sensitive bits.
        """
        unroll_index = UNROLL_CHOICES.index(self.unroll_limit)
        genes = [
            0.75 if self.constant_folding else 0.25,
            (unroll_index + 0.5) / len(UNROLL_CHOICES),
            0.75 if self.inline_simple_functions else 0.25,
            0.75 if self.dead_code_elimination else 0.25,
            0.75 if self.strength_reduction else 0.25,
            0.75 if self.spm_allocation else 0.25,
            0.75 if self.harden_security else 0.25,
        ]
        if extended:
            genes.append(0.75 if self.enable_cse else 0.25)
            genes.append(0.75 if self.enable_peephole else 0.25)
            genes.append(0.75 if self.path_sensitive else 0.25)
        return genes

    # -- reporting ----------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def short_name(self) -> str:
        flags = []
        if self.constant_folding:
            flags.append("cf")
        if self.unroll_limit:
            flags.append(f"unroll{self.unroll_limit}")
        if self.inline_simple_functions:
            flags.append("inline")
        if self.dead_code_elimination:
            flags.append("dce")
        if self.strength_reduction:
            flags.append("sr")
        if self.spm_allocation:
            flags.append("spm")
        if self.harden_security:
            flags.append("sec")
        if self.enable_cse:
            flags.append("cse")
        if self.enable_peephole:
            flags.append("peep")
        if self.path_sensitive:
            flags.append("paths")
        return "+".join(flags) if flags else "O0"
