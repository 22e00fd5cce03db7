"""TeamPlay-C frontend.

TeamPlay-C is the C subset accepted by this reproduction of the toolchain:
integer scalars and arrays, ``if``/``while``/``for`` control flow, function
calls, and ``#pragma teamplay`` annotations carrying the source-level ETS
information (task names, loop bounds, secret parameters, points of interest).

The frontend provides:

* :func:`scan` — the parser's indexed
  :class:`~repro.frontend.lexer.TokenStream` fast path, and
  :func:`tokenize` — the exact scanner (the seed character loop: Token
  objects with line and column, Unicode-aware, owner of error positions),
* :func:`parse` — the token-cursor recursive-descent parser (the only
  parser) producing the AST in :mod:`repro.frontend.ast_nodes`, with
  :func:`parse_cached` / :func:`parse_cache_stats` in front of it
  (process-wide LRU keyed by source fingerprint),
* :func:`lower_module` / :func:`compile_source` — lowering of the AST into
  the IR of :mod:`repro.ir`.

See ``docs/frontend.md`` for the design.
"""

from repro.frontend.lexer import Token, TokenStream, scan, tokenize
from repro.frontend.parser import (
    ParseCache,
    clear_parse_cache,
    parse,
    parse_cache_stats,
    parse_cached,
)
from repro.frontend.lowering import compile_source, lower_module
from repro.frontend import ast_nodes

__all__ = [
    "ParseCache",
    "Token",
    "TokenStream",
    "ast_nodes",
    "clear_parse_cache",
    "compile_source",
    "lower_module",
    "parse",
    "parse_cache_stats",
    "parse_cached",
    "scan",
    "tokenize",
]
