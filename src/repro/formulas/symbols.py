"""Symbols: the vocabulary over which terms and transition formulas are built.

The paper works with *transition formulas* over a set ``Var`` of program
variables and a primed copy ``Var'`` (§3, "Relational semantics").  In this
implementation a :class:`Symbol` is an immutable value object (symbols with
the same name, priming and index are equal; nothing interns them) that may be

* an **unprimed** program variable (pre-state value),
* a **primed** program variable (post-state value), or
* a **fresh** auxiliary symbol (Skolem constants introduced when composing
  transition formulas, loop counters ``K``, the recursion-height symbol ``h``,
  the bounding-function symbols ``b_k(h)`` / ``b_k(h+1)`` of Alg. 2, the
  depth counter ``D`` of Alg. 4, ...).

Fresh symbols carry a numeric index so that repeated composition never
captures variables.  The module-level counter can be reset in tests for
reproducible symbol names.

Symbols are dictionary keys everywhere (polynomial terms, constraint rows,
memo keys), so each one computes its hash once, at construction.  The cached
hash is never pickled: a ``str`` hash holds only under the ``PYTHONHASHSEED``
of the process that computed it, and symbols travel through pickles to other
processes (the pipes between the batch engine or the warm pool and their
workers).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Symbol",
    "sym",
    "pre",
    "post",
    "primed",
    "unprimed",
    "fresh",
    "preserved_fresh_counter",
    "reset_fresh_counter",
    "RETURN_VARIABLE",
]

#: Name of the distinguished variable holding a procedure's return value.
#: ``return'`` (its primed copy) is the post-state return value used in
#: candidate terms such as ``return' <= 0`` (§2, Ex. 2.1).
RETURN_VARIABLE = "return"


@dataclass(frozen=True, order=True, slots=True)
class Symbol:
    """An immutable symbol.

    Attributes
    ----------
    name:
        The base name (a program variable name or an auxiliary name).
    is_primed:
        True for the post-state copy of a program variable.
    index:
        0 for named program symbols; a positive integer for fresh symbols.
    """

    name: str
    is_primed: bool = False
    index: int = 0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The value the generated dataclass hash would return, paid once.
        object.__setattr__(self, "_hash", hash((self.name, self.is_primed, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor so the unpickling process hashes
        # under its own seed.
        return (Symbol, (self.name, self.is_primed, self.index))

    def __str__(self) -> str:
        suffix = "'" if self.is_primed else ""
        if self.index:
            return f"{self.name}#{self.index}{suffix}"
        return f"{self.name}{suffix}"

    def __repr__(self) -> str:
        return f"Symbol({self!s})"

    @property
    def is_fresh(self) -> bool:
        """Whether this symbol was generated by :func:`fresh`."""
        return self.index != 0


def sym(name: str) -> Symbol:
    """Return the unprimed symbol for a program variable name."""
    return Symbol(name, False, 0)


def pre(name: str) -> Symbol:
    """Alias of :func:`sym`: the pre-state symbol of a program variable."""
    return Symbol(name, False, 0)


def post(name: str) -> Symbol:
    """Return the primed (post-state) symbol of a program variable name."""
    return Symbol(name, True, 0)


def primed(symbol: Symbol) -> Symbol:
    """Return the primed copy of ``symbol`` (which must be unprimed)."""
    if symbol.is_primed:
        raise ValueError(f"symbol {symbol} is already primed")
    return Symbol(symbol.name, True, symbol.index)


def unprimed(symbol: Symbol) -> Symbol:
    """Return the unprimed copy of ``symbol`` (which must be primed)."""
    if not symbol.is_primed:
        raise ValueError(f"symbol {symbol} is not primed")
    return Symbol(symbol.name, False, symbol.index)


_FRESH_COUNTER = 0


def fresh(name: str = "t") -> Symbol:
    """Return a fresh symbol that is distinct from every other symbol.

    Fresh symbols are used as Skolem constants when transition formulas are
    composed, as loop counters, and as the ``b_k(h)`` unknowns of hypothetical
    summaries.
    """
    global _FRESH_COUNTER
    _FRESH_COUNTER += 1
    return Symbol(name, False, _FRESH_COUNTER)


def reset_fresh_counter() -> None:
    """Reset the fresh-symbol counter (for reproducible tests only)."""
    global _FRESH_COUNTER
    _FRESH_COUNTER = 0


@contextmanager
def preserved_fresh_counter() -> Iterator[None]:
    """Restore the fresh-symbol counter on exit.

    For front-end-only work (the lint passes translate expressions to
    formulas purely to ask satisfiability questions and then discard
    them): without this, running lint before an analysis would shift the
    indices of every fresh symbol the analysis mints, and rendered
    summaries would differ from an analysis run without lint.
    """
    global _FRESH_COUNTER
    saved = _FRESH_COUNTER
    try:
        yield
    finally:
        _FRESH_COUNTER = saved
