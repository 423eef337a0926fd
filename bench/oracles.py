"""Answers to the benchmark's problems, computed without resmod.

Every attempt the benchmark makes is judged against one of these: a truth
table for ground CNF, Python integers for Peano numerals, hand-built Church
numerals for the hol-sigma normal forms.  The functions read resmod's
outputs only structurally (symbol names and argument tuples, or the text of
a trace) and never call into resmod.
"""

from __future__ import annotations

import functools
import re

# A ground CNF clause is a tuple of (atom number, polarity); atoms are 1..n.
Clause = tuple[tuple[int, bool], ...]


@functools.cache
def _truth_columns(n_atoms: int) -> tuple[int, ...]:
    """Column ``a`` of the truth table as a bitset: bit ``v`` is set when
    atom ``a`` is true in valuation ``v`` (atom ``a`` is bit ``a - 1`` of v)."""
    rows = range(1 << n_atoms)
    return (0,) + tuple(sum(1 << v for v in rows if v >> (a - 1) & 1)
                        for a in range(1, n_atoms + 1))


def cnf_satisfiable(n_atoms: int, clauses: list[Clause]) -> bool:
    """Truth table: does some valuation of the atoms satisfy every clause?"""
    columns = _truth_columns(n_atoms)
    everything = (1 << (1 << n_atoms)) - 1
    models = everything
    for clause in clauses:
        satisfied = 0
        for atom, positive in clause:
            satisfied |= columns[atom] if positive else everything & ~columns[atom]
        models &= satisfied
    return models != 0


def shape(t) -> tuple:
    """A term as nested tuples ``(symbol name, *arguments)``; variables as
    ``("?", name)``.  Reads only ``sym.name``, ``args`` and ``name``."""
    args = getattr(t, "args", None)
    if args is None:
        return ("?", t.name)
    return (t.sym.name,) + tuple(shape(a) for a in args)


def numeral_value(t) -> int | None:
    """The integer a Peano numeral ``S(...S(0)...)`` denotes, else None."""
    n = 0
    while getattr(t, "args", None) is not None:
        if t.sym.name == "S" and len(t.args) == 1:
            n += 1
            t = t.args[0]
        elif t.sym.name == "0" and not t.args:
            return n
        else:
            return None
    return None


_NUMERAL_TEXT = re.compile(r"(?:S\()*0\)*")


def numeral_text_value(text: str) -> int | None:
    """The integer of a printed numeral such as ``S(S(0))``, else None."""
    text = text.strip()
    if not _NUMERAL_TEXT.fullmatch(text):
        return None
    n = text.count("S(")
    return n if text.count(")") == n else None


def trace_solution(trace: str) -> dict[str, str]:
    """The ``solution:`` bindings of a resmod trace, as printed text."""
    out: dict[str, str] = {}
    lines = trace.splitlines()
    if "solution:" not in lines:
        return out
    for line in lines[lines.index("solution:") + 1:]:
        if not line.startswith("  ") or " := " not in line:
            break
        name, value = line.strip().split(" := ", 1)
        out[name] = value
    return out


def solution_has_root(trace: str, holds) -> bool:
    """Does some numeral bound in the trace's solution satisfy ``holds``?"""
    for text in trace_solution(trace).values():
        value = numeral_text_value(text)
        if value is not None and holds(value):
            return True
    return False


def is_square(k: int) -> bool:
    r = int(k ** 0.5)
    return any(x * x == k for x in (r - 1, r, r + 1) if x >= 0)


# de Bruijn indices of hol-sigma: 1 is a constant, 2 is 1[shift]
_ONE = ("1",)
_TWO = ("sub", _ONE, ("shift",))


def church_normal_form(n: int) -> tuple:
    """The hol-sigma normal form of the Church numeral ``n``, built by hand.

    ``lam(lam(2 (2 ... (2 1))))`` with ``n`` applications; for ``n = 1`` the
    eta rule contracts ``lam(lam(2 1))`` to ``lam(1)``.
    """
    if n == 1:
        return ("lam", _ONE)
    body: tuple = _ONE
    for _ in range(n):
        body = ("app", _TWO, body)
    return ("lam", ("lam", body))
