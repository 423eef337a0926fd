"""Saturation loop: resolution with postponed constraints plus narrowing.

The loop is a deterministic given-clause procedure.  A clause is factored
as soon as it is kept; the selected clause is narrowed with every R-rule
and then resolved against every selected clause it has a complementary
eligible literal with, itself included.  What happens to the equality
constraints of a new clause depends on the strategy:

``freeze``      constraints accumulate unsolved; only a cheap root-clash
                test prunes, and the full equational unifier runs when an
                empty clause appears (the refutation gate).
``on_the_fly``  the constraints are solved syntactically before the
                clause is built, once, with the unifier applied; it is then
                re-normalized and re-clausified (instantiation can trigger
                reductions, so one inference may yield several clauses).
                When syntactic unification fails, nothing is built if there
                are no E-rules (the failure is then a refutation); else the
                clause takes the freeze path with its constraints: dropped
                when ``cheap_fail`` refutes one, else kept frozen for the gate.

A constraint-free clause needs no propagation: it has no unifier to apply,
and its literals come from kept clauses, which are already normal.

Narrowing a constraint-free clause on the fly defers each step that guesses
the structure of a variable, since a later instantiation may trigger the
same rewriting during re-normalization; the loop builds deferred steps,
first in first out, once the passive set is empty.  A clause with frozen
constraints is narrowed with freeze's head-compatibility filter under both
strategies.  So a search out of passive clauses and deferred steps has
taken every step freeze's filter takes; only one that kept a clause whose
normalization ran out of fuel cannot end ``SATURATED``.

A refutation is an empty clause whose constraints pass the solution check;
when the equational unifier cannot decide the constraints within its
bounds, the result is reported as a candidate refutation with unverified
constraints, never as success.

Ordered resolution with selection.  When the rewrite system is empty, a
clause that carries no constraint and has a negative literal selects one
negative literal, the one with the largest arguments (:func:`eligible`).
It resolves on that literal alone, so it is never the positive premise,
and it is not factored.  A constraint-free clause with no negative literal
selects nothing: it resolves and factors only on its maximal literals,
those whose atom is smaller than no other atom of the clause in the atom
ordering ``>`` (:func:`key_greater`).  With ``w`` the number of symbol and
variable occurrences of an atom, its predicate included, ``A > B`` when

- both atoms are ground and ``(w(A), predicate, text)`` of ``A`` comes
  after that of ``B``; or
- ``w(A) > w(B)`` and each variable occurs in ``A`` at least as often as
  in ``B``.

This is the weight-and-variable condition of a Knuth-Bendix ordering
(Knuth and Bendix, 1970) with unit weights, made total on ground atoms by
the predicate name and the printed text, which the parser reads back, so
distinct ground atoms print apart.  It is irreflexive, and transitive: an
atom below a ground one is ground, and weights and occurrence counts
compare transitively.  It is stable: a substitution adds
``n * (w(t) - 1)`` to the weight of an atom in which ``x`` occurs ``n``
times and ``x`` is replaced by ``t``, so ``A``'s weight gains at least as
much as ``B``'s, and it multiplies the occurrences of ``x`` alike; two
instances that end up ground compare first by weight, which keeps the
order.  It is well founded, since a finite signature has finitely many
ground atoms of each weight.  A clause that carries constraints keeps all
its literals eligible, and so does every clause when the system has a
rule.  Ordering and selection keep the search complete:

1. With no rule, constraints are syntactic equations.  A clause ``C / K``
   stands for its ground instances ``Cs``, ``s`` a ground unifier of ``K``,
   read as multisets of literals.  Freeze postpones the unifier; on the fly
   builds the clause with the most general one applied, and none when there
   is none; the gate decides ``K`` by syntactic unification.
2. On ground multiset clauses, resolution with selection is refutationally
   complete for every selection function and every well-founded ordering
   of the ground atoms (Bachmair and Ganzinger, "Resolution theorem
   proving", Handbook of Automated Reasoning 2001), here ``>`` on ground
   atoms: a set saturated up to redundancy without the empty clause has a
   model.  Its inferences resolve a clause on its selected literal, or on a
   maximal negative one when it selects none, against a clause that
   selects none, on a strictly maximal positive literal; and factor a
   maximal positive literal of a clause that selects none.  Here a clause
   that selects none has no negative literal.
3. Lifting: each ground instance takes the selection of one kept clause it
   is an instance of.  If ``Ls`` is maximal in ``Cs``, then ``L`` is
   smaller than no literal ``M`` of ``C``: ``L < M`` would give
   ``Ls < Ms`` by stability.  So the loop, which resolves a selecting
   clause on its selected literal and a clause that selects none on any
   maximal literal, makes an inference with a most general unifier
   (Robinson, JACM 1965) of which every ground inference is an instance.
   It factors every same-sign pair of maximal literals of a clause that
   selects none; two literals that the ground instance merges into its
   maximal one are both maximal, so the positive premise gets its factors.
   A clause that selects needs none: its resolvent keeps a second copy of
   the selected literal, as the multiset calculus does.
4. Redundancy: tautologies and subsumed clauses are redundant, variants
   among them; a constraint-free clause's variants are found by
   subsumption, a constrained clause's by its key, which numbers its
   variables canonically (:func:`redundancy_filter`).  Under selection a
   subsumer must map its literals one to one (:func:`subsumes`), so each
   ground instance of the clause it deletes or retires contains one of the
   subsumer's as a sub-multiset: a smaller clause, or at equal size the
   same one.  Neither test reads the ordering, which only restricts
   inferences.
5. Fairness: every kept clause is selected in time and resolved with every
   live selected clause, so the clauses that persist are saturated.

This argument needs an empty system.  With E-rules two atoms may have a
common instance modulo E but no syntactic unifier, and lifting would need
E-unification and on-the-fly propagation to be complete.  With R-rules
literals are also narrowed; selection is known complete for polarized
resolution modulo a theory with cut elimination (Dowek, "Polarized
resolution modulo", IFIP TCS 2010), which this loop does not implement.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .kernel import (
    Atom,
    Prop,
    Signature,
    Substitution,
    Term,
    Var,
    free_names,
    renaming_apart,
    term_size,
)
from .clausal import (Constraint, ConstrainedClause, Literal, Provenance, clausal_form,
                      reclausify)
from .rewrite import R_CLASS, RewriteRule, RewriteSystem, match
from .unify import (_clash, cheap_fail, e_unify_narrowing, propagate_on_the_fly,
                    unify_syntactic)

FREEZE = "freeze"
ON_THE_FLY = "on_the_fly"


@dataclass(frozen=True)
class ProverConfig:
    strategy: str = FREEZE
    fuel: int = 10_000
    max_clauses: int = 5_000  # derived clauses; input clauses do not count
    narrowing_depth: int = 8
    narrow_states: int = 4_000

    def __post_init__(self) -> None:
        if self.strategy not in (FREEZE, ON_THE_FLY):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        for name in ("fuel", "max_clauses"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("narrowing_depth", "narrow_states"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")


# every n-th selection takes the oldest passive clause instead of the
# smallest one; narrowing can feed small clauses forever, so smallest-first
# alone would starve the larger ones and break fairness
AGE_INTERVAL = 4


@dataclass
class Stats:
    """Search counters.

    ``steps`` counts the inferences that kept a clause, by kind:
    ``resolution``, ``narrowing`` and ``factoring``, in that order.
    ``generated`` counts clauses that actually come into existence, the
    input clauses included: an inference whose constraints are refuted
    before registration (by the cheap root-clash test, or on the fly by a
    syntactic failure when there are no E-rules) never yields a clause and
    lands in ``failed_constraints`` instead.
    ``discards`` splits ``discarded`` by reason: the redundancy filter's
    ``tautology``, ``duplicate`` (a variant of a kept clause that carries
    constraints) and ``subsumed``, and ``unsolvable`` for an
    empty clause whose constraints the gate refuted.  ``retired`` counts
    kept clauses that a later clause subsumed (backward subsumption).
    """

    generated: int = 0
    kept: int = 0
    selected: int = 0
    discarded: int = 0
    failed_constraints: int = 0
    gate_calls: int = 0
    steps: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("resolution", "narrowing", "factoring"), 0))
    discards: dict[str, int] = field(default_factory=dict)
    retired: int = 0

    def discard(self, reason: str) -> None:
        self.discarded += 1
        self.discards[reason] = self.discards.get(reason, 0) + 1


# how a search ends, as the trace and the summary print it
PROVED = "PROVED"
PROVED_UNVERIFIED = "PROVED_UNVERIFIED"
SATURATED = "SATURATED"
RESOURCE_OUT = "RESOURCE_OUT"


@dataclass
class SearchResult:
    """How a search ended and what it counted.

    ``verdict`` is ``PROVED`` (the empty clause's constraints have the
    checked ``solution``, the identity when it carries none),
    ``PROVED_UNVERIFIED`` (the gate could not decide them within its
    bounds), ``SATURATED`` or ``RESOURCE_OUT``.  ``steps`` are the kept
    clauses in id order, those that backward subsumption retired included;
    an empty clause the gate refuted is never kept.  ``exhausted`` says why
    a search is ``RESOURCE_OUT``: ``max_clauses``, or, for a search that
    would otherwise have saturated, ``fuel`` (``unnormalized`` is set).
    For a ``PROVED_UNVERIFIED`` one it names the bound the gate's narrowing
    hit, ``narrow_depth`` or ``narrow_states``, with the number of states it
    examined.  ``unnormalized`` says that a clause kept some literal whose
    normalization, in clausification or after an inference, ran out of
    fuel."""

    verdict: str
    steps: list[ConstrainedClause]
    stats: Stats
    empty_clause: ConstrainedClause | None = None
    solution: Substitution | None = None
    unnormalized: bool = False
    exhausted: str | None = None

    def proof_steps(self) -> list[ConstrainedClause]:
        """The ancestor slice of the empty clause, in id order."""
        if self.empty_clause is None or self.empty_clause.id is None:
            return []
        want = {self.empty_clause.id}
        for s in reversed(self.steps):
            if s.id in want:
                want.update(s.provenance.parents)
        return [s for s in self.steps if s.id in want]


# ---------------------------------------------------------------------------
# Inference rules (constraint-postponing form)
# ---------------------------------------------------------------------------


def _arg_size(lit: Literal) -> int:
    return sum(term_size(a) for a in lit.atom.args)


def atom_key(atom: Atom) -> tuple[int, str, Atom | None, dict[Var, int]]:
    """What :func:`key_greater` compares: the atom's weight, the number of
    its symbol and variable occurrences, its predicate included; its
    predicate name; the atom itself when it is ground, else None; and how
    often each variable occurs in it."""
    weight = 1
    counts: dict[Var, int] = {}
    stack = list(atom.args)
    while stack:
        t = stack.pop()
        weight += 1
        if isinstance(t, Var):
            counts[t] = counts.get(t, 0) + 1
        else:
            stack += t.args
    return weight, atom.pred.name, None if counts else atom, counts


def key_greater(a: tuple, b: tuple) -> bool:
    """The atom ordering on :func:`atom_key` values: ``a`` is greater when
    both atoms are ground and ``a``'s weight, predicate name and text come
    after ``b``'s, or when ``a`` weighs more and each variable occurs in it
    at least as often as in ``b``.  Two ground atoms are printed only when
    their weights and predicates tie and they differ."""
    if a[2] is not None and b[2] is not None:
        if a[0] != b[0]:
            return a[0] > b[0]
        if a[1] != b[1]:
            return a[1] > b[1]
        return a[2] != b[2] and str(a[2]) > str(b[2])
    return a[0] > b[0] and all(a[3].get(v, 0) >= n for v, n in b[3].items())


def eligible(c: ConstrainedClause, select: bool = True) -> Sequence[int]:
    """The positions of the literals of ``c`` that resolution and factoring
    use, in literal order.

    Under ``select``, a clause that carries no constraint and has a
    negative literal selects one negative literal: the one whose arguments
    are largest by :func:`~resmod.kernel.term_size`, the first on ties.  A
    constraint-free clause with no negative literal keeps the literals
    whose atom is smaller than no other atom of the clause
    (:func:`key_greater`).  Every other clause, and every clause without
    ``select``, keeps all its literals eligible.  Computed on first use."""
    if not select:
        return range(len(c.literals))
    if c._eligible is None:
        negative = [i for i, lit in enumerate(c.literals) if not lit.positive]
        if negative and not c.constraints:
            c._eligible = (max(negative, key=lambda i: _arg_size(c.literals[i])),)
        elif c.constraints or len(c.literals) < 2:
            c._eligible = range(len(c.literals))
        else:
            keys = [atom_key(lit.atom) for lit in c.literals]
            c._eligible = tuple(i for i, k in enumerate(keys)
                                if not any(key_greater(o, k) for o in keys))
    return c._eligible


class Inference:
    """An inference whose clause is not built yet.

    ``lhs`` and ``rhs`` are the two atoms it equates: a resolvent's cut
    atoms, the positive one first; a factor's merged atoms; a narrowed atom
    and the rule's left side.  ``parts`` make up the clause, each a clause,
    the position of the literal the inference drops from it (-1 for none)
    and the renaming of its variables (None for none).  :meth:`literals`
    renames the remaining literals only as they are read; the inference
    unpacks as ``(literals, constraints)``, the parts' constraints, renamed,
    then the equation of ``lhs`` and ``rhs``, which equal atoms need none of.
    """

    __slots__ = ("lhs", "rhs", "parts")

    def __init__(self, lhs: Atom, rhs: Atom, parts: tuple) -> None:
        self.lhs, self.rhs, self.parts = lhs, rhs, parts

    def literals(self) -> Iterator[Literal]:
        for c, drop, rho in self.parts:
            for k, lit in enumerate(c.literals):
                if k != drop:
                    yield lit if rho is None else lit.apply(rho)

    def __iter__(self) -> Iterator:
        constraints = [con if rho is None else con.apply(rho)
                       for c, _, rho in self.parts for con in c.constraints]
        if self.lhs != self.rhs:
            constraints.append(Constraint(self.lhs, self.rhs))
        return iter((list(self.literals()), tuple(constraints)))


def extended_resolution(c1: ConstrainedClause, c2: ConstrainedClause,
                        rho: Substitution | None = None, select: bool = True) -> list[Inference]:
    """Binary resolvents of ``c1`` and of ``c2`` renamed by ``rho``, the map
    of :func:`~resmod.kernel.renaming_apart` that takes it apart from ``c1``.

    One eligible positive literal of either clause is cut against one
    eligible negative literal of the other; the resolvent, an unbuilt
    :class:`Inference`, unions the remaining literals and both constraint
    sets, plus the equation between the two atoms.  Only the cut atom of
    ``c2`` is renamed here; its other literals are renamed when the
    resolvent is built.  Paired with :func:`factor` this simulates
    resolution on literal groups.
    """
    out: list[Inference] = []
    for pos_clause, neg_clause, pos_rho, neg_rho in ((c1, c2, None, rho), (c2, c1, rho, None)):
        negatives = [j for j in eligible(neg_clause, select)
                     if not neg_clause.literals[j].positive]
        if not negatives:
            continue
        for i in eligible(pos_clause, select):
            lp = pos_clause.literals[i]
            if not lp.positive:
                continue
            for j in negatives:
                ln = neg_clause.literals[j]
                if lp.atom.pred.name != ln.atom.pred.name:
                    continue
                if len(lp.atom.args) != len(ln.atom.args):
                    continue
                out.append(Inference(lp.atom if pos_rho is None else pos_rho(lp.atom),
                                     ln.atom if neg_rho is None else neg_rho(ln.atom),
                                     ((pos_clause, i, pos_rho), (neg_clause, j, neg_rho))))
    return out


def factor(c: ConstrainedClause, select: bool = True) -> list[Inference]:
    """Merge two eligible same-polarity literals under a new atom equation,
    an :class:`Inference` each; a clause that selects a literal is not."""
    out: list[Inference] = []
    positions = eligible(c, select)
    if len(positions) < 2:
        return out
    # the eligible positions by polarity, predicate and arity, in position
    # order; each position with its group and its rank there
    groups: dict[tuple, list[int]] = {}
    ranked: list[tuple[int, list[int], int]] = []
    for i in positions:
        lit = c.literals[i]
        group = groups.setdefault((lit.positive, lit.atom.pred.name, len(lit.atom.args)), [])
        ranked.append((i, group, len(group)))
        group.append(i)
    for i, group, rank in ranked:
        li = c.literals[i]
        for j in group[rank + 1:]:
            out.append(Inference(li.atom, c.literals[j].atom, ((c, j, None),)))
    return out


def narrowing_applicable(atom: Atom, rule: RewriteRule,
                         apps: frozenset[str] = frozenset()) -> bool:
    """Literal filter for the narrowing inference: head compatibility.

    A rigid position must carry the rule's symbol, while a variable-headed
    position, a spine of the application symbols ``apps`` included, accepts
    anything (a normal literal can only meet the left side of a rule once
    its flexible head gets instantiated).  On the fly,
    :func:`extended_narrowing` also defers a compatible step that needs a
    guess (:func:`_guided`).
    """
    lhs = rule.lhs
    assert isinstance(lhs, Atom)
    return (atom.pred.name == lhs.pred.name and len(atom.args) == len(lhs.args)
            and not any(_clash(a, b, apps) for a, b in zip(atom.args, lhs.args)))


def _guided(atom: Atom, lhs: Atom) -> bool:
    """Does ``atom`` unify syntactically with a rule's left side ``lhs``,
    renamed apart from it, without guessing, with some argument not a
    variable and no variable of the atom bound to a constructor carrying
    fresh variables?  A later instantiation of such a variable triggers the
    same rewriting during re-normalization, so :func:`extended_narrowing`
    defers a guessing step.  A syntactic unifier leaves no rigid clash, so
    this implies head compatibility."""
    mgu = unify_syntactic(atom, lhs)
    if mgu is None:
        return False
    if atom.args and all(isinstance(a, Var) for a in atom.args):
        return False  # a fully flexible atom gives the step no guidance
    atom_vars = free_names(atom)
    for name in atom_vars:
        t = mgu.get(name)
        if t is not None and not isinstance(t, Var) and (free_names(t) - atom_vars):
            return False
    return True


class NarrowingEvents(list):
    """The :class:`Inference` lists of :func:`extended_narrowing`, one per
    event, with ``normalized`` false when re-clausifying some event ran out
    of fuel, and ``deferred`` the positions of the literals whose step
    freeze's filter takes but the on-the-fly filter leaves for later."""

    def __init__(self) -> None:
        super().__init__()
        self.normalized = True
        self.deferred: list[int] = []


def extended_narrowing(c: ConstrainedClause, rule: RewriteRule,
                       system: RewriteSystem, sig: Signature,
                       fuel: int = 10_000, strategy: str = FREEZE,
                       positions: Sequence[int] | None = None) -> NarrowingEvents:
    """Narrow each applicable literal of ``c`` with an R-rule.

    The literal's atom is replaced by the right side of a copy of the rule,
    renamed apart from ``c`` once for all its literals, and the clause is
    re-clausified; each clause's literals, with ``c``'s constraints and the
    postponed equation between the atom and the rule's left side, are an
    :class:`Inference`.  One inner list per narrowing event (a single event
    may split into several clauses).  ``positions`` narrows those literals
    only, in that order, instead of all of them.  The application symbols
    of ``sig`` keep a variable-headed spine flexible.
    """
    if rule.cls != R_CLASS:
        raise ValueError("extended narrowing uses R-class rules only")
    events = NarrowingEvents()
    # no propagation will ever instantiate a clause's frozen variables
    strategy = FREEZE if c.constraints else strategy
    apps = frozenset(sig.app_symbols)
    fresh = None
    if positions is None:
        # smallest atoms first: the least-structured literal is the one the
        # figure-scale searches instantiate, so its clauses get earlier ids
        positions = sorted(range(len(c.literals)),
                           key=lambda i: (_arg_size(c.literals[i]), i))
    for i in positions:
        lit = c.literals[i]
        if not narrowing_applicable(lit.atom, rule, apps):
            continue
        fresh = fresh or rule.rename_for(c.free_names())
        assert isinstance(fresh.lhs, Atom)
        if strategy == ON_THE_FLY and not _guided(lit.atom, fresh.lhs):
            events.deferred.append(i)
            continue
        result = reclausify(c, i, fresh.rhs, system, sig, fuel)
        events.normalized = events.normalized and result.normalized
        if result.clauses:  # each carries c's constraints
            events.append([Inference(lit.atom, fresh.lhs, ((d, -1, None),))
                           for d in result.clauses])
    return events


# ---------------------------------------------------------------------------
# Redundancy
# ---------------------------------------------------------------------------


def _blank_skeleton(t: Term) -> str:
    """``f(a,g(*))`` text of a term, each variable written ``*``."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Var):
            out.append("*")
        elif not x.args:
            out.append(x.sym.name)
        else:
            out.append(f"{x.sym.name}(")
            stack.append(")")
            for a in reversed(x.args[1:]):
                stack += (a, ",")
            stack.append(x.args[0])
    return "".join(out)


def _literal_sort_key(lit: Literal) -> tuple:
    return (not lit.positive, lit.atom.pred.name,
            tuple(_blank_skeleton(a) for a in lit.atom.args))


def _literal_order(lit: Literal) -> tuple:
    """:func:`_literal_sort_key`, cached on the literal."""
    key = lit._order
    if key is None:
        key = lit._order = _literal_sort_key(lit)
    return key


def _side_skeleton(x: Term | Atom) -> str:
    if isinstance(x, Atom):
        return f"{x.pred.name}({','.join(_blank_skeleton(a) for a in x.args)})"
    return _blank_skeleton(x)


def _ordered_sides(con: Constraint) -> tuple[tuple[str, str], tuple]:
    """The skeletons and the two sides of a constraint, ordered by
    variable-blind skeleton and then by text; a side is printed only when
    the skeletons tie.  Cached on the constraint."""
    entry = con._sides
    if entry is None:
        lhs, rhs = con.lhs, con.rhs
        kl, kr = _side_skeleton(lhs), _side_skeleton(rhs)
        if kl > kr or (kl == kr and str(lhs) > str(rhs)):
            entry = (kr, kl), (rhs, lhs)
        else:
            entry = (kl, kr), (lhs, rhs)
        con._sides = entry
    return entry


def _skeletons(con: Constraint) -> tuple[str, str]:
    return _ordered_sides(con)[0]


def _side_texts(con: Constraint) -> tuple[str, str]:
    """The printed sides of a constraint, in :func:`_ordered_sides`'
    order; cached on the constraint."""
    texts = con._texts
    if texts is None:
        lhs, rhs = _ordered_sides(con)[1]
        texts = con._texts = (str(lhs), str(rhs))
    return texts


def tidy_clause(c: ConstrainedClause) -> tuple[frozenset[tuple], frozenset[frozenset]]:
    """The key :func:`clause_key` returns: the codes of ``c``'s literals
    and of its constraints, read off ``c`` in one walk; no clause is built.

    The variables are numbered in order of first occurrence: in the
    literals first, sorted by polarity, predicate and variable-blind
    skeleton, then in the constraints, in an order fixed by their skeletons
    and text, so the numbering does not depend on the iteration order of
    the constraint set.  Only constraints whose skeletons tie are printed.
    Each term is encoded in one pre-order walk: a symbol as its name and
    arity, a variable as its number and sort.  A literal's code is its
    polarity, its predicate's name and the codes of its arguments; an atom
    side of a constraint starts with None, and a constraint's code is the
    set of its two side codes.  So two clauses key alike exactly when
    renaming each one's variables ``?0``, ``?1``, ... in this order gives
    equal literal sets and equal constraint sets, the constraints compared
    as unordered pairs.  A variable name stands for one variable in a
    clause, of one sort.
    """
    codes: dict[str, tuple] = {}  # variable name -> (number, sort)

    def encode(out: list, stack: list) -> tuple:
        # ``stack`` holds the terms still to encode, the next on top
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                code = codes.get(t.name)
                if code is None:
                    code = codes[t.name] = (len(codes), t.sort)
                out.append(code)
            else:
                args = t.args
                out += (t.sym.name, len(args))
                if args:
                    stack += reversed(args)
        return tuple(out)

    literals = frozenset(
        encode([lit.positive, lit.atom.pred.name], [*reversed(lit.atom.args)])
        for lit in sorted(c.literals, key=_literal_order))
    constraints = []
    for _, tied in itertools.groupby(sorted(c.constraints, key=_skeletons), key=_skeletons):
        tied = list(tied)
        for con in sorted(tied, key=_side_texts) if len(tied) > 1 else tied:
            constraints.append(frozenset(
                encode([None, x.pred.name], [*reversed(x.args)]) if isinstance(x, Atom)
                else encode([], [x]) for x in _ordered_sides(con)[1]))
    return literals, frozenset(constraints)


def clause_key(c: ConstrainedClause) -> tuple:
    """Renaming-insensitive fingerprint used for duplicate detection among
    clauses that carry constraints: the codes of the clause's literals and
    constraints that :func:`tidy_clause` reads off it in one walk, with no
    clause built.  Clauses with one key are variants.  Variants can key
    apart only where literals or constraints tie on their skeletons, since
    the numbering then follows literal order or variable names;
    :func:`redundancy_filter` finds a constraint-free clause's variants by
    subsumption instead.  A variable's code is never a symbol's, so a
    variable never equals a constant of its name."""
    return tidy_clause(c)


def subsumes(c: ConstrainedClause, d: ConstrainedClause, injective: bool = False) -> bool:
    """Does ``c`` (constraint-free) subsume ``d``: some instance of ``c``'s
    literal set is contained in ``d``'s, with ``c`` no longer than ``d`` and
    no richer in any (polarity, predicate)?  Without ``injective`` two
    literals of ``c`` may go to one of ``d``, but those two tests still count
    them apart, so ``P(X) | P(Y)`` does not subsume ``P(a) | Q(b)``."""
    if c.constraints or len(c.literals) > len(d.literals):
        return False
    if c.literals_ground():
        return c._lit_set <= d._lit_set  # a ground pattern matches only itself
    prof_d = d.profile()
    for key, n in c.profile().items():
        if prof_d.get(key, 0) < n:
            return False
    # backtracking, depth first: each entry is a literal of c, the next
    # literal of d to try it on, and the bindings and the used literals of d
    # that the literals of c before it left
    last = len(c.literals) - 1
    stack: list[tuple[int, int, dict, frozenset[int]]] = [(0, 0, {}, frozenset())]
    while stack:
        i, k, bindings, used = stack.pop()
        lc = c.literals[i]
        for k in range(k, len(d.literals)):
            ld = d.literals[k]
            if lc.positive != ld.positive or k in used:
                continue
            b2 = match(lc.atom, ld.atom, bindings)
            if b2 is None:
                continue
            if i == last:
                return True
            stack.append((i, k + 1, bindings, used))
            stack.append((i + 1, 0, b2, used | {k} if injective else used))
            break
    return False


def is_tautology(c: ConstrainedClause) -> bool:
    if c.constraints:
        return False
    positives = {l.atom for l in c.literals if l.positive}
    return any(not l.positive and l.atom in positives for l in c.literals)


class ClauseIndex:
    """The live kept clauses, indexed by their
    :meth:`~resmod.clausal.ConstrainedClause.features` for the two
    subsumption checks and by (polarity, predicate name) for resolution,
    plus ``keys``, the :func:`clause_key` of every clause that carries
    constraints and that :func:`redundancy_filter` kept: the codes of its
    literals and constraints, read off the clause in one walk.

    The features are sound for subsumption: when ``subsumes(c, d)`` holds,
    every feature of ``c`` is a feature of ``d``.  The matcher takes each
    literal of ``c`` to a literal of ``d`` with the same polarity and
    predicate, and an instance keeps every symbol of its pattern, so each
    feature of a literal of ``c`` is a feature of the literal of ``d`` it
    goes to (a ground ``c`` is a subset of ``d``).  The features record
    presence only, never a number of occurrences, because the map between
    the literals need not be injective: ``p(g(X),a) | p(g(Y),a)``, with
    ``g`` twice, subsumes ``p(g(a),a) | p(b,a)``, with ``g`` once, as both
    literals go to ``p(g(a),a)``.  A per-symbol sum would drop that pair.
    So the index drops only pairs that ``subsumes`` rejects:

    - forward: each constraint-free kept clause (a subsumer) is filed in
      the set-trie ``trie`` at the path of its sorted features; a new
      clause ``d`` is checked only against the clauses at the paths made of
      ``d``'s features, which a query finds by following only the children
      keyed by one of them (Savnik, "Index data structure for fast subset
      and superset queries", 2013).
    - backward: ``postings`` lists, for each feature, every kept clause that
      has it; a new subsumer ``c`` is checked only against the clauses of
      the shortest list of its features that are in all the other lists
      too (Schulz, "Simple and efficient clause subsumption with feature
      vector indexing", 2004).

    :func:`extended_resolution` needs an eligible literal of each clause
    with the same predicate and opposite polarities, so ``active`` files
    each selected clause under the (polarity, predicate name) of each of its
    :func:`eligible` literals, and a selected clause's partners are the
    entries under its complementary keys.  ``select`` is passed on to
    :func:`eligible`.

    Every list is a dict keyed by clause id in filing order, and no order
    here depends on the hash seed.  ``retire`` takes a clause that backward
    subsumption retired out of all of them at once.  Its trie nodes stay:
    there is at most one per feature of each clause ever filed, and a node
    left without clauses costs a query only its lookups.  Kept clauses are
    never empty: an empty clause ends the search or is dropped at the gate.
    """

    def __init__(self, select: bool = True) -> None:
        self.select = select
        self.keys: set[tuple] = set()
        # a set-trie node maps each next feature to its child, and None to
        # the clauses whose sorted features spell the path to it
        self.trie: dict = {}
        self.postings: dict[tuple, dict[int, ConstrainedClause]] = {}
        self.active: dict[tuple[bool, str], dict[int, ConstrainedClause]] = {}
        self.selection: dict[int, int] = {}  # clause id -> selection number

    def note_kept(self, c: ConstrainedClause) -> None:
        features = c.features()
        for feature in features:
            self.postings.setdefault(feature, {})[c.id] = c
        if not c.constraints:
            node = self.trie
            for feature in features:
                child = node.get(feature)
                if child is None:
                    child = node[feature] = {}
                node = child
            node.setdefault(None, {})[c.id] = c

    def resolution_keys(self, c: ConstrainedClause) -> Collection[tuple[bool, str]]:
        """The (polarity, predicate name) of each eligible literal of ``c``,
        in literal order; computed once, with :func:`eligible`."""
        if not self.select:
            return c.profile().keys()
        if c._keys is None:
            positions = eligible(c)
            c._keys = c.profile().keys() if len(positions) == len(c.literals) else dict.fromkeys(
                (c.literals[i].positive, c.literals[i].atom.pred.name) for i in positions)
        return c._keys

    def note_selected(self, c: ConstrainedClause) -> None:
        self.selection[c.id] = len(self.selection)
        for key in self.resolution_keys(c):
            self.active.setdefault(key, {})[c.id] = c

    def retire(self, c: ConstrainedClause) -> None:
        for key in self.resolution_keys(c):
            self.active.get(key, {}).pop(c.id, None)
        for feature in c.features():
            self.postings[feature].pop(c.id, None)
        if not c.constraints:
            node = self.trie
            for feature in c.features():
                node = node[feature]
            del node[None][c.id]

    def forward_candidates(self, d: ConstrainedClause) -> Iterator[ConstrainedClause]:
        """The subsumers that may subsume ``d``: those whose features are all
        ``d``'s."""
        features = d.features()
        # a path's features are sorted, so below the node reached by
        # features[i - 1] only features[i:] can key a child
        stack = [(self.trie, 0)]
        while stack:
            node, start = stack.pop()
            clauses = node.get(None)
            if clauses:
                yield from clauses.values()
            for i in range(start, len(features)):
                child = node.get(features[i])
                if child is not None:
                    stack.append((child, i + 1))

    def backward_candidates(self, c: ConstrainedClause) -> list[ConstrainedClause]:
        """The kept clauses other than ``c`` that ``c`` may subsume: those
        with all of ``c``'s features."""
        lists = [self.postings[f] for f in c.features()]
        shortest = min(lists, key=len)
        ids = shortest.keys()
        for lst in lists:
            if lst is not shortest:
                ids = ids & lst.keys()
        return [shortest[cid] for cid in ids if cid != c.id]

    def partners(self, c: ConstrainedClause) -> list[ConstrainedClause]:
        """The selected clauses with an eligible literal complementary to an
        eligible one of ``c``'s, in selection order: the only ones
        :func:`extended_resolution` with ``c`` can yield a clause for."""
        found: dict[int, ConstrainedClause] = {}
        for positive, pred in self.resolution_keys(c):
            found.update(self.active.get((not positive, pred), {}))
        return sorted(found.values(), key=lambda d: self.selection[d.id])


def redundancy_filter(new: ConstrainedClause, index: ClauseIndex) -> tuple[bool, str | None]:
    """keep/discard decision for a freshly derived clause.

    Discards exact tautologies with no constraints, clauses that carry
    constraints whose :func:`clause_key` is that of a clause it kept
    before, and clauses subsumed by a live constraint-free kept clause, one
    to one when ``index.select``; the reason is ``tautology``,
    ``duplicate`` or ``subsumed``.  The empty clause is never discarded nor
    keyed.  The key of a non-empty clause that carries constraints is read
    off it here, once, in one walk that builds no clause, and joins
    ``index.keys`` when the clause is kept.  A kept clause keeps its own
    variable names: the key numbers them only in its codes.

    A constraint-free clause ``d`` is never keyed: forward subsumption
    already discards every variant of a clause kept before, so it keeps
    what the key would keep.

    - If ``d`` is a variant of a live kept clause ``o``, ``o`` carries no
      constraint either, so it is in the trie.  A variant maps its literals
      one to one, so ``subsumes(o, d, select)`` holds, and ``o`` is among
      ``forward_candidates(d)``, since variants have the same features.
    - If ``o`` was retired, its chain of retirers ends at a live,
      constraint-free clause in the trie, and that clause subsumes ``d``:
      subsumption composes, one to one maps included.

    So such a variant is discarded as ``subsumed``, never ``duplicate``.
    """
    if new.is_empty():
        return True, None
    if is_tautology(new):
        return False, "tautology"
    key = clause_key(new) if new.constraints else None
    if key in index.keys:
        return False, "duplicate"
    if any(subsumes(c, new, index.select) for c in index.forward_candidates(new)):
        return False, "subsumed"
    if key is not None:
        index.keys.add(key)
    return True, None


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


class _Stop(Exception):
    """Ends the search with ``result``."""

    def __init__(self, result: SearchResult):
        super().__init__()
        self.result = result


class _Saturation:
    def __init__(self, system: RewriteSystem, sig: Signature, cfg: ProverConfig):
        self.system = system
        self.sig = sig
        self.cfg = cfg
        self.steps: list[ConstrainedClause] = []
        self.stats = Stats()
        self.passive: list[tuple[int, int]] = []  # (literal count, id) min-heap
        self.passive_age: list[int] = []  # id min-heap for the fairness picks
        self.in_passive: set[int] = set()
        self.inputs: deque[int] = deque()  # input clause ids, selected first
        self.input_clauses = 0  # registered, kept or not; the budget spares them
        self.by_id: dict[int, ConstrainedClause] = {}  # the live kept clauses
        # (clause id, rule, literal positions) of deferred narrowing steps
        self.deferred: deque[tuple[int, RewriteRule, Sequence[int]]] = deque()
        # literal selection is argued complete for an empty system only
        self.select = not system.rules
        self.index = ClauseIndex(self.select)
        self.unnormalized = False

    def _result(self, verdict: str, **fields) -> SearchResult:
        return SearchResult(verdict, self.steps, self.stats,
                            unnormalized=self.unnormalized, **fields)

    # -- the refutation gate -------------------------------------------------

    def _gate(self, c: ConstrainedClause) -> dict | None:
        """The verdict and proof fields of the result that the empty clause
        ``c`` ends the search with; None when the gate refutes its
        constraints."""
        if not c.constraints:
            return {"verdict": PROVED, "solution": Substitution()}
        self.stats.gate_calls += 1
        # in the order of their text, so the search does not depend on the
        # iteration order of the constraint set, and so on the hash seed
        constraints = (sorted(c.constraints, key=str) if len(c.constraints) > 1
                       else list(c.constraints))
        outcome = e_unify_narrowing(
            constraints, self.system, self.cfg.narrowing_depth,
            app_symbols=self.sig.app_symbols, max_states=self.cfg.narrow_states)
        if outcome.is_unsat:
            return None
        if outcome.is_solutions:
            return {"verdict": PROVED, "solution": outcome.solution}
        return {"verdict": PROVED_UNVERIFIED,
                "exhausted": f"narrow_{outcome.reason} ({outcome.states} states)"}

    # -- registration --------------------------------------------------------

    def register(self, c: ConstrainedClause, kind: str, parents: tuple[int, ...],
                 aux: str | None = None) -> None:
        """Filter, number and enqueue a clause, fresh from its inference: it
        is numbered in place.  An empty clause that the gate does not refute
        ends the search."""
        if kind == "input":
            self.input_clauses += 1
        elif self.stats.generated - self.input_clauses >= self.cfg.max_clauses:
            # the clause that would break the budget is not generated
            raise _Stop(self._result(RESOURCE_OUT, exhausted="max_clauses"))
        self.stats.generated += 1
        keep, reason = redundancy_filter(c, self.index)
        if not keep:
            self.stats.discard(reason)
            return
        if c.is_empty():
            proof = self._gate(c)
            if proof is None:
                self.stats.discard("unsolvable")
                return
        c.id = cid = len(self.steps) + 1
        c.provenance = Provenance(kind, parents, aux)
        self.steps.append(c)
        self.stats.kept += 1
        if c.is_empty():
            raise _Stop(self._result(empty_clause=c, **proof))
        self.by_id[cid] = c
        self.index.note_kept(c)
        # backward subsumption: a new constraint-free clause retires the
        # kept clauses it subsumes, passive or active
        if not c.constraints:
            for o in self.index.backward_candidates(c):
                if subsumes(c, o, self.select):
                    self.index.retire(o)
                    del self.by_id[o.id]
                    self.in_passive.discard(o.id)
                    self.stats.retired += 1
        heapq.heappush(self.passive, (len(c.literals), cid))
        heapq.heappush(self.passive_age, cid)
        self.in_passive.add(cid)
        if kind == "input":
            self.inputs.append(cid)
        # factoring is a cheap single-clause inference: apply it eagerly so
        # the merged clauses race fairly with other descendants
        for inference in factor(c, self.select):
            self.process_new([inference], "factoring", (cid,))

    # -- strategy post-processing ---------------------------------------------

    def process_new(self, inferences: Iterable[Inference], kind: str,
                    parents: tuple[int, ...], aux: str | None = None) -> None:
        """Build each clause of an inference's output once, by the strategy,
        and register it.  The inference counts as a step when it keeps a
        clause, the empty clause that ends the search included, also when
        the clause budget runs out before the inference is done.

        On the fly, when no parent carries constraints, the equation of the
        inference's two atoms is unified before anything is built
        (:func:`propagate_on_the_fly`); a failed unifier builds nothing without
        E-rules, and with them the clause takes freeze's path.  So a kept clause
        carries constraints only when they have no syntactic unifier.  Neither
        has any superset of them, so a clause with such a parent takes that
        path without an attempt."""
        kept = self.stats.kept
        on_the_fly = self.cfg.strategy == ON_THE_FLY
        propagate = on_the_fly and not any(self.steps[p - 1].constraints for p in parents)
        try:
            for inference in inferences:
                lhs, rhs = inference.lhs, inference.rhs
                if propagate and lhs != rhs and (result := propagate_on_the_fly(
                        inference.literals(), zip(lhs.args, rhs.args), self.system, self.sig,
                        self.cfg.fuel)):
                    survivors = result.clauses
                    self.unnormalized = self.unnormalized or not result.normalized
                elif on_the_fly and not self.system.e_rules and (lhs != rhs or not propagate):
                    self.stats.failed_constraints += 1  # no unifier, so no clause
                    continue
                else:  # its constraints, if any, frozen until the gate judges the empty clause
                    c = ConstrainedClause(*inference)
                    if any(cheap_fail(con, self.system) for con in c.constraints):
                        self.stats.failed_constraints += 1
                        continue
                    survivors = [c]
                for s in survivors:
                    self.register(s, kind, parents, aux)
        finally:
            if self.stats.kept > kept:
                self.stats.steps[kind] += 1

    def _select(self) -> int:
        """Pop the next clause id.

        Input clauses go first (the axioms drive everything and the traces
        resolve against them throughout); after that, smallest literal count
        first with ties by id, and every ``AGE_INTERVAL``-th pick takes the
        oldest passive clause so that no kept clause starves.
        """
        while self.inputs:
            cid = self.inputs.popleft()
            if cid in self.in_passive:
                self.in_passive.discard(cid)
                return cid
        by_age = self.stats.selected % AGE_INTERVAL == AGE_INTERVAL - 1
        if by_age:
            while True:
                cid = heapq.heappop(self.passive_age)
                if cid in self.in_passive:
                    break
        else:
            while True:
                _, cid = heapq.heappop(self.passive)
                if cid in self.in_passive:
                    break
        self.in_passive.discard(cid)
        return cid

    def _resolve(self, sel: ConstrainedClause, sel_names: frozenset[str],
                 partner: ConstrainedClause) -> None:
        rho = renaming_apart(sel_names, partner.free_vars())
        for inference in extended_resolution(sel, partner, rho, self.select):
            self.process_new([inference], "resolution", (sel.id, partner.id))

    def _narrow(self, c: ConstrainedClause, rule: RewriteRule, strategy: str,
                positions: Sequence[int] | None = None) -> None:
        events = extended_narrowing(c, rule, self.system, self.sig, self.cfg.fuel,
                                    strategy, positions)
        self.unnormalized = self.unnormalized or not events.normalized
        if events.deferred:
            self.deferred.append((c.id, rule, events.deferred))
        for event in events:
            self.process_new(event, "narrowing", (c.id,), rule.name)

    # -- main loop -------------------------------------------------------------

    def run(self, props: Iterable[Prop]) -> SearchResult:
        try:
            # clausify every input before registering any: registration can
            # re-clausify, and skolem symbols are named in order of creation
            clausified = [clausal_form(p, self.system, self.sig, self.cfg.fuel) for p in props]
            self.unnormalized = not all(r.normalized for r in clausified)
            for r in clausified:
                for c in r.clauses:
                    self.register(c, "input", ())
            while self.in_passive or self.deferred:
                if not self.in_passive:
                    # a retired clause's deferred steps go with it, as a
                    # retired passive clause is never selected
                    cid, rule, positions = self.deferred.popleft()
                    if cid in self.by_id:
                        self._narrow(self.by_id[cid], rule, FREEZE, positions)
                    continue
                sel = self.by_id[self._select()]
                self.stats.selected += 1
                # narrowing with every R-rule
                for rule in self.system.r_rules:
                    self._narrow(sel, rule, self.cfg.strategy)
                # resolution with the live earlier selections, then with itself
                sel_names = sel.free_names()
                for partner in self.index.partners(sel):
                    if partner.id in self.by_id:  # not retired by an earlier resolvent
                        self._resolve(sel, sel_names, partner)
                own = self.index.resolution_keys(sel)
                if any((not positive, pred) in own for positive, pred in own):
                    self._resolve(sel, sel_names, sel)
                if sel.id in self.by_id:
                    self.index.note_selected(sel)
            # saturation proves nothing when some kept clause is unnormalized
            if self.unnormalized:
                return self._result(RESOURCE_OUT, exhausted="fuel")
            return self._result(SATURATED)
        except _Stop as stop:
            return stop.result


def saturate(props: Iterable[Prop], system: RewriteSystem,
             sig: Signature, cfg: ProverConfig | None = None) -> SearchResult:
    """Clausify each proposition once and saturate the clauses under the
    strategy in ``cfg``.  A clausification that runs out of fuel marks the
    result ``unnormalized``."""
    return _Saturation(system, sig, cfg or ProverConfig()).run(props)


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------


def format_clause_line(c: ConstrainedClause, names: dict[Constraint, str],
                       texts: dict[Literal, str]) -> str:
    text = ", ".join([texts.get(l) or texts.setdefault(l, str(l)) for l in c.literals]) or "[]"
    if c.constraints:
        refs = ", ".join(sorted((names.get(con) or str(con) for con in c.constraints),
                                key=_constraint_sort_key))
        text = f"{text} / {refs}"
    return f"{c.id}. {c.provenance} | {text}"


def _constraint_sort_key(name: str):
    return (len(name), name)


@dataclass
class TraceDoc:
    """A trace in structured form; :meth:`render` writes its text."""

    header: list[tuple[str, str]] = field(default_factory=list)
    symbol_lines: list[str] = field(default_factory=list)
    steps: list[ConstrainedClause] = field(default_factory=list)
    names: dict[Constraint, str] = field(default_factory=dict)
    verdict: str = ""
    solution_lines: list[str] = field(default_factory=list)

    def render(self, texts: Mapping[tuple, str] | None = None) -> str:
        """The trace's text; ``texts`` holds the text of constraints already
        printed, by their two sides."""
        texts = texts or {}
        lines = ["# resmod trace 1"]
        lines += [f"{k}: {v}" for k, v in self.header]
        if self.symbol_lines:
            lines.append("symbols:")
            lines += [f"  {s}" for s in self.symbol_lines]
        # the text of each literal printed, so each distinct one prints once
        literals: dict[Literal, str] = {}
        lines += [format_clause_line(s, self.names, literals) for s in self.steps]
        if self.names:
            lines.append("constraints:")
            for con, cname in sorted(self.names.items(),
                                     key=lambda kv: _constraint_sort_key(kv[1])):
                text = texts.get((con.lhs, con.rhs))
                lines.append(f"  {cname}: {con if text is None else text}")
        lines.append(f"verdict: {self.verdict}")
        lines += self.solution_lines
        return "\n".join(lines) + "\n"


def format_trace(result: SearchResult, header: dict[str, str], sig: Signature) -> str:
    """Figure-style trace, one numbered line per kept clause.

    Grammar (one construct per line):
      ``# resmod trace 1``                      header
      ``<key>: <value>``                        run metadata
      ``symbols:`` then signature extension declarations
      ``<id>. <rule>(<parents>[; <aux>]) | <literals>[ / <constraint refs>]``
      ``constraints:`` then ``  <name>: <lhs> = <rhs>``
      ``verdict: PROVED|PROVED_UNVERIFIED|SATURATED|RESOURCE_OUT``
      ``solution:`` then ``  <var> := <term>`` bindings (verified proofs)

    ``parser.parse_trace`` reads the text back into a :class:`TraceDoc`.
    The constraints are named ``c1``, ``c2``, ... in the order the steps
    first carry them, each step's in the order of their text.
    """
    skolems = [s for s in sig.symbols.values() if s.origin == "skolem"]
    symbol_lines = []
    for s in skolems:
        if s.kind == "individual":
            symbol_lines.append(f"const {s.name} : {s.result}")
        else:
            args = ", ".join(str(a) for a in s.arg_sorts)
            symbol_lines.append(f"fun {s.name} : ({args}) -> {s.result}")
    solution_lines = []
    if result.verdict == PROVED:
        if result.solution.is_empty():
            solution_lines.append("solution: identity")
        else:
            solution_lines.append("solution:")
            for k in sorted(result.solution.map):
                solution_lines.append(f"  {k} := {result.solution.map[k]}")
    elif result.verdict == PROVED_UNVERIFIED:
        solution_lines.append("solution: unverified")
    # each constraint is printed at most once, and only to order a step's
    # constraints or for its line in the trace; two equal constraints may
    # print differently, so the text is keyed by the two sides in order
    texts: dict[tuple, str] = {}

    def text(con: Constraint) -> str:
        out = texts.get((con.lhs, con.rhs))
        if out is None:
            out = texts[con.lhs, con.rhs] = str(con)
        return out

    names: dict[Constraint, str] = {}
    for step in result.steps:
        cons = step.constraints
        for con in sorted(cons, key=text) if len(cons) > 1 else cons:
            names.setdefault(con, f"c{len(names) + 1}")
    return TraceDoc(list(header.items()), symbol_lines, result.steps,
                    names, result.verdict, solution_lines).render(texts)
