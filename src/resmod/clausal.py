"""Transformation of propositions into constrained clauses.

The pipeline is: normalize (fuel-bounded), then one pass directed by
polarity that skolemizes (sorted), names the universals and distributes to
conjunctive normal form.  Clauses carry a set of postponed equality
constraints; clausification never drops the constraints of its input
clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .kernel import (
    And,
    App,
    Atom,
    Bottom,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Prop,
    Signature,
    Substitution,
    Term,
    Top,
    Var,
    _Binary,
    format_term,
    free_names,
    free_vars,
    subst_term,
    term_sort,
)
from .rewrite import RewriteSystem, normalize


# ---------------------------------------------------------------------------
# Literals, constraints, clauses
# ---------------------------------------------------------------------------


class Literal:
    """A signed atom.  It hashes as ``(positive, atom)`` and keeps the hash;
    ``_order`` caches :func:`resmod.prover._literal_sort_key` on first use.
    A literal is never mutated."""

    __slots__ = ("positive", "atom", "_hash", "_order")

    def __init__(self, positive: bool, atom: Atom):
        self.positive = positive
        self.atom = atom
        self._hash = hash((positive, atom))
        self._order: tuple | None = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Literal):
            return NotImplemented
        return (self._hash == other._hash and self.positive == other.positive
                and self.atom == other.atom)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Literal(positive={self.positive!r}, atom={self.atom!r})"

    def apply(self, s: Substitution) -> "Literal":
        return Literal(self.positive, s(self.atom))

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"~{self.atom}"


class Constraint:
    """Postponed equation ``lhs = rhs`` modulo the E-rules (unordered pair).
    ``_sides`` and ``_texts`` cache :func:`resmod.prover._ordered_sides` and
    :func:`resmod.prover._side_texts` on first use."""

    __slots__ = ("lhs", "rhs", "_hash", "_sides", "_texts")

    def __init__(self, lhs: Term | Atom, rhs: Term | Atom):
        lhs_atom, rhs_atom = isinstance(lhs, Atom), isinstance(rhs, Atom)
        if lhs_atom != rhs_atom:
            raise TypeError("constraint sides must both be terms or both be atoms")
        if not lhs_atom and term_sort(lhs) != term_sort(rhs):
            raise TypeError("constraint sides must have one sort")
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash((0xC0, frozenset((hash(lhs), hash(rhs)))))
        self._sides: tuple | None = None
        self._texts: tuple[str, str] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return False
        return (self.lhs == other.lhs and self.rhs == other.rhs) or (
            self.lhs == other.rhs and self.rhs == other.lhs)

    def __hash__(self) -> int:
        return self._hash

    def apply(self, s: Substitution) -> "Constraint":
        return Constraint(s(self.lhs), s(self.rhs))

    def pairs(self) -> list[tuple[Term, Term]] | None:
        """The term equations this constraint stands for: itself, or the
        argument pairs of two atoms; None when the atoms' predicates clash."""
        lhs, rhs = self.lhs, self.rhs
        if not isinstance(lhs, Atom):
            return [(lhs, rhs)]
        if lhs.pred.name != rhs.pred.name or len(lhs.args) != len(rhs.args):
            return None
        return list(zip(lhs.args, rhs.args))

    def __str__(self) -> str:
        lhs, rhs = self.lhs, self.rhs
        # display unary-predicate atom pairs argument-wise, e.g. (P X) = (dnot R)
        if (isinstance(lhs, Atom) and isinstance(rhs, Atom)
                and lhs.pred.name == rhs.pred.name and len(lhs.args) == len(rhs.args) == 1):
            return f"{format_term(lhs.args[0])} = {format_term(rhs.args[0])}"
        return f"{lhs} = {rhs}"


@dataclass(frozen=True)
class Provenance:
    """How a kept clause was derived; ``str`` writes the trace's form
    ``rule(parents; aux)``, ``aux`` being a narrowing's rule name."""

    rule: str
    parents: tuple[int, ...] = ()
    aux: str | None = None

    def __str__(self) -> str:
        inside = ", ".join(str(p) for p in self.parents)
        if self.aux:
            inside = f"{inside}; {self.aux}" if inside else self.aux
        return f"{self.rule}({inside})" if inside else self.rule


_INPUT = Provenance("input")  # a clause built without one has it until kept


class ConstrainedClause:
    """A disjunction of literals with postponed constraints.

    Literals keep their first-seen order for display and for deterministic
    inference, and variables the names that clausification and renaming
    apart gave them.  A clause compares by identity; up to renaming, a
    clause that carries constraints is identified by
    :func:`resmod.prover.clause_key`, the sets of its literals and
    constraints encoded with canonically numbered variables, which
    :func:`resmod.prover.tidy_clause` reads off the clause in one walk
    without building another; a constraint-free one is identified by
    subsumption.  A search sets ``id`` and ``provenance`` once, when it keeps
    the clause; nothing else of a clause changes.
    """

    __slots__ = ("literals", "constraints", "id", "provenance", "_lit_set",
                 "_free_vars", "_profile", "_ground", "_features", "_eligible", "_keys")

    def __init__(self, literals: Iterable[Literal], constraints: Iterable[Constraint] = (),
                 id: int | None = None, provenance: Provenance | None = None):
        seen: dict[Literal, None] = {}
        for lit in literals:
            seen.setdefault(lit)
        self.literals = tuple(seen)
        # a solved pair such as A = A constrains nothing
        self.constraints = frozenset(c for c in constraints if c.lhs != c.rhs)
        self.id = id
        self.provenance = provenance or _INPUT
        self._lit_set = frozenset(self.literals)
        self._free_vars: frozenset[Var] | None = None
        self._profile: dict[tuple[bool, str], int] | None = None
        self._ground: bool | None = None
        self._features: tuple[tuple, ...] | None = None
        self._eligible: Sequence[int] | None = None  # see resmod.prover.eligible
        self._keys: Collection[tuple[bool, str]] | None = None  # ClauseIndex.resolution_keys

    def is_empty(self) -> bool:
        return not self.literals

    def __len__(self) -> int:
        return len(self.literals)

    def free_vars(self) -> frozenset[Var]:
        # computed on first use: the clause is never mutated
        if self._free_vars is None:
            out: set[Var] = set()
            for lit in self.literals:
                out |= free_vars(lit.atom)
            for c in self.constraints:
                for side in (c.lhs, c.rhs):
                    out |= free_vars(side)
            self._free_vars = frozenset(out)
        return self._free_vars

    def free_names(self) -> frozenset[str]:
        return frozenset(v.name for v in self.free_vars())

    def literals_ground(self) -> bool:
        """No literal has a variable; computed on first use."""
        if self._ground is None:
            self._ground = not any(free_names(lit.atom) for lit in self.literals)
        return self._ground

    def profile(self) -> dict[tuple[bool, str], int]:
        """How many literals carry each (polarity, predicate name), keyed in
        order of first appearance; computed on first use."""
        if self._profile is None:
            out: dict[tuple[bool, str], int] = {}
            for lit in self.literals:
                key = (lit.positive, lit.atom.pred.name)
                out[key] = out.get(key, 0) + 1
            self._profile = out
        return self._profile

    def features(self) -> tuple[tuple, ...]:
        """The clause's feature set, sorted: each (polarity, predicate name)
        of its literals, and (polarity, predicate name, symbol name) for
        each function symbol or constant in a literal of that polarity and
        predicate; computed on first use."""
        if self._features is None:
            out: set[tuple] = set(self.profile())
            for lit in self.literals:
                if lit.atom.args:
                    key = (lit.positive, lit.atom.pred.name)
                    stack = [*lit.atom.args]
                    while stack:
                        t = stack.pop()
                        if isinstance(t, App):
                            out.add((*key, t.sym.name))
                            stack += t.args
            self._features = tuple(sorted(out))
        return self._features

    def apply(self, s: Substitution) -> "ConstrainedClause":
        return ConstrainedClause(
            (lit.apply(s) for lit in self.literals),
            (c.apply(s) for c in self.constraints),
            id=self.id, provenance=self.provenance)

    def literal_text(self) -> str:
        return "[]" if not self.literals else ", ".join(str(l) for l in self.literals)

    def __str__(self) -> str:
        text = self.literal_text()
        if self.constraints:
            cs = " ; ".join(sorted(str(c) for c in self.constraints))
            return f"{text} / {cs}"
        return text

    def __repr__(self) -> str:
        return f"Clause#{self.id}({self})"


# ---------------------------------------------------------------------------
# Clausal form
# ---------------------------------------------------------------------------


@dataclass
class ClausalResult:
    clauses: list[ConstrainedClause]
    normalized: bool


# markers on the work stack of :func:`_clause_literals`: join the two
# clause lists on top of the result stack as a conjunction or a disjunction
_CONJ, _DISJ = object(), object()


def _clause_literals(p: Prop, sig: Signature, outer: tuple[Var, ...],
                     rule_vars: Collection[str]) -> list[tuple[Literal, ...]]:
    """The clauses of ``p``, in one pass over it directed by polarity
    (Nonnengart and Weidenbach, "Computing small clause normal forms",
    2001).  An equivalence is read as its two implications.  A quantifier
    that is universal at its polarity gets a fresh clause variable named
    after its binder, capitalized and primed apart from the names free in
    ``p`` and the declared symbols; an existential one gets a fresh skolem
    *function* applied to the universals around it (a genuine rank, never
    an individual of arrow sort), or a fresh individual when there are
    none.  A skolem is named after its binder too, lowercased, unprimed
    and numbered apart from the declared symbols, the names free in ``p``
    and ``rule_vars``, the rewrite rules' variables, so that no name in a
    trace stands for both a symbol and a variable.
    ``outer`` are variables free in ``p`` and read as universal; they open
    every witness's arguments.  The binders' values are substituted at the
    atoms.  Top contributes no clause and bottom the empty one, so
    distribution erases both.  ``sig`` is extended in place.
    """
    used = set(p._free)
    primes: dict[str, int] = {}  # per base, a count of primes below which all are taken

    def taken(name: str) -> bool:
        return name in used or name in sig.symbols

    def universal(hint: str) -> str:
        name = hint.lstrip("_") or "x"
        name = name[0].upper() + name[1:]
        if taken(name):
            k = primes.get(name, 1)
            while taken(name + "'" * k):
                k += 1
            primes[name] = k + 1
            name += "'" * k
        used.add(name)
        return name

    # the clauses of each finished subformula, each a dict of its literals
    results: list[list[dict[Literal, None]]] = []
    # (subformula, polarity, binder values, universals around it), or a marker
    todo: list = [(p, True, {}, outer)]
    while todo:
        item = todo.pop()
        if item is _CONJ or item is _DISJ:
            right = results.pop()
            left = results[-1]
            if item is _CONJ:
                left += right
            else:
                # a dict keeps each literal once, in first-seen order
                results[-1] = [{**c1, **c2} for c1 in left for c2 in right]
            continue
        q, positive, env, prefix = item
        if isinstance(q, Atom):
            if env and q._free & env.keys():
                q = Atom(q.pred, tuple(subst_term(a, env) for a in q.args))
            results.append([{Literal(positive, q): None}])
        elif isinstance(q, (Top, Bottom)):
            results.append([] if isinstance(q, Top) == positive else [{}])
        elif isinstance(q, Not):
            todo.append((q.body, not positive, env, prefix))
        elif isinstance(q, Iff):
            todo.append((And(Implies(q.left, q.right), Implies(q.right, q.left)),
                         positive, env, prefix))
        elif isinstance(q, _Binary):
            left_positive = positive != isinstance(q, Implies)
            todo += (_CONJ if isinstance(q, And) == positive else _DISJ,
                     (q.right, positive, env, prefix), (q.left, left_positive, env, prefix))
        elif isinstance(q, Forall) == positive:
            v = Var(universal(q.hint), q.var.sort)
            todo.append((q.body, positive, {**env, q.var.name: v}, prefix + (v,)))
        else:
            base = q.hint.lstrip("_").rstrip("'") or "w"
            name = sig.fresh_name(base[0].lower() + base[1:], used | rule_vars)
            if prefix:
                sym = sig.function(name, tuple(v.sort for v in prefix), q.var.sort,
                                   origin="skolem")
            else:
                sym = sig.individual(name, q.var.sort, origin="skolem")
            todo.append((q.body, positive, {**env, q.var.name: App(sym, prefix)}, prefix))
    return [tuple(c) for c in results[0]]


def clausal_form(p: Prop, system: RewriteSystem, sig: Signature,
                 fuel: int = 10_000,
                 constraints: Iterable[Constraint] = ()) -> ClausalResult:
    """Clauses of ``p``: normalize, then skolemize and distribute in one
    pass.

    When normalization runs out of fuel the pipeline continues on the
    partially reduced proposition and the result is flagged unnormalized.
    ``constraints`` are carried into every produced clause.
    """
    outcome = normalize(p, system, fuel)
    q = outcome.value
    # free variables of the input act as an implicitly universal prefix, so
    # skolem witnesses below them must depend on them
    outer = tuple(sorted(free_vars(q), key=lambda v: v.name))
    base_constraints = tuple(constraints)
    clauses = [ConstrainedClause(lits, base_constraints)
               for lits in _clause_literals(q, sig, outer, system.var_names)]
    return ClausalResult(clauses, outcome.normal)


def clause_disjunction(c: ConstrainedClause, bodies: Sequence[Prop]) -> Prop:
    """The clause read back as a proposition, with each literal's atom
    replaced by the matching entry of ``bodies`` (negated if the literal is
    negative)."""
    parts = [body if lit.positive else Not(body) for lit, body in zip(c.literals, bodies)]
    if not parts:
        return Bottom()
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = Or(part, out)
    return out


def reclausify(c: ConstrainedClause, index: int, replacement: Prop,
               system: RewriteSystem, sig: Signature, fuel: int = 10_000) -> ClausalResult:
    """Re-run the clausal pipeline after a literal was rewritten.

    The clause is read as a disjunction with the literal at ``index``
    replaced by ``replacement``; its constraints are carried into every
    resulting clause.
    """
    if not 0 <= index < len(c.literals):
        raise IndexError(f"clause has no literal {index}")
    bodies: list[Prop] = [lit.atom for lit in c.literals]
    bodies[index] = replacement
    return clausal_form(clause_disjunction(c, bodies), system, sig, fuel,
                        constraints=c.constraints)


def renormalize_clause(c: ConstrainedClause, system: RewriteSystem, sig: Signature,
                       fuel: int = 10_000) -> tuple[ClausalResult, bool]:
    """Normalize every literal; re-clausify when an atom left the atom
    fragment.  Returns the result and whether anything changed."""
    new_atoms: list[Prop] = []
    changed = False
    all_normal = True
    for lit in c.literals:
        out = normalize(lit.atom, system, fuel)
        all_normal = all_normal and out.normal
        if out.value != lit.atom:
            changed = True
        new_atoms.append(out.value)
    if not changed:
        return ClausalResult([c], all_normal), False
    if all(isinstance(a, Atom) for a in new_atoms):
        lits = [Literal(l.positive, a) for l, a in zip(c.literals, new_atoms)]
        cl = ConstrainedClause(lits, c.constraints)
        return ClausalResult([cl], all_normal), True
    result = clausal_form(clause_disjunction(c, new_atoms), system, sig, fuel,
                          constraints=c.constraints)
    result.normalized = result.normalized and all_normal
    return result, True
