"""Transformation of propositions into constrained clauses.

The pipeline is: normalize (fuel-bounded), negation normal form, sorted
skolemization, then distribution to conjunctive normal form.  Clauses carry
a set of postponed equality constraints; clausification never drops the
constraints of its input clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .kernel import (
    And,
    App,
    Atom,
    Bottom,
    Exists,
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
    _Quant,
    format_term,
    free_names,
    free_vars,
    subst_prop,
    term_sort,
    variant_name,
)
from .rewrite import RewriteSystem, normalize


# ---------------------------------------------------------------------------
# Literals, constraints, clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    positive: bool
    atom: Atom

    def apply(self, s: Substitution) -> "Literal":
        return Literal(self.positive, s(self.atom))

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"~{self.atom}"


class Constraint:
    """Postponed equation ``lhs = rhs`` modulo the E-rules (unordered pair)."""

    __slots__ = ("lhs", "rhs", "_hash")

    def __init__(self, lhs: Term | Atom, rhs: Term | Atom):
        lhs_atom, rhs_atom = isinstance(lhs, Atom), isinstance(rhs, Atom)
        if lhs_atom != rhs_atom:
            raise TypeError("constraint sides must both be terms or both be atoms")
        if not lhs_atom and term_sort(lhs) != term_sort(rhs):
            raise TypeError("constraint sides must have one sort")
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash((0xC0, frozenset((hash(lhs), hash(rhs)))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return False
        return (self.lhs == other.lhs and self.rhs == other.rhs) or (
            self.lhs == other.rhs and self.rhs == other.lhs)

    def __hash__(self) -> int:
        return self._hash

    def apply(self, s: Substitution) -> "Constraint":
        return Constraint(s(self.lhs), s(self.rhs))

    def free_names(self) -> frozenset[str]:
        return free_names(self.lhs) | free_names(self.rhs)

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


class ConstrainedClause:
    """A disjunction of literals with postponed constraints.

    Literals keep their first-seen order for display and for deterministic
    inference, but equality and hashing treat them as a set.  The clause id
    and provenance never take part in equality.
    """

    __slots__ = ("literals", "constraints", "id", "provenance", "_lit_set", "_hash",
                 "_free_vars", "_profile", "_ground", "_features")

    def __init__(self, literals: Iterable[Literal], constraints: Iterable[Constraint] = (),
                 id: int | None = None, provenance: Provenance | None = None):
        seen: dict[Literal, None] = {}
        for lit in literals:
            seen.setdefault(lit)
        self.literals = tuple(seen)
        # a solved pair such as A = A constrains nothing
        self.constraints = frozenset(c for c in constraints if c.lhs != c.rhs)
        self.id = id
        self.provenance = provenance or Provenance("input")
        self._lit_set = frozenset(self.literals)
        self._hash = hash((self._lit_set, self.constraints))
        self._free_vars: frozenset[Var] | None = None
        self._profile: dict[tuple[bool, str], int] | None = None
        self._ground: bool | None = None
        self._features: tuple[tuple, ...] | None = None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ConstrainedClause)
                and self._lit_set == other._lit_set
                and self.constraints == other.constraints)

    def __hash__(self) -> int:
        return self._hash

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

    def with_id(self, id: int, provenance: Provenance) -> "ConstrainedClause":
        """The same clause numbered ``id``; the literals, their set, the hash
        and whatever was computed on first use carry over."""
        out = object.__new__(ConstrainedClause)
        for name in ConstrainedClause.__slots__:
            setattr(out, name, getattr(self, name))
        out.id = id
        out.provenance = provenance
        return out

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
# Negation normal form
# ---------------------------------------------------------------------------


def nnf(p: Prop) -> Prop:
    """Negation normal form.

    Equivalences expand to the two implications first; the result contains
    negation only directly on atoms and no implication or equivalence.
    """
    return _nnf(p, True)


def _nnf(p: Prop, positive: bool) -> Prop:
    match p:
        case Atom():
            return p if positive else Not(p)
        case Top():
            return Top() if positive else Bottom()
        case Bottom():
            return Bottom() if positive else Top()
        case Not():
            return _nnf(p.body, not positive)
        case And():
            l, r = _nnf(p.left, positive), _nnf(p.right, positive)
            return And(l, r) if positive else Or(l, r)
        case Or():
            l, r = _nnf(p.left, positive), _nnf(p.right, positive)
            return Or(l, r) if positive else And(l, r)
        case Implies():
            if positive:
                return Or(_nnf(p.left, False), _nnf(p.right, True))
            return And(_nnf(p.left, True), _nnf(p.right, False))
        case Iff():
            expanded = And(Implies(p.left, p.right), Implies(p.right, p.left))
            return _nnf(expanded, positive)
        case Forall():
            body = _nnf(p.body, positive)
            return Forall(p.var, body, p.hint) if positive else Exists(p.var, body, p.hint)
        case Exists():
            body = _nnf(p.body, positive)
            return Exists(p.var, body, p.hint) if positive else Forall(p.var, body, p.hint)
    raise TypeError(f"not a proposition: {p!r}")


def is_nnf(p: Prop) -> bool:
    match p:
        case Atom() | Top() | Bottom():
            return True
        case Not():
            return isinstance(p.body, Atom)
        case And() | Or():
            return is_nnf(p.left) and is_nnf(p.right)
        case _Quant():
            return is_nnf(p.body)
        case _:
            return False


# ---------------------------------------------------------------------------
# Skolemization
# ---------------------------------------------------------------------------


def skolemize(p: Prop, sig: Signature, outer: tuple[Var, ...] = ()) -> Prop:
    """Remove existentials from a proposition in NNF.

    An existential under the universal prefix ``x1..xn`` is replaced by a
    fresh *function* symbol applied to the prefix variables: the symbol has
    a genuine rank, it is never an individual of arrow sort.  With an empty
    prefix the witness degenerates to a fresh individual.  ``outer`` names
    variables that are free in ``p`` but implicitly universal (the free
    variables of a clause being re-clausified); they join every prefix.
    ``sig`` is extended in place.
    """
    used = set(free_names(p))

    def go(q: Prop, prefix: tuple[Var, ...]) -> Prop:
        match q:
            case Atom() | Top() | Bottom() | Not():
                return q
            case And() | Or():
                return type(q)(go(q.left, prefix), go(q.right, prefix))
            case Forall():
                # fresh non-shadowing name so skolem arguments stay distinct
                name = q.hint if q.hint not in used and not q.hint.startswith("_") \
                    else variant_name(q.hint.lstrip("_") or "x", used)
                used.add(name)
                v = Var(name, q.var.sort)
                body = subst_prop(q.body, {q.var.name: v})
                return Forall(v, go(body, prefix + (v,)), q.hint)
            case Exists():
                base = q.hint.lstrip("_") or "w"
                sym_name = sig.fresh_name(base)
                if prefix:
                    sym = sig.function(sym_name, tuple(v.sort for v in prefix), q.var.sort,
                                       origin="skolem")
                else:
                    sym = sig.individual(sym_name, q.var.sort, origin="skolem")
                witness = App(sym, prefix)
                body = subst_prop(q.body, {q.var.name: witness})
                return go(body, prefix)
        raise TypeError(f"proposition is not in NNF: {q!r}")

    return go(p, outer)


# ---------------------------------------------------------------------------
# Clausal form
# ---------------------------------------------------------------------------


@dataclass
class ClausalResult:
    clauses: list[ConstrainedClause]
    normalized: bool


def _strip_and_distribute(p: Prop, used: set[str]) -> list[tuple[Literal, ...]]:
    """CNF of a skolemized NNF proposition, freeing universal variables.

    Truth constants drive the simplification: top contributes no clause and
    bottom contributes the empty disjunction, so distribution erases them.
    """
    match p:
        case Atom():
            return [(Literal(True, p),)]
        case Not():
            return [(Literal(False, p.body),)]
        case Top():
            return []
        case Bottom():
            return [()]
        case Forall():
            name = p.hint.lstrip("_") or "x"
            name = name[0].upper() + name[1:]
            if name in used:
                name = variant_name(name, used)
            used.add(name)
            v = Var(name, p.var.sort)
            return _strip_and_distribute(subst_prop(p.body, {p.var.name: v}), used)
        case And():
            return _strip_and_distribute(p.left, used) + _strip_and_distribute(p.right, used)
        case Or():
            left = _strip_and_distribute(p.left, used)
            right = _strip_and_distribute(p.right, used)
            out: list[tuple[Literal, ...]] = []
            for c1 in left:
                for c2 in right:
                    merged = c1 + tuple(l for l in c2 if l not in c1)
                    out.append(merged)
            return out
    raise TypeError(f"unexpected connective after skolemization: {p!r}")


def clausal_form(p: Prop, system: RewriteSystem, sig: Signature,
                 fuel: int = 10_000,
                 constraints: Iterable[Constraint] = ()) -> ClausalResult:
    """Clauses of ``p``: normalize, NNF, skolemize, distribute.

    When normalization runs out of fuel the pipeline continues on the
    partially reduced proposition and the result is flagged unnormalized.
    ``constraints`` are carried into every produced clause.
    """
    outcome = normalize(p, system, fuel)
    q = nnf(outcome.value)
    # free variables of the input act as an implicitly universal prefix, so
    # skolem witnesses below them must depend on them
    outer = tuple(sorted(free_vars(q), key=lambda v: v.name))
    q = skolemize(q, sig, outer)
    used: set[str] = set(free_names(q))
    clause_lits = _strip_and_distribute(q, used)
    base_constraints = tuple(constraints)
    clauses = [ConstrainedClause(lits, base_constraints) for lits in clause_lits]
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
               system: RewriteSystem, sig: Signature, fuel: int = 10_000,
               extra_constraints: Iterable[Constraint] = ()) -> ClausalResult:
    """Re-run the clausal pipeline after a literal was rewritten.

    The clause is read as a disjunction with the literal at ``index``
    replaced by ``replacement``; parent constraints plus
    ``extra_constraints`` are carried into every resulting clause.
    """
    if not 0 <= index < len(c.literals):
        raise IndexError(f"clause has no literal {index}")
    bodies: list[Prop] = [lit.atom for lit in c.literals]
    bodies[index] = replacement
    disj = clause_disjunction(c, bodies)
    carried = tuple(c.constraints) + tuple(extra_constraints)
    return clausal_form(disj, system, sig, fuel, constraints=carried)


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
