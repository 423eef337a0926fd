"""Oriented rewrite rules and fuel-bounded normalization.

Rules come in two classes: class ``E`` rewrites terms to terms and feeds the
equational unifier, class ``R`` rewrites atomic propositions to arbitrary
propositions and feeds the narrowing inference of the prover.  Reduction is
leftmost-outermost and deterministic; normalization is fuel-bounded so that
non-terminating systems produce an outcome instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping

from .kernel import (
    App,
    Atom,
    Bottom,
    Not,
    Prop,
    Term,
    Top,
    Var,
    _Binary,
    _Quant,
    free_names,
    is_term,
    positions,
    rename_apart,
    subst_prop,
    subst_term,
    subterm_at,
    term_sort,
)


class RuleClassError(Exception):
    """A rewrite rule violates the shape constraints of its class."""


E_CLASS = "E"
R_CLASS = "R"


@dataclass(frozen=True)
class RewriteRule:
    """Oriented rule ``lhs -> rhs``.

    Class E: both sides are terms of one sort, the left side is not a
    variable.  Class R: the left side is an atom, the right side any
    proposition.  In both classes the right side introduces no variables.
    """

    name: str
    lhs: Term | Atom
    rhs: Term | Prop
    cls: str = field(default="")

    def __post_init__(self) -> None:
        cls = self.cls or (R_CLASS if isinstance(self.lhs, Atom) else E_CLASS)
        object.__setattr__(self, "cls", cls)
        if cls == E_CLASS:
            if not is_term(self.lhs) or not is_term(self.rhs):
                raise RuleClassError(f"rule {self.name}: class E needs term -> term")
            if isinstance(self.lhs, Var):
                raise RuleClassError(f"rule {self.name}: left side must not be a variable")
            if term_sort(self.lhs) != term_sort(self.rhs):
                raise RuleClassError(f"rule {self.name}: sides have different sorts")
        elif cls == R_CLASS:
            if not isinstance(self.lhs, Atom) or not isinstance(self.rhs, Prop):
                raise RuleClassError(f"rule {self.name}: class R needs atom -> proposition")
        else:
            raise RuleClassError(f"rule {self.name}: unknown class {cls!r}")
        if not (free_names(self.rhs) <= free_names(self.lhs)):
            extra = sorted(free_names(self.rhs) - free_names(self.lhs))
            raise RuleClassError(
                f"rule {self.name}: right side has free variables {extra} "
                "not bound by the left side")

    @property
    def var_names(self) -> frozenset[str]:
        return free_names(self.lhs)

    def rename_for(self, avoid: Iterable[str]) -> "RewriteRule":
        """Variant of the rule sharing no variables with ``avoid``."""
        avoid_set = set(avoid)
        if not (self.var_names & avoid_set):
            return self
        lhs, s = rename_apart(avoid_set, self.lhs)
        return replace(self, lhs=lhs, rhs=s(self.rhs))

    def __str__(self) -> str:
        return f"{self.cls}: {self.lhs} -> {self.rhs}"


class EtaRule(RewriteRule):
    """Contraction of a trailing application of the topmost de Bruijn index.

    ``wrap(body(x, index1)) -> x`` provided the body, once normalized with
    respect to the accompanying structural rules, is an image of ``x`` under
    a single shift.  The side condition is decided by :func:`eta_redex`,
    configured with the symbols of the explicit-substitution language.
    """

    def __init__(self, name: str, lam, app, sub, shift, one, sort) -> None:
        x = Var("a", sort)
        lhs = App(lam, (App(app, (x, App(one, ()))),))
        RewriteRule.__init__(self, name, lhs, x, E_CLASS)
        object.__setattr__(self, "_syms", (lam, app, sub, shift, one))

    def contract(self, t: Term, system: "RewriteSystem", fuel: int = 2000) -> Term | None:
        lam, app, sub, shift, one = self._syms
        if not (isinstance(t, App) and t.sym.name == lam.name and len(t.args) == 1):
            return None
        body = t.args[0]
        if not (isinstance(body, App) and body.sym.name == app.name):
            return None
        fn, arg = body.args
        if not (isinstance(arg, App) and arg.sym.name == one.name):
            return None
        sigma = system.without_eta()
        outcome = normalize(fn, sigma, fuel)
        if not outcome.normal:
            return None
        return _unshift(outcome.value, app, sub, shift)


def _unshift(t: Term, app, sub, shift) -> Term | None:
    """Invert one shift on a normal term, or None if the shape does not fit."""
    if isinstance(t, App):
        if t.sym.name == sub.name and len(t.args) == 2:
            s = t.args[1]
            if isinstance(s, App) and s.sym.name == shift.name and not s.args:
                return t.args[0]
            return None
        if t.sym.name == app.name and len(t.args) == 2:
            left = _unshift(t.args[0], app, sub, shift)
            right = _unshift(t.args[1], app, sub, shift)
            if left is None or right is None:
                return None
            return App(t.sym, (left, right))
    return None


class RewriteSystem:
    """An ordered list of rules, split into the E/R classes."""

    def __init__(self, rules: Iterable[RewriteRule] = ()):
        self.rules: tuple[RewriteRule, ...] = tuple(rules)
        self.e_rules: tuple[RewriteRule, ...] = tuple(r for r in self.rules if r.cls == E_CLASS)
        self.r_rules: tuple[RewriteRule, ...] = tuple(r for r in self.rules if r.cls == R_CLASS)
        self._e_roots = frozenset(
            r.lhs.sym.name for r in self.e_rules if isinstance(r.lhs, App))
        self._r_preds = frozenset(r.lhs.pred.name for r in self.r_rules)

    def __iter__(self) -> Iterator[RewriteRule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def is_empty(self) -> bool:
        return not self.rules

    @property
    def e_lhs_roots(self) -> frozenset[str]:
        """Root symbols of E-rule left sides (irreducibility pre-filter)."""
        return self._e_roots

    @property
    def r_lhs_preds(self) -> frozenset[str]:
        return self._r_preds

    def extend(self, rules: Iterable[RewriteRule]) -> "RewriteSystem":
        return RewriteSystem(self.rules + tuple(rules))

    def without_eta(self) -> "RewriteSystem":
        return RewriteSystem(r for r in self.rules if not isinstance(r, EtaRule))


EMPTY_SYSTEM = RewriteSystem()


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def match(pattern: Term | Atom, subject: Term | Atom,
          bindings: Mapping[str, Term] | None = None) -> dict[str, Term] | None:
    """One-sided unification: bindings for pattern variables making
    ``pattern`` equal to ``subject``, or None.

    Subject variables are treated as rigid.  Nonlinear patterns require the
    repeated variable to match identical subterms.
    """
    b = dict(bindings) if bindings else {}
    if isinstance(pattern, Atom) != isinstance(subject, Atom):
        return None
    stack: list[tuple] = []
    if isinstance(pattern, Atom):
        if pattern.pred.name != subject.pred.name or len(pattern.args) != len(subject.args):
            return None
        stack.extend(zip(pattern.args, subject.args))
    else:
        stack.append((pattern, subject))
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            seen = b.get(p.name)
            if seen is None:
                if isinstance(s, Var):
                    if s.sort != p.sort:
                        return None
                elif term_sort(s) != p.sort:
                    return None
                b[p.name] = s
            elif seen != s:
                return None
        elif isinstance(s, App) and p.sym.name == s.sym.name and len(p.args) == len(s.args):
            stack.extend(zip(p.args, s.args))
        else:
            return None
    return b


# ---------------------------------------------------------------------------
# One-step reduction
# ---------------------------------------------------------------------------


def _reduce_term_once(t: Term, system: RewriteSystem) -> tuple[Term, str] | None:
    """Leftmost-outermost E-step inside a term."""
    if isinstance(t, Var):
        return None
    for rule in system.e_rules:
        if isinstance(rule, EtaRule):
            contracted = rule.contract(t, system)
            if contracted is not None:
                return contracted, rule.name
            continue
        b = match(rule.lhs, t)
        if b is not None:
            return subst_term(rule.rhs, b), rule.name
    for i, a in enumerate(t.args):
        red = _reduce_term_once(a, system)
        if red is not None:
            new, name = red
            return App(t.sym, t.args[:i] + (new,) + t.args[i + 1:]), name
    return None


def reduce_once(x: Term | Prop, system: RewriteSystem) -> tuple[Term | Prop, str] | None:
    """Rewrite the leftmost-outermost redex of ``x``.

    R-rules fire at atom positions of propositions, E-rules inside terms.
    Returns ``(reduct, rule name)`` or None when ``x`` is normal.
    """
    if is_term(x):
        return _reduce_term_once(x, system)
    match x:
        case Atom():
            for rule in system.r_rules:
                b = match(rule.lhs, x)
                if b is not None:
                    return subst_prop(rule.rhs, b), rule.name
            for i, a in enumerate(x.args):
                red = _reduce_term_once(a, system)
                if red is not None:
                    new, name = red
                    return Atom(x.pred, x.args[:i] + (new,) + x.args[i + 1:]), name
            return None
        case Top() | Bottom():
            return None
        case Not():
            red = reduce_once(x.body, system)
            if red is None:
                return None
            return Not(red[0]), red[1]
        case _Binary():
            red = reduce_once(x.left, system)
            if red is not None:
                return type(x)(red[0], x.right), red[1]
            red = reduce_once(x.right, system)
            if red is not None:
                return type(x)(x.left, red[0]), red[1]
            return None
        case _Quant():
            red = reduce_once(x.body, system)
            if red is None:
                return None
            return type(x)(x.var, red[0], x.hint), red[1]
    raise TypeError(f"cannot reduce {x!r}")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizeOutcome:
    """Result of fuel-bounded normalization.

    ``normal`` tells whether ``value`` admits no further redex; when the fuel
    ran out first, ``value`` is the last reduct reached.  ``trace`` holds the
    successive reducts (rule name, value), oldest first.
    """

    normal: bool
    value: Term | Prop
    steps: int
    trace: tuple[tuple[str, Term | Prop], ...] = ()

    def __bool__(self) -> bool:
        return self.normal


def normalize(x: Term | Prop, system: RewriteSystem, fuel: int = 10_000,
              strategy: str = "leftmost_outermost") -> NormalizeOutcome:
    """Iterate :func:`reduce_once` at most ``fuel`` times.

    ``strategy`` picks the redex; ``rightmost_innermost`` exists for
    confluence testing only.
    """
    if fuel < 1:
        raise ValueError("fuel must be positive")
    step = reduce_once if strategy == "leftmost_outermost" else _reduce_rightmost_innermost
    value = x
    trace: list[tuple[str, Term | Prop]] = []
    for n in range(fuel):
        red = step(value, system)
        if red is None:
            return NormalizeOutcome(True, value, n, tuple(trace))
        value = red[0]
        trace.append((red[1], value))
    if step(value, system) is None:
        return NormalizeOutcome(True, value, fuel, tuple(trace))
    return NormalizeOutcome(False, value, fuel, tuple(trace))


def _reduce_rightmost_innermost(x: Term | Prop, system: RewriteSystem):
    best: tuple[tuple[int, ...], Term | Prop, str] | None = None
    for pos in positions(x):
        sub = subterm_at(x, pos)
        red = None
        if is_term(sub):
            if not isinstance(sub, Var):
                for rule in system.e_rules:
                    if isinstance(rule, EtaRule):
                        c = rule.contract(sub, system)
                        if c is not None:
                            red = (c, rule.name)
                            break
                        continue
                    b = match(rule.lhs, sub)
                    if b is not None:
                        red = (subst_term(rule.rhs, b), rule.name)
                        break
        elif isinstance(sub, Atom):
            for rule in system.r_rules:
                b = match(rule.lhs, sub)
                if b is not None:
                    red = (subst_prop(rule.rhs, b), rule.name)
                    break
        if red is None:
            continue
        # rightmost first, then innermost (longer positions win)
        if best is None or pos > best[0] or (pos[:len(best[0])] == best[0] and len(pos) > len(best[0])):
            best = (pos, red[0], red[1])
    if best is None:
        return None
    from .kernel import replace_at

    return replace_at(x, best[0], best[1]), best[2]


# ---------------------------------------------------------------------------
# Orthogonality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrthogonalityReport:
    orthogonal: bool
    diagnostic: str = ""

    def __bool__(self) -> bool:
        return self.orthogonal


def _nonlinear(rule: RewriteRule) -> bool:
    seen: set[str] = set()

    def walk(t: Term) -> bool:
        if isinstance(t, Var):
            if t.name in seen:
                return True
            seen.add(t.name)
            return False
        return any(walk(a) for a in t.args)

    lhs = rule.lhs
    args = lhs.args if isinstance(lhs, Atom) else (lhs,)
    return any(walk(a) for a in args)


def _unifiable_firstorder(t: Term | Atom, u: Term | Atom) -> bool:
    """Plain syntactic unifiability, used only for overlap detection."""
    from .unify import unify_syntactic

    try:
        return unify_syntactic(t, u) is not None
    except Exception:
        return False


def check_orthogonal(system: RewriteSystem,
                     representative_only: Iterable[str] = ()) -> OrthogonalityReport:
    """Left-linearity plus absence of overlaps between rule left sides.

    ``representative_only`` names rule families for which a single declared
    instance stands in for the whole family; instances beyond the first are
    skipped (distinct family members cannot overlap by construction).
    """
    skip_prefixes = tuple(representative_only)
    seen_family: set[str] = set()
    rules: list[RewriteRule] = []
    for r in system.rules:
        fam = next((p for p in skip_prefixes if r.name.startswith(p)), None)
        if fam is not None:
            if fam in seen_family:
                continue
            seen_family.add(fam)
        rules.append(r)

    for r in rules:
        if isinstance(r, EtaRule):
            return OrthogonalityReport(
                False, f"rule {r.name} is conditional; the system is not orthogonal")
        if _nonlinear(r):
            return OrthogonalityReport(False, f"rule {r.name} is not left-linear")

    for i, r1 in enumerate(rules):
        avoid = free_names(r1.lhs)
        for j, r2 in enumerate(rules):
            r2v = r2.rename_for(avoid)
            lhs1 = r1.lhs
            for pos in positions(lhs1):
                if i == j and not pos:
                    continue
                sub = subterm_at(lhs1, pos)
                if isinstance(sub, Var):
                    continue
                if isinstance(sub, Atom) != isinstance(r2v.lhs, Atom):
                    continue
                if _unifiable_firstorder(sub, r2v.lhs):
                    where = "at the root" if not pos else f"at position {list(pos)}"
                    return OrthogonalityReport(
                        False,
                        f"rules {r1.name} and {r2.name} overlap {where} of {r1.name}")
    return OrthogonalityReport(True, "left-linear and overlap-free")
