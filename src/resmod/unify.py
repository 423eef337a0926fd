"""Unification: syntactic, equational (by bounded basic narrowing), and
solution checking against a set of constraints.

Every function here reads a constraint through ``Constraint.pairs``: a term
equation stands for itself, an equation between two atoms for the equations
between their arguments.

Syntactic unification keeps its bindings triangular (Martelli and
Montanari, TOPLAS 1982; Baader and Snyder, "Unification theory", 2001): a
variable is bound to the other side as it stands, a side is dereferenced
by following the bindings at its root, and the occurs check walks through
them, so no binding is ever rewritten.  :func:`resolve` turns the bindings
into an idempotent map only where a map is read: a syntactic unifier, a
narrowing step's unifier, and a state of the narrowing search that unifies.

Equational unification explores narrowing steps breadth-first at basic
positions only (never inside substitution-introduced subterms), attempting
plain syntactic unification at every state.  Each side of an equation
carries its skeleton, the side with every subterm that a step's unifier
brought in cut back to the variable it replaced; the basic positions are
the applications of the skeleton (Hullot 1980; Middeldorp and Hamoen 1994).
The rewrite system files the rules once, by the root symbol of their left
sides (``RewriteSystem.narrowing``), so at a basic position only the rules
filed under its root are tried (top-symbol indexing, as in McCune, JAR
1992).  Each rule is compiled into one step function
(:func:`compile_narrowing_step`) that tests the subterm's symbols against
the left side and unifies the two without building a renamed copy of the
left side, then builds the renamed right side.  A side files once per
skeleton the basic positions whose root has a rule (:func:`_file`), each
with its ordinal among all basic positions, and only those are visited.
Each basic position reserves one block of fresh names, as many as all the
rules have variables; a rule's renaming is taken from its offset in that
block, and a side reserves the blocks of all its positions at once.  One
generator, :func:`_successors`, yields the states out of a state: a state
is expanded only when the search reaches its successors, a successor is
built only when the search examines it, and the unifiers of the steps to a
state are composed only when it unifies.
The search is bounded both by a narrowing depth and a total state budget;
truncation yields an Unknown outcome, never a verdict.  The search ends at
the first candidate solution that passes the solution check, which joins
both sides of every equation to a common normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .kernel import (App, Atom, Sort, SortMismatchError, Substitution, Term, Var, free_names,
                     subst_term, term_sort, term_var_names, term_vars)
from .clausal import ClausalResult, Constraint, ConstrainedClause, Literal, renormalize_clause
from .rewrite import NarrowingRule, RewriteSystem, _build, _constants, normalize


# ---------------------------------------------------------------------------
# Syntactic unification
# ---------------------------------------------------------------------------


class Bindings(dict):
    """A triangular binding map from variable names to terms: a value may
    mention variables bound after it, but never, directly or through the
    bindings, its own variable.  ``ground`` names the variables bound to a
    term without variables, which :func:`resolve` keeps as it is."""

    __slots__ = ("ground",)

    def __init__(self, bindings: Mapping[str, Term] = (), ground: frozenset[str] = frozenset()):
        super().__init__(bindings)
        self.ground = ground


def walk(t: Term, bindings: Mapping[str, Term]) -> Term:
    """``t`` with the bindings followed at its root: an application or an
    unbound variable."""
    while isinstance(t, Var):
        value = bindings.get(t.name)
        if value is None:
            break
        t = value
    return t


def _occurs_walk(name: str, t: Term, bindings: Bindings) -> bool | None:
    """None when ``name`` occurs in ``t`` once the bindings are followed;
    else whether ``t`` mentions no variable at all."""
    if isinstance(t, Var) and t.name not in bindings:
        return None if t.name == name else False
    ground = True
    walked: set[str] = set()  # the bound variables already walked into
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, App):
            stack.extend(x.args)
            continue
        ground = False
        if x.name == name:
            return None
        if x.name in walked or x.name in bindings.ground:
            continue
        value = bindings.get(x.name)
        if value is not None:
            walked.add(x.name)
            stack.append(value)
    return ground


def unify_terms(t: Term, u: Term, bindings: Bindings | None = None) -> Bindings | None:
    """Extend the triangular ``bindings`` (none when omitted) to a most
    general unifier of two terms, or None.

    Each side of a pair is dereferenced by :func:`walk`, a variable is bound
    to the other side as it stands, and the occurs check walks through the
    bindings; nothing already bound is rewritten.  The pairs are taken in
    the order and orientation of a unifier that applies its substitution to
    both sides of every pair, so :func:`resolve` gives that unifier's map,
    keys in binding order included.  The input map is not changed."""
    bindings = Bindings() if bindings is None else Bindings(bindings, bindings.ground)
    return bindings if _extend(bindings, t, u) else None


def _extend(bindings: Bindings, t: Term, u: Term) -> bool:
    """:func:`unify_terms` in place: extend ``bindings`` with the pairs of
    ``t`` and ``u``; False, with the bindings partly extended, when they do
    not unify."""
    stack = [(t, u)]
    while stack:
        a, b = stack.pop()
        a = walk(a, bindings)
        b = walk(b, bindings)
        if a is b or a == b:
            continue
        if isinstance(a, Var):
            var, value = a, b
        elif isinstance(b, Var):
            var, value = b, a
        elif a.sym.name == b.sym.name and len(a.args) == len(b.args):
            stack.extend(zip(a.args, b.args))
            continue
        else:
            return False
        if term_sort(value) != var.sort:
            return False
        ground = _occurs_walk(var.name, value, bindings)
        if ground is None:
            return False  # occurs check
        bindings[var.name] = value
        if ground:
            bindings.ground = bindings.ground | {var.name}
    return True


def resolve(bindings: Bindings) -> dict[str, Term]:
    """The idempotent map of a triangular one, keys in binding order: each
    value with every bound variable replaced by its own resolved value.
    Each value is resolved once and rebuilt only where it mentions a bound
    variable; the ``ground`` ones are not walked at all."""
    memo: dict[str, Term] = {}
    for name, value in bindings.items():
        if name not in memo:
            memo[name] = (value if name in bindings.ground
                          else _resolved(value, bindings, memo))
    return {name: memo[name] for name in bindings}


def _mentions_bound(t: Term, bindings: Bindings) -> bool:
    """Does ``t`` itself mention a bound variable?"""
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, App):
            stack.extend(x.args)
        elif x.name in bindings:
            return True
    return False


def _resolved(t: Term, bindings: Bindings, memo: dict[str, Term]) -> Term:
    """``t`` with every bound variable replaced by its resolved value, which
    ``memo`` notes for each bound variable it resolves; a subterm that
    mentions no bound variable is kept as it is."""
    if not _mentions_bound(t, bindings):
        return t  # the common case: scanned, not rebuilt
    results: list[Term] = []
    # terms to resolve; the name of a bound variable, to note its value once
    # resolved; (node,), to build an application from its resolved arguments
    work: list = [t]
    while work:
        x = work.pop()
        if isinstance(x, Var):
            done = memo.get(x.name)
            if done is not None:
                results.append(done)
                continue
            value = bindings.get(x.name)
            if value is None:
                results.append(x)
            elif x.name in bindings.ground:
                memo[x.name] = value
                results.append(value)
            else:
                work.append(x.name)
                work.append(value)
        elif isinstance(x, App):
            if x.args:
                work.append((x,))
                work.extend(reversed(x.args))
            else:
                results.append(x)
        elif isinstance(x, str):
            memo[x] = results[-1]
        else:
            node = x[0]
            n = len(node.args)
            args = tuple(results[-n:])
            del results[-n:]
            results.append(node if args == node.args else App(node.sym, args))
    return results[0]


def unify_syntactic(t: Term | Atom, u: Term | Atom) -> Substitution | None:
    """Most general unifier (idempotent, occurs-check enforced) or None.

    Accepts two terms of one sort or two atoms; atoms with different
    predicates are simply not unifiable.  Mixing a term with an atom, or
    terms of different sorts, raises SortMismatchError.
    """
    t_atom, u_atom = isinstance(t, Atom), isinstance(u, Atom)
    if t_atom != u_atom:
        raise SortMismatchError("cannot unify a term with an atom")
    if t_atom:
        pairs = Constraint(t, u).pairs()
    elif (isinstance(t, Var) or isinstance(u, Var)) and term_sort(t) != term_sort(u):
        raise SortMismatchError(
            f"cannot unify terms of sorts {term_sort(t)} and {term_sort(u)}")
    else:
        pairs = [(t, u)]
    bindings = _unifier(pairs)
    return None if bindings is None else Substitution.resolved(resolve(bindings))


def _term_pairs(constraints: Iterable[Constraint]) -> list[tuple[Term, Term]] | None:
    """The term equations of all constraints, in order; None on a clash."""
    pairs: list[tuple[Term, Term]] = []
    for c in constraints:
        more = c.pairs()
        if more is None:
            return None
        pairs.extend(more)
    return pairs


def _unifier(pairs: Iterable[tuple[Term, Term]] | None) -> Bindings | None:
    """One triangular binding map extended over all the term equations, or
    None, also for the None of a clash."""
    bindings = Bindings()
    if pairs is None or not all(_extend(bindings, a, b) for a, b in pairs):
        return None
    return bindings


def cheap_fail(c: Constraint, system: RewriteSystem) -> bool:
    """Fast sound unsatisfiability test for a single constraint.

    Reports True only when the two sides clash at a rigid position whose
    root symbols no E-rule can ever rewrite: the narrowing search's
    decomposition, applied to the constraint's start state, finds it dead.
    """
    pairs = c.pairs()
    return pairs is None or _simplify([_Eq(_Side(a), _Side(b)) for a, b in pairs],
                                      system) is None


# ---------------------------------------------------------------------------
# Solution checking
# ---------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"
FUEL = "fuel"


@dataclass(frozen=True)
class EquationVerdict:
    constraint: Constraint
    status: str


@dataclass(frozen=True)
class SolutionCheck:
    verdicts: tuple[EquationVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.status == PASS for v in self.verdicts)

    @property
    def fuel_exhausted(self) -> bool:
        return any(v.status == FUEL for v in self.verdicts)

    def __bool__(self) -> bool:
        return self.ok


def check_solution(s: Substitution, constraints: Iterable[Constraint],
                   system: RewriteSystem, fuel: int = 10_000) -> SolutionCheck:
    """Does ``s`` solve every equation modulo the E-rules?

    Each side is instantiated and normalized; the equation passes when both
    sides reach the same normal form.  The sides are terms, so only the
    E-rules of ``system`` apply.  Running out of fuel is reported as a
    distinct per-equation status, not as failure.
    """
    verdicts: list[EquationVerdict] = []
    for c in constraints:
        pairs = c.pairs()
        if pairs is None:
            verdicts.append(EquationVerdict(c, FAIL))
            continue
        status = PASS
        for a, b in pairs:
            oa = normalize(s(a), system, fuel)
            ob = normalize(s(b), system, fuel)
            if not (oa.normal and ob.normal):
                if oa.value != ob.value:
                    status = FUEL
                    break
            elif oa.value != ob.value:
                status = FAIL
                break
        verdicts.append(EquationVerdict(c, status))
    return SolutionCheck(tuple(verdicts))


# ---------------------------------------------------------------------------
# Equational unification by basic narrowing
# ---------------------------------------------------------------------------

SOLUTIONS = "solutions"
UNSAT = "unsatisfiable"
UNKNOWN = "unknown"

# fuel of the solution check that every candidate solution passes
CHECK_FUEL = 4_000


@dataclass(frozen=True)
class EUnifyOutcome:
    kind: str
    solution: Substitution | None = None  # the checked solution, when solved
    depth: int | None = None
    reason: str = ""
    states: int = 0  # narrowing states examined

    @property
    def is_solutions(self) -> bool:
        return self.kind == SOLUTIONS

    @property
    def is_unsat(self) -> bool:
        return self.kind == UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.kind == UNKNOWN


# the path from the root to a subterm, built only while walking: None at
# the root, else (the parent's path, the 0-based argument index)
_Path = tuple | None

# the positions of a skeleton that a step may narrow: how many basic
# positions it has, and for each one whose root has a rule, in pre-order, its
# path, its ordinal among all basic positions, the index of the nearest such
# position above it (-1 for none) and the argument indices that lead from
# there (or from the root) to it
_Filed = tuple[int, tuple[tuple[_Path, int, int, tuple[int, ...]], ...]]


class _Side:
    """One side of an equation with its skeleton: the side before the
    unifiers of the narrowing steps were applied, so that every subterm one
    of them brought in stands there as the variable it replaced.  The
    applications of the skeleton are the side's basic (narrowable)
    positions; at each of them the side carries the same symbol.  The
    side's variable names are computed on first use, and so are its filed
    positions (:func:`_file`), which a substituted side shares, since it
    keeps the skeleton."""

    __slots__ = ("term", "skel", "_names", "_filed")

    def __init__(self, term: Term, skel: Term | None = None, filed: _Filed | None = None):
        self.term = term
        self.skel = term if skel is None else skel
        self._names: frozenset[str] | None = None
        self._filed = filed

    def substituted(self, m: Mapping[str, Term]) -> "_Side":
        """The side under ``m``; the side itself when ``m`` binds none of
        its variables."""
        if self._names is None:
            self._names = term_var_names(self.term)
        if self._names.isdisjoint(m):
            return self
        # a substitution brings subterms in below basic positions only
        return _Side(subst_term(self.term, m), self.skel, self._filed)

    def filed(self, rules: Mapping[str, tuple[NarrowingRule, ...]]) -> _Filed:
        """:func:`_file` of the skeleton, on first use."""
        if self._filed is None:
            self._filed = _file(self.skel, rules)
        return self._filed


def _file(skel: Term, rules: Mapping[str, tuple[NarrowingRule, ...]]) -> _Filed:
    """The basic positions of ``skel`` whose root symbol has ``rules``, as
    :data:`_Filed` says, the only ones a step narrows at; ordinals count
    the applications of ``skel`` in pre-order."""
    positions: list[tuple[_Path, int, int, tuple[int, ...]]] = []
    count = 0
    # (node, path, the index of the nearest filed position above, the
    # argument indices from there as a path)
    stack: list[tuple[App, _Path, int, _Path]] = (
        [(skel, None, -1, None)] if type(skel) is App else [])
    while stack:
        node, path, above, route = stack.pop()
        if node.sym.name in rules:
            steps: list[int] = []
            while route is not None:
                route, i = route
                steps.append(i)
            positions.append((path, count, above, tuple(reversed(steps))))
            above = len(positions) - 1
        count += 1
        args = node.args
        for i in range(len(args) - 1, -1, -1):
            if type(args[i]) is App:
                stack.append((args[i], (path, i), above, (route, i)))
    return count, tuple(positions)


def _replace_term(t: Term, path: _Path, new: Term) -> Term:
    """``t`` with the subterm at ``path`` replaced by ``new``."""
    indices: list[int] = []
    while path is not None:
        path, i = path
        indices.append(i)
    above: list[App] = []
    for i in reversed(indices):
        above.append(t)
        t = t.args[i]
    for node, i in zip(reversed(above), indices):
        new = App(node.sym, node.args[:i] + (new,) + node.args[i + 1:])
    return new


class _Eq:
    __slots__ = ("left", "right")

    def __init__(self, left: _Side, right: _Side):
        self.left = left
        self.right = right

    def substituted(self, m: Mapping[str, Term]) -> "_Eq":
        return _Eq(self.left.substituted(m), self.right.substituted(m))

    def key(self) -> tuple:
        return (self.left.term, self.right.term)


# the unifiers of the narrowing steps that led to a state, innermost last:
# None at the start, else (the parent's chain, the step's unifier); they are
# composed only for a state whose equations unify
_Chain = tuple | None


def _clash(t: Term, pattern: Term, apps: frozenset[str]) -> bool:
    """Do ``t`` and ``pattern`` carry different function symbols (name or
    arity) at a position where both have one?  Then they cannot unify.  A
    subterm of ``t`` whose spine of ``apps`` symbols has a variable head
    clashes with nothing, since instantiating the head may rebuild it."""
    stack = [(t, pattern)]
    while stack:
        t, pattern = stack.pop()
        if isinstance(t, Var) or isinstance(pattern, Var):
            continue
        if apps and isinstance(_spine_head(t, apps), Var):
            continue
        if t.sym.name != pattern.sym.name or len(t.args) != len(pattern.args):
            return True
        stack.extend(zip(t.args, pattern.args))
    return False


def _spine_head(t: Term, app_symbols: frozenset[str]):
    while isinstance(t, App) and t.sym.name in app_symbols and t.args:
        t = t.args[0]
    return t


def _is_flex(t: Term, app_symbols: frozenset[str]) -> bool:
    return isinstance(_spine_head(t, app_symbols), Var)


# a part of a left side with more nodes is renamed by subst_term where a
# variable is bound to it, so the code of a deep rule stays linear in its size
_BUILT_PART_NODES = 64


def compile_narrowing_step(lhs: App, rhs: Term, variables: tuple[tuple[str, Sort], ...]
                           ) -> Callable[[App, int], tuple[dict[str, Term], Term] | None]:
    """The narrowing step of the rule ``lhs -> rhs`` as one function
    ``step(t, first)``, generated from the rule's two sides.

    ``t`` is the subterm at a basic position, with the root symbol of
    ``lhs``; variable ``j`` of ``variables`` is renamed ``_n<first + j>``, a
    name ``t`` does not use.  The function first tests, as :func:`_clash`
    does, that ``t`` and ``lhs`` carry the same symbols wherever both have
    one.  It then unifies ``t`` with the renamed left side, reading ``lhs``
    where the renamed copy would stand: it takes the positions of ``lhs`` in
    the order :func:`unify_terms` takes their pairs, right to left in
    pre-order, and binds as it would, so θ is that unifier's resolved map,
    keys in binding order included.  A variable of ``t`` met at an
    application of ``lhs`` is bound to the renamed part there, built then.
    Until a variable of ``t`` is met a second time, no binding can be
    followed and, the left side being linear, no occurs check can fail, so
    a binding takes a sort test; from then on, and throughout for a left
    side that repeats a variable, each pair is extended into the bindings
    by :func:`unify_terms`' own loop.  It returns ``(θ, renamed rhs)`` or
    None.  Symbols, names, sorts and ground subterms are constants of its
    namespace, so no text of the rule reaches the source, and each node is
    one block at the top level of the function, so a deep rule compiles
    too."""
    namespace: dict[str, object] = {"App": App, "Var": Var, "Bindings": Bindings,
                                    "extend": _extend, "resolve": resolve,
                                    "subst_term": subst_term}
    const = _constants(namespace)

    # the nodes of the left side breadth first; node k is met by the local s<k>
    nodes: list[Term] = [lhs]
    kids: list[range] = []
    for p in nodes:  # the loop appends
        args = p.args if type(p) is App else ()
        kids.append(range(len(nodes), len(nodes) + len(args)))
        nodes.extend(args)
    sizes = [1] * len(nodes)
    for k in reversed(range(len(nodes))):
        sizes[k] += sum(sizes[c] for c in kids[k])
    renamed = {name: f"v{j}" for j, (name, _) in enumerate(variables)}
    names = [p.name for p in nodes if type(p) is Var]
    linear = len(names) == len(set(names))

    # the clash test, which also reads the nodes of t below the left side's
    lines = [f"if len(t.args) != {len(lhs.args)}: return None"]
    if lhs.args:
        lines.append(f"{''.join(f's{c}, ' for c in kids[0])}= t.args")
    lines += [f"s{k} = None" for k in range(len(lhs.args) + 1, len(nodes))]
    for k, p in enumerate(nodes):
        if k and type(p) is App:
            lines += [f"if type(s{k}) is App:",
                      f"    if s{k}.sym.name != {const(p.sym.name)} "
                      f"or len(s{k}.args) != {len(p.args)}: return None"]
            if p.args:
                lines.append(f"    {''.join(f's{c}, ' for c in kids[k])}= s{k}.args")
    lines += [f"v{j} = Var(f'_n{{first + {j}}}', {const(sort)})"
              for j, (_, sort) in enumerate(variables)]

    # the unification, with the bindings in b: for a linear left side a
    # plain dict, made Bindings once dyn, when the pairs go through extend
    lines += ["b = {}", "dyn = dirty = False"] if linear else ["b = Bindings()"]
    to_extend = ["if not dyn:", "    b = Bindings(b)", "    dyn = True"]
    order, stack = [], [0]
    while stack:
        order.append(stack.pop())
        stack.extend(kids[order[-1]])
    for k in order[1:]:
        p, s = nodes[k], f"s{k}"
        if type(p) is App:
            sort = const(p.sym.result)
            lines.append(f"if type({s}) is Var:")
            if sizes[k] <= _BUILT_PART_NODES:
                part = _build(p, renamed, const, lines, "    ")
            else:
                mapping = ", ".join(f"{const(name)}: {v}" for name, v in renamed.items())
                part = f"subst_term({const(p)}, {{{mapping}}})"
            pair = f"if not extend(b, {s}, {part}): return None"
            lines += [f"    {line}" for line in (
                [f"if dyn or {s}.name in b:", *(f"    {x}" for x in to_extend), f"    {pair}",
                 f"elif {s}.sort is not {sort} and {s}.sort != {sort}: return None",
                 "else:",
                 f"    b[{s}.name] = {part}",
                 "    dirty = True"] if linear else [pair])]
        else:
            v, sort = renamed[p.name], const(p.sort)
            pair = f"if not extend(b, {s}, {v}): return None"
            pad = "    " if k > len(lhs.args) else ""
            if pad:
                lines.append(f"if {s} is not None:")
            lines += [pad + line for line in (
                [f"if dyn or type({s}) is Var and {s}.name in b:",
                 *(f"    {x}" for x in to_extend), f"    {pair}",
                 f"elif type({s}) is Var:",
                 f"    if {s}.sort is not {sort} and {s}.sort != {sort}: return None",
                 f"    b[{s}.name] = {v}",
                 "    dirty = True",
                 f"elif {s}.sym.result is not {sort} and {s}.sym.result != {sort}: return None",
                 "else:",
                 f"    b[{v}.name] = {s}"] if linear else [pair])]
    lines.append("theta = resolve(b) if dyn else resolve(Bindings(b)) if dirty else b"
                 if linear else "theta = resolve(b)")
    value = _build(rhs, renamed, const, lines)
    lines.append(f"return theta, {value}")
    exec("def step(t, first):\n" + "".join(f"    {line}\n" for line in lines), namespace)
    return namespace["step"]


def e_unify_narrowing(constraints: Iterable[Constraint], system: RewriteSystem,
                      depth: int = 8, *,
                      app_symbols: Iterable[str] = (),
                      max_states: int = 4_000) -> EUnifyOutcome:
    """Solve a constraint set modulo the E-rules by bounded basic narrowing.

    Breadth-first over narrowing steps; plain unification is attempted at
    every state, and the search ends at the first state whose unifier,
    composed with the steps' unifiers, passes :func:`check_solution`: that
    is the outcome's ``solution``.  With no E-rules this degenerates to
    syntactic unification.  A state's equations extend one triangular
    binding map, resolved only when they all unify; a step's unifier is
    resolved as the step is built.
    A step narrows at a basic position, an application of the side's
    skeleton; it replaces the subterm there by the rule's renamed right side
    in the skeleton too, while its unifier reaches only the side itself.
    Equations whose two sides are both headed by variables are kept frozen:
    they are never narrowed, only unified.  The rules are the system's
    ``narrowing``; this files none.  Each level draws its states from
    :func:`_successors` over the states the level before kept, those with a
    basic position.  Unsatisfiable is reported only when the whole space
    below the bounds was exhausted: a level kept no state.  Keeping a state
    at the depth bound, or examining more than ``max_states``, yields
    Unknown; one more state than ``max_states`` is built.  The outcome
    counts the states examined, up to ``max_states``; a solved one counts
    up to its solving state.
    """
    rules, block = system.narrowing
    apps = frozenset(app_symbols)
    constraints = tuple(constraints)
    pairs = _term_pairs(constraints)
    if pairs is None:
        return EUnifyOutcome(UNSAT)
    original_vars: set[str] = set()
    for a, b in pairs:
        original_vars |= term_var_names(a) | term_var_names(b)

    def finish(bindings: Bindings, chain: _Chain) -> Substitution | None:
        thetas: list[dict[str, Term]] = [resolve(bindings)]
        while chain is not None:
            chain, theta = chain
            thetas.append(theta)
        candidate = Substitution()
        for theta in reversed(thetas):
            candidate = candidate.compose(Substitution.resolved(theta))
        candidate = _rename_internal(candidate.restrict(original_vars), original_vars)
        if rules and not check_solution(candidate, constraints, system, CHECK_FUEL).ok:
            return None
        return candidate

    level: Iterable[tuple[list[_Eq], _Chain]] = [
        ([_Eq(_Side(a), _Side(b)) for a, b in pairs], None)]
    fresh = [1]  # the first fresh name of the next block
    seen: set[tuple] = set()
    states = 0
    for current_depth in range(depth + 1):
        kept: list[tuple[list[_Eq], _Chain]] = []
        for eqs, chain in level:
            states += 1
            if states > max_states:
                return EUnifyOutcome(UNKNOWN, reason="states", states=max_states)
            eqs = _simplify(eqs, system)
            if eqs is None:
                continue  # dead state
            key = tuple(e.key() for e in eqs)
            if key in seen:
                continue
            seen.add(key)
            bindings: Bindings | None = Bindings()
            for e in eqs:
                bindings = unify_terms(e.left.term, e.right.term, bindings)
                if bindings is None:
                    break
            if bindings is not None:
                solution = finish(bindings, chain)
                if solution is not None:
                    return EUnifyOutcome(SOLUTIONS, solution, current_depth, states=states)
            if rules and any(_expandable(e, apps) for e in eqs):
                kept.append((eqs, chain))
        if not kept:
            return EUnifyOutcome(UNSAT, states=states)
        level = (state for eqs, chain in kept
                 for state in _successors(eqs, chain, rules, apps, fresh, block))
    return EUnifyOutcome(UNKNOWN, reason="depth", states=states)


def _simplify(eqs: list[_Eq], system: RewriteSystem) -> list[_Eq] | None:
    """Drop trivial equations, decompose rigid pairs with irreducible roots,
    and signal dead states by returning None."""
    roots = system.e_index
    out: list[_Eq] = []
    work = list(eqs)
    while work:
        e = work.pop(0)
        l, r = e.left.term, e.right.term
        if l == r:
            continue
        if isinstance(l, App) and isinstance(r, App):
            l_red = l.sym.name in roots
            r_red = r.sym.name in roots
            if not l_red and not r_red:
                if l.sym.name != r.sym.name or len(l.args) != len(r.args):
                    return None
                for i in range(len(l.args)):
                    work.append(_Eq(_child_side(e.left, i), _child_side(e.right, i)))
                continue
        out.append(e)
    return out


def _child_side(side: _Side, i: int) -> _Side:
    skel = side.skel
    return _Side(side.term.args[i], skel.args[i] if isinstance(skel, App) else skel)


def _expandable(e: _Eq, apps: frozenset[str]) -> bool:
    """Has ``e`` a basic position that a step may narrow?"""
    if _is_flex(e.left.term, apps) and _is_flex(e.right.term, apps):
        return False  # frozen flex-flex equation
    return isinstance(e.left.skel, App) or isinstance(e.right.skel, App)


def _successors(eqs: list[_Eq], chain: _Chain,
                rules: Mapping[str, tuple[NarrowingRule, ...]], apps: frozenset[str],
                fresh: list[int], block: int) -> Iterator[tuple[list[_Eq], _Chain]]:
    """The states one narrowing step out of ``eqs`` leads to, in search
    order, each built when the search asks for it.  Each basic position
    reserves a block of ``block`` fresh names, whichever rules apply there:
    a side reserves the blocks of all its basic positions at once from
    ``fresh``, the first fresh name of the next block, so fresh names do not
    depend on the index or the clash test.  Only the side's filed positions,
    those whose root has a rule, are visited, each reached from the one
    above it; the compiled step of each rule filed under the root is given
    the subterm there and the first fresh name of its offset in the block,
    and gives a state when the subterm unifies with its left side."""
    # every side is filed before a successor copies it, so the copies share
    # its filing; a frozen flex-flex equation is never narrowed
    filed = [None if _is_flex(e.left.term, apps) and _is_flex(e.right.term, apps)
             else (e.left.filed(rules), e.right.filed(rules)) for e in eqs]
    for idx, e in enumerate(eqs):
        if filed[idx] is None:
            continue
        for side_ix, side in enumerate((e.left, e.right)):
            count, positions = filed[idx][side_ix]
            base = fresh[0]
            fresh[0] = base + count * block
            subterms: list[App] = []
            for path, ordinal, above, steps in positions:
                sub = side.term if above < 0 else subterms[above]
                for i in steps:
                    sub = sub.args[i]
                subterms.append(sub)
                first = base + ordinal * block
                for _, _, _, offset, step in rules[sub.sym.name]:
                    found = step(sub, first + offset)
                    if found is None:
                        continue
                    theta, rhs = found
                    new_side = _Side(subst_term(_replace_term(side.term, path, rhs), theta),
                                     _replace_term(side.skel, path, rhs))
                    # the narrowed side is rebuilt; θ reaches the other one
                    other = (e.right if side_ix == 0 else e.left).substituted(theta)
                    narrowed = _Eq(new_side, other) if side_ix == 0 else _Eq(other, new_side)
                    yield ([narrowed if jdx == idx else e2.substituted(theta)
                            for jdx, e2 in enumerate(eqs)], (chain, theta))


def _rename_internal(s: Substitution, original_vars: set[str]) -> Substitution:
    """Hide the narrowing search's fresh variables from returned solutions.

    A binding ``x := v`` with ``v`` internal is an mgu leaving ``x``
    essentially free: rename ``v`` back to ``x``.  Internal variables left
    inside deeper terms get readable fresh names.
    """
    rho: dict[str, Term] = {}
    internal: list[tuple[str, Var]] = []
    for k, t in sorted(s.map.items()):
        if isinstance(t, Var) and t.name.startswith("_n") and t.name not in rho:
            rho[t.name] = Var(k, t.sort)
    counter = 0
    for k, t in sorted(s.map.items()):
        for v in sorted(term_var_names(t)):
            if v.startswith("_n") and v not in rho:
                internal.append((k, v))
    for k, v in internal:
        counter += 1
        sort = next(w.sort for w in term_vars(s.map[k]) if w.name == v)
        name = f"v{counter}"
        while name in original_vars:
            counter += 1
            name = f"v{counter}"
        rho[v] = Var(name, sort)
    if not rho:
        return s
    out = {k: subst_term(t, rho) for k, t in s.map.items()}
    return Substitution({k: t for k, t in out.items()
                         if not (isinstance(t, Var) and t.name == k)})


# ---------------------------------------------------------------------------
# On-the-fly propagation
# ---------------------------------------------------------------------------


def propagate_on_the_fly(literals: Iterable[Literal], pairs: Iterable[tuple[Term, Term]] | None,
                         system: RewriteSystem, sig, fuel=10_000) -> ClausalResult | None:
    """Solve an inference's constraints syntactically before its clause is
    built, and build it with the unifier pushed through ``literals``.

    One triangular binding map is extended over ``pairs``, the term
    equations of the constraints (None for a clash); when they have no
    syntactic unifier ``literals`` is not read, nothing is built and the
    result is None.  Otherwise only the atoms that mention a bound variable
    are rewritten, by :func:`resolve`'s map, and the one constraint-free
    clause is re-normalized (and re-clausified when an atom leaves the atom
    fragment, since instantiation may trigger reductions).
    """
    bindings = _unifier(pairs)
    if bindings is None:
        return None
    m = resolve(bindings)
    instance = ConstrainedClause(
        lit if free_names(lit.atom).isdisjoint(m) else Literal(
            lit.positive, Atom(lit.atom.pred, tuple(subst_term(a, m) for a in lit.atom.args)))
        for lit in literals)
    return renormalize_clause(instance, system, sig, fuel)[0]
