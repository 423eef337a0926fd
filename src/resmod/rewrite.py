"""Oriented rewrite rules and fuel-bounded normalization.

Rules come in two classes: class ``E`` rewrites terms to terms and feeds the
equational unifier, class ``R`` rewrites atomic propositions to arbitrary
propositions and feeds the narrowing inference of the prover.  Reduction is
leftmost-outermost and deterministic; normalization is fuel-bounded so that
non-terminating systems produce an outcome instead of a hang.

:func:`normalize` contracts redexes without walking the term from the root
for each step, and :func:`reduce_once` is one step of it that also names the
rule that fired.  Both contract the redexes a scan that tries every rule at
every node with :func:`match` contracts, in the same order; the scan is kept
in ``tests/helpers.py`` as their reference.

- ``RewriteSystem`` keeps one dispatcher per root symbol (or predicate),
  built on first use: a generated function that tries the root's rules in
  declaration order, testing the head symbols of the node's arguments
  inline before it calls a rule's contractor, which is the rule compiled
  into one function that matches below the root and builds the contractum,
  or an ``EtaRule``'s ``contract`` bound to the system.  The first that
  fires is the rule the scan finds; it carries its name as ``rule_name``.
- One call keeps the set of subterms whose whole subtree was searched and
  held no redex, and skips them (a subterm equal to a normal one is normal).
- After a contraction the search resumes ``reach`` levels above the
  contracted position: a linear left side whose non-variable positions lie
  at most ``reach`` levels deep looks at no deeper change, and E-rules keep
  sorts.  ``reach`` is infinite (resume at the root of the term) when the
  system has an ``EtaRule`` or a left side that repeats a variable.
- Connectives are never redexes, so a proposition is normalized one atom at
  a time, left to right; an atom whose predicate heads an R-rule is checked
  again after each E-step in its arguments.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping, NamedTuple

from .kernel import (
    App,
    Atom,
    Bottom,
    Prop,
    Sort,
    Term,
    Top,
    Var,
    children as children_of,
    free_names,
    is_term,
    rename_apart,
    subst_prop,
    term_sort,
    term_vars,
    with_children,
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

    @cached_property
    def compiled(self) -> Callable[[App | Atom], Term | Prop | None]:
        """:func:`_compile` of the rule, built on first use and kept."""
        return _compile(self)

    def __str__(self) -> str:
        return f"{self.cls}: {self.lhs} -> {self.rhs}"


# fuel for normalizing the body of an eta-redex candidate
ETA_FUEL = 2000


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

    def contract(self, t: Term, system: "RewriteSystem") -> Term | None:
        lam, app, sub, shift, one = self._syms
        if not (isinstance(t, App) and t.sym.name == lam.name and len(t.args) == 1):
            return None
        body = t.args[0]
        if not (isinstance(body, App) and body.sym.name == app.name):
            return None
        fn, arg = body.args
        if not (isinstance(arg, App) and arg.sym.name == one.name):
            return None
        sigma = system.without_eta
        outcome = normalize(fn, sigma, ETA_FUEL)
        if not outcome.normal:
            return None
        return _unshift(outcome.value, app, sub, shift)


def _unshift(t: Term, app, sub, shift) -> Term | None:
    """Invert one shift on a normal term, or None if the shape does not fit."""
    one_shift = App(shift)
    out: list[Term] = []
    stack: list = [t]  # terms to unshift, and (node,) to rebuild from two results
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            right = out.pop()
            out[-1] = App(x[0].sym, (out[-1], right))
        elif not isinstance(x, App) or len(x.args) != 2:
            return None
        elif x.sym.name == app.name:
            stack += ((x,), x.args[1], x.args[0])
        elif x.sym.name != sub.name or x.args[1] != one_shift:
            return None
        else:
            out.append(x.args[0])
    return out[0]


def _index(rules: Iterable[RewriteRule], key) -> dict[str, tuple[RewriteRule, ...]]:
    out: dict[str, list[RewriteRule]] = {}
    for r in rules:
        out.setdefault(key(r), []).append(r)
    return {k: tuple(v) for k, v in out.items()}


def _dispatcher(rules: tuple[RewriteRule, ...],
                system: "RewriteSystem") -> Callable[[App | Atom], tuple | None]:
    """The dispatcher of ``rules``, the rules of one root in declaration
    order.  It tries them in that order, each where the node's arity and the
    head symbols of its arguments fit the left side (an ``EtaRule`` fits any
    node), by calling the rule's compiled function, or an ``EtaRule``'s
    ``contract`` bound to ``system``.  It returns ``(contractum,
    contractor)`` for the first that fires, or None."""
    namespace: dict[str, object] = {"App": App}
    const = _constants(namespace)
    tries = []  # per rule: its arity (None: any), its head tests by position, its contractor
    for r in rules:
        if isinstance(r, EtaRule):
            contract = partial(r.contract, system=system)
            contract.rule_name = r.name
            tries.append((None, {}, const(contract)))
        else:
            args = r.lhs.args
            heads = {i: const(p.sym.name) for i, p in enumerate(args) if type(p) is App}
            tries.append((len(args), heads, const(r.compiled)))
    lines = []
    # one block per arity, with the rules of that arity and the eta rules
    # among them; then, for a node of any other arity, the eta rules
    for arity in (*dict.fromkeys(n for n, _, _ in tries if n is not None), None):
        block = [f"if {''.join(f'h{i} == {k} and ' for i, k in heads.items())}"
                 f"(f := {c}(t)) is not None: return f, {c}"
                 for n, heads, c in tries if n in (arity, None)]
        if arity is not None:
            tested = sorted({i for n, heads, _ in tries if n == arity for i in heads})
            unpack = [f"{''.join(f's{i}, ' for i in range(arity))}= t.args"] if tested else []
            block = [*unpack, *(f"h{i} = s{i}.sym.name if type(s{i}) is App else None"
                                for i in tested), *block, "return None"]
            block = [f"if len(t.args) == {arity}:", *(f"    {line}" for line in block)]
        lines += block
    exec("def dispatch(t):\n" + "".join(f"    {line}\n" for line in lines), namespace)
    return namespace["dispatch"]


def _filed(dispatch: dict, index: dict[str, tuple[RewriteRule, ...]], root: str,
           system: "RewriteSystem") -> Callable[[App | Atom], tuple | None] | None:
    """``dispatch[root]``, filed there first when missing: the dispatcher
    of the rules ``index`` files under ``root``, or None when it files
    none."""
    try:
        return dispatch[root]
    except KeyError:
        rules = index.get(root)
        # a proxy, so that a system and its dispatchers form no reference
        # cycle and a system no longer used is freed at once
        found = dispatch[root] = _dispatcher(rules, weakref.proxy(system)) if rules else None
        return found


def _reach(e_rules: Iterable[RewriteRule]) -> float:
    """Depth of the deepest non-variable position among the left sides, or
    infinity when a rule is an ``EtaRule`` or repeats a variable."""
    deepest = 0
    for rule in e_rules:
        if isinstance(rule, EtaRule):
            return math.inf
        seen: set[str] = set()
        stack = [(rule.lhs, 0)]
        while stack:
            t, depth = stack.pop()
            if isinstance(t, App):
                deepest = max(deepest, depth)
                stack.extend((a, depth + 1) for a in t.args)
            elif t.name in seen:
                return math.inf
            else:
                seen.add(t.name)
    return deepest


class NarrowingRule(NamedTuple):
    """A non-eta E-rule as the refutation gate narrows with it.

    ``step(t, first)`` is the rule's narrowing step at a basic position
    whose subterm ``t`` has the left side's root symbol, compiled into one
    function by ``unify.compile_narrowing_step``.  Its fresh names start at
    ``first``, the position's block start plus ``offset``: variable ``j`` of
    ``variables`` is renamed ``_n<first + j>``.  It returns ``(θ, rhs)``,
    the most general unifier of ``t`` and the renamed left side and the
    renamed right side, or None, without building the renamed left side."""

    lhs: App
    rhs: Term
    variables: tuple[tuple[str, Sort], ...]  # sorted by name, with their sorts
    offset: int  # of its first fresh name in the block a position reserves
    step: Callable[[App, int], tuple[dict[str, Term], Term] | None]


class RewriteSystem:
    """An ordered list of rules, split into the E/R classes.

    ``e_index`` maps a symbol to the E-rules whose left side has it at the
    root, ``r_index`` a predicate to its R-rules, both in declaration order.
    ``e_dispatch`` and ``r_dispatch`` map a root to one dispatcher of its
    rules (see :func:`_dispatcher`), or to None for a root no rule has: all
    that :func:`normalize` calls at a node.  They are plain dicts, filled by
    :meth:`e_dispatcher` and :meth:`r_dispatcher` the first time a node with
    that root is met.  ``reach`` says how far above a contraction
    :func:`normalize` looks again for a redex.  ``var_names`` are the rules'
    variables' names.

    ``narrowing``, filed on first use and kept, is what every refutation
    gate call narrows with: each non-eta E-rule as a :class:`NarrowingRule`
    with its compiled step, filed under its left side's root in declaration
    order, and the size of the block of fresh names one basic position
    reserves, which the rules' offsets tile in declaration order.
    """

    def __init__(self, rules: Iterable[RewriteRule] = ()):
        self.rules: tuple[RewriteRule, ...] = tuple(rules)
        self.var_names = frozenset().union(*(r.var_names for r in self.rules))
        self.e_rules: tuple[RewriteRule, ...] = tuple(r for r in self.rules if r.cls == E_CLASS)
        self.r_rules: tuple[RewriteRule, ...] = tuple(r for r in self.rules if r.cls == R_CLASS)
        self.e_index = _index(self.e_rules, lambda r: r.lhs.sym.name)
        self.r_index = _index(self.r_rules, lambda r: r.lhs.pred.name)
        self.e_dispatch: dict[str, Callable[[App], tuple | None] | None] = {}
        self.r_dispatch: dict[str, Callable[[Atom], tuple | None] | None] = {}
        self.reach = _reach(self.e_rules)

    def e_dispatcher(self, root: str) -> Callable[[App], tuple | None] | None:
        """The dispatcher of the E-rules of ``root``, built and filed in
        ``e_dispatch`` if it is not there yet."""
        return _filed(self.e_dispatch, self.e_index, root, self)

    def r_dispatcher(self, pred: str) -> Callable[[Atom], tuple | None] | None:
        """The dispatcher of the R-rules of ``pred``, built and filed in
        ``r_dispatch`` if it is not there yet."""
        return _filed(self.r_dispatch, self.r_index, pred, self)

    @cached_property
    def narrowing(self) -> tuple[dict[str, tuple[NarrowingRule, ...]], int]:
        """The gate's rules, each with its step compiled now, filed by the
        root of the left side, and the size of a position's block."""
        from .unify import compile_narrowing_step  # unify imports this module
        prepared: list[NarrowingRule] = []
        block = 0
        for r in self.e_rules:
            if not isinstance(r, EtaRule):
                variables = tuple((v.name, v.sort)
                                  for v in sorted(term_vars(r.lhs), key=lambda v: v.name))
                step = compile_narrowing_step(r.lhs, r.rhs, variables)
                prepared.append(NarrowingRule(r.lhs, r.rhs, variables, block, step))
                block += len(variables)
        return _index(prepared, lambda r: r.lhs.sym.name), block

    def extend(self, rules: Iterable[RewriteRule]) -> "RewriteSystem":
        return RewriteSystem(self.rules + tuple(rules))

    @cached_property
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
    stack: list[tuple] = [(pattern, subject)]
    if isinstance(pattern, Atom):
        if pattern.pred.name != subject.pred.name or len(pattern.args) != len(subject.args):
            return None
        stack = list(zip(pattern.args, subject.args))
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


def _constants(namespace: dict[str, object]) -> Callable[[object], str]:
    """A function that files a value in ``namespace``, the globals of a
    generated function, under a fresh name ``k<n>`` and returns the name."""
    def const(value: object) -> str:
        name = f"k{len(namespace)}"
        namespace[name] = value
        return name
    return const


def _compile(rule: RewriteRule) -> Callable[[App | Atom], Term | Prop | None]:
    """The contraction of a non-eta ``rule`` as one function generated from
    its two sides, carrying the rule's name as ``rule_name``.

    The function takes a node whose root and argument heads the root's
    dispatcher found to fit the left side, matches the rest as
    :func:`match` does (names, arities, the sorts of bound terms, repeated
    variables) and returns the contractum or None: an E-rule's built as
    :func:`subst_term` builds it, an R-rule's by :func:`subst_prop`, which
    avoids capture.  Symbols, names, sorts and ground subterms are constants
    of its namespace and its locals are numbered, so no text of the rule
    reaches the source; each node is one statement, so a deep rule compiles
    too.
    """
    namespace: dict[str, object] = {"App": App, "Var": Var, "subst_prop": subst_prop}
    const = _constants(namespace)

    lines: list[str] = []
    after: list[str] = []  # the tests of the variables, once the shape fits
    bound: dict[str, str] = {}  # variable name -> the local it is bound to
    todo: list[tuple[str, Term | Atom, int]] = [("t", rule.lhs, 0)]
    for s, p, depth in todo:  # breadth first, as the loop appends
        if type(p) is Var:
            if p.name in bound:
                after.append(f"if {s} != {bound[p.name]}: return None")
            else:
                bound[p.name], sort = s, const(p.sort)
                after += [f"r = {s}.sort if type({s}) is Var else {s}.sym.result",
                          f"if r is not {sort} and r != {sort}: return None"]
            continue
        n = len(p.args)
        if depth > 1:  # the dispatcher checked the heads of the root and its arguments
            lines.append(f"if type({s}) is not App or {s}.sym.name != {const(p.sym.name)} "
                         f"or len({s}.args) != {n}: return None")
        elif depth:
            lines.append(f"if len({s}.args) != {n}: return None")
        if n:
            below = [f"s{len(todo) + i}" for i in range(n)]
            lines.append(f"{', '.join(below)}, = {s}.args")
            todo += [(b, q, depth + 1) for b, q in zip(below, p.args)]
    lines += after
    if rule.cls == R_CLASS:
        mapping = ", ".join(f"{const(name)}: {s}" for name, s in bound.items())
        lines.append(f"return subst_prop({const(rule.rhs)}, {{{mapping}}})")
    else:
        value = _build(rule.rhs, bound, const, lines)
        lines.append(f"return {value}")
    exec("def contract(t):\n" + "".join(f"    {line}\n" for line in lines), namespace)
    contract = namespace["contract"]
    contract.rule_name = rule.name
    return contract


def _build(t: Term, bound: Mapping[str, str], const: Callable[[object], str],
           lines: list[str], indent: str = "") -> str:
    """Generated code that builds ``t`` with each variable replaced by the
    local ``bound`` names for it: statements appended to ``lines`` at
    ``indent``, bottom up, one per node above a variable, which gets a local
    ``c<n>``; a ground subterm is a constant.  Returns the expression."""
    order, stack = [], [t]
    while stack:
        order.append(stack.pop())
        stack += order[-1].args if type(order[-1]) is App else ()
    local: dict[int, str | None] = dict.fromkeys(map(id, order))
    for x in reversed(order):
        if type(x) is Var:
            local[id(x)] = bound[x.name]
        elif any(local[id(a)] for a in x.args):
            args = "".join(f"{local[id(a)] or const(a)}, " for a in x.args)
            local[id(x)] = f"c{len(lines)}"
            lines.append(f"{indent}c{len(lines)} = App({const(x.sym)}, ({args}))")
    return local[id(t)] or const(t)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizeOutcome:
    """Result of fuel-bounded normalization.

    ``normal`` tells whether ``value`` admits no further redex; when the fuel
    ran out first, ``value`` is the last reduct reached.
    """

    normal: bool
    value: Term | Prop
    steps: int

    def __bool__(self) -> bool:
        return self.normal


def normalize(x: Term | Prop, system: RewriteSystem, fuel: int = 10_000) -> NormalizeOutcome:
    """Contract at most ``fuel`` redexes, leftmost-outermost, calling at
    each node the system's dispatcher of its root; a system without rules
    gives back ``x`` itself."""
    if fuel < 1:
        raise ValueError("fuel must be positive")
    if not system.rules:
        return NormalizeOutcome(True, x, 0)
    run = _Normalizer(system, fuel)
    value = run.normalize(x)
    return NormalizeOutcome(not run.blocked, value, fuel - run.fuel)


def reduce_once(x: Term | Prop, system: RewriteSystem) -> tuple[Term | Prop, str] | None:
    """Rewrite the leftmost-outermost redex of ``x``: :func:`normalize` with
    one unit of fuel.  R-rules fire at atom positions of propositions,
    E-rules inside terms.  Returns ``(reduct, rule name)`` or None when
    ``x`` is normal."""
    run = _Normalizer(system, 1)
    value = run.normalize(x)
    return None if run.fuel else (value, run.fired.rule_name)


def _set_child(frame: list, new) -> None:
    """Replace the current child of a walk frame ``[head, children, index,
    node]``; the frame's node is rebuilt when the walk leaves it."""
    children = frame[1]
    if type(children) is tuple:
        children = frame[1] = list(children)
    children[frame[2]] = new
    frame[3] = None


def _close(stack: list, depth: int) -> None:
    """Leave the term frames below ``depth``, rebuilding changed nodes."""
    while len(stack) > depth:
        frame = stack.pop()
        if frame[3] is None:
            _set_child(stack[-1], App(frame[0], frame[1]))


class _Normalizer:
    """One leftmost-outermost :func:`normalize` call: the fuel left and the
    subterms known to hold no redex.  ``blocked`` is set when a redex is
    found after the fuel ran out; ``fired`` is the contractor of the last
    contraction."""

    def __init__(self, system: RewriteSystem, fuel: int):
        self.system = system
        self.fuel = fuel
        self.blocked = False
        self.known: set[Term] = set()
        self.fired: Callable | None = None

    def normalize(self, x: Term | Prop) -> Term | Prop:
        """Normalize the term or proposition ``x``."""
        if is_term(x):
            terms = [x]
            self.terms(terms)
            return terms[0]
        return self.prop(x)

    def terms(self, terms: list[Term], once: bool = False) -> None:
        """Contract the redexes of ``terms``, left to right, in place; with
        ``once``, stop after the first contraction."""
        dispatchers, build = self.system.e_dispatch, self.system.e_dispatcher
        known = self.known
        reach = self.system.reach
        # frames [symbol, children, next child, node or None once changed];
        # the bottom frame holds ``terms`` and is never a redex
        stack: list[list] = [[None, terms, 0, None]]
        while True:
            frame = stack[-1]
            children, i = frame[1], frame[2]
            if i == len(children):
                if len(stack) == 1:
                    return
                stack.pop()
                node = frame[3]
                if node is None:
                    node = App(frame[0], children)
                    _set_child(stack[-1], node)
                known.add(node)
                stack[-1][2] += 1
                continue
            t = children[i]
            if isinstance(t, Var) or t in known:
                frame[2] = i + 1
                continue
            try:
                dispatch = dispatchers[t.sym.name]
            except KeyError:
                dispatch = build(t.sym.name)
            found = dispatch(t) if dispatch else None
            if found is None:
                if t.args:
                    stack.append([t.sym, t.args, 0, t])
                else:
                    frame[2] = i + 1
                continue
            if not self.fuel:
                self.blocked = True
                _close(stack, 1)
                return
            self.fuel -= 1
            new, self.fired = found
            _set_child(frame, new)
            if once:
                _close(stack, 1)
                return
            # the walk goes on from the node ``reach`` levels above the
            # contraction, which is tried again
            _close(stack, max(1, len(stack) - reach))

    def atom(self, a: Atom) -> tuple[Prop, bool]:
        """Normalize inside ``a``: ``(value, True)``, or the contractum of an
        R-rule at ``a`` and False."""
        system = self.system
        try:
            dispatch = system.r_dispatch[a.pred.name]
        except KeyError:
            dispatch = system.r_dispatcher(a.pred.name)
        while True:
            found = dispatch(a) if dispatch else None
            if found is not None:
                if not self.fuel:
                    self.blocked = True
                    return a, True
                self.fuel -= 1
                new, self.fired = found
                return new, False
            if not (a.args and system.e_index):
                return a, True
            args = list(a.args)
            fuel = self.fuel
            self.terms(args, once=dispatch is not None)
            if self.fuel != fuel:
                a = Atom(a.pred, args)
            if self.fuel == fuel or dispatch is None:
                return a, True

    def prop(self, p: Prop) -> Prop:
        """Normalize the atoms of ``p`` in pre-order."""
        # frames [connective, children, next child, connective or None once
        # changed], as in :meth:`terms`; the bottom frame holds ``p``
        stack: list[list] = [[None, [p], 0, None]]
        while True:
            frame = stack[-1]
            children, i = frame[1], frame[2]
            if i == len(children) or self.blocked:
                if len(stack) == 1:
                    return children[0]
                stack.pop()
                if frame[3] is None:
                    _set_child(stack[-1], with_children(frame[0], tuple(children)))
                stack[-1][2] += 1
                continue
            x = children[i]
            if isinstance(x, Atom):
                new, done = self.atom(x)
                if new is not x:
                    _set_child(frame, new)
                frame[2] = i + done
            elif isinstance(x, (Top, Bottom)):
                frame[2] = i + 1
            else:
                stack.append([x, children_of(x), 0, x])
