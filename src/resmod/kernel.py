"""Many-sorted first-order kernel.

Sorts, symbols, signatures, terms, propositions and substitutions.  All
values are immutable and hashable; every operation is a pure function, so
values can be shared freely (including across threads).

Binder handling: quantifiers rename their bound variable to a canonical
``_k`` name on construction.  Alpha-equivalent propositions are therefore
structurally equal, and ``==`` / ``hash`` decide alpha-equivalence.  The
source name of the binder is kept as a display hint only; it takes no part
in equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Collection, Iterable, Iterator, Mapping, Union


class KernelError(Exception):
    """Base class for kernel errors."""


class UnknownSymbolError(KernelError):
    pass


class UnknownSortError(KernelError):
    pass


class RankMismatchError(KernelError):
    pass


class SortMismatchError(KernelError):
    pass


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseSort:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrowSort:
    """Function-space sort ``domain -> codomain`` (right associative)."""

    domain: "Sort"
    codomain: "Sort"

    def __str__(self) -> str:
        dom = f"({self.domain})" if isinstance(self.domain, ArrowSort) else str(self.domain)
        return f"{dom} -> {self.codomain}"


Sort = Union[BaseSort, ArrowSort]


def arrow(*sorts: Sort) -> Sort:
    """Build ``s1 -> s2 -> ... -> sn`` (right associated)."""
    if not sorts:
        raise ValueError("arrow needs at least one sort")
    out = sorts[-1]
    for s in reversed(sorts[:-1]):
        out = ArrowSort(s, out)
    return out


def base_sorts_of(sort: Sort) -> Iterator[BaseSort]:
    """All base-sort leaves of a sort tree."""
    if isinstance(sort, BaseSort):
        yield sort
    else:
        yield from base_sorts_of(sort.domain)
        yield from base_sorts_of(sort.codomain)


# ---------------------------------------------------------------------------
# Symbols and signatures
# ---------------------------------------------------------------------------

INDIVIDUAL = "individual"
FUNCTION = "function"
PREDICATE = "predicate"


@dataclass(frozen=True)
class Symbol:
    """A declared symbol.

    ``individual``: zero arguments, carries its own sort in ``result``.
    ``function``:   rank ``arg_sorts -> result``.
    ``predicate``:  rank ``arg_sorts`` (``result`` is None).

    ``display`` only affects printing and is ignored by equality:
    ``prefix`` (default), ``infix``, ``app`` (application spine), ``sub``
    (postfix ``a[s]``), ``cons`` / ``comp`` (explicit-substitution infixes),
    ``brace`` (set-pair braces).
    """

    name: str
    kind: str
    arg_sorts: tuple[Sort, ...] = ()
    result: Sort | None = None
    origin: str = "user"
    display: str = field(default="prefix", compare=False)

    def __post_init__(self) -> None:
        if self.kind == INDIVIDUAL and (self.arg_sorts or self.result is None):
            raise ValueError(f"individual symbol {self.name} must have a sort and no arguments")
        if self.kind == FUNCTION and self.result is None:
            raise ValueError(f"function symbol {self.name} needs a result sort")
        if self.kind == PREDICATE and self.result is not None:
            raise ValueError(f"predicate symbol {self.name} must not have a result sort")
        if self.kind not in (INDIVIDUAL, FUNCTION, PREDICATE):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.name.startswith("?"):
            # keeps symbol names apart from ``?n``, the names of canonically numbered variables
            raise ValueError(f"symbol name {self.name!r} must not start with '?'")

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __str__(self) -> str:
        return self.name


class Signature:
    """Mutable symbol table.  Extension must be serialized by the caller."""

    def __init__(self) -> None:
        self.sorts: dict[str, BaseSort] = {}
        self.symbols: dict[str, Symbol] = {}
        self.default_sort: BaseSort | None = None
        # Optional hook mapping an integer literal to a term.
        self.numeral = None
        # for each base of fresh_name, an index below which every name is
        # taken; symbols are never removed, so it only grows
        self._next_index: dict[str, int] = {}

    @property
    def app_symbols(self) -> tuple[str, ...]:
        """Names of the binary symbols that form application spines, those
        displayed ``app`` and then those displayed ``sub``; the head of a
        spine decides flexibility during narrowing."""
        symbols = self.symbols.values()
        return (tuple(s.name for s in symbols if s.display == "app")
                + tuple(s.name for s in symbols if s.display == "sub"))

    def declare_sort(self, name: str) -> BaseSort:
        if name in self.sorts:
            return self.sorts[name]
        s = BaseSort(name)
        self.sorts[name] = s
        if self.default_sort is None:
            self.default_sort = s
        return s

    def _check_sort(self, sort: Sort) -> None:
        for leaf in base_sorts_of(sort):
            if leaf.name not in self.sorts:
                raise UnknownSortError(f"sort {leaf.name} is not declared")

    def declare(self, sym: Symbol) -> Symbol:
        if sym.name in self.symbols:
            if self.symbols[sym.name] == sym:
                return self.symbols[sym.name]
            raise KernelError(f"symbol {sym.name} already declared with a different rank")
        for s in sym.arg_sorts:
            self._check_sort(s)
        if sym.result is not None:
            self._check_sort(sym.result)
        self.symbols[sym.name] = sym
        return sym

    def individual(self, name: str, sort: Sort, *, origin: str = "user",
                   display: str = "prefix") -> Symbol:
        return self.declare(Symbol(name, INDIVIDUAL, (), sort, origin, display))

    def function(self, name: str, arg_sorts: Iterable[Sort], result: Sort, *,
                 origin: str = "user", display: str = "prefix") -> Symbol:
        return self.declare(Symbol(name, FUNCTION, tuple(arg_sorts), result, origin, display))

    def predicate(self, name: str, arg_sorts: Iterable[Sort], *,
                  origin: str = "user", display: str = "prefix") -> Symbol:
        return self.declare(Symbol(name, PREDICATE, tuple(arg_sorts), None, origin, display))

    def lookup(self, name: str) -> Symbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise UnknownSymbolError(f"symbol {name} is not declared") from None

    def fresh_name(self, base: str, avoid: Collection[str] = ()) -> str:
        """The first of ``base``, ``base1``, ``base2``, ... neither declared
        nor in ``avoid``."""
        if base not in self.symbols and base not in avoid:
            return base
        i = self._next_index.get(base, 1)
        while f"{base}{i}" in self.symbols:
            i += 1
        self._next_index[base] = i
        while f"{base}{i}" in self.symbols or f"{base}{i}" in avoid:
            i += 1
        return f"{base}{i}"

    def copy(self) -> "Signature":
        out = Signature()
        out.sorts = dict(self.sorts)
        out.symbols = dict(self.symbols)
        out.default_sort = self.default_sort
        out.numeral = self.numeral
        out._next_index = dict(self._next_index)
        return out


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Var:
    __slots__ = ("name", "sort", "_hash")

    def __init__(self, name: str, sort: Sort):
        self.name = name
        self.sort = sort
        self._hash = hash((0x7A1, name, sort))

    def __eq__(self, other: object) -> bool:
        return (
            self is other
            or (isinstance(other, Var) and self.name == other.name and self.sort == other.sort)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name


class App:
    """Application of an individual/function symbol to argument terms."""

    __slots__ = ("sym", "args", "_hash")

    def __init__(self, sym: Symbol, args: Iterable["Term"] = ()):
        self.sym = sym
        self.args = tuple(args)
        self._hash = hash((0x4F2, sym.name, self.args))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, App) or self._hash != other._hash:
            return False
        # an explicit stack, so that deep terms compare without recursion
        stack: list[tuple[Term, Term]] = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, Var) or isinstance(b, Var):
                if a != b:
                    return False
            elif (a._hash != b._hash or a.sym.name != b.sym.name
                  or len(a.args) != len(b.args)):
                return False
            else:
                stack.extend(zip(a.args, b.args))
        return True

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"App({format_term(self)!r})"

    def __str__(self) -> str:
        return format_term(self)


Term = Union[Var, App]


def is_term(x: object) -> bool:
    return isinstance(x, (Var, App))


def term_sort(t: Term) -> Sort:
    """Sort of a term, trusting the symbols it is built from."""
    if isinstance(t, Var):
        return t.sort
    if t.sym.kind == PREDICATE:
        raise RankMismatchError(f"predicate {t.sym.name} used in term position")
    assert t.sym.result is not None
    return t.sym.result


def term_vars(t: Term, acc: set[Var] | None = None) -> set[Var]:
    if acc is None:
        acc = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            acc.add(x)
        else:
            stack.extend(x.args)
    return acc


def term_var_names(t: Term) -> frozenset[str]:
    return frozenset(v.name for v in term_vars(t))


def term_size(t: Term) -> int:
    size = 0
    stack = [t]
    while stack:
        x = stack.pop()
        size += 1
        if isinstance(x, App):
            stack.extend(x.args)
    return size


def subst_term(t: Term, m: Mapping[str, Term]) -> Term:
    if not m:
        return t
    if isinstance(t, Var):
        return m.get(t.name, t)
    # frames [node, its new arguments so far]; an unchanged node is kept
    stack: list[list] = [[t, []]]
    while True:
        node, done = stack[-1]
        args = node.args
        if len(done) < len(args):
            a = args[len(done)]
            if isinstance(a, Var):
                done.append(m.get(a.name, a))
            elif a.args:
                stack.append([a, []])
            else:
                done.append(a)
            continue
        stack.pop()
        done = tuple(done)
        new = node if done == args else App(node.sym, done)
        if not stack:
            return new
        stack[-1][1].append(new)


# ---------------------------------------------------------------------------
# Propositions
# ---------------------------------------------------------------------------


class Prop:
    __slots__ = ("_hash", "_free")

    def __eq__(self, other: object) -> bool:
        # an explicit stack, so that deep propositions compare without
        # recursion
        stack: list[tuple] = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            if isinstance(a, Atom):
                if a != b:
                    return False
            elif isinstance(a, _Quant):
                # a binder's canonical name depends on whether it binds anything
                if a.var != b.var:
                    return False
                stack.append((a.body, b.body))
            else:
                stack += zip(children(a), children(b))
        return True

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_term(self)!r})"

    def __str__(self) -> str:
        return format_term(self)


class Atom(Prop):
    __slots__ = ("pred", "args")

    def __init__(self, pred: Symbol, args: Iterable[Term] = ()):
        if pred.kind != PREDICATE:
            raise RankMismatchError(f"{pred.name} is not a predicate symbol")
        self.pred = pred
        self.args = tuple(args)
        self._hash = hash((0xA70, pred.name, self.args))
        free: frozenset[str] = frozenset()
        for a in self.args:
            free |= term_var_names(a)
        self._free = free

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Atom)
            and self._hash == other._hash
            and self.pred.name == other.pred.name
            and self.args == other.args
        )

    __hash__ = Prop.__hash__


class Top(Prop):
    __slots__ = ()

    def __init__(self) -> None:
        self._hash = hash("top")
        self._free = frozenset()


class Bottom(Prop):
    __slots__ = ()

    def __init__(self) -> None:
        self._hash = hash("bot")
        self._free = frozenset()


class Not(Prop):
    __slots__ = ("body",)

    def __init__(self, body: Prop):
        self.body = body
        self._hash = hash((0x907, body._hash))
        self._free = body._free


class _Binary(Prop):
    __slots__ = ("left", "right")
    _tag = ""

    def __init__(self, left: Prop, right: Prop):
        self.left = left
        self.right = right
        self._hash = hash((self._tag, left._hash, right._hash))
        self._free = left._free | right._free


class And(_Binary):
    __slots__ = ()
    _tag = "and"


class Or(_Binary):
    __slots__ = ()
    _tag = "or"


class Implies(_Binary):
    __slots__ = ()
    _tag = "implies"


class Iff(_Binary):
    __slots__ = ()
    _tag = "iff"


def _canonical_binder(var: Var, body: Prop) -> tuple[Var, Prop]:
    """Rename ``var`` in ``body`` to the first free ``_k`` name."""
    outer_free = body._free - {var.name}
    k = 0
    while f"_{k}" in outer_free:
        k += 1
    cname = f"_{k}"
    if cname == var.name:
        return var, body
    nv = Var(cname, var.sort)
    return nv, subst_prop(body, {var.name: nv})


class _Quant(Prop):
    __slots__ = ("var", "body", "hint")
    _tag = ""

    def __init__(self, var: Var, body: Prop, hint: str | None = None):
        self.hint = hint if hint is not None else var.name
        var, body = _canonical_binder(var, body)
        self.var = var
        self.body = body
        self._hash = hash((self._tag, var.sort, body._hash))
        self._free = body._free - {var.name}


class Forall(_Quant):
    __slots__ = ()
    _tag = "forall"


class Exists(_Quant):
    __slots__ = ()
    _tag = "exists"


def free_names(x: Term | Prop) -> frozenset[str]:
    if isinstance(x, Prop):
        return x._free
    return term_var_names(x)


def free_vars(x: Term | Prop) -> frozenset[Var]:
    """Free variables of a term or proposition."""
    if not isinstance(x, Prop):
        return frozenset(term_vars(x))
    if not x._free:
        return frozenset()  # a proposition caches its free names
    out: set[Var] = set()
    if isinstance(x, Atom):  # the common case, kept direct
        for a in x.args:
            term_vars(a, out)
        return frozenset(out)
    # pairs (subformula, the names bound around it) that have free names
    stack: list[tuple[Prop, frozenset[str]]] = [(x, frozenset())]
    while stack:
        p, bound = stack.pop()
        if isinstance(p, Atom):
            for a in p.args:
                out.update(v for v in term_vars(a) if v.name not in bound)
        elif isinstance(p, _Quant):
            stack.append((p.body, bound | {p.var.name}))
        else:
            stack.extend((q, bound) for q in children(p) if q._free)
    return frozenset(out)


def subst_prop(p: Prop, m: Mapping[str, Term]) -> Prop:
    """Capture-avoiding substitution into a proposition."""
    if not m or not (p._free & m.keys()):
        return p
    if isinstance(p, Atom):
        return Atom(p.pred, tuple(subst_term(a, m) for a in p.args))
    # frames [node, its mapping, its new children so far, its bound variable]
    stack: list[list] = [_subst_frame(p, m)]
    while True:
        node, m, done, var = stack[-1]
        kids = children(node)
        if len(done) < len(kids):
            x = kids[len(done)]
            if not (x._free & m.keys()):
                done.append(x)
            elif isinstance(x, Atom):
                done.append(Atom(x.pred, tuple(subst_term(a, m) for a in x.args)))
            else:
                stack.append(_subst_frame(x, m))
            continue
        stack.pop()
        new = (type(node)(var, done[0], node.hint) if isinstance(node, _Quant)
               else with_children(node, tuple(done)))
        if not stack:
            return new
        stack[-1][2].append(new)


def _subst_frame(q: Prop, m: Mapping[str, Term]) -> list:
    """The frame of :func:`subst_prop` for ``m`` applied to ``q``.  Under a
    quantifier the mapping keeps the names free in ``q``, and gives the
    bound variable a fresh name when a substituted term mentions it."""
    if not isinstance(q, _Quant):
        return [q, m, [], None]
    relevant = {k: v for k, v in m.items() if k in q._free}
    var = q.var
    range_names: set[str] = set()
    for t in relevant.values():
        range_names |= term_var_names(t)
    if var.name in range_names:
        # the constructor re-canonicalizes whatever name is picked here
        i = 0
        while f"_r{i}" in range_names or f"_r{i}" in q.body._free:
            i += 1
        relevant[var.name] = var = Var(f"_r{i}", var.sort)
    return [q, relevant, [], var]


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------


class Substitution:
    """Idempotent, sort-preserving map from variables to terms."""

    __slots__ = ("map",)

    def __init__(self, bindings: Mapping[str, Term] | None = None):
        m: dict[str, Term] = {}
        for k, v in (bindings or {}).items():
            if isinstance(v, Var) and v.name == k:
                continue
            m[k] = v
        for v in m.values():
            if term_var_names(v) & m.keys():
                raise ValueError("substitution is not idempotent")
        self.map = m

    @classmethod
    def resolved(cls, m: dict[str, Term]) -> "Substitution":
        """``m`` unchecked: ``unify.resolve``'s maps are already idempotent."""
        out = object.__new__(cls)
        out.map = m
        return out

    def __call__(self, x):
        if isinstance(x, (Var, App)):
            return subst_term(x, self.map)
        if isinstance(x, Prop):
            return subst_prop(x, self.map)
        # clause-like objects know how to apply a substitution to themselves
        apply = getattr(x, "apply", None)
        if apply is not None:
            return apply(self)
        raise TypeError(f"cannot apply substitution to {x!r}")

    def get(self, name: str) -> Term | None:
        return self.map.get(name)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.map)

    def is_empty(self) -> bool:
        return not self.map

    def restrict(self, names: Iterable[str]) -> "Substitution":
        keep = set(names)
        return Substitution({k: v for k, v in self.map.items() if k in keep})

    def compose(self, other: "Substitution") -> "Substitution":
        """``self`` then ``other``: (self;other)(x) = other(self(x))."""
        m: dict[str, Term] = {}
        for k, v in self.map.items():
            w = subst_term(v, other.map)
            if not (isinstance(w, Var) and w.name == k):
                m[k] = w
        for k, v in other.map.items():
            if k not in self.map:
                m[k] = v
        return Substitution(m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self.map == other.map

    def __hash__(self) -> int:
        return hash(frozenset(self.map.items()))

    def __len__(self) -> int:
        return len(self.map)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k} := {v}" for k, v in sorted(self.map.items()))
        return "{" + inner + "}"


EMPTY_SUBST = Substitution()


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def _no_children(x) -> tuple:
    return ()


def _body(x) -> tuple:
    return (x.body,)


def _itself(x, new: tuple):
    return x


# by the exact class of a node: its children, and the node rebuilt with new
# children, one entry per concrete class
_CHILDREN = {
    Var: _no_children, App: attrgetter("args"), Atom: attrgetter("args"),
    Top: _no_children, Bottom: _no_children, Not: _body,
    **dict.fromkeys((And, Or, Implies, Iff), attrgetter("left", "right")),
    Forall: _body, Exists: _body,
}
_WITH_CHILDREN = {
    Var: _itself, App: lambda x, new: App(x.sym, new), Atom: lambda x, new: Atom(x.pred, new),
    Top: _itself, Bottom: _itself, Not: lambda x, new: Not(new[0]),
    **dict.fromkeys((And, Or, Implies, Iff), lambda x, new: type(x)(new[0], new[1])),
    **dict.fromkeys((Forall, Exists), lambda x, new: type(x)(x.var, new[0], x.hint)),
}


def children(x: Term | Prop) -> tuple:
    get = _CHILDREN.get(type(x))
    if get is None:
        raise TypeError(f"no children for {x!r}")
    return get(x)


def with_children(x: Term | Prop, new: tuple):
    """``x`` with its children replaced by ``new``; a leaf is itself."""
    build = _WITH_CHILDREN.get(type(x))
    if build is None:
        raise TypeError(f"cannot rebuild {x!r}")
    return build(x, new)


# ---------------------------------------------------------------------------
# Renaming apart
# ---------------------------------------------------------------------------


def variant_name(base: str, avoid: set[str] | frozenset[str]) -> str:
    """First of base', base'', ... not in ``avoid``."""
    name = base + "'"
    while name in avoid:
        name += "'"
    return name


def renaming_apart(avoid: Iterable[str], free: Collection[Var]) -> Substitution | None:
    """The renaming :func:`rename_apart` applies: each variable of ``free``
    whose name is in ``avoid``, in name order, to the first of its variant
    names (:func:`variant_name`) that neither ``avoid`` nor ``free`` nor an
    earlier one of them takes; None when no name clashes."""
    avoid_set = set(avoid)
    clashes = [v for v in sorted(free, key=lambda v: v.name) if v.name in avoid_set]
    if not clashes:
        return None
    taken = avoid_set | {v.name for v in free}
    mapping: dict[str, Term] = {}
    for v in clashes:
        fresh = variant_name(v.name, taken)
        taken.add(fresh)
        mapping[v.name] = Var(fresh, v.sort)
    return Substitution(mapping)


def rename_apart(avoid: Iterable[str], x):
    """Rename the free variables of ``x`` (a term, a proposition, or a
    clause-like object with a ``free_vars`` method) that clash with
    ``avoid``, by :func:`renaming_apart`.  Returns ``(renamed, substitution)``,
    ``renamed`` a variant of ``x`` that shares no free variable name with ``avoid``."""
    s = renaming_apart(avoid, free_vars(x) if isinstance(x, (Var, App, Prop)) else x.free_vars())
    return (x, EMPTY_SUBST) if s is None else (s(x), s)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# The binary term operators, read by the printer and the parser: precedence,
# right associativity, and the displays printed as a token, not by name.
_INFIX_TERM_PREC = {".": 5, "@": 7, "+": 10, "*": 20}
_RIGHT_ASSOC = frozenset({".", "@"})
_OPERATOR_DISPLAY = {".": "cons", "@": "comp"}
_DISPLAY_OPERATOR = {display: op for op, display in _OPERATOR_DISPLAY.items()}


def format_term(x: Term | Prop, env: Mapping[str, str] | None = None, prec: int = 0) -> str:
    """The text of a term or a proposition, laid out without recursion.
    ``env`` maps variable names to the names printed for them, and ``prec``
    is the precedence of the context ``x`` stands in.

    A run of one-argument applications of prefix symbols, such as a numeral
    ``S(S(...0))``, prints in one step: ``name(`` for each level, joined
    into one string on the way down, then the run's foot (any other node)
    at precedence 0, then one string of as many closing parentheses.  Every
    other node is laid out one at a time."""
    out: list[str] = []
    # strings, (term or proposition, precedence) pairs, and the env to
    # return to after a quantifier's body
    stack: list = [(x, prec)]
    root, shadowing = x, None
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if isinstance(item, dict):
            env = item
            continue
        x, prec = item
        if isinstance(x, Var):
            out.append(env.get(x.name, x.name) if env else x.name)
        elif isinstance(x, App):
            if not x.args:
                out.append(x.sym.name)
            elif len(x.args) == 1 and x.sym.display == "prefix":
                names = []
                while type(x) is App and len(x.args) == 1 and x.sym.display == "prefix":
                    names.append(x.sym.name)
                    x = x.args[0]
                out += ("(".join(names), "(")
                stack += (")" * len(names), (x, 0))
            else:
                stack.extend(reversed(_term_layout(x, prec)))
        elif isinstance(x, _Quant):
            if shadowing is None:
                shadowing = _binders_over_symbols(root)
            stack.append(dict(env) if env else {})
            parts, env = _quant_layout(x, prec, env, id(x) in shadowing)
            stack.extend(reversed(parts))
        else:
            stack.extend(reversed(_prop_layout(x, prec)))
    return "".join(out)


def _listed(terms: Iterable[Term], sep: str) -> list:
    parts: list = []
    for e in terms:
        parts += (sep, (e, 0))
    return parts[1:]


def _term_layout(t: App, prec: int) -> list:
    """The text of an application as strings and ``(argument, precedence)``
    pairs, in order."""
    sym, args = t.sym, t.args
    display = sym.display
    if display == "app":
        spine = [args[1]]
        head = args[0]
        while isinstance(head, App) and head.sym.name == sym.name:
            spine.append(head.args[1])
            head = head.args[0]
        spine.append(head)
        spine.reverse()
        return ["(", *_listed(spine, " "), ")"]
    if display != "prefix" and len(args) == 2:
        a, b = args
        op = sym.name if display == "infix" else _DISPLAY_OPERATOR.get(display)
        if op is not None:
            my = _INFIX_TERM_PREC.get(op, 15)
            left, right = (my + 1, my) if op in _RIGHT_ASSOC else (my, my + 1)
            return _wrapped([(a, left), f" {op} ", (b, right)], prec > my)
        if display == "sub":
            return [(a, 99), "[", (b, 0), "]"]
        if display == "brace":
            if (isinstance(a, App) and a.sym.name == sym.name
                    and isinstance(b, App) and b.sym.name == sym.name
                    and len(a.args) == 2 and len(b.args) == 2
                    and b.args[0] == b.args[1] == a.args[0]):
                return ["<", (a.args[0], 0), ",", (a.args[1], 0), ">"]
            return ["{", (a, 0), ", ", (b, 0), "}"]
    return [f"{sym.name}(", *_listed(args, ", "), ")"]


def _wrapped(parts: list, paren: bool) -> list:
    return ["(", *parts, ")"] if paren else parts


# The connectives, read by the printer and the parser: each one's token and
# precedence; ``=>`` associates to the right, the others to the left.
_PROP_PREC = {"iff": 1, "implies": 2, "or": 3, "and": 4}
_CONNECTIVE_TOKEN = {"iff": "<=>", "implies": "=>", "or": "\\/", "and": "/\\"}


def _prop_layout(p: Prop, prec: int) -> list:
    """The text of a proposition other than a quantifier as strings and
    ``(subterm or subformula, precedence)`` pairs, in order."""
    if isinstance(p, Atom):
        if p.pred.display == "infix" and len(p.args) == 2:
            return [(p.args[0], 0), f" {p.pred.name} ", (p.args[1], 0)]
        if not p.args:
            return [p.pred.name]
        return [f"{p.pred.name}(", *_listed(p.args, ", "), ")"]
    if isinstance(p, Top):
        return ["top"]
    if isinstance(p, Bottom):
        return ["bot"]
    if isinstance(p, Not):
        return ["~", (p.body, 9)]
    if isinstance(p, _Binary):
        my = _PROP_PREC[p._tag]
        left, right = (my + 1, my) if p._tag == "implies" else (my, my + 1)
        return _wrapped([(p.left, left), f" {_CONNECTIVE_TOKEN[p._tag]} ", (p.right, right)],
                        prec > my)
    raise TypeError(f"not a proposition: {p!r}")


def _binders_over_symbols(x: Term | Prop) -> set[int]:
    """The ids of the quantifiers in ``x`` whose hint names a constant or a
    nullary predicate in their body, which the variable would shadow when
    the text is read back.  One pass: the open quantifiers are kept by hint,
    outermost first, and the marked ones of a hint are always the outermost
    ones, so each symbol marks up to the first one already marked.  A
    one-argument application names no constant, so a run of them is walked
    down at once to its foot."""
    out: set[int] = set()
    open_by_hint: dict[str, list[_Quant]] = {}
    stack: list = [x]
    while stack:
        y = stack.pop()
        if isinstance(y, str):  # the body of the innermost quantifier of hint y ends
            open_by_hint[y].pop()
            continue
        if isinstance(y, _Quant):
            open_by_hint.setdefault(y.hint, []).append(y)
            stack += (y.hint, y.body)
            continue
        if isinstance(y, App):
            while len(y.args) == 1 and isinstance(y.args[0], App):
                y = y.args[0]
        name = (y.sym.name if isinstance(y, App) else y.pred.name
                if isinstance(y, Atom) else None)
        if name is not None and not y.args:
            for q in reversed(open_by_hint.get(name, ())):
                if id(q) in out:
                    break
                out.add(id(q))
        stack += children(y)
    return out


def _quant_layout(p: _Quant, prec: int, env: Mapping[str, str] | None,
                  shadows: bool = False) -> tuple[list, dict]:
    """The text of a quantifier as strings and its ``(body, precedence)``
    pair, and the env its body is printed in.  The variable is renamed when
    its hint is nameless, is printed for a variable free in the body, or,
    with ``shadows``, names a symbol in the body."""
    word = "forall" if isinstance(p, Forall) else "exists"
    display = p.hint
    free = {env.get(n, n) if env else n for n in p.body._free - {p.var.name}}
    if display.startswith("_") or display in free or shadows:
        display = variant_name(p.hint.lstrip("_") or "x", free | {p.hint})
    body_env = dict(env) if env else {}
    body_env[p.var.name] = display
    sort_ann = f":{p.var.sort}" if isinstance(p.var.sort, BaseSort) else f":({p.var.sort})"
    return _wrapped([f"{word} {display}{sort_ann} ", (p.body, 8)],
                    prec > 0), body_env
