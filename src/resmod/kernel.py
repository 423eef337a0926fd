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
from typing import Iterable, Iterator, Mapping, Union


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
    ``brace`` (set-pair braces), ``binder`` (unary prefix without parens).
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
            # keeps symbol names apart from the ``?n`` variables of clause keys
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
        # Names of binary symbols that form application spines; the head of
        # a spine decides flexibility during narrowing and drives display.
        self.app_symbols: tuple[str, ...] = ()
        self.default_sort: BaseSort | None = None
        # Optional hook mapping an integer literal to a term.
        self.numeral = None

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

    def fresh_name(self, base: str) -> str:
        if base not in self.symbols:
            return base
        i = 1
        while f"{base}{i}" in self.symbols:
            i += 1
        return f"{base}{i}"

    def copy(self) -> "Signature":
        out = Signature()
        out.sorts = dict(self.sorts)
        out.symbols = dict(self.symbols)
        out.app_symbols = self.app_symbols
        out.default_sort = self.default_sort
        out.numeral = self.numeral
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
        return f"App({self.sym.name!r}, {self.args!r})"

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


def sort_of(t: Term, sig: Signature) -> Sort:
    """Sort of ``t``, re-checking every symbol against ``sig``.

    Raises UnknownSymbolError for undeclared symbols and RankMismatchError
    when argument counts or argument sorts disagree with a symbol's rank.
    """
    if isinstance(t, Var):
        return t.sort
    sym = sig.symbols.get(t.sym.name)
    if sym is None:
        raise UnknownSymbolError(f"symbol {t.sym.name} is not declared")
    if sym.kind == PREDICATE:
        raise RankMismatchError(f"predicate {sym.name} used in term position")
    if len(t.args) != sym.arity:
        raise RankMismatchError(
            f"{sym.name} expects {sym.arity} arguments, got {len(t.args)}")
    for i, (a, expected) in enumerate(zip(t.args, sym.arg_sorts), start=1):
        actual = sort_of(a, sig)
        if actual != expected:
            raise RankMismatchError(
                f"argument {i} of {sym.name} has sort {actual}, expected {expected}")
    assert sym.result is not None
    return sym.result


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

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_prop(self)


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

    def __repr__(self) -> str:
        return f"Atom({self.pred.name!r}, {self.args!r})"


class Top(Prop):
    __slots__ = ()

    def __init__(self) -> None:
        self._hash = hash("top")
        self._free = frozenset()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Top)

    __hash__ = Prop.__hash__

    def __repr__(self) -> str:
        return "Top()"


class Bottom(Prop):
    __slots__ = ()

    def __init__(self) -> None:
        self._hash = hash("bot")
        self._free = frozenset()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bottom)

    __hash__ = Prop.__hash__

    def __repr__(self) -> str:
        return "Bottom()"


class Not(Prop):
    __slots__ = ("body",)

    def __init__(self, body: Prop):
        self.body = body
        self._hash = hash((0x907, body._hash))
        self._free = body._free

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Not) and self._hash == other._hash and self.body == other.body

    __hash__ = Prop.__hash__

    def __repr__(self) -> str:
        return f"Not({self.body!r})"


class _Binary(Prop):
    __slots__ = ("left", "right")
    _tag = ""

    def __init__(self, left: Prop, right: Prop):
        self.left = left
        self.right = right
        self._hash = hash((self._tag, left._hash, right._hash))
        self._free = left._free | right._free

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            type(other) is type(self)
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    __hash__ = Prop.__hash__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


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

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            type(other) is type(self)
            and self._hash == other._hash
            and self.var.sort == other.var.sort
            and self.body == other.body
        )

    __hash__ = Prop.__hash__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.var!r}, {self.body!r})"


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

    def walk(p: Prop, bound: frozenset[str]) -> None:
        match p:
            case Atom():
                for a in p.args:
                    for v in term_vars(a):
                        if v.name not in bound:
                            out.add(v)
            case Not():
                walk(p.body, bound)
            case _Binary():
                walk(p.left, bound)
                walk(p.right, bound)
            case _Quant():
                walk(p.body, bound | {p.var.name})
            case _:
                pass

    walk(x, frozenset())
    return frozenset(out)


def subst_prop(p: Prop, m: Mapping[str, Term]) -> Prop:
    """Capture-avoiding substitution into a proposition."""
    if not m:
        return p
    match p:
        case Atom():
            if not (p._free & m.keys()):
                return p
            return Atom(p.pred, tuple(subst_term(a, m) for a in p.args))
        case Top() | Bottom():
            return p
        case Not():
            if not (p._free & m.keys()):
                return p
            return Not(subst_prop(p.body, m))
        case _Binary():
            if not (p._free & m.keys()):
                return p
            return type(p)(subst_prop(p.left, m), subst_prop(p.right, m))
        case _Quant():
            relevant = {k: v for k, v in m.items() if k != p.var.name and k in p.body._free}
            if not relevant:
                return p
            var, body = p.var, p.body
            range_names: set[str] = set()
            for t in relevant.values():
                range_names |= term_var_names(t)
            if var.name in range_names:
                # Rename the binder out of the way; the constructor will
                # re-canonicalize whatever name we pick.
                i = 0
                while f"_r{i}" in range_names or f"_r{i}" in body._free:
                    i += 1
                nv = Var(f"_r{i}", var.sort)
                body = subst_prop(body, {var.name: nv})
                var = nv
            return type(p)(var, subst_prop(body, relevant), p.hint)
        case _:
            raise TypeError(f"not a proposition: {p!r}")


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


def children(x: Term | Prop) -> tuple:
    match x:
        case Var():
            return ()
        case App():
            return x.args
        case Atom():
            return x.args
        case Top() | Bottom():
            return ()
        case Not():
            return (x.body,)
        case _Binary():
            return (x.left, x.right)
        case _Quant():
            return (x.body,)
    raise TypeError(f"no children for {x!r}")


def with_children(x: Term | Prop, new: tuple):
    match x:
        case App():
            return App(x.sym, new)
        case Atom():
            return Atom(x.pred, new)
        case Not():
            return Not(new[0])
        case _Binary():
            return type(x)(new[0], new[1])
        case _Quant():
            return type(x)(x.var, new[0], x.hint)
    raise TypeError(f"cannot rebuild {x!r}")


# ---------------------------------------------------------------------------
# Well-sortedness of propositions
# ---------------------------------------------------------------------------


def check_prop(p: Prop, sig: Signature) -> None:
    """Validate every atom of ``p`` against ``sig``; raises on failure."""
    match p:
        case Atom():
            sym = sig.symbols.get(p.pred.name)
            if sym is None:
                raise UnknownSymbolError(f"predicate {p.pred.name} is not declared")
            if sym.kind != PREDICATE:
                raise RankMismatchError(f"{sym.name} is not a predicate")
            if len(p.args) != sym.arity:
                raise RankMismatchError(
                    f"{sym.name} expects {sym.arity} arguments, got {len(p.args)}")
            for i, (a, expected) in enumerate(zip(p.args, sym.arg_sorts), start=1):
                actual = sort_of(a, sig)
                if actual != expected:
                    raise RankMismatchError(
                        f"argument {i} of {sym.name} has sort {actual}, expected {expected}")
        case Top() | Bottom():
            pass
        case Not():
            check_prop(p.body, sig)
        case _Binary():
            check_prop(p.left, sig)
            check_prop(p.right, sig)
        case _Quant():
            sig._check_sort(p.var.sort)
            check_prop(p.body, sig)
        case _:
            raise TypeError(f"not a proposition: {p!r}")


# ---------------------------------------------------------------------------
# Renaming apart
# ---------------------------------------------------------------------------


def variant_name(base: str, avoid: set[str] | frozenset[str]) -> str:
    """First of base', base'', ... not in ``avoid``."""
    name = base + "'"
    while name in avoid:
        name += "'"
    return name


def rename_apart(avoid: Iterable[str], x):
    """Rename the free variables of ``x`` (a term, a proposition, or a
    clause-like object with a ``free_vars`` method) that clash with
    ``avoid``.

    Returns ``(renamed, substitution)``.  The result shares no free variable
    name with ``avoid`` and is a variant of the input.
    """
    avoid_set = set(avoid)
    free = free_vars(x) if isinstance(x, (Var, App, Prop)) else x.free_vars()
    clashes = [v for v in sorted(free, key=lambda v: v.name) if v.name in avoid_set]
    if not clashes:
        return x, EMPTY_SUBST
    taken = avoid_set | {v.name for v in free}
    mapping: dict[str, Term] = {}
    for v in clashes:
        fresh = variant_name(v.name, taken)
        taken.add(fresh)
        mapping[v.name] = Var(fresh, v.sort)
    s = Substitution(mapping)
    return s(x), s


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# The binary term operators, read by the printer and the parser: precedence,
# right associativity, and the displays printed as a token, not by name.
_INFIX_TERM_PREC = {".": 5, "@": 7, "+": 10, "*": 20}
_RIGHT_ASSOC = frozenset({".", "@"})
_OPERATOR_DISPLAY = {".": "cons", "@": "comp"}
_DISPLAY_OPERATOR = {display: op for op, display in _OPERATOR_DISPLAY.items()}


def format_term(t: Term, env: Mapping[str, str] | None = None, prec: int = 0) -> str:
    out: list[str] = []
    stack: list = [(t, prec)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, prec = item
        if isinstance(t, Var):
            out.append(env.get(t.name, t.name) if env else t.name)
        elif not t.args:
            out.append(t.sym.name)
        else:
            stack.extend(reversed(_term_layout(t, prec)))
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


_PROP_PREC = {"iff": 1, "implies": 2, "or": 3, "and": 4}


def format_prop(p: Prop, env: Mapping[str, str] | None = None, prec: int = 0) -> str:
    match p:
        case Atom():
            if p.pred.display == "infix" and len(p.args) == 2:
                return (f"{format_term(p.args[0], env, 0)} {p.pred.name} "
                        f"{format_term(p.args[1], env, 0)}")
            if not p.args:
                return p.pred.name
            return f"{p.pred.name}({', '.join(format_term(a, env, 0) for a in p.args)})"
        case Top():
            return "top"
        case Bottom():
            return "bot"
        case Not():
            return f"~{format_prop(p.body, env, 9)}"
        case And() | Or() | Implies() | Iff():
            my = _PROP_PREC[p._tag]
            op = {"and": "/\\", "or": "\\/", "implies": "=>", "iff": "<=>"}[p._tag]
            if p._tag in ("and", "or"):
                left = format_prop(p.left, env, my)
                right = format_prop(p.right, env, my + 1)
            else:
                left = format_prop(p.left, env, my + 1)
                right = format_prop(p.right, env, my)
            s = f"{left} {op} {right}"
            return f"({s})" if prec > my else s
        case _Quant():
            word = "forall" if isinstance(p, Forall) else "exists"
            display = p.hint
            if display.startswith("_") or display in (p.body._free - {p.var.name}):
                display = variant_name(p.hint.lstrip("_") or "x",
                                       set(p.body._free) | {p.var.name})
            new_env = dict(env) if env else {}
            new_env[p.var.name] = display
            body = format_prop(p.body, new_env, 8)
            sort_ann = f":{p.var.sort}" if isinstance(p.var.sort, BaseSort) else f":({p.var.sort})"
            s = f"{word} {display}{sort_ann} {body}"
            return f"({s})" if prec > 0 else s
    raise TypeError(f"not a proposition: {p!r}")
