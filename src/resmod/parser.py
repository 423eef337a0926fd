"""Concrete text syntax for sorts, terms, propositions, rules, theory
files, constraint/substitution files, and proof traces.

Proposition grammar (quantifiers scope as far right as possible)::

    prop  := imp ('<=>' imp)*
    imp   := or ('=>' imp)?
    or    := and ('\\/' and)*
    and   := neg ('/\\' neg)*
    neg   := '~' neg | 'bot' | 'top' | ('forall'|'exists') x[':' sort] prop
           | '(' prop ')' | atom
    atom  := PRED ['(' term {',' term} ')'] | term INFIXPRED term

Term grammar (sugar is available when the theory declares the matching
symbol)::

    term  := post (OP post)*           OP one of '.' '@' '+' '*'
    post  := prim ('[' term ']')*      explicit substitution
    prim  := NUMBER | IDENT ['(' args ')'] | '(' term term* ')'
           | '<' term ',' term '>' | '{' term ',' term '}'

The operators' and the connectives' precedences and associativity come
from the kernel's tables, which the printer reads too: cons ``.`` and
composition ``@`` associate to the right, ``+`` and ``*`` to the left.
Terms and propositions are read by one loop without recursion, so they
may nest to any depth; what a parenthesis holds, a proposition or a term,
is decided by the tokens read inside it.  Parenthesized juxtaposition
builds a left-nested application spine.  Undeclared identifiers denote
variables; their sorts are inferred from the argument position they
appear in, falling back to the theory's default sort.  Theory files may
also declare predicate and function symbols by use: an undeclared
identifier applied to arguments, or standing alone where a proposition is
needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .kernel import (
    _CONNECTIVE_TOKEN,
    _INFIX_TERM_PREC,
    _OPERATOR_DISPLAY,
    _PROP_PREC,
    _RIGHT_ASSOC,
    App,
    ArrowSort,
    Atom,
    Bottom,
    Exists,
    Forall,
    INDIVIDUAL,
    Iff,
    Implies,
    Not,
    Or,
    And,
    PREDICATE,
    Prop,
    Signature,
    Sort,
    Substitution,
    Symbol,
    Term,
    Top,
    Var,
    term_sort,
)
from .clausal import Constraint, ConstrainedClause, Literal, Provenance
from .prover import FREEZE, ON_THE_FLY, TraceDoc
from .rewrite import EtaRule, RewriteRule, RewriteSystem, RuleClassError
from .theories import TheoryPreset, declare_subset_symbol, load_preset, symbols_in


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" (line {line}, column {col})" if line else ""
        super().__init__(message + where)


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<op><=>|=>|->|:=|\\/|/\\|[()\[\]{}<>,;:.@*+=~|])
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # op | num | ident | eof
    value: str
    line: int
    col: int


def tokenize(text: str, line: int = 1, col: int = 1) -> list[Token]:
    """The tokens of ``text``, placed as if ``text`` began at ``line`` and
    ``col`` of a file."""
    toks: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            toks.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


_KEYWORDS = {"forall", "exists", "bot", "top"}
_TERM_START_OPS = {"(", "<", "{"}
_CLOSING = {"<": ">", "{": "}", "[": "]"}  # an argument list closes with ")"


def _glued_paren(tok: Token, nxt: Token) -> bool:
    """Is ``nxt`` an opening paren glued to ``tok``?  Prefix application
    binds only without intervening space, so spines like ``(P (f x))`` stay
    juxtapositions."""
    return (nxt.kind == "op" and nxt.value == "("
            and nxt.line == tok.line and nxt.col == tok.col + len(tok.value))


class TermParser:
    """Parser over one token stream.  Terms and propositions are read by
    one operator-precedence loop over an explicit stack.  Every
    application is checked against the sorts its symbol declares.

    ``implicit`` switches on declaration by use (theory files only): of
    functions and predicates that appear applied to arguments while
    undeclared, and of nullary predicates.

    A quantifier's variable shadows a symbol of the same name in its body,
    except where the name is applied to an argument list.
    """

    def __init__(self, toks: list[Token], sig: Signature, *,
                 env: dict[str, Sort | None] | None = None,
                 implicit: bool = False):
        self.toks = toks
        self.pos = 0
        self.sig = sig
        self.env: dict[str, Sort | None] = env if env is not None else {}
        self.implicit = implicit
        self.bound: dict[str, int] = {}  # name -> how many open quantifiers bind it

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[min(self.pos, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value in ops

    def expect(self, value: str) -> Token:
        tok = self.next()
        if tok.value != value:
            raise ParseError(f"expected {value!r}, found {tok.value or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    # -- sugar symbol lookups -------------------------------------------------

    def _sugar(self, display: str, tok: Token, what: str) -> Symbol:
        """The symbol displayed as ``display``, for the notation at ``tok``."""
        for sym in self.sig.symbols.values():
            if sym.display == display:
                return sym
        raise ParseError(f"this theory has no {what}", tok.line, tok.col)

    def _app_symbol(self) -> Symbol:
        apps = self.sig.app_symbols
        if apps:
            return self.sig.lookup(apps[0])
        raise self.fail("this theory has no application symbol for juxtaposition")

    # -- sorts ------------------------------------------------------------------

    def parse_sort(self, declare: bool = False) -> Sort:
        left = self._sort_atom(declare)
        if self.at_op("->"):
            self.next()
            return ArrowSort(left, self.parse_sort(declare))
        return left

    def _sort_atom(self, declare: bool) -> Sort:
        if self.at_op("("):
            self.next()
            s = self.parse_sort(declare)
            self.expect(")")
            return s
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected a sort, found {tok.value!r}", tok.line, tok.col)
        if tok.value not in self.sig.sorts:
            if declare:
                return self.sig.declare_sort(tok.value)
            raise ParseError(f"unknown sort {tok.value}", tok.line, tok.col)
        return self.sig.sorts[tok.value]

    # -- variables ------------------------------------------------------------

    def _default_sort(self) -> Sort | None:
        if self.sig.default_sort is None and self.implicit:
            self.sig.declare_sort("i")
        return self.sig.default_sort

    def _var(self, name: str, expected: Sort | None, tok: Token) -> Var:
        known = self.env.get(name, _ABSENT)
        if known is _ABSENT or known is None:
            sort = expected or self._default_sort()
            if sort is None:
                raise ParseError(f"cannot infer a sort for variable {name}", tok.line, tok.col)
            self.env[name] = sort
            return Var(name, sort)
        if expected is not None and known != expected:
            raise ParseError(
                f"variable {name} has sort {known}, but sort {expected} is needed here",
                tok.line, tok.col)
        return Var(name, known)

    # -- terms and propositions -------------------------------------------------

    def parse_term(self, expected: Sort | None = None) -> Term:
        return self._resolve(self._expression(_TERM), expected)

    def parse_term_or_atom(self) -> Term | Atom:
        """A predicate application, an infix atom, or a plain term."""
        x = self._expression(_ATOM)
        if isinstance(x, _Pending) and self.implicit:
            return self._prop(x)  # an undeclared name alone: a predicate, declared by use
        return x if isinstance(x, Atom) else self._resolve(x, None)

    def parse_atom(self) -> Atom:
        x = self.parse_term_or_atom()
        if not isinstance(x, Atom):
            raise self.fail("expected an atomic proposition")
        return x

    def parse_prop(self) -> Prop:
        return self._prop(self._expression(_PROP))

    def _expression(self, level: int) -> Term | Prop | _Pending:
        """One term or proposition, read by top-down operator precedence
        (Pratt, POPL 1973) in one loop over an explicit stack of the
        constructs still open, so any depth parses.  ``level`` says what
        it may be: a term, also an atom, or any proposition.  The token
        after an operand decides what the operand is part of: the symbol
        it ends up under, and so its sort, or a proposition.  An undeclared
        identifier that nothing placed comes back as a :class:`_Pending`."""
        stack = [_Open(None, level=level)]
        while True:
            x = self._operand(stack)
            while x is not None:
                tok, top = self.peek(), stack[-1]
                if tok.kind == "op" and tok.value == "[" and not isinstance(x, Prop):
                    sub = self._sugar("sub", tok, "explicit-substitution symbol for '[...]'")
                    self.next()
                    stack.append(_Open(tok, sub, [self._resolve(x, sub.arg_sorts[0])]))
                    break
                op = self._binary(tok, top.level)
                while top.ops and (op is None or _binds_before(top.ops[-1][3], *op)):
                    x = self._reduce(top.ops.pop(), x)
                # a connective joins propositions, any other operator terms
                if op is not None and not isinstance(
                        x, (Var, App) if op[0] < _NOT_PREC else Prop):
                    top.ops.append(self._left_operand(tok, op[0], x))
                    self.next()
                    break
                while top.ops:  # the construct's last element is complete
                    x = self._reduce(top.ops.pop(), x)
                if top.tok is None:
                    return x
                x = self._element(stack, x)

    def _operand(self, stack: list[_Open]) -> Term | Prop | _Pending | None:
        """The operand that starts here, or None after opening the
        construct, or pushing the negation or quantifier, that starts
        here."""
        tok = self.next()
        top = stack[-1]
        if tok.kind == "num":
            named = self.sig.symbols.get(tok.value)
            if named is not None and named.kind == INDIVIDUAL:
                return App(named)
            if self.sig.numeral is None:
                raise ParseError("this theory has no numeral notation", tok.line, tok.col)
            return self.sig.numeral(int(tok.value))
        if tok.kind == "op" and tok.value in _TERM_START_OPS:
            brace = None if tok.value == "(" else self._sugar("brace", tok, "brace symbol")
            inner = _PROP if tok.value == "(" and top.level == _PROP else _TERM
            stack.append(_Open(tok, brace, level=inner))
            return None
        if top.level == _PROP:
            if tok.value == "~" and tok.kind == "op":
                top.ops.append((None, Not, tok, _NOT_PREC))
                return None
            if tok.kind == "ident" and tok.value in ("forall", "exists"):
                top.ops.append((None, self._binder(tok), tok, _QUANT_PREC))
                return None
            if tok.kind == "ident" and tok.value in ("top", "bot"):
                return Top() if tok.value == "top" else Bottom()
        if tok.kind != "ident" or tok.value in _KEYWORDS:
            raise ParseError(f"expected a term, found {tok.value or 'end of input'!r}",
                             tok.line, tok.col)
        name = tok.value
        applied = _glued_paren(tok, self.peek())
        sym = None if name in self.bound and not applied else self.sig.symbols.get(name)
        if sym is None:
            if not applied:
                return _Pending(tok)
            if not self.implicit:  # only theory files declare by use
                raise ParseError(f"unknown symbol {name}", tok.line, tok.col)
        elif sym.kind == PREDICATE:
            if top.level == _TERM or sym.display == "infix":
                raise ParseError(f"predicate {name} used in term position", tok.line, tok.col)
            if not applied:
                return self._apply(sym, (), tok, Atom)
        elif sym.kind == INDIVIDUAL:
            if applied:
                raise ParseError(f"{name} takes no arguments", tok.line, tok.col)
            return App(sym)
        elif not applied:
            raise ParseError(f"function {name} needs an adjacent argument list",
                             tok.line, tok.col)
        self.next()
        stack.append(_Open(tok, sym))
        if self.at_op(")"):  # an empty argument list
            self.next()
            return self._applied(stack.pop())
        return None

    def _binder(self, tok: Token) -> _Binder:
        """The quantifier at ``tok``, whose variable and optional sort are
        read here; its variable is bound in ``env`` until it is reduced."""
        name = self.next()
        if name.kind != "ident":
            raise ParseError("expected a variable after the quantifier", name.line, name.col)
        ann: Sort | None = None
        if self.at_op(":"):
            self.next()
            ann = self.parse_sort()
        binder = _Binder(Forall if tok.value == "forall" else Exists, name, ann,
                         self.env.get(name.value, _ABSENT))
        self.env[name.value] = ann
        self.bound[name.value] = self.bound.get(name.value, 0) + 1
        return binder

    def _binary(self, tok: Token, level: int) -> tuple[int, bool] | None:
        """The precedence of ``tok`` as a binary operator in a construct of
        ``level``, and whether it associates to the right; None when it is
        not one there."""
        if tok.kind == "op" and tok.value in _INFIX_TERM_PREC:
            return _TERM_PREC + _INFIX_TERM_PREC[tok.value], tok.value in _RIGHT_ASSOC
        if level >= _ATOM and self._infix_pred(tok) is not None:
            return _PRED_PREC, False
        if level == _PROP and tok.kind == "op" and tok.value in _CONNECTIVES:
            conn = _CONNECTIVES[tok.value]
            return _PROP_PREC[conn._tag], conn is Implies
        return None

    def _left_operand(self, tok: Token, prec: int, x) -> tuple:
        """The entry of the binary operator ``tok`` of precedence ``prec``
        with ``x`` placed as its left operand: (left operand, connective or
        symbol, token, precedence)."""
        if prec < _NOT_PREC:
            return self._prop(x), _CONNECTIVES[tok.value], tok, prec
        sym = self._infix_pred(tok) if prec == _PRED_PREC else self._operator(tok)
        return self._resolve(x, sym.arg_sorts[0]), sym, tok, prec

    def _reduce(self, entry: tuple, x) -> Term | Prop:
        """The operator, negation or quantifier ``entry`` applied to its
        last operand ``x``."""
        left, op, tok, _ = entry
        if isinstance(op, Symbol):
            return self._apply(op, (left, x), tok, Atom if op.kind == PREDICATE else App)
        body = self._prop(x)
        if op is Not:
            return Not(body)
        if isinstance(op, _Binder):
            name = op.name.value
            sort = self.env.get(name) or op.ann or self.sig.default_sort
            if sort is None:
                raise ParseError(f"cannot infer a sort for bound variable {name}",
                                 op.name.line, op.name.col)
            if op.saved is _ABSENT:
                self.env.pop(name, None)
            else:
                self.env[name] = op.saved
            self.bound[name] -= 1
            if not self.bound[name]:
                del self.bound[name]
            return op.quant(Var(name, sort), body)
        return op(left, body)

    def _element(self, stack: list[_Open], x) -> Term | Prop | _Pending | None:
        """Take ``x`` as the next element of the innermost open construct,
        and read the separator or the closer after it.  The closed
        construct, or None when another element follows."""
        top = stack[-1]
        if top.tok.value == "(":  # parentheses, or a juxtaposition spine
            if top.items:
                x = self._apply(self._app_symbol(), (top.items.pop(), x), top.tok)
            if not self.at_op(")"):
                if not self._starts_term():
                    self.expect(")")
                top.items.append(self._resolve(x, self._app_symbol().arg_sorts[0]))
                return None
            self.next()
            stack.pop()
            return x
        # an argument list, <a, b>, {a, b} or a [..] suffix: x fills a slot of top.sym
        i, sym = len(top.items), top.sym
        top.items.append(self._resolve(x, sym.arg_sorts[i]
                                       if sym is not None and i < sym.arity else None))
        if self.at_op(",") and top.tok.value != "[":
            self.next()
            return None
        self.expect(_CLOSING.get(top.tok.value, ")"))
        return self._applied(stack.pop())

    def _applied(self, closed: _Open) -> Term | Atom | _Pending:
        """What a closed argument list, pair, set or ``[..]`` suffix stands for."""
        sym, tok = closed.sym, closed.tok
        if sym is None:
            return _Pending(tok, tuple(closed.items))
        if sym.kind == PREDICATE:
            return self._apply(sym, closed.items, tok, Atom)
        t = self._apply(sym, closed.items, tok)
        if tok.value != "<":
            return t
        a = t.args[0]  # the pair <a, b> is {{a, b}, {a, a}}
        return self._apply(sym, (t, self._apply(sym, (a, a), tok)), tok)

    def _resolve(self, x, sort: Sort | None) -> Term:
        """``x`` placed where ``sort`` is needed; None places it anywhere."""
        if not isinstance(x, _Pending):
            if isinstance(x, Prop):
                raise self.fail("expected a term, found a proposition")
            return x
        if x.args is None:
            return self._var(x.tok.value, sort, x.tok)
        fn = self.sig.function(x.tok.value, tuple(term_sort(a) for a in x.args),
                               sort or self._default_sort())
        return App(fn, x.args)

    def _prop(self, x) -> Prop:
        """``x`` placed where a proposition is needed: an undeclared name
        there is a predicate, which only theory files declare by use."""
        if isinstance(x, Prop):
            return x
        if not isinstance(x, _Pending):
            raise self.fail("expected a proposition")
        tok, args = x.tok, x.args or ()
        if not self.implicit:
            raise ParseError(f"unknown predicate {tok.value}", tok.line, tok.col)
        return Atom(self.sig.predicate(tok.value, tuple(term_sort(a) for a in args)), args)

    def _apply(self, sym: Symbol, args, tok: Token, build=App):
        """``sym`` applied to ``args`` by ``build`` (App, or Atom for a
        predicate): its use at ``tok`` is an error unless each argument has
        the sort ``sym`` needs there."""
        if len(args) != sym.arity:
            raise ParseError(f"{sym.name} expects {sym.arity} arguments, got {len(args)}",
                             tok.line, tok.col)
        out = []
        for i, (a, need) in enumerate(zip(args, sym.arg_sorts), start=1):
            a = self._resolve(a, need)
            if term_sort(a) != need:
                raise ParseError(f"argument {i} of {sym.name} has sort {term_sort(a)}, "
                                 f"but sort {need} is needed here", tok.line, tok.col)
            out.append(a)
        return build(sym, tuple(out))

    def _operator(self, tok: Token) -> Symbol:
        """The binary symbol that the operator token ``tok`` stands for."""
        display = _OPERATOR_DISPLAY.get(tok.value)
        sym = (self._sugar(display, tok, f"symbol for {tok.value!r}") if display
               else self.sig.symbols.get(tok.value))
        if sym is None or sym.arity != 2:
            raise ParseError(f"this theory has no binary symbol for {tok.value!r}",
                             tok.line, tok.col)
        return sym

    def _infix_pred(self, tok: Token) -> Symbol | None:
        """The binary infix predicate ``tok`` names, if any."""
        if tok.kind == "ident" or tok.value == "=":
            sym = self.sig.symbols.get(tok.value)
            if sym is not None and sym.kind == PREDICATE and sym.arity == 2 \
                    and sym.display == "infix":
                return sym
        return None

    def _starts_term(self) -> bool:
        tok = self.peek()
        if tok.kind == "ident":
            sym = None if tok.value in self.bound else self.sig.symbols.get(tok.value)
            return tok.value not in _KEYWORDS and (sym is None or sym.kind != PREDICATE)
        return tok.kind == "num" or (tok.kind == "op" and tok.value in _TERM_START_OPS)


_ABSENT = object()
_CONNECTIVES = {_CONNECTIVE_TOKEN[c._tag]: c for c in (Iff, Implies, Or, And)}
# What a construct may hold: terms; also atoms; or any proposition.
_TERM, _ATOM, _PROP = range(3)
# The loop's precedences beside the connectives' (1 to 4): a quantifier's
# body reaches as far right as it can, negation binds tighter than any
# connective, and the term operators tighter than the infix predicates.
_QUANT_PREC, _NOT_PREC, _PRED_PREC, _TERM_PREC = 0, 5, 6, 10


@dataclass(frozen=True)
class _Pending:
    """An undeclared identifier whose sort waits for the token after it: a
    variable, or, with ``args``, a function a theory file declares by use;
    or, where a proposition is needed, a predicate."""
    tok: Token
    args: tuple[Term, ...] | None = None


@dataclass(frozen=True)
class _Binder:
    """A quantifier the loop has read and not reduced: its variable's token
    and sort annotation, and what ``env`` held for that name before."""
    quant: type
    name: Token
    ann: Sort | None
    saved: object


@dataclass
class _Open:
    """A construct the loop has opened and not closed: an argument list
    (``tok`` is the function's or predicate's name), parentheses or a
    juxtaposition spine, ``<a,b>``, ``{a,b}``, a ``[..]`` suffix, or (no
    ``tok``) the whole expression."""
    tok: Token | None
    sym: Symbol | None = None  # the function or predicate, or the brace or sub symbol
    items: list = field(default_factory=list)  # elements read so far
    # (left operand or None, operator, its token, its precedence), the
    # operator being a symbol, a connective, Not or a _Binder
    ops: list = field(default_factory=list)
    level: int = 0  # _TERM, _ATOM or _PROP


def _binds_before(pending: int, incoming: int, right: bool) -> bool:
    """Is an operator of precedence ``pending`` applied before one of
    precedence ``incoming``, read after it, that associates to the right
    when ``right``?"""
    return pending > incoming or (pending == incoming and not right)


# ---------------------------------------------------------------------------
# Entry points for single expressions
# ---------------------------------------------------------------------------


def _parse_whole(text: str, sig: Signature, env: dict[str, Sort | None] | None,
                 implicit: bool, read, what: str, at: tuple[int, int] = (1, 1)):
    """``read`` applied to a parser over all of ``text``, which begins at
    the line and column ``at`` of a file."""
    p = TermParser(tokenize(text, *at), sig, env=env, implicit=implicit)
    out = read(p)
    if not p.at_end():
        raise p.fail(f"trailing input after {what}")
    return out


def parse_term(text: str, sig: Signature,
               env: dict[str, Sort | None] | None = None) -> Term:
    return _parse_whole(text, sig, env, False, lambda p: p.parse_term(None), "term")


def parse_term_or_atom(text: str, sig: Signature,
                       env: dict[str, Sort | None] | None = None):
    return _parse_whole(text, sig, env, False, TermParser.parse_term_or_atom, "expression")


def parse_prop(text: str, sig: Signature, *, implicit: bool = False,
               env: dict[str, Sort | None] | None = None,
               at: tuple[int, int] = (1, 1)) -> Prop:
    """The proposition ``text``, whose errors are reported as if it began at
    the line and column ``at`` of a file."""
    return _parse_whole(text, sig, env, implicit, TermParser.parse_prop, "proposition", at)


# ---------------------------------------------------------------------------
# Theory files
# ---------------------------------------------------------------------------


def _split_lines(text: str) -> list[tuple[int, int, str]]:
    """The lines of ``text`` that hold more than a comment, each stripped
    of its comment and surrounding blanks, with its line number and the
    column where the stripped text begins."""
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if line:
            out.append((line_no, len(code) - len(code.lstrip()) + 1, line))
    return out


def parse_rule_text(text: str, sig: Signature, *, name: str = "r",
                    cls: str | None = None, implicit: bool = False,
                    at: tuple[int, int] = (1, 1)) -> RewriteRule:
    """One rule ``lhs -> rhs``; the class is inferred from the left side and
    checked against ``cls`` when that is given.  Errors are reported as if
    ``text`` began at the line and column ``at`` of a file."""
    p = TermParser(tokenize(text, *at), sig, implicit=implicit)
    if cls == "E":
        lhs: Term | Atom = p.parse_term(None)
    elif cls == "R":
        lhs = p.parse_atom()
    else:
        lhs = p.parse_term_or_atom()
    p.expect("->")
    if isinstance(lhs, Atom):
        rhs: Prop | Term = p.parse_prop()
        inferred = "R"
    else:
        rhs = p.parse_term(term_sort(lhs))
        inferred = "E"
    if not p.at_end():
        raise p.fail("trailing input after rule")
    if cls is not None and cls != inferred:
        raise RuleClassError(
            f"rule {name} is declared {cls} but has the shape of class {inferred}")
    return RewriteRule(name, lhs, rhs)


def parse_inline_rules(text: str, sig: Signature | None = None):
    """Rules in braces, e.g. ``{A -> A => B; P -> Q \\/ R}``."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    sig = sig or Signature()
    rules = []
    for i, part in enumerate([s for s in re.split(r"[;\n]", body) if s.strip()], start=1):
        rules.append(parse_rule_text(part, sig, name=f"r{i}", implicit=True))
    return _user_theory("inline", sig, RewriteSystem(rules), [], {})


def _user_theory(name: str, sig: Signature, system: RewriteSystem, axioms: list[Prop],
                 goals: dict[str, Prop]) -> TheoryPreset:
    """A theory built from text alone: freeze when it has E-rules, else on
    the fly."""
    return TheoryPreset(name, sig, system, axioms, goals,
                        FREEZE if system.e_rules else ON_THE_FLY)


def _declare(sig: Signature, kind: str, text: str, declare_sorts: bool, origin: str,
             at: tuple[int, int] = (1, 1)) -> None:
    """Declare the symbol of a ``const``, ``fun`` or ``pred`` line from its
    ``NAME : SORTS`` text, which begins at the line and column ``at`` of a
    file; a binary symbol whose name is not alphanumeric, or the predicate
    ``in``, is displayed infix."""
    name, _, sort_text = text.partition(":")
    name = name.strip()
    sort_text = sort_text.strip()
    p = TermParser(tokenize(sort_text, at[0], at[1] + len(text) - len(sort_text)), sig)
    if kind == "const":
        sig.individual(name, p.parse_sort(declare_sorts), origin=origin)
    else:
        p.expect("(")
        args: list[Sort] = []
        while not p.at_op(")"):
            args.append(p.parse_sort(declare_sorts))
            if not p.at_op(")"):
                p.expect(",")
        p.expect(")")
        infix = len(args) == 2 and (not name[0].isalnum() or (kind == "pred" and name == "in"))
        display = "infix" if infix else "prefix"
        if kind == "fun":
            p.expect("->")
            sig.function(name, args, p.parse_sort(declare_sorts), origin=origin,
                         display=display)
        else:
            sig.predicate(name, args, origin=origin, display=display)
    if not p.at_end():
        raise p.fail("trailing input after declaration")


def parse_theory(text: str):
    """The documented theory-file format.

    Lines: ``theory NAME``, ``use PRESET``, ``sort NAME``,
    ``const NAME : SORT``, ``fun NAME : (S,..) -> S``, ``pred NAME : (S,..)``,
    ``display NAME STYLE``, ``E [name]: term -> term``,
    ``R [name]: atom -> prop``, ``rule [name]: lhs -> rhs``, ``eta``,
    ``subset NAME(x.., w) : PROP``, ``axiom PROP``, ``goal NAME : PROP``.
    The display styles ``app``, ``sub``, ``cons``, ``comp`` and ``brace``
    need a binary function symbol, ``infix`` a binary symbol; the symbols
    displayed ``app`` and ``sub`` form application spines.  A display comes
    before the axioms, rules and goals that use its symbol.  ``eta`` needs
    ``lam`` unary, ``app`` and ``sub`` binary, and ``shift`` and ``1``
    constants.  A file whose ``use`` line names a preset keeps that
    preset's default strategy; any other file freezes when it has E-rules
    and works on the fly otherwise.  A parse error names its line and
    column in the file once: where the offending token is, or where its
    directive begins.
    """
    preset: TheoryPreset | None = None
    sig = Signature()
    rules: list[RewriteRule] = []
    axioms: list[Prop] = []
    goals: dict[str, Prop] = {}
    name = "user-theory"
    auto = 0
    used = False  # did a use line name a preset?

    def ensure_preset() -> None:
        nonlocal preset
        if preset is None:
            preset = TheoryPreset(name, sig, RewriteSystem([]))

    for line_no, col, line in _split_lines(text):

        def at(tail: str) -> tuple[int, int]:
            """The line and column in the file of ``tail``, a tail of the line."""
            return line_no, col + len(line) - len(tail)

        try:
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            if head == "theory":
                name = rest
            elif head == "use":
                if preset is not None or rules or sig.symbols:
                    raise ParseError("'use' must come before declarations")
                preset = load_preset(rest)
                used = True
                sig = preset.sig
                rules = list(preset.system.rules)
                axioms = list(preset.axioms)
                goals = dict(preset.goals)
            elif head == "sort":
                sig.declare_sort(rest)
            elif head in ("const", "fun", "pred"):
                _declare(sig, head, rest, True, "user", at(rest))
            elif head == "display":
                sym_name, _, style = rest.partition(" ")
                style = style.strip()
                if style not in ("prefix", "infix", "app", "sub", "cons", "comp", "brace"):
                    raise ParseError(f"unknown display style {style!r}")
                sym = sig.lookup(sym_name.strip())
                # the printer lays out every display but prefix with two
                # arguments, and only infix suits a predicate
                term_only = style not in ("prefix", "infix")
                if style != "prefix" and (sym.arity != 2 or term_only and sym.kind == PREDICATE):
                    what = "function symbol" if term_only else "symbol"
                    raise ParseError(f"display {style} needs a binary {what}, "
                                     f"and {sym.name} is not one")
                # what was read keeps the symbol it was read with
                read = (*axioms, *goals.values(), *(x for r in rules for x in (r.lhs, r.rhs)))
                if any(sym.name in symbols_in(x) for x in read):
                    raise ParseError(f"display {sym.name} must come before the axioms, "
                                     "rules and goals that use it")
                sig.symbols[sym.name] = replace(sym, display=style)
            elif head in ("E", "R", "rule", "E:", "R:", "rule:"):
                cls: str | None = head.rstrip(":")
                if cls == "rule":
                    cls = None
                body = rest
                rule_name = None
                if not head.endswith(":"):
                    # optional "name:" between the class and the rule
                    maybe, sep, after = rest.partition(":")
                    if sep and maybe.strip() and " " not in maybe.strip():
                        rule_name = maybe.strip()
                        body = after.strip()
                if rule_name is None:
                    auto += 1
                    rule_name = f"r{auto}"
                rules.append(parse_rule_text(body, sig, name=rule_name, cls=cls,
                                             implicit=True, at=at(body)))
            elif head == "eta":
                lam, app, sub, shift, one = syms = [
                    sig.lookup(n) for n in ("lam", "app", "sub", "shift", "1")]
                for sym, arity in zip(syms, (1, 2, 2, 0, 0)):
                    if sym.kind == PREDICATE or sym.arity != arity:
                        raise ParseError(f"eta needs {sym.name} to be a term symbol "
                                         f"of {arity} arguments")
                rules.append(EtaRule("eta", lam, app, sub, shift, one,
                                     lam.arg_sorts[0]))
            elif head == "subset":
                ensure_preset()
                preset.system = RewriteSystem(rules)
                m = re.match(r"([A-Za-z][A-Za-z0-9_']*)\s*\(([^)]*)\)\s*:\s*(.*)$", rest)
                if m is None:
                    raise ParseError("malformed subset declaration")
                sym_name, var_text, body_text = m.groups()
                var_names = [v.strip() for v in var_text.split(",") if v.strip()]
                if not var_names:
                    raise ParseError("subset needs at least the comprehension variable")
                default = sig.default_sort
                if default is None:
                    raise ParseError("subset needs a declared sort")
                env: dict[str, Sort | None] = {v: default for v in var_names}
                body = parse_prop(body_text, sig, env=env, at=at(body_text))
                params = [Var(v, default) for v in var_names[:-1]]
                w = Var(var_names[-1], default)
                declare_subset_symbol(preset, params, w, body, name=sym_name)
                rules = list(preset.system.rules)
            elif head == "axiom":
                axioms.append(parse_prop(rest, sig, implicit=True, at=at(rest)))
            elif head == "goal":
                goal_name, _, goal_text = rest.partition(":")
                goal_text = goal_text.strip()
                goals[goal_name.strip()] = parse_prop(goal_text, sig, implicit=True,
                                                      at=at(goal_text))
            else:
                raise ParseError(f"unknown directive {head!r}")
        except ParseError as exc:
            # an error about the directive as a whole has no position yet:
            # give it the directive's
            raise ParseError(f"in theory text: {exc.message}", exc.line or line_no,
                             exc.col if exc.line else col) from exc
        except Exception as exc:
            raise type(exc)(f"line {line_no}: {exc}") from exc

    system = RewriteSystem(rules)
    if not used:
        # a file that names no preset picks its strategy by its E-rules,
        # whether or not a subset line made a preset to declare into
        theory = _user_theory(name, sig, system, axioms, goals)
        if preset is not None:
            theory.comprehensions = preset.comprehensions
        return theory
    preset.name = name if name != "user-theory" else preset.name
    preset.sig = sig
    preset.system = system
    preset.axioms = axioms
    preset.goals = goals
    return preset


# ---------------------------------------------------------------------------
# Constraint and substitution files
# ---------------------------------------------------------------------------


def parse_constraints(text: str, sig: Signature,
                      env: dict[str, Sort | None] | None = None) -> list[Constraint]:
    """One constraint per line: ``side = side`` where each side is a term or
    an atom.  A line holding a single binary atom ``t = u`` denotes the term
    constraint between ``t`` and ``u``.  Variables are shared across lines.
    """
    env = env if env is not None else {}
    return [_parse_constraint(line, sig, env, (line_no, col))
            for line_no, col, line in _split_lines(text)]


def _parse_constraint(text: str, sig: Signature, env: dict[str, Sort | None],
                      at: tuple[int, int]) -> Constraint:
    """The constraint on one line, which begins at the line and column
    ``at`` of a file."""
    p = TermParser(tokenize(text, *at), sig, env=env)
    lhs = p.parse_term_or_atom()
    if p.at_end():
        if isinstance(lhs, Atom) and len(lhs.args) == 2:
            return Constraint(lhs.args[0], lhs.args[1])
        raise p.fail("constraint line needs two sides")
    p.expect("=")
    rhs = p.parse_term_or_atom()
    if not p.at_end():
        raise p.fail("trailing input after constraint")
    return Constraint(lhs, rhs)


def parse_substitution(text: str, sig: Signature,
                       env: dict[str, Sort | None] | None = None) -> Substitution:
    """Lines of ``var := term``, each binding a different variable: an
    identifier that is neither a keyword nor a symbol of ``sig``."""
    env = env if env is not None else {}
    bindings: dict[str, Term] = {}
    for line_no, col, line in _split_lines(text):
        name_part, sep, term_part = line.partition(":=")
        if not sep:
            raise ParseError(f"expected 'var := term' in {line!r}", line_no, col)
        var_tok, after = tokenize(name_part + sep, line_no, col)[:2]
        var_name = var_tok.value
        if var_tok.kind != "ident" or var_name in _KEYWORDS or var_name in sig.symbols:
            raise ParseError(f"expected a variable, found {var_name!r}", var_tok.line,
                             var_tok.col)
        if after.value != ":=":
            raise ParseError(f"expected ':=' after {var_name}, found {after.value!r}",
                             after.line, after.col)
        expected = env.get(var_name)
        p = TermParser(tokenize(term_part, line_no, col + len(name_part) + len(sep)),
                       sig, env=env)
        t = p.parse_term(expected)
        if not p.at_end():
            raise p.fail("trailing input after binding")
        if var_name in bindings:
            raise ParseError(f"variable {var_name} is bound twice", var_tok.line, var_tok.col)
        bindings[var_name] = t
        env.setdefault(var_name, term_sort(t))
    return Substitution(bindings)


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------


_STEP_RE = re.compile(r"^(\d+)\. ([a-z]+)(?:\(([^)]*)\))? \| (.*)$")


def parse_trace(text: str, sig: Signature) -> TraceDoc:
    """Parse a trace emitted by ``prover.format_trace`` back into the
    :class:`~resmod.prover.TraceDoc` it rendered.

    The signature is extended with the declarations of the ``symbols:``
    section, so clause lines reparse even when the run introduced fresh
    skolem symbols.
    """
    doc = TraceDoc()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# resmod trace"):
        raise ParseError("not a resmod trace", 1, 1)
    section = "header"
    # each with the line and column where its clause text begins
    raw_steps: list[tuple[int, str, tuple[int, ...], str | None, str, tuple[int, int]]] = []
    constraint_defs: list[tuple[str, str, tuple[int, int]]] = []
    for line_no, raw in enumerate(lines[1:], start=2):

        def at(tail: str) -> tuple[int, int]:
            """The line and column in the trace of ``tail``, a tail of the line."""
            return line_no, len(raw.rstrip()) - len(tail) + 1

        if not raw.strip():
            continue
        if raw == "symbols:":
            section = "symbols"
            continue
        if raw == "constraints:":
            section = "constraints"
            continue
        if raw.startswith("verdict:"):
            doc.verdict = raw.split(":", 1)[1].strip()
            section = "solution"
            continue
        if section == "solution":
            doc.solution_lines.append(raw)
            continue
        if section == "symbols" and raw.startswith("  "):
            decl = raw.strip()
            doc.symbol_lines.append(decl)
            kind, _, rest = decl.partition(" ")
            _declare(sig, kind, rest, False, "skolem", at(rest))
            continue
        if section == "constraints" and raw.startswith("  "):
            cname, _, body = raw.strip().partition(":")
            body = body.strip()
            constraint_defs.append((cname.strip(), body, at(body)))
            continue
        m = _STEP_RE.match(raw)
        if m:
            section = "steps"
            sid, kind, inside, rest = m.groups()
            parents: tuple[int, ...] = ()
            aux = None
            if inside:
                head, _, aux_part = inside.partition(";")
                aux = aux_part.strip() or None
                parents = tuple(int(x) for x in head.split(",") if x.strip())
            raw_steps.append((int(sid), kind, parents, aux, rest, (line_no, m.start(4) + 1)))
            continue
        if section == "header" and ":" in raw:
            k, _, v = raw.partition(":")
            doc.header.append((k.strip(), v.strip()))
            continue
        raise ParseError(f"unparseable trace line: {raw!r}", line_no, 1)

    env: dict[str, Sort | None] = {}
    name_to_constraint: dict[str, Constraint] = {}
    for cname, body, body_at in constraint_defs:
        c = _parse_constraint(body, sig, env, body_at)
        name_to_constraint[cname] = c
        doc.names[c] = cname

    for sid, kind, parents, aux, rest, rest_at in raw_steps:
        lit_text, sep, refs = rest.partition(" / ")
        constraints = []
        for ref in re.finditer(r"[^,\s](?:[^,]*[^,\s])?", refs):
            if ref.group() not in name_to_constraint:
                raise ParseError(f"unknown constraint {ref.group()!r}", rest_at[0],
                                 rest_at[1] + len(lit_text) + len(sep) + ref.start())
            constraints.append(name_to_constraint[ref.group()])
        literals: list[Literal] = []
        if lit_text.strip() != "[]":
            p = TermParser(tokenize(lit_text, *rest_at), sig, env=env)
            while True:
                negative = False
                if p.at_op("~"):
                    p.next()
                    negative = True
                atom = p.parse_atom()
                literals.append(Literal(not negative, atom))
                if p.at_op(","):
                    p.next()
                    continue
                break
            if not p.at_end():
                raise p.fail("trailing input in clause line")
        doc.steps.append(ConstrainedClause(literals, constraints, sid,
                                           Provenance(kind, parents, aux)))
    return doc
