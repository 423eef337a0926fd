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

    term  := comp ('.' term)?          cons, right associative
    comp  := add ('@' comp)?           composition, right associative
    add   := mul ('+' mul)*
    mul   := post ('*' post)*
    post  := prim ('[' term ']')*      explicit substitution
    prim  := NUMBER | IDENT ['(' args ')'] | '(' term term* ')'
           | '<' term ',' term '>' | '{' term ',' term '}'

Parenthesized juxtaposition builds a left-nested application spine.
Undeclared identifiers denote variables; their sorts are inferred from the
argument position they appear in, falling back to the theory's default
sort.  Theory files may also auto-declare new predicate and function
symbols when an undeclared identifier is applied to arguments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .kernel import (
    _INFIX_TERM_PREC,
    _PROP_PREC,
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
from .theories import TheoryPreset, declare_subset_symbol, load_preset


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
_OPENERS = ("(", "[", "{", "<")
_CLOSERS = (")", "]", "}", ">")


def _glued_paren(tok: Token, nxt: Token) -> bool:
    """Is ``nxt`` an opening paren glued to ``tok``?  Prefix application
    binds only without intervening space, so spines like ``(P (f x))`` stay
    juxtapositions."""
    return (nxt.kind == "op" and nxt.value == "("
            and nxt.line == tok.line and nxt.col == tok.col + len(tok.value))


class TermParser:
    """Recursive-descent parser over one token stream.

    ``implicit`` switches on auto-declaration of predicates/functions that
    appear applied to arguments while undeclared (theory files only).
    """

    def __init__(self, toks: list[Token], sig: Signature, *,
                 env: dict[str, Sort | None] | None = None,
                 implicit: bool = False):
        self.toks = toks
        self.pos = 0
        self.sig = sig
        self.env: dict[str, Sort | None] = env if env is not None else {}
        self.implicit = implicit
        self.speculative = False

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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

    def _adjacent_paren(self, tok: Token) -> bool:
        return _glued_paren(tok, self.peek())

    def _after_undeclared(self) -> Token | None:
        """The token after the term that starts here, when that term is an
        identifier the signature does not declare, with its glued argument
        list if it has one: the one kind of term whose sort the parse takes
        from the sort expected of it.  Tokens are skipped, not parsed.
        None for any other term."""
        tok = self.peek()
        if tok.kind != "ident" or tok.value in self.sig.symbols:
            return None
        ahead, depth = 1, 0
        if _glued_paren(tok, self.peek(1)):
            while self.peek(ahead).kind != "eof":
                tok = self.peek(ahead)
                ahead += 1
                if tok.kind == "op" and tok.value in _OPENERS:
                    depth += 1
                elif tok.kind == "op" and tok.value in _CLOSERS:
                    depth -= 1
                    if depth == 0:
                        break
        return self.peek(ahead)

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    # -- sugar symbol lookups -------------------------------------------------

    def _by_display(self, display: str) -> Symbol | None:
        for sym in self.sig.symbols.values():
            if sym.display == display:
                return sym
        return None

    def _app_symbol(self) -> Symbol:
        if self.sig.app_symbols:
            return self.sig.lookup(self.sig.app_symbols[0])
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
        if self.sig.default_sort is None and self.implicit and not self.speculative:
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

    # -- terms ------------------------------------------------------------------

    def parse_term(self, expected: Sort | None = None) -> Term:
        cons = self._by_display("cons") if self._cons_ahead() else None
        t = self._term_comp(cons.arg_sorts[0] if cons is not None else expected)
        if self.at_op("."):
            if cons is None:
                raise self.fail("this theory has no cons symbol for '.'")
            self.next()
            rest = self.parse_term(cons.arg_sorts[1])
            return App(cons, (t, rest))
        return t

    def _cons_ahead(self) -> bool:
        return self._ahead_at_level(".", stop=set())

    def _ahead_at_level(self, op: str, stop: set[str]) -> bool:
        """Does ``op`` occur at depth zero before this term level closes?"""
        depth = 0
        terminators = {",", "->", "=>", "<=>", "\\/", "/\\", "=", ":=", ";", "~"} | stop
        for tok in self.toks[self.pos:]:
            if tok.kind == "eof":
                return False
            if tok.kind == "op":
                if tok.value in _OPENERS:
                    depth += 1
                elif tok.value in _CLOSERS:
                    if depth == 0:
                        return False
                    depth -= 1
                elif depth == 0 and tok.value == op:
                    return True
                elif depth == 0 and tok.value in terminators:
                    return False
        return False

    def _term_comp(self, expected: Sort | None) -> Term:
        comp = self._by_display("comp") if self._ahead_at_level("@", stop={"."}) else None
        t = self._term_infix(comp.arg_sorts[0] if comp is not None else expected, 0)
        if self.at_op("@"):
            if comp is None:
                raise self.fail("this theory has no composition symbol for '@'")
            self.next()
            rest = self._term_comp(comp.arg_sorts[1])
            return App(comp, (t, rest))
        return t

    def _term_infix(self, expected: Sort | None, min_prec: int) -> Term:
        """Left-associated ``+`` and ``*`` chains whose operators bind at
        least ``min_prec``, with the precedences the printer uses.  The left
        operand has the first argument sort of the operator that follows it."""
        nxt = self._after_undeclared()
        first = None
        if nxt is not None and nxt.kind == "op" \
                and _INFIX_TERM_PREC.get(nxt.value, -1) >= min_prec:
            first = self.sig.symbols.get(nxt.value)
        t = self._term_post(first.arg_sorts[0] if first is not None else expected)
        while True:
            tok = self.peek()
            prec = _INFIX_TERM_PREC.get(tok.value, -1) if tok.kind == "op" else -1
            if prec < min_prec:
                return t
            sym = self.sig.symbols.get(tok.value)
            if sym is None:
                raise self.fail(f"no {tok.value!r} symbol declared")
            self.next()
            t = App(sym, (t, self._term_infix(sym.arg_sorts[1], prec + 1)))

    def _term_post(self, expected: Sort | None) -> Term:
        nxt = self._after_undeclared()
        sub = None
        if nxt is not None and nxt.kind == "op" and nxt.value == "[":
            sub = self._by_display("sub")
        t = self._term_prim(sub.arg_sorts[0] if sub is not None else expected)
        while self.at_op("["):
            sub = self._by_display("sub")
            if sub is None:
                raise self.fail("this theory has no explicit-substitution symbol for '[...]'")
            self.next()
            s = self.parse_term(sub.arg_sorts[1])
            self.expect("]")
            t = App(sub, (t, s))
        return t

    def _starts_term(self) -> bool:
        tok = self.peek()
        if tok.kind == "num":
            return True
        if tok.kind == "op" and tok.value in _TERM_START_OPS:
            return True
        if tok.kind == "ident" and tok.value not in _KEYWORDS:
            sym = self.sig.symbols.get(tok.value)
            if sym is not None and sym.kind == PREDICATE:
                return False
            return True
        return False

    def _term_prim(self, expected: Sort | None) -> Term:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            named = self.sig.symbols.get(tok.value)
            if named is not None and named.kind == INDIVIDUAL:
                return App(named)
            if self.sig.numeral is None:
                raise ParseError("this theory has no numeral notation", tok.line, tok.col)
            return self.sig.numeral(int(tok.value))
        if self.at_op("("):
            self.next()
            elems = [self.parse_term(None)]
            while self._starts_term():
                elems.append(self.parse_term(None))
            self.expect(")")
            if len(elems) == 1:
                return elems[0]
            app = self._app_symbol()
            out = elems[0]
            for e in elems[1:]:
                out = App(app, (out, e))
            return out
        if self.at_op("<"):
            brace = self._by_display("brace")
            if brace is None:
                raise self.fail("this theory has no pair notation")
            self.next()
            a = self.parse_term(brace.arg_sorts[0])
            self.expect(",")
            b = self.parse_term(brace.arg_sorts[1])
            self.expect(">")
            return App(brace, (App(brace, (a, b)), App(brace, (a, a))))
        if self.at_op("{"):
            brace = self._by_display("brace")
            if brace is None:
                raise self.fail("this theory has no finite-set braces")
            self.next()
            a = self.parse_term(brace.arg_sorts[0])
            self.expect(",")
            b = self.parse_term(brace.arg_sorts[1])
            self.expect("}")
            return App(brace, (a, b))
        if tok.kind != "ident" or tok.value in _KEYWORDS:
            raise ParseError(f"expected a term, found {tok.value or 'end of input'!r}",
                             tok.line, tok.col)
        self.next()
        name = tok.value
        sym = self.sig.symbols.get(name)
        applied = self._adjacent_paren(tok)
        if sym is None:
            if applied and self.implicit:
                if self.speculative:
                    raise ParseError(f"unknown function {name}", tok.line, tok.col)
                args = self._paren_args(None)
                default = self._default_sort()
                if default is None:
                    raise ParseError("cannot auto-declare without a default sort",
                                     tok.line, tok.col)
                new = self.sig.function(name, tuple(term_sort(a) for a in args),
                                        expected or default)
                return App(new, tuple(args))
            if applied:
                raise ParseError(f"unknown symbol {name}", tok.line, tok.col)
            return self._var(name, expected, tok)
        if sym.kind == PREDICATE:
            raise ParseError(f"predicate {name} used in term position", tok.line, tok.col)
        if sym.kind == INDIVIDUAL:
            if applied:
                raise ParseError(f"{name} takes no arguments", tok.line, tok.col)
            return App(sym)
        if not applied:
            raise ParseError(f"function {name} needs an adjacent argument list",
                             tok.line, tok.col)
        args = self._paren_args(sym)
        if len(args) != sym.arity:
            raise ParseError(f"{name} expects {sym.arity} arguments, got {len(args)}",
                             tok.line, tok.col)
        return App(sym, tuple(args))

    def _paren_args(self, sym: Symbol | None) -> list[Term]:
        self.expect("(")
        args: list[Term] = []
        i = 0
        while not self.at_op(")"):
            expected = None
            if sym is not None and i < sym.arity:
                expected = sym.arg_sorts[i]
            args.append(self.parse_term(expected))
            i += 1
            if not self.at_op(")"):
                self.expect(",")
        self.expect(")")
        return args

    # -- atoms and propositions ---------------------------------------------------

    def _infix_pred(self) -> Symbol | None:
        tok = self.peek()
        if tok.kind not in ("op", "ident"):
            return None
        if tok.value in ("=",) or tok.kind == "ident":
            sym = self.sig.symbols.get(tok.value)
            if sym is not None and sym.kind == PREDICATE and sym.arity == 2 \
                    and sym.display == "infix":
                return sym
        return None

    def parse_atom(self) -> Atom:
        x = self.parse_term_or_atom()
        if not isinstance(x, Atom):
            raise self.fail("expected an atomic proposition")
        return x

    def parse_term_or_atom(self):
        """A predicate application, an infix atom, or a plain term."""
        tok = self.peek()
        if tok.kind == "ident" and tok.value not in _KEYWORDS:
            sym = self.sig.symbols.get(tok.value)
            if sym is not None and sym.kind == PREDICATE and sym.display != "infix":
                self.next()
                if self._adjacent_paren(tok):
                    args = self._paren_args(sym)
                else:
                    args = []
                if len(args) != sym.arity:
                    raise ParseError(
                        f"{sym.name} expects {sym.arity} arguments, got {len(args)}",
                        tok.line, tok.col)
                return Atom(sym, tuple(args))
            nxt = self.peek(1)
            if sym is None and self.implicit and _glued_paren(tok, nxt):
                if self.speculative:
                    raise ParseError(f"unknown predicate {tok.value}", tok.line, tok.col)
                self.next()
                args = self._paren_args(None)
                pred = self.sig.predicate(tok.value, tuple(term_sort(a) for a in args))
                return Atom(pred, tuple(args))
        t = self.parse_term(None)
        pred = self._infix_pred()
        if pred is not None:
            self.next()
            u = self.parse_term(pred.arg_sorts[1])
            return Atom(pred, (t, u))
        return t

    _PROP_BOUNDARY = {"", ")", ",", "/\\", "\\/", "=>", "<=>", "->", ";", "]"}

    def _bare_atom(self) -> Prop:
        tok = self.peek()
        nxt = self.peek(1)
        at_boundary = (nxt.kind == "eof"
                       or (nxt.kind == "op" and nxt.value in self._PROP_BOUNDARY))
        if (tok.kind == "ident" and tok.value not in _KEYWORDS
                and tok.value not in self.sig.symbols and at_boundary):
            # a lone identifier can only be a nullary predicate here
            if self.implicit and not self.speculative:
                self.next()
                pred = self.sig.predicate(tok.value, ())
                return Atom(pred, ())
            raise ParseError(f"unknown predicate {tok.value}", tok.line, tok.col)
        x = self.parse_term_or_atom()
        if not isinstance(x, Atom):
            raise self.fail("expected a proposition")
        return x

    def parse_prop(self) -> Prop:
        return self._connected(0)

    def _connected(self, min_prec: int) -> Prop:
        """Binary connectives binding at least ``min_prec``, with the
        precedences the printer uses: ``=>`` associates to the right, the
        others to the left."""
        left = self._neg()
        while True:
            tok = self.peek()
            conn = _CONNECTIVES.get(tok.value) if tok.kind == "op" else None
            prec = _PROP_PREC[conn._tag] if conn is not None else -1
            if prec < min_prec:
                return left
            self.next()
            left = conn(left, self._connected(prec if conn is Implies else prec + 1))

    def _neg(self) -> Prop:
        tok = self.peek()
        if self.at_op("~"):
            self.next()
            return Not(self._neg())
        if tok.kind == "ident" and tok.value in ("forall", "exists"):
            self.next()
            name_tok = self.next()
            if name_tok.kind != "ident":
                raise ParseError("expected a variable after the quantifier",
                                 name_tok.line, name_tok.col)
            ann: Sort | None = None
            if self.at_op(":"):
                self.next()
                ann = self.parse_sort()
            name = name_tok.value
            had = name in self.env
            saved = self.env.get(name)
            self.env[name] = ann
            body = self.parse_prop()
            sort = self.env.get(name) or ann or self.sig.default_sort
            if sort is None:
                raise ParseError(f"cannot infer a sort for bound variable {name}",
                                 name_tok.line, name_tok.col)
            if had:
                self.env[name] = saved
            else:
                self.env.pop(name, None)
            quant = Forall if tok.value == "forall" else Exists
            return quant(Var(name, sort), body)
        if tok.kind == "ident" and tok.value == "bot":
            self.next()
            return Bottom()
        if tok.kind == "ident" and tok.value == "top":
            self.next()
            return Top()
        if self.at_op("("):
            saved_pos = self.pos
            saved_env = dict(self.env)
            was_spec = self.speculative
            self.speculative = True
            try:
                self.next()
                p = self.parse_prop()
                self.expect(")")
                self.speculative = was_spec
                return p
            except ParseError:
                self.pos = saved_pos
                self.env = saved_env
            finally:
                self.speculative = was_spec
            return self._bare_atom()
        return self._bare_atom()


_ABSENT = object()
_CONNECTIVES = {"<=>": Iff, "=>": Implies, "\\/": Or, "/\\": And}


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
    tok0, tok1 = p.peek(), p.peek(1)
    if (implicit and tok0.kind == "ident" and tok0.value not in sig.symbols
            and tok0.value not in _KEYWORDS and tok1.kind == "op" and tok1.value == "->"):
        sig.predicate(tok0.value, ())  # bare left side can only be a nullary atom
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
    ``E [name]: term -> term``, ``R [name]: atom -> prop``,
    ``rule [name]: lhs -> rhs``, ``eta``, ``subset NAME(x.., w) : PROP``,
    ``axiom PROP``, ``goal NAME : PROP``.  A file whose ``use`` line
    names a preset keeps that preset's default strategy; any other file
    freezes when it has E-rules and works on the fly otherwise.  A parse
    error names its line and column in the file once: where the offending
    token is, or where its directive begins.
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
                sig.symbols[sym.name] = replace(sym, display=style)
                sig.app_symbols = tuple(
                    s.name for s in sig.symbols.values() if s.display == "app"
                ) + tuple(s.name for s in sig.symbols.values() if s.display == "sub")
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
                lam = sig.lookup("lam")
                app = sig.lookup("app")
                sub = sig.lookup("sub")
                shift = sig.lookup("shift")
                one = sig.lookup("1")
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
    out: list[Constraint] = []
    for line_no, col, line in _split_lines(text):
        p = TermParser(tokenize(line, line_no, col), sig, env=env)
        lhs = p.parse_term_or_atom()
        if p.at_end():
            if isinstance(lhs, Atom) and len(lhs.args) == 2:
                out.append(Constraint(lhs.args[0], lhs.args[1]))
                continue
            raise p.fail("constraint line needs two sides")
        p.expect("=")
        rhs = p.parse_term_or_atom()
        if not p.at_end():
            raise p.fail("trailing input after constraint")
        out.append(Constraint(lhs, rhs))
    return out


def parse_substitution(text: str, sig: Signature,
                       env: dict[str, Sort | None] | None = None) -> Substitution:
    """Lines of ``var := term``."""
    env = env if env is not None else {}
    bindings: dict[str, Term] = {}
    for line_no, col, line in _split_lines(text):
        name_part, sep, term_part = line.partition(":=")
        if not sep:
            raise ParseError(f"expected 'var := term' in {line!r}", line_no, col)
        var_name = name_part.strip()
        expected = env.get(var_name)
        p = TermParser(tokenize(term_part, line_no, col + len(name_part) + len(sep)),
                       sig, env=env)
        t = p.parse_term(expected)
        if not p.at_end():
            raise p.fail("trailing input after binding")
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
        raise ParseError("not a resmod trace")
    section = "header"
    raw_steps: list[tuple[int, str, tuple[int, ...], str | None, str]] = []
    constraint_defs: list[tuple[str, str]] = []
    for raw in lines[1:]:
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
            _declare(sig, kind, rest, False, "skolem")
            continue
        if section == "constraints" and raw.startswith("  "):
            cname, _, body = raw.strip().partition(":")
            constraint_defs.append((cname.strip(), body.strip()))
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
            raw_steps.append((int(sid), kind, parents, aux, rest))
            continue
        if section == "header" and ":" in raw:
            k, _, v = raw.partition(":")
            doc.header.append((k.strip(), v.strip()))
            continue
        raise ParseError(f"unparseable trace line: {raw!r}")

    env: dict[str, Sort | None] = {}
    name_to_constraint: dict[str, Constraint] = {}
    for cname, body in constraint_defs:
        cs = parse_constraints(body, sig, env)
        name_to_constraint[cname] = cs[0]
        doc.names[cs[0]] = cname

    for sid, kind, parents, aux, rest in raw_steps:
        lit_text, _, refs = rest.partition(" / ")
        refs = refs.strip()
        constraints = [name_to_constraint[r.strip()] for r in refs.split(",")] if refs else []
        literals: list[Literal] = []
        if lit_text.strip() != "[]":
            p = TermParser(tokenize(lit_text), sig, env=env)
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
