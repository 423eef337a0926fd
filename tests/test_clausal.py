"""Clausal transformation tests: negation, skolemization, CNF,
reclausification; each through ``clausal_form``."""

import random

import pytest

from resmod.clausal import (
    Constraint,
    ConstrainedClause,
    Literal,
    clausal_form,
    reclausify,
    renormalize_clause,
)
from resmod.kernel import (
    App,
    Atom,
    BaseSort,
    Exists,
    Forall,
    FUNCTION,
    INDIVIDUAL,
    Not,
    Or,
    Signature,
    Var,
)
from resmod.prover import _literal_order, _literal_sort_key, clause_key
from resmod.rewrite import EMPTY_SYSTEM
from resmod.theories import load_preset
from resmod.parser import parse_prop, parse_term_or_atom

from helpers import (
    all_valuations,
    clause_sets_isomorphic,
    eval_clause,
    eval_ground,
    random_ground_prop,
    russell_theory,
    scan_reduce_once,
)


def literal_texts(p, sig, system=EMPTY_SYSTEM):
    return [c.literal_text() for c in clausal_form(p, system, sig).clauses]


class TestNnf:
    def test_de_morgan(self):
        sig = Signature()
        a = Atom(sig.predicate("A", ()), ())
        b = Atom(sig.predicate("B", ()), ())
        assert literal_texts(Not(Or(a, b)), sig) == ["~A", "~B"]

    def test_negated_existential_implication(self):
        # ~(exists y (a * a = y => a = y)) is forall y (a * a = y /\ ~(a = y))
        rings = load_preset("integral-rings")
        p = parse_prop("~(exists y (a * a = y => a = y))", rings.sig)
        assert literal_texts(p, rings.sig) == ["a * a = Y", "~a = Y"]

    def test_double_negation_is_the_atom(self):
        sig = Signature()
        a = Atom(sig.predicate("A", ()), ())
        assert literal_texts(Not(Not(a)), sig) == ["A"]

    def test_iff_expands_to_both_implications(self):
        sig = Signature()
        sig.predicate("A", ())
        sig.predicate("B", ())
        assert literal_texts(parse_prop("A <=> B", sig), sig) == ["~A, B", "~B, A"]
        assert literal_texts(parse_prop("~(A <=> B)", sig), sig) == [
            "A, B", "A, ~A", "~B, B", "~B, ~A"]

    def test_a_disjunction_keeps_each_literal_once_in_first_seen_order(self):
        sig = Signature()
        for name in "ABC":
            sig.predicate(name, ())
        assert literal_texts(parse_prop("(A \\/ B) \\/ (B \\/ A)", sig), sig) == ["A, B"]
        assert literal_texts(parse_prop("(B \\/ ~A) \\/ (C /\\ (A \\/ B))", sig), sig) == [
            "B, ~A, C", "B, ~A, A"]
        # a wide left-nested disjunction, each literal twice
        names = [f"P{i}" for i in range(1500)]
        for name in names:
            sig.predicate(name, ())
        wide = None
        for name in names + names[::-1]:
            atom = Atom(sig.lookup(name), ())
            wide = atom if wide is None else Or(wide, atom)
        assert literal_texts(wide, sig) == [", ".join(names)]

    def test_negation_clausifies_to_the_complement(self):
        sig = Signature()
        preds = [sig.predicate(f"P{i}", ()) for i in range(4)]
        names = [p.name for p in preds]
        rng = random.Random(17)
        for _ in range(300):
            p = random_ground_prop(rng, preds, 4)
            res = clausal_form(Not(p), EMPTY_SYSTEM, sig)
            for v in all_valuations(names):
                assert eval_ground(p, v) != all(eval_clause(c, v) for c in res.clauses)


def skolems(sig):
    return [s for s in sig.symbols.values() if s.origin == "skolem"]


class TestSkolemize:
    def test_function_symbol_for_existential_under_universal(self):
        sig = Signature()
        t = sig.declare_sort("t")
        u = sig.declare_sort("u")
        p = sig.predicate("p", (t, u))
        x, y = Var("x", t), Var("y", u)
        [clause] = clausal_form(Forall(x, Exists(y, Atom(p, (x, y)))), EMPTY_SYSTEM,
                                sig).clauses
        [sym] = skolems(sig)
        assert sym.kind == FUNCTION
        assert (sym.arg_sorts, sym.result) == ((t,), u)
        [lit] = clause.literals
        assert lit.positive
        witness = lit.atom.args[1]
        assert isinstance(witness, App) and witness.sym == sym
        assert witness.args == (lit.atom.args[0],) == (Var("X", t),)

    def test_empty_prefix_gives_individual(self):
        sig = Signature()
        t = sig.declare_sort("t")
        p = sig.predicate("p", (t,))
        prop = Exists(Var("x", t), Atom(p, (Var("x", t),)))
        [clause] = clausal_form(prop, EMPTY_SYSTEM, sig).clauses
        [sym] = skolems(sig)
        assert sym.kind == INDIVIDUAL and sym.result == t
        assert clause.literals == (Literal(True, Atom(p, (App(sym),))),)

    def test_names_follow_the_binders_in_order(self):
        # universals are capitalized, with a prime for each repeat; skolems
        # are numbered per base, in the order the pass meets them
        arith = load_preset("arith")
        p = parse_prop("forall x:nat exists y:nat (forall x:nat exists y:nat x = y) "
                       "/\\ x = y", arith.sig)
        assert literal_texts(p, arith.sig) == ["X' = y1(X, X')", "X = y(X)"]
        assert [s.name for s in skolems(arith.sig)] == ["y", "y1"]
        # X, X' and X'' for the three x; then X' is taken for x', so X'''
        p = parse_prop("exists x:nat exists x:nat exists x:nat exists x':nat x = x'",
                       arith.sig)
        assert literal_texts(Not(p), arith.sig) == ["~X'' = X" + "'" * 3]

    def test_free_variables_open_every_witness(self):
        arith = load_preset("arith")
        env = {"u": arith.sig.sorts["nat"]}
        p = parse_prop("exists y:nat u = y", arith.sig, env=env)
        assert literal_texts(p, arith.sig) == ["u = y(u)"]

    def test_skolems_are_never_arrow_sorted_stand_ins(self):
        # a witness under a nonempty prefix is a function of the prefix's
        # base sorts, never an individual of an arrow sort
        sc = load_preset("set-cantor")
        for ax in sc.axioms:
            clausal_form(ax, sc.system, sc.sig)
        assert skolems(sc.sig)
        for sym in skolems(sc.sig):
            assert isinstance(sym.result, BaseSort)
            assert all(isinstance(s, BaseSort) for s in sym.arg_sorts)
            assert sym.kind == (FUNCTION if sym.arg_sorts else INDIVIDUAL)

    def test_surjectivity_axiom_witnesses_take_the_universal(self):
        sc = load_preset("set-cantor")
        clausal_form(sc.axioms[0], sc.system, sc.sig)
        assert len(skolems(sc.sig)) == 2
        for sym in skolems(sc.sig):
            assert sym.kind == FUNCTION
            assert len(sym.arg_sorts) == 1


class TestClausalForm:
    def test_chain_head_reduces_to_the_empty_clause(self):
        chain = load_preset("chain(3)")
        res = clausal_form(chain.axioms[0], chain.system, chain.sig)
        assert len(res.clauses) == 1
        assert res.clauses[0].is_empty()
        assert res.normalized

    def test_leibniz_surjectivity_yields_the_two_clauses(self):
        theory = load_preset("hol-comb")
        sig = theory.sig
        sig.individual("f", sig.sorts["term"])
        sig.individual("g", sig.sorts["term"])
        p = parse_prop("forall x (forall p (eps((p (f (g x)))) <=> eps((p x))))", sig)
        res = clausal_form(p, theory.system, sig)
        env = {}
        expected = [
            ConstrainedClause([
                Literal(False, parse_term_or_atom("eps((P (f (g X))))", sig, env)),
                Literal(True, parse_term_or_atom("eps((P X))", sig, env)),
            ]),
            ConstrainedClause([
                Literal(True, parse_term_or_atom("eps((Q (f (g Y))))", sig, env)),
                Literal(False, parse_term_or_atom("eps((Q Y))", sig, env)),
            ]),
        ]
        assert clause_sets_isomorphic(res.clauses, expected)

    def test_single_atom(self):
        sig = Signature()
        b = Atom(sig.predicate("B", ()), ())
        res = clausal_form(b, EMPTY_SYSTEM, sig)
        assert len(res.clauses) == 1
        assert res.clauses[0].literals == (Literal(True, b),)

    def test_atoms_in_output_are_normal_when_fuel_sufficed(self):
        sc = load_preset("set-cantor")
        for ax in sc.axioms:
            res = clausal_form(ax, sc.system, sc.sig)
            assert res.normalized
            for c in res.clauses:
                for lit in c.literals:
                    assert scan_reduce_once(lit.atom, sc.system) is None

    def test_fuel_exhaustion_is_flagged_not_fatal(self):
        preset, _ = russell_theory()
        p = parse_prop("russell(a) in russell(a)", preset.sig)
        res = clausal_form(p, preset.system, preset.sig, fuel=10)
        assert not res.normalized
        assert res.clauses  # proceeds with the partial form

    def test_ground_equivalence_by_truth_table(self):
        sig = Signature()
        preds = [sig.predicate(f"P{i}", ()) for i in range(4)]
        names = [p.name for p in preds]
        rng = random.Random(29)
        for _ in range(400):
            p = random_ground_prop(rng, preds, 4)
            res = clausal_form(p, EMPTY_SYSTEM, sig)
            for v in all_valuations(names):
                assert eval_ground(p, v) == all(eval_clause(c, v) for c in res.clauses)


class TestReclausify:
    def test_ring_narrowing_shape(self):
        rings = load_preset("integral-rings")
        env = {}
        atom = parse_term_or_atom("a * a = Y", rings.sig, env)
        replacement = parse_prop("x = 0 \\/ y = 0", rings.sig, env=env)
        lhs = parse_term_or_atom("x * y = 0", rings.sig, env)
        clause = ConstrainedClause([Literal(True, atom)], [Constraint(atom, lhs)])
        res = reclausify(clause, 0, replacement, rings.system, rings.sig)
        assert len(res.clauses) == 1
        out = res.clauses[0]
        assert {str(l) for l in out.literals} == {"x = 0", "y = 0"}
        assert out.constraints == frozenset({Constraint(atom, lhs)})

    def test_negative_literal_splits_by_de_morgan(self):
        hol = load_preset("hol-comb")
        sig = hol.sig
        env = {}
        big = parse_term_or_atom("eps((P X))", sig, env)
        keep = parse_term_or_atom("eps((Q Y))", sig, env)
        clause = ConstrainedClause([Literal(False, big), Literal(True, keep)])
        replacement = parse_prop("eps(A) \\/ eps(B)", sig, env=env)
        res = reclausify(clause, 0, replacement, EMPTY_SYSTEM, sig)
        assert len(res.clauses) == 2
        texts = {c.literal_text() for c in res.clauses}
        assert texts == {"~eps(A), eps((Q Y))", "~eps(B), eps((Q Y))"}

    def test_parent_constraints_are_never_dropped(self):
        rings = load_preset("integral-rings")
        env = {}
        a1 = parse_term_or_atom("a * a = Y", rings.sig, env)
        a2 = parse_term_or_atom("a = Z", rings.sig, env)
        parent_con = Constraint(parse_term_or_atom("Y", rings.sig, env),
                                parse_term_or_atom("Z", rings.sig, env))
        clause = ConstrainedClause([Literal(True, a1), Literal(True, a2)], [parent_con])
        replacement = parse_prop("x = 0 \\/ y = 0", rings.sig, env=env)
        res = reclausify(clause, 0, replacement, rings.system, rings.sig)
        for c in res.clauses:
            assert parent_con in c.constraints

    def test_fresh_skolems_under_a_negative_literal(self):
        sc = load_preset("set-cantor")
        env = {}
        atom = parse_term_or_atom("Z in C", sc.sig, env)
        clause = ConstrainedClause([Literal(False, atom)])
        res, changed = renormalize_clause(clause, sc.system, sc.sig)
        assert changed
        # ~(Z in B /\ forall y (<Z,y> in R => ~(Z in y))) splits into two
        # clauses, one with a skolem witness depending on Z
        assert len(res.clauses) == 2
        new_syms = {a.sym.name
                    for c in res.clauses
                    for l in c.literals
                    for a in _apps_of(l.atom)
                    if a.sym.origin == "skolem"}
        assert len(new_syms) == 1
        sym = sc.sig.lookup(next(iter(new_syms)))
        assert sym.kind == FUNCTION and len(sym.arg_sorts) == 1


def _apps_of(x):
    stack = list(x.args)
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            yield t
            stack.extend(t.args)


class TestClauseBasics:
    def test_duplicate_literals_merge(self):
        sig = Signature()
        a = Atom(sig.predicate("A", ()), ())
        c = ConstrainedClause([Literal(True, a), Literal(True, a)])
        assert len(c.literals) == 1

    def test_clause_equality_ignores_order_and_id(self):
        sig = Signature()
        a = Atom(sig.predicate("A", ()), ())
        b = Atom(sig.predicate("B", ()), ())
        c1 = ConstrainedClause([Literal(True, a), Literal(False, b)], id=1)
        c2 = ConstrainedClause([Literal(False, b), Literal(True, a)], id=9)
        assert clause_key(c1) == clause_key(c2)

    def test_constraint_is_symmetric(self):
        sig = Signature()
        u = sig.declare_sort("u")
        x, y = Var("x", u), Var("y", u)
        assert Constraint(x, y) == Constraint(y, x)
        assert hash(Constraint(x, y)) == hash(Constraint(y, x))

    def test_constraint_sides_same_kind(self):
        sig = Signature()
        u = sig.declare_sort("u")
        a = Atom(sig.predicate("A", ()), ())
        with pytest.raises(TypeError):
            Constraint(Var("x", u), a)

    def test_a_literal_is_a_value_that_keeps_its_hash_and_order(self):
        # a literal hashes as (positive, atom): set and dict orders, and with
        # them the recorded traces, rest on that hash
        sig = Signature()
        u = sig.declare_sort("u")
        p, g = sig.predicate("p", (u, u)), sig.function("g", (u,), u)
        a = sig.individual("a", u)

        def atom(name):
            return Atom(p, (App(g, (Var(name, u),)), App(a)))

        lit, twin = Literal(True, atom("X")), Literal(True, atom("X"))
        assert lit.atom is not twin.atom
        assert lit == twin and hash(lit) == hash(twin) == hash((True, atom("X")))
        assert lit != Literal(False, atom("X")) and lit != Literal(True, atom("Y"))
        assert lit != (True, atom("X"))
        assert len({lit, twin, Literal(False, atom("X"))}) == 2
        assert repr(lit) == "Literal(positive=True, atom=Atom('p(g(X), a)'))"
        assert lit._order is None
        order = _literal_order(lit)
        assert order == _literal_sort_key(lit) == (False, "p", ("g(*)", "a"))
        assert _literal_order(lit) is order and lit._order is order
