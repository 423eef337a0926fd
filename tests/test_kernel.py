"""Kernel tests: sorts, terms, propositions, substitutions."""

import random

import pytest

from resmod.kernel import (
    App,
    ArrowSort,
    Atom,
    BaseSort,
    Bottom,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    And,
    Prop,
    RankMismatchError,
    Signature,
    Substitution,
    UnknownSymbolError,
    Var,
    Top,
    arrow,
    children,
    free_names,
    free_vars,
    rename_apart,
    with_children,
)
from resmod.theories import load_preset
from resmod.parser import parse_prop, parse_term

from helpers import random_term, small_signature, sort_of


IOTA = BaseSort("iota")
O = BaseSort("o")


def hol_instance_sig() -> Signature:
    """A hand-decorated instance signature for the simply-typed language."""
    sig = Signature()
    sig.sorts["iota"] = IOTA
    sig.sorts["o"] = O
    sig.declare_sort("iota")
    sig.declare_sort("o")
    # K at the instance (iota, o)
    sig.individual("K_io", arrow(IOTA, O, IOTA))
    sig.function("alpha_io", (ArrowSort(IOTA, O), IOTA), O)
    sig.predicate("eps", (O,))
    return sig


class TestSorts:
    def test_arrow_right_associative(self):
        s = arrow(IOTA, O, IOTA)
        assert s == ArrowSort(IOTA, ArrowSort(O, IOTA))
        assert str(s) == "iota -> o -> iota"

    def test_arrow_parenthesizes_left_nesting(self):
        s = ArrowSort(ArrowSort(IOTA, O), O)
        assert str(s) == "(iota -> o) -> o"

    def test_structural_equality_is_the_only_equality(self):
        assert BaseSort("t") == BaseSort("t")
        assert BaseSort("t") != BaseSort("u")
        assert ArrowSort(IOTA, O) != ArrowSort(O, IOTA)


class TestSortOf:
    def test_decorated_constant_has_its_declared_arrow_sort(self):
        sig = hol_instance_sig()
        k = App(sig.lookup("K_io"))
        assert sort_of(k, sig) == arrow(IOTA, O, IOTA)

    def test_variable_case(self):
        sig = hol_instance_sig()
        assert sort_of(Var("x", IOTA), sig) == IOTA

    def test_rank_mismatch_on_wrong_argument_sort(self):
        sig = hol_instance_sig()
        # first argument must have sort iota -> o
        bad = App(sig.lookup("alpha_io"), (App(sig.lookup("K_io")), Var("x", IOTA)))
        with pytest.raises(RankMismatchError):
            sort_of(bad, sig)

    def test_unknown_symbol(self):
        sig = hol_instance_sig()
        other = Signature()
        u = other.declare_sort("u")
        mystery = other.individual("mystery", u)
        with pytest.raises(UnknownSymbolError):
            sort_of(App(mystery), sig)

    def test_arity_mismatch(self):
        sig = small_signature()
        f = sig.lookup("f")
        with pytest.raises(RankMismatchError):
            sort_of(App(f, (App(sig.lookup("a")),)), sig)

    def test_a_term_5000_levels_deep_is_checked_to_the_bottom(self):
        sig = small_signature()
        f, g = sig.lookup("f"), sig.lookup("g")
        t = Var("x", sig.sorts["u"])
        for _ in range(5000):
            t = App(g, (App(f, (App(sig.lookup("a")), t)),))
        assert sort_of(t, sig) == sig.sorts["u"]
        bottom = App(g, (App(f, (App(sig.lookup("a")),)),))
        for _ in range(5000):
            bottom = App(g, (bottom,))
        with pytest.raises(RankMismatchError, match="f expects 2 arguments"):
            sort_of(bottom, sig)

    def test_an_argument_is_checked_before_its_sort(self):
        # the outer alpha_io's first argument has sort o, not iota -> o, and
        # holds a symbol the signature lacks: the deeper fault is reported
        sig = hol_instance_sig()
        other = Signature()
        mystery = App(other.individual("mystery", other.declare_sort("u")))
        alpha, x = sig.lookup("alpha_io"), Var("x", IOTA)
        with pytest.raises(UnknownSymbolError):
            sort_of(App(alpha, (App(alpha, (mystery, x)), x)), sig)
        # K_io has sort iota -> o -> iota: the inner mismatch is reported
        with pytest.raises(RankMismatchError, match="has sort iota -> o -> iota"):
            sort_of(App(alpha, (App(alpha, (App(sig.lookup("K_io")), x)), x)), sig)


class TestSubstitution:
    def test_two_times_x_example(self):
        arith = load_preset("arith")
        p = parse_prop("2 * x = 4", arith.sig)
        s = Substitution({"x": arith.sig.numeral(2)})
        assert s(p) == parse_prop("2 * 2 = 4", arith.sig)

    def test_empty_substitution_is_identity(self):
        arith = load_preset("arith")
        p = parse_prop("forall x:nat (x = x)", arith.sig)
        assert Substitution()(p) == p

    def test_capture_avoidance_renames_the_binder(self):
        sig = small_signature()
        u = sig.sorts["u"]
        x, y = Var("x", u), Var("y", u)
        p = Forall(y, Atom(sig.lookup("p"), (x, y)))
        q = Substitution({"x": y})(p)
        # the result must be alpha-equivalent to forall y' p(y, y')
        fresh = Var("w", u)
        expected = Forall(fresh, Atom(sig.lookup("p"), (y, fresh)))
        assert q == expected
        assert free_vars(q) == frozenset({y})

    def test_idempotent_substitutions_are_enforced(self):
        u = BaseSort("u")
        with pytest.raises(ValueError):
            Substitution({"x": App(small_signature().lookup("g"), (Var("x", u),))})

    def test_application_is_a_homomorphism(self):
        sig = small_signature()
        u = sig.sorts["u"]
        rng = random.Random(7)
        for _ in range(100):
            t1 = random_term(rng, sig, 3)
            t2 = random_term(rng, sig, 3)
            s = Substitution({"x": random_term(rng, sig, 2, var_names=("w",)),
                              "y": App(sig.lookup("b"))})
            f = sig.lookup("f")
            assert s(App(f, (t1, t2))) == App(f, (s(t1), s(t2)))
            a1 = Atom(sig.lookup("p"), (t1, t2))
            a2 = Atom(sig.lookup("p"), (t2, t1))
            assert s(Or(a1, a2)) == Or(s(a1), s(a2))

    def test_applying_twice_equals_once(self):
        sig = small_signature()
        rng = random.Random(11)
        for _ in range(200):
            t = random_term(rng, sig, 4)
            s = Substitution({"x": random_term(rng, sig, 2, var_names=("u", "z")),
                              "y": random_term(rng, sig, 2, var_names=("u",))})
            once = s(t)
            assert s(once) == once

    def test_compose(self):
        sig = small_signature()
        u = sig.sorts["u"]
        a = App(sig.lookup("a"))
        s1 = Substitution({"x": Var("y", u)})
        s2 = Substitution({"y": a})
        composed = s1.compose(s2)
        assert composed(Var("x", u)) == a
        assert composed(Var("y", u)) == a


class TestAlphaEquality:
    def test_bound_names_are_irrelevant(self):
        sig = small_signature()
        u = sig.sorts["u"]
        p = sig.lookup("p")
        one = Forall(Var("x", u), Exists(Var("y", u), Atom(p, (Var("x", u), Var("y", u)))))
        two = Forall(Var("v", u), Exists(Var("w", u), Atom(p, (Var("v", u), Var("w", u)))))
        assert one == two
        assert hash(one) == hash(two)

    def test_different_binding_structure_differs(self):
        sig = small_signature()
        u = sig.sorts["u"]
        p = sig.lookup("p")
        one = Forall(Var("x", u), Forall(Var("y", u), Atom(p, (Var("x", u), Var("y", u)))))
        two = Forall(Var("x", u), Forall(Var("y", u), Atom(p, (Var("y", u), Var("x", u)))))
        assert one != two

    def test_a_vacuous_binder_differs_from_a_binding_one(self):
        # both inner bodies are p(_0, _0) once binders are named canonically,
        # but _0 is bound by the outer quantifier in one and the inner in two
        sig = small_signature()
        u = sig.sorts["u"]
        p = sig.lookup("p")
        x, y = Var("x", u), Var("y", u)
        one = Forall(x, Exists(y, Atom(p, (x, x))))
        two = Forall(x, Exists(y, Atom(p, (y, y))))
        assert one != two

    @pytest.mark.parametrize("connective", ["not", "implies", "forall"])
    def test_propositions_5000_levels_deep_compare_and_print(self, connective):
        sig = small_signature()
        u = sig.sorts["u"]
        x = Var("x", u)
        atom = Atom(sig.lookup("p"), (x, x))
        wrap = {"not": Not,
                "implies": lambda body: Implies(atom, body),
                "forall": lambda body: Forall(x, body)}[connective]

        def chain(depth):
            p = atom
            for _ in range(depth):
                p = wrap(p)
            return p

        deep = chain(5000)
        assert deep == chain(5000) and {deep: 1}[chain(5000)] == 1
        assert deep != chain(4999) and chain(4999) != deep
        assert repr(deep).startswith(f"{type(deep).__name__}(")

    def test_a_term_5000_levels_deep_prints(self):
        arith = load_preset("arith")
        t = App(arith.sig.lookup("0"))
        for _ in range(5000):
            t = App(arith.sig.lookup("S"), (t,))
        assert repr(t) == f"App('{'S(' * 5000}0{')' * 5000}')"

    def test_print_parse_round_trip_is_alpha_stable(self):
        arith = load_preset("arith")
        p = parse_prop("forall x:nat (exists y:nat (x + y = x))", arith.sig)
        assert parse_prop(str(p), arith.sig) == p


class TestFreeVarsAndRenaming:
    def test_quantifier_masks_its_variable(self):
        sig = small_signature()
        u = sig.sorts["u"]
        p = Forall(Var("x", u), Atom(sig.lookup("p"), (Var("x", u), Var("y", u))))
        assert free_names(p) == frozenset({"y"})

    def test_rename_apart_on_disjoint_values_is_identity(self):
        sig = small_signature()
        t = parse_term("f(x, y)", sig)
        renamed, s = rename_apart({"u", "w"}, t)
        assert renamed == t and s.is_empty()

    def test_rename_apart_yields_fresh_variant(self):
        sig = small_signature()
        t = parse_term("f(x, g(y))", sig)
        renamed, s = rename_apart({"x", "y"}, t)
        assert not (free_names(renamed) & {"x", "y"})
        # a variant: renaming back gives the original
        back = {v.name: Var(k, v.sort) for k, v in s.map.items()}
        from resmod.kernel import subst_term

        assert subst_term(renamed, back) == t

    def test_well_sortedness_preserved_by_substitution(self):
        sig = small_signature()
        rng = random.Random(23)
        for _ in range(100):
            t = random_term(rng, sig, 4)
            s = Substitution({"x": random_term(rng, sig, 2, var_names=("w",))})
            sort_of(s(t), sig)  # raises on violation


class TestChildren:
    def test_every_node_class_is_rebuilt_from_its_children(self):
        sig = small_signature()
        u = sig.sorts["u"]
        x = Var("x", u)
        t = App(sig.lookup("f"), (x, App(sig.lookup("a"))))
        atom = Atom(sig.lookup("p"), (t, x))
        nodes = [x, t, atom, Top(), Bottom(), Not(atom), And(atom, Top()),
                 Or(Bottom(), atom), Implies(atom, atom), Iff(Top(), atom),
                 Forall(x, atom), Exists(x, Not(atom))]

        def concrete(cls):
            subclasses = cls.__subclasses__()
            return set().union(*map(concrete, subclasses)) if subclasses else {cls}

        # one node of each concrete term and proposition class
        assert {type(n) for n in nodes} == {Var, App} | concrete(Prop)
        for n in nodes:
            assert with_children(n, children(n)) == n
        assert children(t) == t.args and children(Iff(Top(), atom)) == (Top(), atom)
        assert with_children(Forall(x, atom), (Top(),)) == Forall(x, Top())
        with pytest.raises(TypeError):
            children(object())
        with pytest.raises(TypeError):
            with_children(object(), ())
