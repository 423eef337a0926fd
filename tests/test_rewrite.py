"""Rewrite engine tests: matching, reduction, normalization."""

import dataclasses
import gc
import math
import random
import weakref

import pytest

from resmod.clausal import Constraint
from resmod.kernel import (
    PREDICATE, And, App, Atom, Exists, Forall, Implies, Not, Or, Signature, Var, free_names,
    subst_prop, subst_term, term_vars)
from resmod import rewrite
from resmod.rewrite import (
    EMPTY_SYSTEM,
    PINNED,
    R_CLASS,
    EtaRule,
    NormalizeOutcome,
    RewriteRule,
    RewriteSystem,
    RuleClassError,
    match,
    normalize,
    reduce_once,
)
from resmod.theories import load_preset
from resmod.unify import e_unify_narrowing
from resmod.parser import parse_prop, parse_term, parse_term_or_atom

from helpers import (church_terms, head_candidates, normalize_rightmost_innermost,
                     pinned_at, random_arith_term, random_comb_spine, random_sigma_term,
                     random_term, russell_theory, same_root, scan_reduce_once,
                     small_signature, sort_of, subtrees)


class TestRuleClasses:
    def test_term_rule_is_class_e(self):
        arith = load_preset("arith")
        assert [r.cls for r in arith.system.rules] == ["E"] * 4

    def test_atom_rule_is_class_r(self):
        rings = load_preset("integral-rings")
        assert [r.cls for r in rings.system.rules] == ["R"]

    def test_free_rhs_variable_rejected(self):
        sig = small_signature()
        with pytest.raises(RuleClassError):
            RewriteRule("bad", parse_term("g(x)", sig), parse_term("y", sig))

    def test_variable_lhs_rejected(self):
        sig = small_signature()
        u = sig.sorts["u"]
        with pytest.raises(RuleClassError):
            RewriteRule("bad", Var("x", u), Var("x", u))

    def test_partition_is_exhaustive_and_disjoint(self):
        hol = load_preset("hol-comb")
        assert set(hol.system.e_rules) | set(hol.system.r_rules) == set(hol.system.rules)
        assert not set(hol.system.e_rules) & set(hol.system.r_rules)


class TestMatch:
    def test_combinator_pattern(self):
        hol = load_preset("hol-comb")
        pattern = parse_term("(K x y)", hol.sig)
        subject = parse_term("(K a b)", hol.sig)
        b = match(pattern, subject)
        assert b is not None
        assert b["x"] == parse_term("a", hol.sig)
        assert b["y"] == parse_term("b", hol.sig)

    def test_nonlinear_pattern_mismatch(self):
        hol = load_preset("hol-comb")
        pattern = parse_term("(K x x)", hol.sig)
        subject = parse_term("(K a b)", hol.sig)
        assert match(pattern, subject) is None

    def test_atom_match_against_pair_rule(self):
        st = load_preset("set")
        env = {}
        pattern = parse_term_or_atom("w in {x, y}", st.sig, env)
        subject = parse_term_or_atom("c0 in {a0, b0}", st.sig, env)
        b = match(pattern, subject)
        assert b is not None
        assert sorted(b) == ["w", "x", "y"]
        assert str(b["w"]) == "c0"
        assert str(b["x"]) == "a0"
        assert str(b["y"]) == "b0"

    def test_match_instantiates_pattern_to_subject(self):
        sig = small_signature()
        from resmod.kernel import subst_term

        rng = random.Random(5)
        hits = 0
        for _ in range(300):
            pattern = random_term(rng, sig, 3)
            subject = random_term(rng, sig, 3, var_names=("q", "r"))
            b = match(pattern, subject)
            if b is not None:
                hits += 1
                assert subst_term(pattern, b) == subject
        assert hits > 10


class TestReduceOnce:
    def test_k_redex(self):
        hol = load_preset("hol-comb")
        t = parse_term("(K a b)", hol.sig)
        red = reduce_once(t, hol.system)
        assert red is not None
        assert red[0] == parse_term("a", hol.sig)
        assert red[1] == "k"

    def test_normal_term_with_empty_system(self):
        hol = load_preset("hol-comb")
        assert reduce_once(parse_term("a", hol.sig), EMPTY_SYSTEM) is None

    def test_russell_membership_unfolds_once(self):
        preset, _ = russell_theory()
        a = parse_prop("russell(a) in russell(a)", preset.sig)
        red = reduce_once(a, preset.system)
        assert red is not None
        expected = parse_prop("russell(a) in a /\\ ~(russell(a) in russell(a))",
                              preset.sig)
        assert red[0] == expected

    @pytest.mark.parametrize("connective", ["not", "and", "forall"])
    def test_a_proposition_5000_levels_deep_takes_the_step_normalize_takes(self, connective):
        st = load_preset("set-cantor")
        atom = parse_prop("a in pow(b)", st.sig)
        bottom = parse_prop("B in B", st.sig)
        x = Var("x", st.sig.sorts["set"])
        p = atom
        for _ in range(5000):
            p = {"not": lambda q: Not(q), "and": lambda q: And(bottom, q),
                 "forall": lambda q: Forall(x, q)}[connective](p)
        reduct, name = scan_reduce_once(p, st.system)
        assert name == "power"
        assert reduct == normalize(p, st.system, 1).value
        assert reduce_once(p, st.system) == (reduct, name)
        assert reduce_once(bottom, st.system) is None

    def test_subject_reduction_preserves_sorts_and_free_variables(self):
        hol = load_preset("hol-comb")
        rng = random.Random(9)
        term = hol.sig.sorts["term"]
        for _ in range(200):
            t = random_comb_term(rng, hol.sig, 4)
            red = reduce_once(t, hol.system)
            if red is not None:
                assert sort_of(red[0], hol.sig) == term
                assert free_names(red[0]) <= free_names(t)


def random_comb_term(rng, sig, depth, with_vars: bool = False):
    app = sig.lookup("app")
    leaves = ["S", "K", "a", "b", "c"]
    if depth == 0 or rng.random() < 0.3:
        if with_vars and rng.random() < 0.3:
            return Var(rng.choice(("x", "y")), sig.sorts["term"])
        return App(sig.lookup(rng.choice(leaves)))
    return App(app, (random_comb_term(rng, sig, depth - 1, with_vars),
                     random_comb_term(rng, sig, depth - 1, with_vars)))


class TestNormalize:
    def test_two_times_two(self):
        arith = load_preset("arith")
        t = parse_term("S(S(0)) * S(S(0))", arith.sig)
        out = normalize(t, arith.system, 100)
        assert out.normal
        assert out.value == arith.sig.numeral(4)

    def test_fuel_one_on_normal_input(self):
        sig = small_signature()
        t = parse_term("a", sig)
        out = normalize(t, EMPTY_SYSTEM, 1)
        assert out.normal and out.steps == 0 and out.value == t

    def test_russell_proposition_has_no_normal_form(self):
        preset, _ = russell_theory()
        a = parse_prop("russell(a) in russell(a)", preset.sig)
        out = normalize(a, preset.system, 50)
        assert not out.normal and out.steps == 50
        b = parse_prop("russell(a) in a", preset.sig)
        step1 = And(b, Not(a))
        step2 = And(b, Not(step1))
        step3 = And(b, Not(step2))
        reducts, value = [], a
        for _ in range(3):
            value, _ = reduce_once(value, preset.system)
            reducts.append(value)
        assert reducts == [step1, step2, step3]
        assert normalize(a, preset.system, 3) == NormalizeOutcome(False, step3, 3)

    def test_determinism(self):
        arith = load_preset("arith")
        t = parse_term("S(S(S(0))) * S(S(0)) + S(0)", arith.sig)
        out1 = normalize(t, arith.system, 100)
        out2 = normalize(t, arith.system, 100)
        assert out1 == out2

    def test_fuel_must_be_positive(self):
        with pytest.raises(ValueError):
            normalize(parse_term("a", small_signature()), EMPTY_SYSTEM, 0)

    def test_a_system_without_rules_gives_back_its_input(self):
        sig = small_signature()
        for x in (parse_term("f(g(a), x)", sig),
                  parse_prop("forall x (p(x, a) /\\ ~p(a, x))", sig)):
            out = normalize(x, RewriteSystem([]), 1)
            assert out.value is x and out.normal and out.steps == 0

    def test_strategies_agree_on_normalizing_combinator_terms(self):
        hol = load_preset("hol-comb")
        rng = random.Random(42)
        agreed = 0
        tries = 0
        while agreed < 1000 and tries < 20_000:
            tries += 1
            t = random_comb_term(rng, hol.sig, rng.randint(1, 5))
            lo = normalize(t, hol.system, 300)
            ri = normalize_rightmost_innermost(t, hol.system, 300)
            if lo.normal and ri.normal:
                assert lo.value == ri.value, f"strategies disagree on {t}"
                agreed += 1
        assert agreed >= 1000


def iterate_reduce_once(x, system, fuel):
    """The reference for ``normalize``: :func:`helpers.scan_reduce_once`
    until the term is normal or ``fuel`` steps were made."""
    value = x
    for n in range(fuel):
        red = scan_reduce_once(value, system)
        if red is None:
            return NormalizeOutcome(True, value, n)
        value = red[0]
    return NormalizeOutcome(scan_reduce_once(value, system) is None, value, fuel)


def random_eps_prop(rng, sig, depth):
    """A hol-comb proposition over ``eps`` atoms, with quantifiers whose
    variables occur in the atoms below them."""
    term = sig.sorts["term"]
    if depth == 0 or rng.random() < 0.3:
        head = App(sig.lookup(rng.choice(["dnot", "dor", "dall", "K"])))
        t = random_comb_spine(rng, sig, rng.randint(0, 3))
        return Atom(sig.lookup("eps"), (App(sig.lookup("app"), (head, t)),))
    roll = rng.randrange(4)
    if roll == 0:
        return Not(random_eps_prop(rng, sig, depth - 1))
    if roll == 1:
        cls = rng.choice([And, Or])
        return cls(random_eps_prop(rng, sig, depth - 1), random_eps_prop(rng, sig, depth - 1))
    cls = rng.choice([Forall, Exists])
    return cls(Var(rng.choice("xy"), term), random_eps_prop(rng, sig, depth - 1))


class TestNormalizeAgainstReduceOnce:
    """``normalize`` contracts the same redexes in the same order as
    iterating the scan of every rule; small fuels cover running out of
    fuel."""

    FUELS = (1, 2, 3, 5, 8, 40, 300)

    def check(self, inputs, system):
        rng = random.Random(3)
        fuel_out = steps = 0
        for x in inputs:
            fuel = rng.choice(self.FUELS)
            out = normalize(x, system, fuel)
            assert out == iterate_reduce_once(x, system, fuel), f"{x} at fuel {fuel}"
            assert str(out.value) == str(iterate_reduce_once(x, system, fuel).value)
            fuel_out += not out.normal
            steps += out.steps
        return fuel_out, steps

    def test_arith(self):
        arith = load_preset("arith")
        rng = random.Random(11)
        terms = [random_arith_term(rng, arith.sig, rng.randint(1, 4)) for _ in range(300)]
        fuel_out, steps = self.check(terms, arith.system)
        assert fuel_out > 20 and steps > 300

    def test_hol_comb(self):
        hol = load_preset("hol-comb")
        rng = random.Random(12)
        terms = [random_comb_spine(rng, hol.sig, rng.randint(1, 4)) for _ in range(300)]
        fuel_out, steps = self.check(terms, hol.system)
        assert fuel_out > 20 and steps > 300

    def test_hol_comb_propositions(self):
        hol = load_preset("hol-comb")
        rng = random.Random(13)
        props = [random_eps_prop(rng, hol.sig, rng.randint(1, 4)) for _ in range(300)]
        fuel_out, steps = self.check(props, hol.system)
        assert fuel_out > 20 and steps > 300

    def test_hol_sigma_with_eta(self):
        sigma = load_preset("hol-sigma")
        assert any(r.name == "eta" for r in sigma.system.e_rules)
        rng = random.Random(14)
        terms = [random_sigma_term(rng, sigma.sig, rng.randint(1, 5)) for _ in range(300)]
        fuel_out, steps = self.check(terms, sigma.system)
        assert fuel_out > 20 and steps > 300

    def test_a_repeated_variable_is_matched_again_above_a_contraction(self):
        # g(a) -> a makes the root e(a, a), a redex only for a non-linear rule
        sig = small_signature()
        sig.function("e", (sig.sorts["u"], sig.sorts["u"]), sig.sorts["u"])
        system = RewriteSystem([
            RewriteRule("diag", parse_term("e(x, x)", sig), parse_term("x", sig)),
            RewriteRule("drop", parse_term("g(y)", sig), parse_term("y", sig)),
        ])
        t = parse_term("e(a, g(a))", sig)
        out = normalize(t, system, 10)
        assert out == NormalizeOutcome(True, parse_term("a", sig), 2)
        assert out == iterate_reduce_once(t, system, 10)


    def test_an_eta_redex_made_by_a_contraction_below_it(self):
        # fn = d^2001(c)[shift] needs one step more than the eta rule's
        # fuel, so lam((fn 1)) turns into an eta redex only after the first
        # d is dropped, three levels below it and one below the deepest
        # non-variable position of the eta rule
        sig = Signature()
        u, s = sig.declare_sort("u"), sig.declare_sort("s")
        lam = sig.function("lam", (u,), u)
        app = sig.function("app", (u, u), u)
        sub = sig.function("sub", (u, s), u)
        d = sig.function("d", (u,), u)
        shift, one, c = sig.individual("shift", s), sig.individual("1", u), sig.individual("c", u)
        system = RewriteSystem([
            EtaRule("eta", lam, app, sub, shift, one, u),
            RewriteRule("drop", App(d, (Var("y", u),)), Var("y", u)),
        ])
        body = App(c)
        for _ in range(2001):
            body = App(d, (body,))
        t = App(lam, (App(app, (App(sub, (body, App(shift))), App(one))),))
        out = normalize(t, system, 10)
        assert out == NormalizeOutcome(True, App(c), 2)
        assert out == iterate_reduce_once(t, system, 10)


def extended_sigma():
    """hol-sigma with ``e : term -> term`` and ``d : subst -> subst``, each
    dropped by a rule: contractions that make a ``1`` or a substitution
    at any depth."""
    sigma = load_preset("hol-sigma")
    sig = sigma.sig
    term, subst = sig.sorts["term"], sig.sorts["subst"]
    e, d = sig.function("e", (term,), term), sig.function("d", (subst,), subst)
    system = sigma.system.extend([
        RewriteRule("drop_e", App(e, (Var("y", term),)), Var("y", term)),
        RewriteRule("drop_d", App(d, (Var("r", subst),)), Var("r", subst)),
    ])
    return sig, system


class TestPinnedNodes:
    """After a contraction ``normalize`` looks again from two levels above
    it in hol-sigma, or from the outermost node above it that fits the
    skeleton of eta, ``lam(app(_, 1))``, or of sigma_surj, ``cons(sub(1,
    _), comp(shift, _))``, if that is higher."""

    @pytest.mark.parametrize("text, value", [
        # t = comp(shift, d(shift)) turns into s three levels below the cons
        ("cons(sub(1, comp(shift, shift)), comp(shift, comp(shift, d(shift))))",
         "comp(shift, shift)"),
        # and four levels below it
        ("cons(sub(1, comp(shift, shift)), comp(shift, comp(shift, d(d(shift)))))",
         "comp(shift, shift)"),
        ("cons(sub(1, comp(shift, shift)), comp(shift, comp(d(shift), shift)))",
         "comp(shift, shift)"),
    ])
    def test_a_sigma_surj_redex_made_by_a_contraction_below_it(self, text, value):
        sig, system = extended_sigma()
        t = parse_term(text, sig)
        assert dispatch(system, t) is PINNED
        steps = text.count("d(")
        out = normalize(t, system, 10)
        assert out == NormalizeOutcome(True, parse_term(value, sig), steps + 1)
        assert out == iterate_reduce_once(t, system, 10)

    @pytest.mark.parametrize("text, value", [
        # the 1 of sigma_surj's skeleton, two levels below the cons
        ("cons(sub(e(1), shift), comp(shift, shift))", "shift"),
        ("cons(sub(e(1), comp(shift, shift)), comp(shift, comp(shift, shift)))",
         "comp(shift, shift)"),
        # the 1 of eta's, two levels below the lam
        ("lam(app(sub(1, shift), e(1)))", "1"),
    ])
    def test_a_redex_whose_skeleton_a_contraction_two_levels_below_completes(
            self, text, value):
        sig, system = extended_sigma()
        t = parse_term(text, sig)
        assert dispatch(system, t) is None
        out = normalize(t, system, 10)
        assert out == NormalizeOutcome(True, parse_term(value, sig), 2)
        assert out == iterate_reduce_once(t, system, 10)


class TestChurchNumerals:
    """Church ``plus`` and ``mult`` of numerals 1 to 8 in hol-sigma, the
    benchmark's ``church`` shapes: one ``normalize`` run contracts the
    redexes iterating the scan of every rule contracts, with the same rules,
    and stops where the scan's reduct after as many steps as its fuel is."""

    def naming_run(self, monkeypatch, x, system, fuel):
        """``normalize(x, system, fuel)`` and the names of the rules that
        fired in it, in order."""
        names = []

        class Naming(rewrite._Normalizer):
            @property
            def fired(self):
                return self.__dict__["fired"]

            @fired.setter
            def fired(self, contractor):
                self.__dict__["fired"] = contractor
                if contractor is not None:
                    names.append(contractor.rule_name)

        monkeypatch.setattr(rewrite, "_Normalizer", Naming)
        out = normalize(x, system, fuel)
        monkeypatch.undo()
        return out, names

    @pytest.mark.parametrize("op", ["plus", "mult"])
    def test_one_run_steps_as_the_scan_does(self, op, monkeypatch):
        sigma = load_preset("hol-sigma")
        ap, church, plus, mult = church_terms(sigma.sig)
        rules = set()
        for a, b in [(a, 9 - a) for a in range(1, 9)] + [(1, 1)]:
            t = ap(plus if op == "plus" else mult, church(a), church(b))
            values, names = [t], []
            while (red := scan_reduce_once(values[-1], sigma.system)) is not None:
                values.append(red[0])
                names.append(red[1])
            out, fired = self.naming_run(monkeypatch, t, sigma.system, 10_000)
            assert out == NormalizeOutcome(True, values[-1], len(names))
            assert fired == names
            for fuel in (1, len(names) // 3, len(names) - 1):
                assert normalize(t, sigma.system, fuel) == \
                    NormalizeOutcome(False, values[fuel], fuel)
            rules.update(names)
        # beta and nine sigma-rules fire; mult 1 1 reduces to lam(lam(2 1)),
        # which eta contracts
        assert {"beta", "sigma_app", "sigma_one", "sigma_lam", "sigma_sub",
                "sigma_assoc", "sigma_cons_comp", "sigma_shift_cons", "sigma_comp_id"} <= rules
        assert ("eta" in rules) is (op == "mult")


def random_sig_term(rng, sig, sort, depth):
    """A term of ``sort`` over every function symbol of ``sig``, with the
    variables x and y."""
    symbols = [s for s in sig.symbols.values() if s.kind != PREDICATE and s.result == sort]
    leaves = [s for s in symbols if not s.arg_sorts]
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25 or not leaves:
            return Var(rng.choice("xy"), sort)
        return App(rng.choice(leaves))
    sym = rng.choice(symbols)
    return App(sym, tuple(random_sig_term(rng, sig, a, depth - 1) for a in sym.arg_sorts))


def random_sig_atom(rng, sig, depth, draw=None):
    """An atom over a predicate of ``sig``, its arguments drawn by ``draw``
    (by default :func:`random_sig_term`)."""
    pred = rng.choice([s for s in sig.symbols.values() if s.kind == PREDICATE])
    draw = draw or (lambda sort: random_sig_term(rng, sig, sort, rng.randint(0, depth)))
    return Atom(pred, tuple(draw(sort) for sort in pred.arg_sorts))


def tied_system():
    """A small system whose rules tie on their roots, one of them non-linear,
    and whose left sides have variable arguments."""
    sig = small_signature()
    u = sig.sorts["u"]
    sig.function("e", (u, u), u)
    e_rules = [("diag", "e(x, x)", "x"), ("e_left", "e(g(y), z)", "z"),
               ("f_a", "f(a, y)", "g(y)"), ("f_b", "f(x, b)", "x")]
    r_rules = [("p_diag", "p(x, x)", "p(a, b)"), ("p_g", "p(g(x), y)", "p(x, y)")]
    return sig, RewriteSystem(
        [RewriteRule(name, parse_term(lhs, sig), parse_term(rhs, sig))
         for name, lhs, rhs in e_rules]
        + [RewriteRule(name, parse_prop(lhs, sig), parse_prop(rhs, sig))
           for name, lhs, rhs in r_rules])


def tied_subjects(sig):
    """Nodes of the tied system that only a careful matcher gets right: a
    repeated variable bound to equal and to different terms, arguments built
    with ``App`` that have the wrong sort, a ``g`` that a display directive
    replaced, a new symbol with the same name, and an ``e`` and a ``p`` of
    another arity under the names of the rules' roots."""
    v = sig.declare_sort("v")
    d = App(sig.individual("d", v))
    a, b = App(sig.lookup("a")), App(sig.lookup("b"))
    e, f, g, p = (sig.lookup(name) for name in "efgp")
    shown_g = dataclasses.replace(g, display="app")
    assert shown_g is not g and shown_g == g
    ga, shown_ga = App(g, (a,)), App(shown_g, (a,))
    unary_e = dataclasses.replace(e, arg_sorts=e.arg_sorts[:1])
    ternary_p = dataclasses.replace(p, arg_sorts=(*p.arg_sorts, p.arg_sorts[0]))
    terms = [App(e, (a, a)), App(e, (ga, ga)), App(e, (ga, shown_ga)), App(e, (a, b)),
             App(e, (d, d)), App(f, (a, d)), App(f, (d, b)), App(e, (App(g, (d,)), a)),
             App(e, (shown_ga, b)), App(f, (a, shown_ga)), App(e, (Var("x", v), Var("x", v))),
             App(unary_e, (ga,))]
    atoms = [Atom(p, (a, a)), Atom(p, (d, d)), Atom(p, (shown_ga, ga)), Atom(p, (shown_ga, d)),
             Atom(p, (App(shown_g, (d,)), b)), Atom(ternary_p, (ga, a, a))]
    return terms + atoms


def fire(rule, x, system):
    """The contractum of ``rule`` at the root of ``x``, or None, found
    without the index."""
    if isinstance(rule, EtaRule):
        return rule.contract(x, system)
    b = match(rule.lhs, x)
    if b is None:
        return None
    return subst_prop(rule.rhs, b) if rule.cls == R_CLASS else subst_term(rule.rhs, b)


def differential_inputs(name: str, rng: random.Random):
    """400 random terms and atoms of the preset ``name``, or of the tied
    system and then its :func:`tied_subjects`."""
    if name == "tied":
        sig, system = tied_system()
        u = sig.sorts["u"]
        return system, [random_sig_term(rng, sig, u, rng.randint(1, 4)) for _ in range(200)] + \
            [random_sig_atom(rng, sig, 3) for _ in range(200)] + tied_subjects(sig)
    preset = load_preset(name)
    sig = preset.sig
    draw = {
        "arith": lambda sort: random_arith_term(rng, sig, rng.randint(1, 4)),
        "hol-comb": lambda sort: random_comb_spine(rng, sig, rng.randint(1, 4)),
        "hol-sigma": lambda sort: random_sigma_term(rng, sig, rng.randint(1, 5), sort.name),
    }.get(name)
    sort = next(iter(sig.sorts.values()))
    terms = [draw(sort) if draw else random_sig_term(rng, sig, sort, rng.randint(1, 4))
             for _ in range(200)]
    if name == "hol-comb":
        atoms = [random_eps_prop(rng, sig, 0) for _ in range(200)]
    else:
        atoms = [random_sig_atom(rng, sig, 3, draw) for _ in range(200)]
    return preset.system, terms + atoms


def dispatch(system, x):
    """What the dispatcher of the root of ``x`` returns at ``x``:
    ``(contractum, contractor)``, ``PINNED`` or None."""
    if isinstance(x, Atom):
        found = system.r_dispatcher(x.pred.name)
    else:
        found = system.e_dispatcher(x.sym.name)
    return found(x) if found else None


class TestArgumentHeadIndex:
    """At every node, the root's dispatcher returns the contractum and the
    rule of the first rule that fires among those the reference filter
    ``helpers.head_candidates`` gives (the rules of the node's root that fit
    its argument heads); where none fires, ``PINNED`` exactly where the node
    fits the skeleton of a pinning rule (``helpers.pinned_at``), and None
    elsewhere.  No rule that
    matches is left out, so that rule is the first a scan of every rule with
    :func:`match` finds.  Each non-eta candidate's compiled function returns
    what :func:`match` and :func:`subst_term` or :func:`subst_prop` return."""

    @pytest.mark.parametrize("name", ["arith", "hol-comb", "hol-sigma", "set-cantor",
                                      "integral-rings", "tied"])
    def test_the_index_agrees_with_a_scan_of_every_rule(self, name):
        system, inputs = differential_inputs(name, random.Random(f"index:{name}"))
        fired_nodes = ties = skipped = misses = pinned = 0
        for x in inputs:
            for _, node in subtrees(x):
                if isinstance(node, Atom):
                    rules = system.r_rules
                elif isinstance(node, App):
                    rules = system.e_rules
                else:
                    continue
                candidates = head_candidates(system, node)
                skipped += len(same_root(system, node)) - len(candidates)
                reductions = [fire(r, node, system) for r in candidates]
                for r, reduction in zip(candidates, reductions):
                    if not isinstance(r, EtaRule):
                        assert r.compiled(node) == reduction
                misses += reductions.count(None)
                first = next(((r, red) for r, red in zip(candidates, reductions)
                              if red is not None), None)
                found = dispatch(system, node)
                if first is None:
                    assert found is (PINNED if pinned_at(system, node) else None), node
                    pinned += found is PINNED
                else:
                    assert found is not None, node
                    assert (found[0], found[1].rule_name) == (first[1], first[0].name)
                fired = [r for r in rules if fire(r, node, system) is not None]
                assert set(fired) <= set(candidates), f"a rule that matches {node} is dropped"
                if not fired:
                    continue
                assert fired[0] is first[0]
                assert normalize(node, system, 1).value == first[1]
                fired_nodes += 1
                ties += len(fired) > 1
        # the filter leaves out rules of the node's root; where left sides
        # look below the argument heads or repeat a variable, a candidate
        # finds no match at some nodes; in the tied system more than one
        # rule matches at some nodes
        assert fired_nodes >= 10 and skipped > fired_nodes
        assert (misses > 0) is (name in ("hol-comb", "hol-sigma", "tied"))
        # eta and sigma_surj pin in hol-sigma, diag in the tied system
        assert (pinned > 0) is (name in ("hol-sigma", "tied"))
        if name == "tied":
            assert ties > 3

    def test_the_tied_subjects_match_by_name_sort_and_repetition(self):
        sig, system = tied_system()
        fired = [[r.name for r in system.rules if fire(r, x, system) is not None]
                 for x in tied_subjects(sig)]
        assert fired == [["diag"], ["diag", "e_left"], ["diag", "e_left"], [], [], [], [], [],
                         ["e_left"], ["f_a"], [], [], ["p_diag"], [], ["p_diag", "p_g"], [], [],
                         []]

    def test_an_eta_rule_stays_a_candidate_under_lam(self, monkeypatch):
        tried = []
        contract = EtaRule.contract

        def spy(rule, t, system):
            tried.append(t)
            return contract(rule, t, system)

        monkeypatch.setattr(EtaRule, "contract", spy)
        sigma = load_preset("hol-sigma")
        sig, system = sigma.sig, sigma.system
        lam, app, one = sig.lookup("lam"), sig.lookup("app"), App(sig.lookup("1"))
        shifted = App(sig.lookup("sub"), (one, App(sig.lookup("shift"))))
        nodes = [App(lam, (body,)) for body in (one, App(app, (one, one)),
                                                Var("a", sig.sorts["term"]),
                                                App(app, (shifted, one)))]
        # lam((1 1)) fits the eta rule's skeleton lam(app(_, 1))
        assert [dispatch(system, t) for t in nodes[:3]] == [None, PINNED, None]
        contractum, contractor = dispatch(system, nodes[3])
        assert (contractum, contractor.rule_name) == (one, "eta")
        assert tried == nodes
        assert dispatch(system, App(app, (one, one))) is None
        assert tried == nodes

    def test_a_system_is_freed_as_soon_as_it_is_unused(self):
        # its dispatchers, the eta rule's included, refer to it weakly, so
        # no reference cycle keeps it until the garbage collector runs
        sigma = load_preset("hol-sigma")
        t = parse_term("lam(app(lam(app(sub(1, comp(shift, shift)), 1)), 1))", sigma.sig)
        assert normalize(t, sigma.system).value == App(sigma.sig.lookup("1"))
        assert "lam" in sigma.system.e_dispatch
        system = weakref.ref(sigma.system)
        gc.disable()
        try:
            del sigma
            assert system() is None
        finally:
            gc.enable()


def steps_against_the_scan(x, system, limit=60):
    """Step ``x`` with :func:`reduce_once` and with the scan of every rule,
    which must give the same reduct and rule name at each step, until it is
    normal or ``limit`` steps have run; the names of the rules that fired."""
    names = []
    while len(names) < limit:
        red, ref = reduce_once(x, system), scan_reduce_once(x, system)
        assert red == ref, f"step {len(names) + 1} of {x}"
        if red is None:
            break
        x = red[0]
        names.append(red[1])
    return names


class TestReduceOnceAgainstTheScan:
    """``reduce_once``, one step of the indexed and compiled normalizer,
    contracts the redex a scan of every rule at every node contracts, with
    the same rule, step by step."""

    @pytest.mark.parametrize("name", ["arith", "hol-comb", "hol-sigma", "set-cantor",
                                      "integral-rings", "tied"])
    def test_the_input_sets_of_the_index(self, name):
        system, inputs = differential_inputs(name, random.Random(f"steps:{name}"))
        fired = [steps_against_the_scan(x, system) for x in inputs]
        assert max(map(len, fired)) > 1 and fired.count([]) > 10
        assert any("eta" in names for names in fired) is (name == "hol-sigma")

    def test_hol_comb_propositions(self):
        hol = load_preset("hol-comb")
        rng = random.Random(15)
        steps = [len(steps_against_the_scan(random_eps_prop(rng, hol.sig, rng.randint(1, 4)),
                                            hol.system)) for _ in range(200)]
        assert sum(steps) > 300

    @pytest.mark.parametrize("name", ["set-cantor", "integral-rings"])
    def test_propositions_unfold_by_the_r_rules(self, name):
        # the axioms and goals, and each R-rule's left side implying the
        # negation of its right side
        preset = load_preset(name)
        props = preset.axioms + list(preset.goals.values()) + [
            Implies(r.lhs, Not(r.rhs)) for r in preset.system.r_rules]
        names = {name for p in props for name in steps_against_the_scan(p, preset.system)}
        assert names == {r.name for r in preset.system.r_rules}

    def test_nothing_is_a_redex_without_rules(self):
        _, inputs = differential_inputs("tied", random.Random("steps:empty"))
        for x in inputs:
            assert reduce_once(x, EMPTY_SYSTEM) is None
            assert steps_against_the_scan(x, EMPTY_SYSTEM) == []


class TestCompiledRules:
    """What :func:`rewrite._compile` generates from a rule's two sides, and
    ``rewrite._dispatcher`` from the rules of a root."""

    def sources(self, monkeypatch, rules):
        seen = []

        def spy(source, namespace):
            seen.append(source)
            exec(source, namespace)

        monkeypatch.setattr(rewrite, "exec", spy, raising=False)
        return [rule.compiled for rule in rules], seen

    def test_no_text_of_a_theory_reaches_the_source(self, monkeypatch):
        sig = Signature()
        nat = sig.declare_sort("nat'")
        zero = sig.individual("0", nat)
        succ = sig.function("S'", (nat,), nat)
        plus = sig.function("+", (nat, nat), nat)
        leq = sig.predicate("<=", (nat, nat))
        x, y, z = Var("x'", nat), Var("y_", nat), Var("z", nat)
        rules = [
            RewriteRule("plus_succ", App(plus, (App(succ, (x,)), App(plus, (y, App(zero))))),
                        App(succ, (App(plus, (x, y)),))),
            RewriteRule("leq_succ", Atom(leq, (App(succ, (x,)), App(succ, (App(succ, (y,)),)))),
                        Forall(z, Or(Atom(leq, (x, y)), Atom(leq, (z, x))))),
        ]
        compiled, sources = self.sources(monkeypatch, rules)
        system = RewriteSystem(rules)
        dispatchers = system.e_dispatcher("+"), system.r_dispatcher("<=")
        assert len(sources) == 4
        for source in sources:
            for text in ("'", "+", "S'", "<=", "x'", "y_", "nat", "plus_succ", "leq_succ",
                         "z"):
                assert text not in source
        one = App(succ, (App(zero),))
        t = App(plus, (App(succ, (one,)), App(plus, (one, App(zero)))))
        assert compiled[0](t) == fire(rules[0], t, EMPTY_SYSTEM)
        assert compiled[0](t) == App(succ, (App(plus, (one, one)),))
        # z is free in the subject and bound in the right side
        a = Atom(leq, (App(succ, (one,)), App(succ, (App(succ, (z,)),))))
        assert compiled[1](a) == fire(rules[1], a, EMPTY_SYSTEM)
        assert dispatchers[0](t) == (compiled[0](t), compiled[0])
        assert dispatchers[1](a) == (compiled[1](a), compiled[1])
        assert dispatchers[0](App(plus, (one, one))) is None

    def test_a_rule_2000_levels_deep_compiles(self):
        sig = small_signature()
        f, g = sig.lookup("f"), sig.lookup("g")
        x, y = Var("x", sig.sorts["u"]), Var("y", sig.sorts["u"])
        lhs, rhs, subject = x, y, App(sig.lookup("a"))
        for _ in range(2000):
            lhs, rhs, subject = App(g, (lhs,)), App(g, (rhs,)), App(g, (subject,))
        rule = RewriteRule("deep", App(f, (lhs, y)), App(f, (rhs, x)))
        node = App(f, (subject, App(sig.lookup("b"))))
        assert rule.compiled(node) == fire(rule, node, EMPTY_SYSTEM) is not None

    def test_a_rule_is_compiled_on_first_use_and_kept(self, monkeypatch):
        arith = load_preset("arith")
        rules = arith.system.rules
        _, sources = self.sources(monkeypatch, [])
        assert not sources
        t = parse_term("2 + 2", arith.sig)
        assert normalize(t, arith.system).value == arith.sig.numeral(4)
        used = [r.name for r in rules if "compiled" in vars(r)]
        assert used == ["plus_zero", "plus_succ"]
        # the two rules of + and one dispatcher, nothing for *, filed in a
        # plain dict
        assert len(sources) == 3 and sources[2].startswith("def dispatch(")
        assert type(arith.system.e_dispatch) is dict
        assert [root for root, d in arith.system.e_dispatch.items() if d] == ["+"]
        assert "*" not in arith.system.e_dispatch
        normalize(t, arith.system)
        assert len(sources) == 3
        # a new system builds its own dispatcher of the rules compiled already
        normalize(t, RewriteSystem(rules))
        assert len(sources) == 4 and sources[3].startswith("def dispatch(")


class TestNarrowingRules:
    """What the refutation gate narrows with, filed by the rewrite system:
    the non-eta E-rules under their left side's root, in declaration order,
    each with its variables sorted by name and an offset into the block of
    fresh names one basic position reserves."""

    @pytest.mark.parametrize("name, eta", [("arith", False), ("hol-comb", False),
                                           ("hol-sigma", True), ("empty", False)])
    def test_the_non_eta_e_rules_are_filed_under_their_root(self, name, eta):
        system = EMPTY_SYSTEM if name == "empty" else load_preset(name).system
        assert any(isinstance(r, EtaRule) for r in system.e_rules) is eta
        by_root, block = system.narrowing
        unfiled = {root: iter(rules) for root, rules in by_root.items()}
        position = 0
        for rule in system.e_rules:
            if isinstance(rule, EtaRule):
                continue
            filed = next(unfiled[rule.lhs.sym.name])
            assert (filed.lhs, filed.rhs) == (rule.lhs, rule.rhs)
            assert [v for v, _ in filed.variables] == sorted(free_names(rule.lhs))
            assert dict(filed.variables) == {v.name: v.sort for v in term_vars(rule.lhs)}
            # the offsets tile the block in declaration order
            assert filed.offset == position
            position += len(filed.variables)
        assert block == position
        assert all(next(rules, None) is None for rules in unfiled.values())
        assert (block == 0) is (name == "empty")

    def test_a_second_gate_call_reuses_the_filed_rules(self):
        arith = load_preset("arith")
        system, env = arith.system, {}
        con = Constraint(parse_term("x * x", arith.sig, env), parse_term("4", arith.sig, env))
        assert "narrowing" not in vars(system)
        first = e_unify_narrowing([con], system)
        filed = vars(system)["narrowing"]
        assert e_unify_narrowing([con], system) == first and first.is_solutions
        assert vars(system)["narrowing"] is filed


@pytest.mark.parametrize("lhs, reach, pins", [
    ("g(g(x))", 1, False),
    ("f(x, g(g(y)))", 2, False),
    ("f(x, x)", 0, True),
    ("f(x, g(x))", 1, True),
])
def test_reach_is_the_depth_of_the_deepest_left_side(lhs, reach, pins):
    # normalize looks again this far above a contraction; a left side that
    # repeats a variable can match after a change at any depth, so it pins
    # the nodes that fit its skeleton instead
    sig = small_signature()
    rule = RewriteRule("r", parse_term(lhs, sig), parse_term("x", sig))
    assert RewriteSystem([rule]).reach == reach
    assert rule.pins is pins


def test_hol_sigma_reaches_two_levels_and_pins_eta_and_sigma_surj():
    system = load_preset("hol-sigma").system
    assert system.reach == 2
    assert [r.name for r in system.rules if r.pins] == ["eta", "sigma_surj"]
    assert system.without_eta.reach == 2
    assert all(not r.pins for r in load_preset("arith").system.rules)
