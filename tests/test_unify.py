"""Unification tests: syntactic MGU, narrowing E-unification, solution checks."""

import functools
import itertools
import random

import pytest

from resmod import prover, unify
from resmod.clausal import Constraint, ConstrainedClause, Literal
from resmod.kernel import (
    FUNCTION,
    App,
    Atom,
    SortMismatchError,
    Substitution,
    Symbol,
    Var,
    free_names,
    rename_apart,
    subst_term,
    term_vars,
)
from resmod.rewrite import EMPTY_SYSTEM, EtaRule, RewriteRule, RewriteSystem, match, normalize
from resmod.theories import load_preset, parse_theory_file
from resmod.parser import parse_constraints, parse_prop, parse_substitution, \
    parse_term, parse_term_or_atom
from resmod.unify import (
    cheap_fail,
    check_solution,
    e_unify_narrowing,
    propagate_on_the_fly,
    resolve,
    unify_syntactic,
    unify_terms,
    _Eq,
    _Side,
    _clash,
    _is_flex,
)

from helpers import (basic_subterms, eager_narrowing, hol_cantor, random_arith_term,
                     random_comb_spine, random_ground_term, random_sigma_term, random_term,
                     reference_narrowing_step, reference_unify_terms, replace_at, rigid_clash,
                     random_sig_term, small_signature, solve_syntactic, subtrees)


class TestSyntacticUnification:
    def test_variable_binds(self):
        sig = small_signature()
        u = sig.sorts["u"]
        a = App(sig.lookup("a"))
        s = unify_syntactic(Var("x", u), a)
        assert s == Substitution({"x": a})

    def test_occurs_check(self):
        sig = small_signature()
        u = sig.sorts["u"]
        x = Var("x", u)
        assert unify_syntactic(x, App(sig.lookup("g"), (x,))) is None

    def test_pair_atom_resolution_step(self):
        sc = load_preset("set-cantor")
        sig = sc.sig
        sig.function("g0", (sig.sorts["set"],), sig.sorts["set"])
        env = {}
        left = parse_term_or_atom("<X,Y> in R", sig, env)
        right = parse_term_or_atom("<g0(C),C> in R", sig, env)
        s = unify_syntactic(left, right)
        assert s is not None
        assert s.map["X"] == parse_term("g0(C)", sig)
        assert s.map["Y"] == parse_term("C", sig)

    def test_atoms_of_different_predicates_do_not_unify(self):
        sig = small_signature()
        u = sig.sorts["u"]
        q = sig.predicate("q", (u,))
        p = sig.lookup("p")
        a = Atom(p, (Var("x", u), Var("y", u)))
        b = Atom(q, (Var("x", u),))
        assert unify_syntactic(a, b) is None

    def test_kind_mismatch_raises(self):
        sig = small_signature()
        u = sig.sorts["u"]
        a = Atom(sig.lookup("p"), (Var("x", u), Var("y", u)))
        with pytest.raises(SortMismatchError):
            unify_syntactic(Var("x", u), a)

    def test_result_is_idempotent_unifier(self):
        sig = small_signature()
        rng = random.Random(31)
        successes = 0
        for _ in range(1500):
            t = random_term(rng, sig, 3)
            u = random_term(rng, sig, 3)
            s = unify_syntactic(t, u)
            if s is None:
                continue
            successes += 1
            assert s(t) == s(u)
            assert s(s(t)) == s(t)
        assert successes > 100

    def test_most_general_on_constructed_unifiable_pairs(self):
        """Generality oracle: abstract random subterms of a ground term in
        two ways; the induced common instance must factor through the mgu."""
        sig = small_signature()
        rng = random.Random(37)
        checked = 0
        while checked < 1000:
            ground = random_ground_term(rng, sig, 4)
            t, binds_t = _abstract(rng, ground, "x", sig)
            u, binds_u = _abstract(rng, ground, "y", sig)
            witness = {**binds_t, **binds_u}
            mgu = unify_syntactic(t, u)
            assert mgu is not None, (t, u, ground)
            # the witness substitution solves the problem ...
            assert subst_term(t, witness) == ground == subst_term(u, witness)
            # ... and factors through the mgu: delta . mgu == witness
            delta = match(mgu(t), ground)
            assert delta is not None
            for name, value in witness.items():
                assert subst_term(mgu(Var(name, sig.sorts["u"])), delta) == value
            checked += 1


def _abstract(rng, ground, prefix, sig):
    """Replace a few disjoint subterms of a ground term by fresh variables."""
    u = sig.sorts["u"]
    out = ground
    binds = {}
    pos_list = [(p, sub) for p, sub in subtrees(ground) if p]
    rng.shuffle(pos_list)
    taken: list[tuple] = []
    k = 0
    for p, sub in pos_list:
        if k >= 3:
            break
        if any(p[:len(q)] == q or q[:len(p)] == p for q in taken):
            continue
        name = f"{prefix}{k}"
        binds[name] = sub
        out = replace_at(out, p, Var(name, u))
        taken.append(p)
        k += 1
    return out, binds


PRESETS = ("arith", "integral-rings", "hol-comb", "hol-sigma", "set", "set-cantor")


def _pairs_in_state(rng, sig, sort):
    """The equations of one random state: random pairs that share
    variables, a variable against a term that contains it, and a chain of
    variables ``x0 = x1, x1 = x2, ...``."""
    roll = rng.random()
    if roll < 0.5:
        return [(random_sig_term(rng, sig, sort, 3), random_sig_term(rng, sig, sort, 3))
                for _ in range(rng.randint(1, 3))]
    if roll < 0.75:
        t = random_sig_term(rng, sig, sort, 3)
        inside = sorted(term_vars(t), key=lambda v: v.name)
        x = rng.choice(inside) if inside else Var("x", sort)
        pair = (x, t) if rng.random() < 0.5 else (t, x)
        return [(random_sig_term(rng, sig, sort, 2), random_sig_term(rng, sig, sort, 2)),
                pair]
    chain = [Var(f"x{i}", sort) for i in range(rng.randint(2, 6))]
    pairs = list(zip(chain, chain[1:]))
    rng.shuffle(pairs)
    pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
    return pairs + [(rng.choice(chain), random_sig_term(rng, sig, sort, 2, ("x0", "y")))]


class TestTriangularBindings:
    """``unify_terms`` keeps its bindings triangular; ``resolve`` gives the
    map of a unifier that rewrites its substitution at every binding."""

    @pytest.mark.parametrize("preset", PRESETS)
    def test_resolved_bindings_equal_the_rewriting_unifier(self, preset):
        sig = load_preset(preset).sig
        sorts = sorted({s.result for s in sig.symbols.values()
                        if s.kind in ("individual", "function")}, key=str)
        rng = random.Random(f"triangular:{preset}")
        unified = failed = 0
        for _ in range(400):
            sort = rng.choice(sorts)
            bindings, reference = None, {}
            for t, u in _pairs_in_state(rng, sig, sort):
                bindings = unify_terms(t, u, bindings)
                reference = reference_unify_terms(t, u, reference)
                assert (bindings is None) == (reference is None), (t, u)
                if bindings is None:
                    failed += 1
                    break
                # the same bindings, in the same order
                assert list(resolve(bindings).items()) == list(reference.items())
                unified += 1
        assert unified > 300 and failed > 50

    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_resolved_map_passes_the_idempotence_check(self, preset):
        # Substitution.resolved wraps resolve's maps without the check, so
        # each one must pass it, and bind no variable to itself, which the
        # checked constructor would drop
        sig = load_preset(preset).sig
        sorts = sorted({s.result for s in sig.symbols.values()
                        if s.kind in ("individual", "function")}, key=str)
        rng = random.Random(f"idempotent:{preset}")
        checked = 0
        for _ in range(400):
            sort = rng.choice(sorts)
            bindings = None
            for t, u in _pairs_in_state(rng, sig, sort):
                bindings = unify_terms(t, u, bindings)
                if bindings is None:
                    break
                resolved = resolve(bindings)
                assert Substitution(resolved).map == resolved, (t, u)
                assert Substitution.resolved(resolved) == Substitution(resolved)
                checked += 1
        assert checked > 300

    def test_the_input_bindings_are_not_changed(self):
        sig = small_signature()
        u = sig.sorts["u"]
        x, y = Var("x", u), Var("y", u)
        a = App(sig.lookup("a"))
        first = unify_terms(x, App(sig.lookup("g"), (y,)))
        second = unify_terms(y, a, first)
        assert dict(first) == {"x": App(sig.lookup("g"), (y,))}
        assert resolve(second) == {"x": App(sig.lookup("g"), (a,)), "y": a}

    def test_a_long_binding_chain_resolves_without_recursion(self):
        arith = load_preset("arith")
        sig, nat = arith.sig, arith.sig.sorts["nat"]
        n = 5_000
        xs = [Var(f"x{i}", nat) for i in range(n + 1)]
        succ = sig.lookup("S")
        bindings = None
        for i in range(n):
            bindings = unify_terms(xs[i], App(succ, (xs[i + 1],)), bindings)
        bindings = unify_terms(xs[n], sig.numeral(0), bindings)
        resolved = resolve(bindings)
        assert list(resolved) == [x.name for x in xs]
        assert resolved["x0"] == sig.numeral(n)
        assert resolved[f"x{n - 1}"] == sig.numeral(1)
        # a chain of variables, each bound to the next
        chain = solve_syntactic(Constraint(a, b) for a, b in zip(xs, xs[1:]))
        assert chain.map == {x.name: xs[n] for x in xs[:n]}

    def test_a_deep_occurs_check_does_not_overflow(self):
        arith = load_preset("arith")
        sig, nat = arith.sig, arith.sig.sorts["nat"]
        x, succ = Var("x", nat), sig.lookup("S")
        deep = x
        for _ in range(5_000):
            deep = App(succ, (deep,))
        assert unify_terms(x, deep) is None
        assert unify_terms(deep, x) is None
        # the occurrence is found through 5,000 bindings
        xs = [Var(f"x{i}", nat) for i in range(5_001)]
        bindings = None
        for i in range(5_000):
            bindings = unify_terms(xs[i], App(succ, (xs[i + 1],)), bindings)
        assert unify_terms(xs[5_000], App(succ, (xs[0],)), bindings) is None
        assert unify_terms(xs[5_000], App(succ, (Var("y", nat),)), bindings) is not None

    def test_a_ground_binding_is_resolved_as_it_is(self):
        arith = load_preset("arith")
        sig, nat = arith.sig, arith.sig.sorts["nat"]
        value = sig.numeral(800)
        bindings = unify_terms(Var("x", nat), value)
        assert bindings.ground == {"x"}
        assert resolve(bindings)["x"] is value


class TestEUnifyNarrowing:
    def test_distinct_constants_unsatisfiable_with_no_rules(self):
        sig = small_signature()
        a, b = App(sig.lookup("a")), App(sig.lookup("b"))
        out = e_unify_narrowing([Constraint(a, b)], EMPTY_SYSTEM, depth=3)
        assert out.is_unsat

    def test_empty_rules_agree_with_syntactic_unification(self):
        sig = small_signature()
        rng = random.Random(41)
        for _ in range(300):
            t = random_term(rng, sig, 3)
            u = random_term(rng, sig, 3)
            mgu = unify_syntactic(t, u)
            out = e_unify_narrowing([Constraint(t, u)], EMPTY_SYSTEM, depth=3)
            if mgu is None:
                assert out.is_unsat
            else:
                assert out.is_solutions and out.depth == 0
                sol = out.solution
                assert sol(t) == sol(u)

    def test_projection_solves_at_depth_one(self):
        """Expected value derived by brute force: enumerate all one-step
        narrowings of the left side and unify each with the right side."""
        hol = load_preset("hol-comb")
        env = {}
        lhs = parse_term("(K a y)", hol.sig, env)
        rhs = parse_term("a", hol.sig, env)

        # oracle: one-step narrowings at non-variable positions
        oracle_solutions = []
        for pos, sub in subtrees(lhs):
            if isinstance(sub, Var):
                continue
            for rule in hol.system.e_rules:
                fresh = rule.rename_for(free_names(lhs))
                theta = unify_syntactic(sub, fresh.lhs)
                if theta is None:
                    continue
                narrowed = theta(replace_at(lhs, pos, fresh.rhs))
                final = unify_syntactic(narrowed, theta(rhs))
                if final is not None:
                    oracle_solutions.append((pos, rule.name))
        assert oracle_solutions == [((), "k")]  # frozen: exactly one way

        out = e_unify_narrowing([Constraint(lhs, rhs)], hol.system, depth=2,
                                app_symbols=hol.sig.app_symbols)
        assert out.is_solutions and out.depth == 1
        assert "y" not in out.solution.domain  # the mgu leaves y free

    def test_arithmetic_witness_found_at_depth_three(self):
        arith = load_preset("arith")
        env = {}
        lhs = parse_term("2 * x", arith.sig, env)
        rhs = parse_term("4", arith.sig, env)
        lhs_nf = normalize(lhs, arith.system).value  # x + x
        out = e_unify_narrowing([Constraint(lhs_nf, rhs)], arith.system, depth=3)
        assert out.is_solutions and out.depth == 3
        assert out.solution.map == {"x": arith.sig.numeral(2)}

    def test_the_first_checked_candidate_ends_the_search(self):
        """At depth 1 both ``f(x) = c`` steps solve the constraint, by
        ``x := a`` and by ``x := b``; the search ends at the first and does
        not examine the second."""
        theory = parse_theory_file("sort u\nconst a : u\nconst b : u\nconst c : u\n"
                                   "fun f : (u) -> u\nE fa: f(a) -> c\nE fb: f(b) -> c\n")
        env = {}
        con = Constraint(parse_term("f(x)", theory.sig, env), parse_term("c", theory.sig))
        candidates = [Substitution({"x": App(theory.sig.lookup(name))}) for name in "ab"]
        assert all(check_solution(s, [con], theory.system).ok for s in candidates)
        out = e_unify_narrowing([con], theory.system)
        assert (out.kind, out.solution, out.depth) == ("solutions", candidates[0], 1)
        # the start state and the first state of depth 1, which holds two
        assert out.states == 2

    def test_every_solution_passes_the_checker(self):
        arith = load_preset("arith")
        env = {}
        cases = ["x + y", "S(x) + y", "x * S(0)", "S(0) + S(z)"]
        for left in cases:
            lhs = parse_term(left, arith.sig, dict(env))
            rhs = parse_term("S(S(0))", arith.sig)
            out = e_unify_narrowing([Constraint(lhs, rhs)], arith.system, depth=4)
            if out.is_solutions:
                assert check_solution(out.solution, [Constraint(lhs, rhs)], arith.system).ok

    def test_unknown_when_depth_truncates(self):
        arith = load_preset("arith")
        lhs = parse_term("x + x", arith.sig)
        rhs = parse_term("S(S(S(S(0))))", arith.sig)
        out = e_unify_narrowing([Constraint(lhs, rhs)], arith.system, depth=1)
        assert out.is_unknown

    # (kind, states, reason, depth) as eager construction of every successor
    # gave them; the steps of the non-linear rule f(x, x) -> a at f(a, b)
    # pass the clash prefilter but do not unify, so they are no state
    @pytest.mark.parametrize("theory, left, right, max_states, expected", [
        ("ff", "f(a, b)", "c", 1, ("unsatisfiable", 1, "", None)),
        ("ff", "f(a, b)", "c", 4_000, ("unsatisfiable", 1, "", None)),
        ("ff", "f(a, b)", "f(c, c)", 1, ("unknown", 1, "states", None)),
        ("ff", "f(a, b)", "f(c, c)", 2, ("unsatisfiable", 2, "", None)),
        ("arith", "x * x", "9", 4_000, ("unknown", 35, "depth", None)),
        ("arith", "S(x)", "0", 4_000, ("unsatisfiable", 1, "", None)),
    ])
    def test_a_step_whose_rule_does_not_unify_is_not_a_state(
            self, theory, left, right, max_states, expected):
        con, system = _constraint(theory, left, right)
        out = e_unify_narrowing([con], system, max_states=max_states)
        assert (out.kind, out.states, out.reason, out.depth) == expected

    def test_successors_are_built_only_when_the_search_examines_them(self, monkeypatch):
        theory = hol_cantor("hol-comb")
        result = prover.saturate(theory.axioms, theory.system, theory.sig,
                                 prover.ProverConfig(strategy=prover.FREEZE, narrow_states=1))
        calls = {"unify_terms": 0, "_successors": 0}

        def counting(name):
            function = getattr(unify, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(unify, name, counting(name))
        # the narrowing steps that pass the clash test, each of which unifies
        calls["steps"] = 0
        rules, _ = theory.system.narrowing

        def counted(rule):
            def step(sub, first):
                calls["steps"] += not _clash(sub, rule.lhs, frozenset())
                return rule.step(sub, first)
            return step

        for root, filed in rules.items():
            monkeypatch.setitem(rules, root, tuple(r._replace(step=counted(r)) for r in filed))
        # a clause keeps its constraints in a set; sorted, the search order
        # does not depend on the hash seed
        constraints = sorted(result.empty_clause.constraints, key=str)
        out = e_unify_narrowing(constraints, theory.system,
                                app_symbols=theory.sig.app_symbols, max_states=50)
        assert out.is_unknown and out.states == 50
        # 94 unifications of states and 50 narrowing steps for 50 states;
        # building every successor of every expanded state took 506
        # unifications
        assert (calls["unify_terms"], calls["steps"]) == (94, 50)
        assert calls["unify_terms"] + calls["steps"] <= 4 * out.states
        calls["_successors"] = 0
        out = e_unify_narrowing(constraints, theory.system,
                                app_symbols=theory.sig.app_symbols, max_states=300)
        assert out.is_unknown and out.states == 300
        # 39 states expanded for 300 examined; expanding every examined
        # state at once took 300
        assert calls["_successors"] <= out.states // 4


def _constraint(theory: str, left: str, right: str):
    """The constraint ``left = right`` in ``theory``, where ``ff`` is the
    small signature under the single non-linear rule f(x, x) -> a, and the
    theory's rewrite system."""
    if theory == "ff":
        sig = small_signature()
        system = RewriteSystem([RewriteRule("ff", parse_term("f(x, x)", sig),
                                            parse_term("a", sig))])
    else:
        preset = load_preset(theory)
        sig, system = preset.sig, preset.system
    env = {}
    return Constraint(parse_term(left, sig, env), parse_term(right, sig, env)), system


class TestGateAgainstEagerSearch:
    """The gate expands a state only when the search reaches its successors,
    tries only the rules filed under a position's root, and reserves one
    block of fresh names per position.  ``eager_narrowing`` does none of
    that; both must examine the same states, fresh names included, and end
    with the same outcome."""

    @staticmethod
    def run_both(monkeypatch, constraints, system, depth, **kwargs):
        examined: list[tuple] = []
        simplify = unify._simplify

        def recording(eqs, system):
            examined.append(tuple(e.key() for e in eqs))
            return simplify(eqs, system)

        monkeypatch.setattr(unify, "_simplify", recording)
        runs = []
        for search in (e_unify_narrowing, eager_narrowing):
            examined.clear()
            out = search(constraints, system, depth, **kwargs)
            runs.append(((out.kind, out.solution, out.depth, out.reason, out.states),
                         tuple(examined)))
        lazy, eager = runs
        assert lazy == eager
        return lazy[0]

    @pytest.mark.parametrize("max_states", [1, 7, 50])
    @pytest.mark.parametrize("depth", [0, 2, 8])
    @pytest.mark.parametrize("preset, draw", [("arith", random_arith_term),
                                              ("hol-comb", random_comb_spine),
                                              ("hol-sigma", random_sigma_term)])
    def test_random_constraints(self, monkeypatch, preset, draw, depth, max_states):
        theory = load_preset(preset)
        rng = random.Random(f"gate:{preset}:{depth}:{max_states}")
        for _ in range(12):
            constraints = [Constraint(draw(rng, theory.sig, rng.randint(1, 3)),
                                      draw(rng, theory.sig, rng.randint(1, 3)))
                           for _ in range(rng.randint(1, 2))]
            self.run_both(monkeypatch, constraints, theory.system, depth,
                          app_symbols=theory.sig.app_symbols, max_states=max_states)

    @pytest.mark.parametrize("depth, expected", [
        (0, ("unknown", None, None, "depth", 1)),
        (1, ("unsatisfiable", None, None, "", 1)),
        (8, ("unsatisfiable", None, None, "", 1)),
    ])
    def test_a_state_with_no_step_leaves_the_next_level_empty(
            self, monkeypatch, depth, expected):
        # no arith rule is filed under S, so x = S(x) has no step: below the
        # depth bound the next level is empty from its first peek
        con, system = _constraint("arith", "x", "S(x)")
        assert self.run_both(monkeypatch, [con], system, depth) == expected

    @pytest.mark.parametrize("right, max_states", [("c", 1), ("c", 4_000),
                                                   ("f(c, c)", 1), ("f(c, c)", 2)])
    def test_steps_whose_rule_does_not_unify(self, monkeypatch, right, max_states):
        con, system = _constraint("ff", "f(a, b)", right)
        self.run_both(monkeypatch, [con], system, 8, max_states=max_states)


class TestClashPrefilter:
    """A narrowing step skips a rule at a position without unifying when
    ``_clash`` finds the subterm and the rule's left side carrying different
    function symbols at one position (``reference_narrowing_step`` calls it,
    the compiled step tests the same symbols); it must never skip a rule
    whose renamed left side unifies with the subterm."""

    @pytest.mark.parametrize("preset, draw", [("arith", random_arith_term),
                                              ("hol-comb", random_comb_spine),
                                              ("hol-sigma", random_sigma_term)])
    def test_a_rejected_pair_does_not_unify(self, preset, draw):
        theory = load_preset(preset)
        rules = [r for r in theory.system.e_rules if not isinstance(r, EtaRule)]
        rng = random.Random(f"clash:{preset}")
        rejected = unified = 0
        for _ in range(150):
            t = draw(rng, theory.sig, rng.randint(1, 4))
            for _, sub in basic_subterms(t, t):
                for rule in rules:
                    lhs, _ = rename_apart(free_names(sub), rule.lhs)
                    theta = unify_terms(sub, lhs)
                    if _clash(sub, rule.lhs, frozenset()):
                        rejected += 1
                        assert theta is None, f"{rule.name} rejected at {sub}"
                    else:
                        unified += theta is not None
        assert rejected > 1000 and unified > 100

    def test_a_symbol_of_another_arity_clashes(self):
        # one name with two arities: only the arity tells them apart
        sig = small_signature()
        u = sig.sorts["u"]
        a = App(sig.lookup("a"))
        unary = App(Symbol("h", FUNCTION, (u,), u), (a,))
        binary = App(Symbol("h", FUNCTION, (u, u), u), (a, Var("x", u)))
        assert unify_terms(unary, binary) is None
        assert _clash(unary, binary, frozenset())

    def test_a_variable_headed_spine_clashes_only_without_the_app_symbols(self):
        # the narrowing filter passes the application symbols: instantiating
        # the head of (X a) may still yield K
        hol = load_preset("hol-comb")
        spine, k = parse_term("(X a)", hol.sig, {}), parse_term("K", hol.sig)
        assert _clash(spine, k, frozenset())
        assert not _clash(spine, k, frozenset(hol.sig.app_symbols))


def _ff_system() -> RewriteSystem:
    return _constraint("ff", "a", "a")[1]


def _cut(rng: random.Random, term):
    """A skeleton of ``term``: some of its subterms cut back to variables."""
    skel, cut = term, []
    for pos, sub in subtrees(term):
        if (pos and isinstance(sub, App) and rng.random() < 0.15
                and not any(pos[:len(c)] == c for c in cut)):
            skel = replace_at(skel, pos, Var(f"k{len(pos)}", sub.sym.result))
            cut.append(pos)
    return skel


class TestCompiledNarrowingStep:
    """``NarrowingRule.step`` unifies the subterm at a basic position with
    the rule's left side without building a renamed copy of it; it must
    give what ``reference_narrowing_step`` gives (the clash test, the
    renamed copy, ``unify_terms``, ``resolve``, the renamed right side):
    None, or the same θ, keys in binding order included, and right side."""

    @staticmethod
    def same(rule, sub, first) -> bool:
        compiled = rule.step(sub, first)
        reference = reference_narrowing_step(sub, rule, first)
        if reference is None:
            assert compiled is None, (rule.lhs, sub)
            return False
        assert compiled is not None, (rule.lhs, sub)
        assert list(compiled[0].items()) == list(reference[0].items()), (rule.lhs, sub)
        assert compiled[1] == reference[1]
        return True

    @pytest.mark.parametrize("preset, draw", [("arith", random_arith_term),
                                              ("hol-comb", random_comb_spine),
                                              ("hol-sigma", random_sigma_term),
                                              ("ff", random_term)])
    def test_every_basic_subterm_against_every_rule_at_its_root(self, preset, draw):
        if preset == "ff":
            system, sig = _ff_system(), small_signature()
        else:
            theory = load_preset(preset)
            system, sig = theory.system, theory.sig
        rules, _ = system.narrowing
        rng = random.Random(f"step:{preset}")
        tried = unified = repeated = 0
        for _ in range(400):
            t = draw(rng, sig, rng.randint(1, 4))
            for _, sub in basic_subterms(t, t):
                for rule in rules.get(sub.sym.name, ()):
                    tried += 1
                    if self.same(rule, sub, rng.randint(1, 99)):
                        unified += 1
                        names = [v.name for _, v in subtrees(sub) if isinstance(v, Var)]
                        repeated += len(names) > len(set(names))
        # unifiers whose subterm repeats a variable walk their own bindings
        assert unified > 100 and repeated > 10 and tried > unified

    @pytest.mark.parametrize("preset, rule_name, subterm, unifies", [
        # a variable of the subterm met twice: X is bound to y, then y to S(x)
        ("arith", "times_succ", "X * X", True),
        ("arith", "plus_succ", "X + X", True),
        ("arith", "times_succ", "S(X) * X", True),
        ("arith", "plus_succ", "S(X) + S(X)", True),
        ("arith", "times_zero", "S(X) * Y", False),
        # the left side repeats x
        ("ff", "ff", "f(X, X)", True),
        ("ff", "ff", "f(X, Y)", True),
        ("ff", "ff", "f(g(X), g(a))", True),
        ("ff", "ff", "f(f(X, Y), f(Y, X))", True),
        ("ff", "ff", "f(a, b)", False),
        # ... and the occurs check fails
        ("ff", "ff", "f(X, g(X))", False),
        ("ff", "ff", "f(g(X), X)", False),
        ("ff", "ff", "f(f(X, g(Y)), f(Y, X))", False),
        ("hol-sigma", "sigma_surj", "1[s] . shift @ s", True),
        ("hol-sigma", "sigma_surj", "1[t] . shift @ s", True),
        ("hol-sigma", "sigma_surj", "1[id] . shift @ (a . id)", False),
        ("hol-sigma", "sigma_surj", "a . shift @ s", True),
        ("hol-sigma", "sigma_surj", "a . s", True),
        ("hol-sigma", "sigma_one_shift", "1 . shift", True),
        ("hol-sigma", "sigma_one_shift", "a . s", True),
        ("hol-sigma", "sigma_cons_comp", "(a . s) @ (a . s)", True),
        ("hol-comb", "s", "(X X X X)", True),
        ("hol-comb", "k", "(K (X Y) X)", True),
        ("hol-comb", "k", "(X Y Y)", True),
    ])
    def test_variables_shared_repeated_or_caught_by_the_occurs_check(
            self, preset, rule_name, subterm, unifies):
        if preset == "ff":
            system, sig = _ff_system(), small_signature()
        else:
            theory = load_preset(preset)
            system, sig = theory.system, theory.sig
        rules, _ = system.narrowing
        sub = parse_term(subterm, sig, {})
        lhs = next(r.lhs for r in system.e_rules if r.name == rule_name)
        rule = next(r for r in rules[sub.sym.name] if r.lhs == lhs)
        assert self.same(rule, sub, 5) is unifies

    def test_sorts_that_do_not_match(self):
        # a term of the wrong sort where the left side has a variable, as a
        # variable or as an application, and a variable of the wrong sort
        # where it has an application
        sig = small_signature()
        other = sig.declare_sort("v")
        odd = sig.individual("o", other)
        f, g = sig.lookup("f"), sig.lookup("g")
        ff = _ff_system().narrowing[0]["f"][0]
        rule = RewriteRule("fg", parse_term("f(x, g(y))", sig), parse_term("y", sig))
        fg = RewriteSystem([rule]).narrowing[0]["f"][0]
        for sub in (App(f, (Var("X", other), App(sig.lookup("a")))),
                    App(f, (App(odd), App(g, (Var("Y", sig.sorts["u"]),)))),
                    App(f, (App(sig.lookup("a")), Var("Z", other))),
                    App(f, (Var("X", other), Var("X", other)))):
            for step in (ff, fg):
                assert not self.same(step, sub, 3)

    def test_a_symbol_of_another_arity_does_not_unify(self):
        # one name with two arities, at the root and below it
        sig = small_signature()
        u = sig.sorts["u"]
        a = App(sig.lookup("a"))
        binary, unary = Symbol("h", FUNCTION, (u, u), u), Symbol("h", FUNCTION, (u,), u)
        rule = RewriteRule("h", App(binary, (a, Var("x", u))), a)
        step = RewriteSystem([rule]).narrowing[0]["h"][0]
        assert not self.same(step, App(unary, (a,)), 1)
        assert self.same(step, App(binary, (a, a)), 1)
        f = sig.lookup("f")
        rule = RewriteRule("fa", App(f, (a, Var("x", u))), a)
        step = RewriteSystem([rule]).narrowing[0]["f"][0]
        assert not self.same(step, App(f, (App(Symbol("a", FUNCTION, (u,), u), (a,)), a)), 1)
        assert self.same(step, App(f, (a, a)), 1)

    @pytest.mark.parametrize("depth", [70, 2_000])
    def test_a_deep_left_side_compiles(self, depth):
        # past 64 nodes a part of the left side bound to a variable is
        # renamed by subst_term; the code stays one block per node
        sig = small_signature()
        f, g = sig.lookup("f"), sig.lookup("g")
        u = sig.sorts["u"]
        lhs, rhs, subject = Var("x", u), Var("y", u), App(sig.lookup("a"))
        for _ in range(depth):
            lhs, rhs, subject = App(g, (lhs,)), App(g, (rhs,)), App(g, (subject,))
        rule = RewriteRule("deep", App(f, (lhs, Var("y", u))), App(f, (rhs, Var("x", u))))
        step = RewriteSystem([rule]).narrowing[0]["f"][0]
        x = Var("X", u)
        for sub, unifies in ((App(f, (subject, App(sig.lookup("b")))), True),
                             (App(f, (x, x)), True), (App(f, (subject, x)), True),
                             (App(f, (App(g, (x,)), x)), True),
                             (App(f, (App(g, (App(f, (x, x)),)), x)), False)):
            assert self.same(step, sub, 11) is unifies


class TestFiledPositions:
    """A side files once per skeleton the basic positions whose root has a
    narrowing rule (``unify._file``), with each one's ordinal among all
    basic positions; ``_successors`` visits only those and reserves each
    side's blocks of fresh names at once, so every step gets the fresh
    names a counter advanced at every basic position would give it."""

    DRAWS = [("arith", random_arith_term), ("hol-comb", random_comb_spine),
             ("hol-sigma", random_sigma_term)]

    @pytest.mark.parametrize("preset, draw", DRAWS)
    def test_the_filed_positions_are_the_rule_rooted_basic_positions(self, preset, draw):
        theory = load_preset(preset)
        rules, _ = theory.system.narrowing
        rng = random.Random(f"filed:{preset}")
        sides = [theory.sig.numeral(40), App(theory.sig.lookup("S"), (Var("x", theory.sig.sorts["nat"]),))
                 ] if preset == "arith" else []
        sides += [draw(rng, theory.sig, rng.randint(1, 5)) for _ in range(300)]
        filed = 0
        for term in sides:
            skel = _cut(rng, term)
            basic = list(basic_subterms(term, skel))
            count, positions = unify._file(skel, rules)
            assert count == len(basic)
            expected = [(path, ordinal, sub) for ordinal, (path, sub) in enumerate(basic)
                        if sub.sym.name in rules]
            assert [(path, ordinal) for path, ordinal, _, _ in positions] == \
                [(path, ordinal) for path, ordinal, _ in expected]
            reached: list = []
            for _, _, above, steps in positions:
                sub = term if above < 0 else reached[above]
                for i in steps:
                    sub = sub.args[i]
                reached.append(sub)
            assert all(a is b for a, (_, _, b) in zip(reached, expected))
            filed += len(positions)
        assert filed > 300

    @pytest.mark.parametrize("preset, draw", DRAWS)
    def test_each_step_gets_the_block_a_counter_per_position_gives(
            self, monkeypatch, preset, draw):
        theory = load_preset(preset)
        rules, block = theory.system.narrowing
        apps = frozenset(theory.sig.app_symbols)
        calls: list = []

        def recording(step):
            def recorded(sub, first):
                calls.append((sub, first))
                return step(sub, first)
            return recorded

        for root, filed in rules.items():
            monkeypatch.setitem(rules, root, tuple(r._replace(step=recording(r.step))
                                                   for r in filed))
        rng = random.Random(f"blocks:{preset}")
        for _ in range(60):
            terms = [draw(rng, theory.sig, rng.randint(1, 4)) for _ in range(4)]
            eqs = [_Eq(_Side(t, _cut(rng, t)), _Side(u, _cut(rng, u)))
                   for t, u in zip(terms[::2], terms[1::2])]
            start = rng.randint(1, 50)
            fresh = [start]
            calls.clear()
            states = list(unify._successors(eqs, None, rules, apps, fresh, block))
            blocks = itertools.count(start, block)
            expected = []
            for e in eqs:
                if _is_flex(e.left.term, apps) and _is_flex(e.right.term, apps):
                    continue
                for side in (e.left, e.right):
                    for _, sub in basic_subterms(side.term, side.skel):
                        base = next(blocks)
                        expected += [(sub, base + r.offset) for r in rules.get(sub.sym.name, ())]
            assert calls == expected
            assert fresh[0] == next(blocks)
            # every successor's sides that keep their skeleton keep its filing
            for new_eqs, _ in states:
                for old, new in zip(eqs, new_eqs):
                    for a, b in ((old.left, new.left), (old.right, new.right)):
                        if b.skel is a.skel:
                            assert b._filed is a._filed

    def test_a_side_with_no_rule_rooted_position_only_reserves_its_blocks(self, monkeypatch):
        arith = load_preset("arith")
        rules, block = arith.system.narrowing
        filings = []
        file = unify._file
        monkeypatch.setattr(unify, "_file", lambda *args: filings.append(args) or file(*args))
        x = Var("x", arith.sig.sorts["nat"])
        eqs = [_Eq(_Side(arith.sig.numeral(50)), _Side(App(arith.sig.lookup("S"), (x,))))]
        fresh = [1]
        for _ in range(2):
            assert list(unify._successors(eqs, None, rules, frozenset(), fresh, block)) == []
        # 52 basic positions, none of them with a rule; each side filed once
        assert fresh[0] == 1 + 2 * 52 * block and len(filings) == 2
        assert eqs[0].left._filed == (51, ())


class TestCheckSolution:
    def test_identity_on_empty_store(self):
        assert check_solution(Substitution(), [], EMPTY_SYSTEM).ok

    def test_wrong_constant_fails(self):
        sig = small_signature()
        u = sig.sorts["u"]
        a, b = App(sig.lookup("a")), App(sig.lookup("b"))
        s = Substitution({"x": a})
        out = check_solution(s, [Constraint(Var("x", u), b)], EMPTY_SYSTEM)
        assert not out.ok
        assert out.verdicts[0].status == "fail"

    def test_joins_through_rewriting(self):
        arith = load_preset("arith")
        env = {}
        lhs = parse_term("x + x", arith.sig, env)
        rhs = parse_term("4", arith.sig, env)
        s = Substitution({"x": arith.sig.numeral(2)})
        assert check_solution(s, [Constraint(lhs, rhs)], arith.system).ok

    def test_fuel_exhaustion_reported_distinctly(self):
        # a term-level loop: f(x) -> g(f(x)) style divergence via arith is
        # awkward; use a tiny ad hoc looping system instead
        sig = small_signature()
        loop = RewriteRule("loop", parse_term("g(x)", sig),
                           parse_term("g(g(x))", sig))
        system = RewriteSystem([loop])
        u = sig.sorts["u"]
        con = Constraint(parse_term("g(a)", sig), parse_term("b", sig))
        out = check_solution(Substitution(), [con], system, fuel=20)
        assert out.verdicts[0].status == "fuel"
        assert out.fuel_exhausted and not out.ok

    def test_invariant_under_renaming_of_solution_terms(self):
        arith = load_preset("arith")
        env = {}
        lhs = parse_term("x + y", arith.sig, env)
        rhs = parse_term("S(S(0))", arith.sig, env)
        con = [Constraint(lhs, rhs)]
        s1 = parse_substitution("x := S(0)\ny := S(w)", arith.sig, dict(env))
        s2 = parse_substitution("x := S(0)\ny := S(v')", arith.sig, dict(env))
        assert check_solution(s1, con, arith.system).ok \
            == check_solution(s2, con, arith.system).ok


class TestStoreAndPropagation:
    def test_pair_constraint_propagates(self):
        st = load_preset("set")
        env = {}
        lhs = parse_term_or_atom("x in P", st.sig, env)
        rhs = parse_term_or_atom("y in {a0, b0}", st.sig, env)
        s = solve_syntactic([Constraint(lhs, rhs)])
        assert s is not None
        assert s(lhs) == s(rhs)
        assert str(s.map["P"]) == "{a0, b0}"

    def test_empty_store_leaves_clauses_unchanged(self):
        st = load_preset("set")
        env = {}
        atom = parse_term_or_atom("x in y", st.sig, env)
        clause = ConstrainedClause([Literal(True, atom)])
        out = propagate_on_the_fly(clause.literals, unify._term_pairs(clause.constraints),
                                   st.system, st.sig)
        assert out is not None and out.normalized
        assert [(c.literals, c.constraints) for c in out.clauses] \
            == [(clause.literals, clause.constraints)]

    def test_unsolvable_store_discards(self):
        sig = small_signature()
        a, b = App(sig.lookup("a")), App(sig.lookup("b"))
        out = propagate_on_the_fly([], Constraint(a, b).pairs(), EMPTY_SYSTEM, sig)
        assert out is None

    def test_propagation_triggers_reductions(self):
        st = load_preset("set")
        env = {}
        atom = parse_term_or_atom("c0 in P", st.sig, env)
        con = Constraint(parse_term_or_atom("P", st.sig, env),
                         parse_term_or_atom("{a0, b0}", st.sig, env))
        clause = ConstrainedClause([Literal(True, atom)], [con])
        out = propagate_on_the_fly(clause.literals, unify._term_pairs(clause.constraints),
                                   st.system, st.sig)
        assert out is not None
        assert len(out.clauses) == 1
        assert out.clauses[0].literal_text() == "c0 = a0, c0 = b0"
        assert not out.clauses[0].constraints

    def test_cheap_fail(self):
        arith = load_preset("arith")
        env = {}
        # S-headed vs 0: neither root is rewritable by the E-rules
        c1 = Constraint(parse_term("S(x)", arith.sig, env),
                        parse_term("0", arith.sig, env))
        assert cheap_fail(c1, arith.system)
        # plus is an E-root, so no cheap verdict
        c2 = Constraint(parse_term("x + x", arith.sig, env),
                        parse_term("4", arith.sig, env))
        assert not cheap_fail(c2, arith.system)
        # variables never fail cheaply
        c3 = Constraint(parse_term("y", arith.sig, env),
                        parse_term("0", arith.sig, env))
        assert not cheap_fail(c3, arith.system)

    @pytest.mark.parametrize("preset, draw, clashes", [
        ("arith", random_arith_term, 20),
        ("hol-comb", random_comb_spine, 5),
        # the only rigid term symbol the generator draws is 1
        ("hol-sigma", random_sigma_term, 0),
        ("hol-sigma", functools.partial(random_sigma_term, sort="subst"), 10),
    ], ids=["arith", "hol-comb", "hol-sigma-term", "hol-sigma-subst"])
    def test_cheap_fail_finds_exactly_the_rigid_clashes(self, preset, draw, clashes):
        # cheap_fail runs the gate's decomposition; the reference walks the
        # two sides by itself
        theory = load_preset(preset)
        roots = theory.system.e_index
        rng = random.Random(f"cheap:{preset}")
        outcomes = []
        for _ in range(400):
            t = draw(rng, theory.sig, rng.randint(1, 4))
            u = draw(rng, theory.sig, rng.randint(1, 4))
            expected = rigid_clash(t, u, roots)
            assert cheap_fail(Constraint(t, u), theory.system) == expected, f"{t} = {u}"
            outcomes.append(expected)
        assert outcomes.count(True) >= clashes and outcomes.count(False) > 300
