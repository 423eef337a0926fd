"""The benchmark's workloads: seeded problem families with their oracles.

A workload is a fixed list of attempts built from the seed.  An attempt
calls one public resmod function (``cli.run_prove``, ``rewrite.normalize``
or ``unify.check_solution``) on inputs generated here, and a judge compares
the result with an oracle from ``oracles``.  The judge returns DECIDED (a
definitive result the oracle accepts), UNDECIDED (``RESOURCE_OUT``,
``PROVED_UNVERIFIED``, normalization out of fuel) or WRONG.

Resmod functions are looked up on their module at call time, so the traced
run's wrappers see every call.

Some inputs expose a defect that resmod has today.  Such an attempt names
the defect in ``known``, decided from a property of the input alone; its
failures count in ``failed`` and ``failed_ratio`` like any other, but only a
failure of an attempt without ``known`` makes the run incorrect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import oracles

DECIDED = "decided"
UNDECIDED = "undecided"
WRONG = "wrong"

FALSE_SATURATED = ("false SATURATED: resolution is skipped when both clauses have "
                   "more than 2 literals")
DEEP_RECURSION = "RecursionError on terms nested about 500 deep"

# Why each problem family is in the benchmark.
FAMILIES = {
    "set-cantor": "the set-cantor preset goal: the on-the-fly given-clause loop, "
                  "subsumption and propagation on the paper's first-order showcase",
    "integral-rings": "the integral-rings preset goal: narrowing with an R-rule that "
                      "splits a clause",
    "chain-modulo": "chain(n) modulo its rewrite system, refuted in one clause: the "
                    "paper's proof-length argument",
    "chain-axioms": "chain_axioms(n), the same theory as plain axioms: the baseline "
                    "whose search grows with n",
    "cnf-mixed": "random ground CNF over 8-10 atoms with clause widths 2-3, half "
                 "satisfiable, judged by a truth table: resolution and redundancy "
                 "on many small searches",
    "cnf-3": "random ground CNF where every clause has 3 literals: keeps the "
             "skipped-resolution defect visible",
    "hol-cantor": "Cantor's theorem in hol-comb and hol-sigma with f, g and the "
                  "surjection axiom: the freeze strategy ending in the refutation "
                  "gate's E-unification",
    "arith-double": "the arith preset goal 2*x = 4, solved at the gate",
    "arith-square": "exists x. x*x = k for seeded squares and non-squares: "
                    "E-unification by narrowing with a Python-integer oracle",
    "arith-times": "normalizing n*m for seeded n, m: leftmost-outermost rewriting "
                   "whose cost grows with the size of the result",
    "church": "Church-numeral plus and mult in hol-sigma: beta, explicit "
              "substitutions and the nested normalization of the eta rule",
    "check-square": "check_solution of x := r against x*x = k, accepted iff r*r = k",
    "deep-normalize": "normalizing numeral(k)+1 for k in the hundreds: long spines",
    "deep-prove": "proving exists x. x = numeral(k): k up to 1000 exposes the "
                  "recursion-depth defect",
}


@dataclass
class Attempt:
    family: str
    label: str
    limit: float  # seconds; the benchmark's own time limit for this attempt
    run: Callable[[], object]
    judge: Callable[[object], str]
    known: str | None = None


def import_resmod() -> SimpleNamespace:
    import resmod.cli
    import resmod.clausal
    import resmod.kernel
    import resmod.prover
    import resmod.rewrite
    import resmod.theories
    import resmod.unify

    return SimpleNamespace(cli=resmod.cli, clausal=resmod.clausal, kernel=resmod.kernel,
                           prover=resmod.prover, rewrite=resmod.rewrite,
                           theories=resmod.theories, unify=resmod.unify)


# ---------------------------------------------------------------------------
# Judges
# ---------------------------------------------------------------------------


def judge_prove(theorem: bool, solution_ok: Callable[[str], bool] | None = None):
    """Judge a ``RunReport`` against the known status of its goal."""

    def judge(report) -> str:
        verdict = report.verdict
        if verdict in ("RESOURCE_OUT", "PROVED_UNVERIFIED"):
            return UNDECIDED
        if verdict == "PROVED" and theorem:
            return DECIDED if solution_ok is None or solution_ok(report.trace) else WRONG
        if verdict == "SATURATED" and not theorem:
            return DECIDED
        return WRONG

    return judge


def judge_normal_form(ok: Callable[[object], bool]):
    def judge(outcome) -> str:
        if not outcome.normal:
            return UNDECIDED
        return DECIDED if ok(outcome.value) else WRONG

    return judge


def judge_check(expected_ok: bool):
    def judge(check) -> str:
        if check.ok == expected_ok:
            return DECIDED
        return UNDECIDED if check.fuel_exhausted else WRONG

    return judge


# ---------------------------------------------------------------------------
# Problem builders
# ---------------------------------------------------------------------------


def fresh(theory):
    """A copy of a preset whose signature the prover may extend (skolem
    symbols) without affecting the next pass."""
    return replace(theory, sig=theory.sig.copy())


def prove(m, family, label, limit, theory, goal, cfg, judge, known=None) -> Attempt:
    return Attempt(family, label, limit,
                   lambda: m.cli.run_prove(fresh(theory), goal, cfg), judge, known)


def random_cnf(rng: random.Random, n: int, m: int, p3: float, satisfiable: bool):
    """Draw clause sets until the truth table gives the wanted status."""
    while True:
        clauses = []
        for _ in range(m):
            width = 3 if rng.random() < p3 else 2
            atoms = rng.sample(range(1, n + 1), width)
            clauses.append(tuple((a, rng.random() < 0.5) for a in atoms))
        if oracles.cnf_satisfiable(n, clauses) == satisfiable:
            return clauses


def cnf_theory(m, n: int, clauses, strategy):
    k = m.kernel
    sig = k.Signature()
    preds = {i: sig.predicate(f"A{i}", ()) for i in range(1, n + 1)}
    axioms = []
    for clause in clauses:
        lits = [k.Atom(preds[a]) if pos else k.Not(k.Atom(preds[a])) for a, pos in clause]
        prop = lits[-1]
        for lit in reversed(lits[:-1]):
            prop = k.Or(lit, prop)
        axioms.append(prop)
    return m.theories.TheoryPreset(f"cnf{n}", sig, m.rewrite.RewriteSystem(()), axioms,
                                   {}, strategy)


def cnf_attempts(m, rng, strategy, family, n_sat, n_unsat, ratio, p3, limit,
                 max_clauses=5_000) -> list[Attempt]:
    """``n_sat`` satisfiable and ``n_unsat`` unsatisfiable instances in a
    seeded order, over 8, 9 and 10 atoms in turn, with ``ratio`` clauses per
    atom, each of width 3 with probability ``p3`` and 2 otherwise."""
    cfg = m.prover.ProverConfig(strategy=strategy, max_clauses=max_clauses)
    statuses = [True] * n_sat + [False] * n_unsat
    rng.shuffle(statuses)
    out = []
    for i, satisfiable in enumerate(statuses):
        n = 8 + i % 3
        clauses = random_cnf(rng, n, round(ratio * n), p3, satisfiable)
        known = None
        if not satisfiable and all(len(c) > 2 for c in clauses):
            known = FALSE_SATURATED
        label = f"{family}/{i}:n={n},m={len(clauses)},{'sat' if satisfiable else 'unsat'}"
        out.append(prove(m, family, label, limit, cnf_theory(m, n, clauses, strategy),
                         m.kernel.Bottom(), cfg, judge_prove(not satisfiable), known))
    return out


def chain_axioms_theory(m, n: int, strategy):
    sig, axioms = m.theories.chain_axioms(n)
    return m.theories.TheoryPreset(f"chain_axioms({n})", sig, m.rewrite.RewriteSystem(()),
                                   axioms, {}, strategy)


def hol_cantor(m, name: str):
    theory = m.theories.load_preset(name)
    term = theory.sig.sorts["term"]
    theory.sig.individual("f", term)
    theory.sig.individual("g", term)
    theory.axioms = [m.theories.surjection_axiom(theory.sig)]
    return theory


def church_terms(k, sig):
    """Application, Church numerals, plus and mult as hol-sigma terms."""
    app, lam, idx = sig.lookup("app"), sig.lookup("lam"), sig.numeral

    def ap(*ts):
        t = ts[0]
        for u in ts[1:]:
            t = k.App(app, (t, u))
        return t

    def lams(n, body):
        for _ in range(n):
            body = k.App(lam, (body,))
        return body

    def church(n):
        body = idx(1)
        for _ in range(n):
            body = ap(idx(2), body)
        return lams(2, body)

    plus = lams(4, ap(idx(4), idx(2), ap(idx(3), idx(2), idx(1))))
    mult = lams(3, ap(idx(3), ap(idx(2), idx(1))))
    return ap, church, plus, mult


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def band_values(rng: random.Random, bands) -> list[int]:
    """One seeded value from each narrow band: the inputs change with the
    seed while the cost of a pass barely does, so runs with different seeds
    stay comparable."""
    return [rng.randint(lo, hi) for lo, hi in bands]


def saturate_onfly(m, rng: random.Random) -> list[Attempt]:
    """On-the-fly saturation: the given-clause loop, the redundancy filter and
    propagate_on_the_fly do nearly all the work; the gate is never called."""
    k, th, pr = m.kernel, m.theories, m.prover
    onfly = pr.ProverConfig(strategy=pr.ON_THE_FLY)
    cantor = th.load_preset("set-cantor")
    rings = th.load_preset("integral-rings")
    out = [
        prove(m, "set-cantor", "set-cantor/cantor", 20.0, cantor, cantor.goals["cantor"],
              onfly, judge_prove(True)),
        prove(m, "integral-rings", "integral-rings/square_zero", 5.0, rings,
              rings.goals["square_zero"], onfly, judge_prove(True)),
    ]
    # chain_axioms(n) takes 0.1-0.3 s here, so these eight slots also hold
    # the workload's 90th percentile
    for n in band_values(rng, [(lo, lo + 1) for lo in range(20, 36, 2)]):
        chain = th.load_preset(f"chain({n})")
        out.append(prove(m, "chain-modulo", f"chain-modulo/n={n}", 5.0, chain,
                         chain.goals["refute"], onfly, judge_prove(True)))
        out.append(prove(m, "chain-axioms", f"chain-axioms/n={n}", 10.0,
                         chain_axioms_theory(m, n, pr.ON_THE_FLY), k.Bottom(), onfly,
                         judge_prove(True)))
    out += cnf_attempts(m, rng, pr.ON_THE_FLY, "cnf-mixed", 40, 40, 3.0, 0.5, 1.0)
    out += cnf_attempts(m, rng, pr.ON_THE_FLY, "cnf-3", 2, 2, 4.3, 1.0, 1.0)
    return out


# The gate's state budget for HOL Cantor: at the default 4,000 states one
# attempt takes 19-35 s; at 300 it still ends in the gate after the same
# 63 (hol-comb) and 90 (hol-sigma) generated clauses, and the E-unifier
# still takes most of the time.
HOL_NARROW_STATES = 300
# Satisfiable sets never saturate under freeze today: they run to the clause
# budget (5,000 by default, 1.4-3.0 s), in a time proportional to it.  Only
# they are run under freeze.  Refuting an unsatisfiable set under freeze
# takes anywhere from 0.02 to 2.7 s (and 1 set in 40 is not refuted within
# 5,000 clauses), which spread wall_s and decided_ratio between seeds beyond
# their bounds.
FREEZE_CNF_MAX_CLAUSES = 1000


def freeze_gate(m, rng: random.Random) -> list[Attempt]:
    """The freeze strategy, ending in the refutation gate: constraints are
    carried rather than solved, beside the E-unifier."""
    k, th, pr = m.kernel, m.theories, m.prover
    freeze = pr.ProverConfig(strategy=pr.FREEZE)
    hol = pr.ProverConfig(strategy=pr.FREEZE, narrow_states=HOL_NARROW_STATES)
    out = []
    for name in ("hol-comb", "hol-sigma"):
        out.append(prove(m, "hol-cantor", f"hol-cantor/{name}", 30.0, hol_cantor(m, name),
                         k.Bottom(), hol, judge_prove(True)))
    arith = th.load_preset("arith")
    out.append(prove(m, "arith-double", "arith-double/double", 5.0, arith,
                     arith.goals["double"], freeze,
                     judge_prove(True, lambda t: oracles.solution_has_root(
                         t, lambda v: 2 * v == 4))))
    sig = arith.sig
    times, eq, nat = sig.lookup("*"), sig.lookup("="), sig.sorts["nat"]
    x = k.Var("x", nat)
    roots = band_values(rng, [(1, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7)])
    # the cost grows with k, so the non-squares come from bands of three
    others = [rng.choice([v for v in range(lo, lo + 3) if not oracles.is_square(v)])
              for lo in range(2, 50, 8)]
    for value in [r * r for r in roots] + others:
        goal = k.Exists(x, k.Atom(eq, (k.App(times, (x, x)), sig.numeral(value))))
        judge = (judge_prove(True, lambda t, v=value: oracles.solution_has_root(
                     t, lambda r: r * r == v))
                 if oracles.is_square(value) else judge_prove(False))
        out.append(prove(m, "arith-square", f"arith-square/k={value}", 5.0, arith, goal,
                         freeze, judge))
    for n in band_values(rng, [(4, 5), (6, 7)]):
        out.append(prove(m, "chain-axioms", f"chain-axioms/n={n}", 20.0,
                         chain_axioms_theory(m, n, pr.FREEZE), k.Bottom(), freeze,
                         judge_prove(True)))
    out += cnf_attempts(m, rng, pr.FREEZE, "cnf-mixed", 4, 0, 3.0, 0.5, 5.0,
                        FREEZE_CNF_MAX_CLAUSES)
    out += cnf_attempts(m, rng, pr.FREEZE, "cnf-3", 1, 1, 4.3, 1.0, 1.5,
                        FREEZE_CNF_MAX_CLAUSES)
    return out


def normalize(m, rng: random.Random) -> list[Attempt]:
    """Rewriting without saturation: rewrite.normalize does nearly all the
    work, directly or under check_solution."""
    k, th = m.kernel, m.theories
    out = []
    arith = th.load_preset("arith")
    sig, system = arith.sig, arith.system
    num = sig.numeral
    times, plus, eq = sig.lookup("*"), sig.lookup("+"), sig.lookup("=")

    def normal_form(family, label, limit, term, ok, known=None):
        return Attempt(family, label, limit,
                       lambda: m.rewrite.normalize(term, system), judge_normal_form(ok),
                       known)

    # the cost of n*m grows mostly with n, the argument times_succ unfolds
    for n in (6, 8, 10) * 4:
        b = rng.randint(n, n + 1)
        out.append(normal_form("arith-times", f"arith-times/{n}*{b}", 10.0,
                               k.App(times, (num(n), num(b))),
                               lambda v, p=n * b: oracles.numeral_value(v) == p))

    sigma = th.load_preset("hol-sigma")
    ap, church, church_plus, church_mult = church_terms(k, sigma.sig)
    for op, want in (("plus", 6), ("mult", 6), ("plus", 7), ("mult", 8)) * 3:
        if op == "plus":
            a = rng.randint(2, want - 2)
            b, fn = want - a, church_plus
        else:
            a, b = rng.choice([(2, want // 2), (want // 2, 2)])
            fn = church_mult
        out.append(Attempt("church", f"church/{op} {a} {b}", 10.0,
                           lambda t=ap(fn, church(a), church(b)): m.rewrite.normalize(
                               t, sigma.system),
                           judge_normal_form(lambda v, w=want: oracles.shape(v)
                                             == oracles.church_normal_form(w))))

    x = k.Var("x", sig.sorts["nat"])
    # each r accepted once (k = r*r) and rejected once (r*r < k < (r+1)*(r+1))
    for r in range(5, 11):
        for value in (r * r, rng.randint(r * r + 1, r * r + 2 * r)):
            constraint = m.clausal.Constraint(k.App(times, (x, x)), num(value))
            solution = k.Substitution({"x": num(r)})
            out.append(Attempt("check-square", f"check-square/x:={r},k={value}", 10.0,
                               lambda s=solution, c=constraint: m.unify.check_solution(
                                   s, [c], system),
                               judge_check(r * r == value)))

    for n in band_values(rng, [(170, 180), (220, 230), (270, 280)]):
        out.append(normal_form("deep-normalize", f"deep-normalize/{n}+1", 10.0,
                               k.App(plus, (num(n), num(1))),
                               lambda v, w=n + 1: oracles.numeral_value(v) == w))

    freeze = m.prover.ProverConfig(strategy=m.prover.FREEZE)
    for n in band_values(rng, [(190, 210), (600, 1000)]):
        value = num(n)

        def deep_prove(value=value):
            # the goal is built inside the attempt: building it is where a
            # deep term first overflows the stack
            goal = k.Exists(x, k.Atom(eq, (x, value)))
            return m.cli.run_prove(fresh(arith), goal, freeze)

        out.append(Attempt("deep-prove", f"deep-prove/x={n}", 1.0, deep_prove,
                           judge_prove(True, lambda t, w=n: oracles.solution_has_root(
                               t, lambda v: v == w)),
                           DEEP_RECURSION if n >= 400 else None))
    return out


WORKLOADS = {
    "saturate-onfly": saturate_onfly,
    "freeze-gate": freeze_gate,
    "normalize": normalize,
}


def build(name: str, seed: int, m) -> list[Attempt]:
    """The attempts of workload ``name`` for ``seed``."""
    return WORKLOADS[name](m, random.Random(f"{name}:{seed}"))
