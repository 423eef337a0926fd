"""resmod: a first-order saturation prover modulo a rewrite system.

Rewrite rules split into a term-level class (handled by equational
unification through narrowing) and an atom-level class (handled by the
narrowing inference of the saturation loop); equality constraints may be
postponed and solved at the refutation gate or propagated on the fly.
"""

from .kernel import (
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
    Signature,
    Substitution,
    Symbol,
    Term,
    Top,
    Var,
)
from .rewrite import EtaRule, RewriteRule, RewriteSystem, normalize, reduce_once
from .clausal import Constraint, ConstrainedClause, Literal, clausal_form, reclausify
from .unify import check_solution, e_unify_narrowing, unify_syntactic
from .prover import ProverConfig, SearchResult, saturate
from .theories import load_preset, parse_theory_file

__version__ = "0.1.0"
