"""Concordance invariants of Seifert matrices.

Exact computation of Alexander polynomials, cyclic branched cover homology
orders, cyclotomic classification of which covers are homology spheres,
certified Tristram-Levine signatures, and greedy witness schedules
separating infinitely many knots that share a Seifert matrix.

The package exports the names that the README's library overview lists;
everything else is imported from its module.
"""

from .covers import (
    ClassificationReport,
    classify_prime_power_covers,
    cover_orders,
)
from .exactpoly import IntPolynomial, cyclotomic, cyclotomic_factor_extract, resultant
from .obstruction import (
    FamilyParameters,
    FamilyReport,
    WitnessSchedule,
    family_report,
    verify_separation,
    witness_schedule,
)
from .seifert import (
    FIGURE_EIGHT,
    TREFOIL,
    UNKNOT,
    SeifertMatrix,
    alexander,
    connected_sum,
    mirror,
    multiple,
    torus_2q,
    torus_2q_signatures,
)
from .signatures import (
    JUMP,
    UnitRootArg,
    at_jump,
    signature_profile,
    tl_signature,
    verify_torus_lemma,
)

__version__ = "0.1.0"
