"""Approval-based committee elections: voting rules and proportionality checks.

The package provides exact (rational-arithmetic) implementations of several
committee voting rules -- Thiele's proportional approval voting, Phragmen's
sequential rule, a budget-based sequential rule, and D'Hondt apportionment --
together with decision procedures for proportionality properties of
committees: priceability, laminar proportionality, justified-representation
axioms, core stability and its constrained/approximate variants, and the
Pigou-Dalton and Pareto principles.

All results are ``fractions.Fraction`` or ``int``; the rules compute on ints
over a common denominator internally.  No floating point is involved
anywhere in the election logic, so results are exact and reproducible.
"""

from abcvote.axioms import (
    Deviation,
    PriceSystem,
    check_core_subject_to,
    check_ejr,
    check_pareto,
    check_pigou_dalton,
    check_pjr,
    check_priceable,
    find_core_deviation,
    minimal_core_lambda,
    validate_price_system,
    verify_deviation,
)
from abcvote.generators import (
    FIXTURE_NAMES,
    PartyListInstance,
    fixture,
    gen_laminar,
    gen_party_list,
    gen_random,
    gen_rulex_lower_bound,
    gen_theorem51_family,
)
from abcvote.laminar import (
    check_laminar,
    check_laminar_proportional,
    laminar_proportional_committees,
)
from abcvote.model import (
    BallotClasses,
    Committee,
    ElectionInstance,
    InternalInvariantError,
    ParseError,
    Rational,
    SearchBudgetExceeded,
    format_committee,
    format_rational,
    instance_digest,
    parse_committee,
    parse_instance,
    restrict_profile,
    serialize_instance,
    welfare_vector,
)
from abcvote.rules import (
    PhragmenTrace,
    RuleXTrace,
    dhondt,
    pav_score,
    pav_winners,
    phragmen_sequential,
    rule_x,
    rule_x_complete,
    seq_pav,
)

__all__ = [
    "BallotClasses",
    "Committee",
    "Deviation",
    "ElectionInstance",
    "FIXTURE_NAMES",
    "InternalInvariantError",
    "ParseError",
    "PartyListInstance",
    "PhragmenTrace",
    "PriceSystem",
    "Rational",
    "RuleXTrace",
    "SearchBudgetExceeded",
    "check_core_subject_to",
    "check_ejr",
    "check_laminar",
    "check_laminar_proportional",
    "check_pareto",
    "check_pigou_dalton",
    "check_pjr",
    "check_priceable",
    "dhondt",
    "find_core_deviation",
    "fixture",
    "format_committee",
    "format_rational",
    "gen_laminar",
    "gen_party_list",
    "gen_random",
    "gen_rulex_lower_bound",
    "gen_theorem51_family",
    "instance_digest",
    "laminar_proportional_committees",
    "minimal_core_lambda",
    "parse_committee",
    "parse_instance",
    "pav_score",
    "pav_winners",
    "phragmen_sequential",
    "restrict_profile",
    "rule_x",
    "rule_x_complete",
    "seq_pav",
    "serialize_instance",
    "validate_price_system",
    "verify_deviation",
    "welfare_vector",
]
