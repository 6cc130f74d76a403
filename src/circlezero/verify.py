"""Unit-circle zero certification: the table of family facts and the
dispatch over the routes, one to a module:

- `criteria`: coefficient criteria (Lakatos / Schinzel with d = 1);
- `oscillation`: the oscillation lemma for W_k and Q_k;
- `signcount`: certified sign changes on the circle, for every family;
- `roots`: certified root balls, which cross-validate every certification.

The integer routes share the fixed-point convention of `fixed`, and every
route returns the dataclasses of `reports`.  What the paper proves per
family lives in one table, FAMILY_SPECS: the Schinzel constant (none:
Lakatos, c = 1) and, for W and Q, the oscillation data, all as fixed-point
pairs; what it takes to build one, the smallest k included, is
`families.FAMILIES`.
Every route takes the built polynomial and reads its target count and origin
zeros from `strip_origin()`; every ball check that cannot decide yet
escalates its precision through `enclosure.escalate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .criteria import lakatos_check, schinzel_check, schinzel_constant_S, schinzel_constant_Y
from .errors import DomainError
from .families import FamilyPoly, build_family
from .oscillation import (OscillationSpec, _pi_plus, _q_eval, _q_uniform_bound, _w_eval,
                          _w_uniform_bound, oscillation_report, sample_points)
from .reports import CERTIFIED_TRUE, CriteriaReport, VerificationReport
# find_roots and simplicity_check too: bench/spans.py wraps them by name here
from .roots import find_roots, simplicity_check, verify_by_roots  # noqa: F401
from .signcount import verify_by_sign_count


@dataclass(frozen=True)
class FamilySpec:
    """The coefficient theorem that certifies one family."""

    # k -> Schinzel constant c (a prec -> (v, e) callable); None: Lakatos, c = 1
    schinzel: Callable[[int], Callable[[int], tuple[int, int]]] | None = None
    oscillation: OscillationSpec | None = None


FAMILY_SPECS: dict[str, FamilySpec] = {
    "Q": FamilySpec(oscillation=OscillationSpec(
        d=Fraction(3, 100),
        j0_denominator=_pi_plus(Fraction(-16), -2, 2),     # 2 - 16/pi^2
        min_k=6, evaluator=_q_eval, uniform_bound=_q_uniform_bound, drop_halves=True)),
    "Y": FamilySpec(schinzel=schinzel_constant_Y),
    "W": FamilySpec(oscillation=OscillationSpec(
        d=Fraction(3, 10),
        j0_denominator=_pi_plus(Fraction(1, 3), 2, -2),    # pi^2/3 - 2
        min_k=11, evaluator=_w_eval, uniform_bound=_w_uniform_bound, drop_halves=False)),
    "S": FamilySpec(schinzel=schinzel_constant_S),
}
_NO_SPEC = FamilySpec()    # R and P: Lakatos, no oscillation data


def criteria_check(poly: FamilyPoly, bits: int = 128) -> CriteriaReport:
    """The family's coefficient criterion: Schinzel with the constant from
    FAMILY_SPECS, or Lakatos where the table gives none."""
    constant = FAMILY_SPECS.get(poly.family, _NO_SPEC).schinzel
    if constant is None:
        return lakatos_check(poly, bits)
    return schinzel_check(poly, constant(poly.k), bits)


def _oscillation_spec(family: str) -> OscillationSpec:
    spec = FAMILY_SPECS.get(family, _NO_SPEC).oscillation
    if spec is None:
        raise DomainError(f"oscillation method applies to W and Q, not {family}")
    return spec


def oscillation_samples(family: str, k: int) -> list[int | Fraction]:
    """The sample angles of the family's comparison function, as indices t
    of t pi / (2(k-1)), the `unit` that `alternating_verify` takes; see
    `oscillation.sample_points`."""
    spec = _oscillation_spec(family)
    if k < spec.min_k:
        raise DomainError(f"{family.lower()}_k sample grid needs k >= {spec.min_k}, got {k}")
    return sample_points(spec, k)


def oscillation_verify(poly: FamilyPoly, bits: int = 128) -> VerificationReport:
    """Certify every nontrivial zero of W_k or Q_k on the unit circle by the
    alternation of the family's comparison function; below the table's
    cutoff k the polynomial takes the sign-count route instead."""
    spec = _oscillation_spec(poly.family)
    if poly.k < spec.min_k:
        rep = verify_by_sign_count(poly, bits)
        rep.detail["routed_from"] = "oscillation"
        return rep
    return oscillation_report(poly, spec, bits)


# W and Q share the one routine; both names stay as entry points.
oscillation_verify_W = oscillation_verify_Q = oscillation_verify


def _criteria_route(poly: FamilyPoly, bits: int) -> VerificationReport:
    crit = criteria_check(poly, bits)
    n = poly.strip_origin().degree
    certified = crit.holds == CERTIFIED_TRUE
    return VerificationReport(poly.family, poly.k, "criteria", n if certified else 0, n,
                              None, None, certified, origin_zeros=poly.origin_multiplicity,
                              detail={"criteria": crit.to_doc()}, verdict=crit.holds)


def verify_family(family: str, k: int, method: str, bits: int = 128) -> list[VerificationReport]:
    """Build one family member and run one or all applicable verification
    methods on it; under "all", criteria runs only where the table gives a
    Schinzel constant and oscillation only where it gives oscillation data."""
    poly = build_family(family, k)
    spec = FAMILY_SPECS.get(family, _NO_SPEC)
    # looked up at call time, so rebinding a module-level route reaches here
    routes = {"criteria": _criteria_route, "oscillation": oscillation_verify,
              "sign-count": verify_by_sign_count, "roots": verify_by_roots}
    if method == "all":
        applies = {"criteria": spec.schinzel is not None,
                   "oscillation": spec.oscillation is not None}
        methods = [m for m in routes if applies.get(m, True)]
    elif method in routes:
        methods = [method]
    else:
        raise DomainError(f"unknown method {method!r}")
    return [routes[m](poly, bits) for m in methods]
