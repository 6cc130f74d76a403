"""Verification engines: criteria, oscillation, sign counting, root finding."""

import cmath
import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp

from circlezero import families, fixed, oscillation, signcount
from circlezero import roots as roots_mod
from circlezero.criteria import (
    abs_square_poly,
    lakatos_check,
    observation_identity,
    schinzel_check,
    schinzel_constant_S,
    schinzel_constant_Y,
)
from circlezero.enclosure import (ComplexEnclosure, RealEnclosure, ball_acos, ball_cos_sin,
                                  escalate, lambda_k)
from circlezero.errors import DomainError, NumericError, PrecisionError
from circlezero.families import (
    FAMILIES,
    FamilyPoly,
    ZetaCoefficient,
    build_family,
    build_P,
    build_Q,
    build_R,
    build_S,
    build_W,
    build_Y,
)
from circlezero.fixed import GUARD, TABLE_ERR, from_ball
from circlezero.oscillation import _q_eval, _w_eval, alternating_verify
from circlezero.reports import CERTIFIED_FALSE, CERTIFIED_TRUE, INDETERMINATE
from circlezero.roots import RootDiscs, find_roots, simplicity_check, verify_by_roots
from circlezero.signcount import (
    _first_grid,
    _TrigEvaluator,
    counted_form,
    verify_by_sign_count,
)
from circlezero.verify import (
    FAMILY_SPECS,
    criteria_check,
    oscillation_verify,
    oscillation_samples,
    oscillation_verify_Q,
    oscillation_verify_W,
    verify_family,
)

F = Fraction


# -- criteria ---------------------------------------------------------------

def test_lakatos_S2():
    rep = lakatos_check(build_S(2))
    assert rep.holds == CERTIFIED_TRUE and rep.exact
    # |A_top| - sum |A_j - A_top| = 5 - (0 + 1 + 0) = 4
    assert rep.margin.contains(F(4))


def test_lakatos_abs_square_certified_false():
    # Lakatos margin for |P_k(iz)|^2 is |A_4k| (1 - 4k(k-1)) < 0
    for k in (2, 3):
        rep = lakatos_check(abs_square_poly(k))
        assert rep.holds == CERTIFIED_FALSE
    rep = lakatos_check(abs_square_poly(2))
    assert rep.margin.contains(F(1, 8100) * (1 - 8))


def test_lakatos_constant_trivial():
    rep = lakatos_check(build_Y(2).strip_origin())
    assert rep.holds == CERTIFIED_TRUE


def test_lakatos_non_reciprocal_rejected():
    poly = FamilyPoly("S", 1, 0, (ZetaCoefficient.rational(1),
                                  ZetaCoefficient.rational(2)), +1)
    with pytest.raises(DomainError):
        lakatos_check(poly)
    with pytest.raises(DomainError, match="W_5"):    # eps = -1: self-inversive, not reciprocal
        lakatos_check(build_W(5))


def test_schinzel_S_paper_constant():
    for k in (1, 3, 25, 50):
        rep = schinzel_check(build_S(k), schinzel_constant_S(k))
        assert rep.holds == CERTIFIED_TRUE, k
        assert rep.margin.sign() > 0


def test_schinzel_Y_paper_constant():
    for k in (3, 5, 25, 50):
        rep = schinzel_check(build_Y(k), schinzel_constant_Y(k))
        assert rep.holds == CERTIFIED_TRUE, k


def test_schinzel_c_zero_certified_false():
    rep = schinzel_check(build_S(3), F(0))
    assert rep.holds == CERTIFIED_FALSE and rep.exact


def test_criteria_exact_path_bits_floor():
    # the exact margin decides at any precision, but the floor still applies
    for bits in (0, -5, 63):
        with pytest.raises(DomainError):
            lakatos_check(build_S(2), bits=bits)
        with pytest.raises(DomainError):
            schinzel_check(build_S(2), F(1), bits=bits)
    assert lakatos_check(build_S(2), bits=64).holds == CERTIFIED_TRUE
    assert schinzel_check(build_S(2), F(1), bits=64).holds == CERTIFIED_TRUE


def test_criteria_exact_path_keeps_exact_margin():
    # a rational c on a rational polynomial: the margin is the exact Fraction,
    # as a ball at the requested bits, and the report says exact
    for k in range(1, 11):
        s = build_S(k)
        coeffs = [c.a for c in s.coeffs]
        for c, check in ((F(1), lakatos_check), (F(0), None), (F(5, 4), None), (F(1, 3), None)):
            rep = check(s) if check else schinzel_check(s, c)
            top = coeffs[-1]
            exact = abs(top) - sum(abs(c * a - top) for a in coeffs)
            ball = RealEnclosure.exact(exact, 128)
            assert rep.exact and (rep.margin.mid, rep.margin.rad) == (ball.mid, ball.rad), (k, c)
            assert rep.margin.contains(exact)


def _margin_reference(p, c, bits):
    """The criteria margin of p at four times the precision, in mpmath."""
    with mp.workprec(4 * bits):
        lam = mp.zeta(2 * p.k - 1) / mp.pi ** (2 * p.k - 1) if p.k >= 2 else 0
        q = p.strip_origin()
        vals = [mp.mpf(x.a.numerator) / x.a.denominator
                + mp.mpf(x.b.numerator) / x.b.denominator * lam
                + mp.mpf(x.c.numerator) / x.c.denominator * lam ** 2
                for x in q.coeffs[:q.degree + 1]]
        top = vals[-1]
        return abs(top) - sum(abs(c * v - top) for v in vals)


def _margin_cases():
    with mp.workprec(512):
        pi = mp.pi
        cases = [(build_S(k), pi / (4 * (1 + mp.mpf(3) ** (-1 - 2 * k))), schinzel_constant_S(k))
                 for k in range(1, 61)]
        cases += [(build_Y(k), pi ** 2 * (1 - mp.mpf(2) ** (2 - 2 * k))
                   / (8 * (1 - mp.mpf(2) ** (3 - 2 * k))), schinzel_constant_Y(k))
                  for k in range(3, 61)]
    cases += [(abs_square_poly(k), 1, None) for k in range(2, 6)]
    cases += [(build_P(k), 1, None) for k in (2, 4, 10, 30)]
    cases += [(build_Q(k), 1, None) for k in (2, 4, 10, 30)]
    return cases


def test_criteria_margin_ball_contains_finer_margin():
    # S 1..60 and Y 3..60 (Schinzel), |P_k(iz)|^2, P_k and Q_k (Lakatos): the
    # integer margin's ball holds the margin computed at four times the precision
    for p, c, constant in _margin_cases():
        rep = schinzel_check(p, constant) if constant else lakatos_check(p)
        assert not rep.exact
        with mp.workprec(512):
            ref = _margin_reference(p, c, 128)
            assert abs(ref - rep.margin.midpoint) <= rep.margin.radius, (p.family, p.k)
            assert rep.margin.radius < abs(ref) * mp.mpf(2) ** -100, (p.family, p.k)
        want = CERTIFIED_TRUE if ref > 0 else CERTIFIED_FALSE
        assert rep.holds == want, (p.family, p.k)


def test_criteria_straddling_c_escalates_to_indeterminate():
    # S_2 = 5 + 6z + 5z^2 has margin 20 - 16c for c >= 1, zero at c = 5/4: a c
    # pair, 5/4 +- 2^-40, that keeps straddling 5/4 is retried at every
    # precision and never certifies
    seen = []

    def c(prec):
        seen.append(prec)
        return 5 << (prec - 2), 1 << (prec - 40)

    rep = schinzel_check(build_S(2), c)
    assert seen == [b + GUARD for b in (128, 256, 512, 1024, 2048)]
    assert rep.holds == INDETERMINATE and not rep.exact
    assert rep.margin.contains_zero() and rep.margin.prec == 2048
    assert rep.c.contains(F(5, 4)) and rep.c.prec == 2048


class _FixedPoly:
    """A stand-in that hands out given fixed-point coefficients."""

    def __init__(self, fixed_coefficients):
        self.fc = fixed_coefficients

    def fixed_coefficients(self, prec, count):
        return self.fc


_TERM = st.tuples(st.integers(-2 ** 20, 2 ** 20), st.integers(0, 2 ** 8), st.sampled_from([-1, 0, 1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_TERM, min_size=1, max_size=8), _TERM, st.integers(-8, 8))
def test_margin_fixed_bound_holds_at_every_corner(terms, c_term, emax):
    # each A_j at an end or the centre of its ball 2^(emax - prec)(C_j +- e_j),
    # and c at an end or the centre of (v +- e_c) 2^-prec: the exact margin
    # lies in (M +- E) 2^-q
    from circlezero import criteria

    prec = 16
    C, e = [t[0] for t in terms], [t[1] for t in terms]
    M, E, q = criteria._margin_fixed(_FixedPoly((emax, C, e)), len(C), c_term[:2], prec)
    A = [(Cj + d * ej) * F(2) ** (emax - prec) for Cj, ej, d in terms]
    c = F(c_term[0] + c_term[2] * c_term[1], 2 ** prec)
    margin = abs(A[-1]) - sum(abs(c * a - A[-1]) for a in A)
    assert abs(margin - F(M, 2 ** q)) <= F(E, 2 ** q)


def _count_ball_operations(monkeypatch) -> list[str]:
    """The names of the RealEnclosure operators called from now on, in order."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "abs", "pow_int", "shift", "sqrt", "sqr"):
        orig = getattr(RealEnclosure, name)
        monkeypatch.setattr(RealEnclosure, name,
                            lambda *a, _o=orig, _n=name, **kw: calls.append(_n) or _o(*a, **kw))
    return calls


def test_criteria_route_makes_no_ball_operation(monkeypatch):
    # lambda_k, the generic fixed_coefficients and the margin loop run on
    # integers: no RealEnclosure operator is called inside them
    from circlezero import criteria

    calls = _count_ball_operations(monkeypatch)
    for k in (2, 3, 21, 100, 450, 2048):
        lambda_k(k, 128)
    assert calls == []
    for p in [build_R(5), build_Q(12), build_W(12), build_Y(13), build_S(9), abs_square_poly(3)]:
        p.fixed_coefficients(160, len(p.coeffs))
    assert calls == []
    for p in [build_S(20), build_Y(21).strip_origin(), abs_square_poly(4)]:
        criteria._margin_fixed(p, p.degree + 1, (3 << 158, 1 << 20), 160)
    assert calls == []
    RealEnclosure.pi(64) * 2    # the counter sees a ball operation
    assert calls == ["__mul__"]


def test_pi_multiple_constants_make_no_ball_operation(monkeypatch):
    # with their cosine tables and off-grid rotations built, the Schinzel
    # certificates of S and Y and the oscillation certificates of W_12 and
    # Q_12 call no RealEnclosure operator: their constants, the j0
    # denominators included, are fixed.pi_multiple pairs, made afresh here,
    # and the reports are the ones the first run gave
    polys = [build_S(1), build_S(9), build_Y(2), build_Y(13), build_W(12), build_Q(12)]
    route = {"S": criteria_check, "Y": criteria_check, "W": oscillation_verify,
             "Q": oscillation_verify}
    docs = [route[p.family](p).to_doc() for p in polys]
    fixed.pi_multiple.cache_clear()
    calls = _count_ball_operations(monkeypatch)
    reports = [route[p.family](p) for p in polys]
    assert calls == []
    assert fixed.pi_multiple.cache_info().misses > 0
    assert [r.holds for r in reports[:4]] == [CERTIFIED_TRUE] * 4
    assert reports[4].certified and reports[5].certified
    assert [r.to_doc() for r in reports] == docs


def test_observation_identity_examples():
    for k in (2, 3, 10, 25):
        exact_ok, residual = observation_identity(k)
        assert exact_ok, k
        assert residual.contains_zero()
        assert float(residual.radius) < 1e-30


# -- sample grids and oscillation --------------------------------------------

def test_wk_samples_k12():
    pts = oscillation_samples("W", 12)
    assert len(pts) == 25  # 2k + 1
    assert all(pts[i] < pts[i + 1] for i in range(len(pts) - 1))
    assert pts[12] == 0
    # indices t of t pi / 22; j0 = floor(11 alpha) + 1 = 5: four integer
    # points j/11 (t = 2j) before the halves
    assert pts[13:17] == [2, 4, 6, 8]
    assert pts[17] == 9  # (j0 - 1/2)/(k-1) = 9/22
    assert -pts[0] == pts[-1] == 22 - F(1, 48)  # 1 - 1/(8k(k-1)), just short of pi
    assert all(isinstance(t, int) for t in pts[1:-1])


def test_wk_samples_domain():
    oscillation_samples("W", 11)
    with pytest.raises(DomainError):
        oscillation_samples("W", 10)


def test_qk_samples():
    pts = oscillation_samples("Q", 12)
    # k = 2 j0 makes the two excluded points coincide: 2k points retained
    assert len(pts) in (23, 24)
    assert all(pts[i] < pts[i + 1] for i in range(len(pts) - 1))
    with pytest.raises(DomainError):
        oscillation_samples("Q", 5)


def test_w_eval_examples():
    # indices t of t pi / (2(k-1)): t = 0 is theta = 0, t = 2(k-1) is pi
    at_0, at_pi = (fixed.to_ball(*v, 128) for v in _w_eval(12)([0, 22], 128))
    assert at_0.gt(F(3))       # w_k(0) > 3
    assert at_pi.gt(F(19))     # sign (-1)^k, |.| > 19
    (at_pi,) = _w_eval(13)([24], 128)
    assert (-fixed.to_ball(*at_pi, 128)).gt(F(19))


def test_alternating_verify_w12():
    pts = oscillation_samples("W", 12)
    rep = alternating_verify(_w_eval(12), pts, F(3, 10), 22)
    assert rep.order_achieved >= 24
    assert all(s != 0 for s in rep.signs)
    assert rep.min_abs.gt(F(3, 10))


def test_alternating_rejects_unsorted():
    with pytest.raises(DomainError):
        alternating_verify(_w_eval(12), [F(1, 2), F(1, 4)], F(1, 10), 22)


@pytest.mark.parametrize("family", ["W", "Q"])
def test_direct_alternating_verify_doc_matches_cli_document(family, capsys):
    # a report built by a direct call prints its points as multiples of pi,
    # as the CLI document does: theta = pi/11 is "1/11" at k = 12
    from circlezero.cli import main

    spec, k = FAMILY_SPECS[family].oscillation, 12
    doc = alternating_verify(spec.evaluator(k), oscillation_samples(family, k), spec.d,
                             2 * (k - 1)).to_doc()
    assert main(["verify", "--family", family, "--k", str(k), "--method", "oscillation",
                 "--format", "json"]) == 0
    (item,) = json.loads(capsys.readouterr().out)["items"]
    cli = item["detail"]["oscillation"]
    assert doc["points"] == cli["points"] and "1/11" in doc["points"]
    assert {key: cli[key] for key in doc} == doc


def test_oscillation_below_min_bits_raises():
    # the precision floor holds for the library entry points, not only the CLI
    with pytest.raises(DomainError):
        alternating_verify(_w_eval(12), oscillation_samples("W", 12), F(3, 10), 22, bits=32)
    for family in ("W", "Q"):
        with pytest.raises(DomainError):
            verify_family(family, 12, "oscillation", bits=32)


def _pointwise(g):
    """The evaluator alternating_verify takes, f(points, bits), from a
    one-point function g(r, bits)."""
    return lambda points, bits: [g(r, bits) for r in points]


def test_alternating_undecided_point_gets_sign_zero():
    # |f| = 3/10 exactly: no precision separates it from d = 3/10, so no point
    # may count toward the alternation order
    def f(r, bits):
        return (3 << bits) // 10 * (1 if r == 0 else -1), 1, bits

    rep = alternating_verify(_pointwise(f), [F(-1, 2), F(0), F(1, 2)], F(3, 10), 1)
    assert rep.signs == [0, 0, 0]
    assert rep.order_achieved == 0 and rep.min_abs is None


def test_point_certified_below_d_decides_without_escalation():
    # f = 0 is certified below d = 3/10 at the first precision: sign 0 after
    # one evaluation, not after the four escalations
    calls = []

    def f(r, bits):
        calls.append(bits)
        return 0, 0, bits

    rep = alternating_verify(_pointwise(f), [F(0)], F(3, 10), 1)
    assert rep.signs == [0] and rep.min_abs is None
    assert calls == [128]


def test_point_straddling_d_decided_after_one_escalation():
    # |f| +- e straddles d at 128 bits and clears it at 256: one escalation,
    # then the sign and a min_abs ball at the deciding precision
    calls = []
    value = F(3, 10) + F(1, 2 ** 150)

    def f(r, bits):
        calls.append(bits)
        return -math.floor(value * 2 ** bits), 1, bits

    rep = alternating_verify(_pointwise(f), [F(0)], F(3, 10), 1)
    assert calls == [128, 256]
    assert rep.signs == [-1]
    assert rep.min_abs.prec == 256 and rep.min_abs.gt(F(3, 10)) and rep.min_abs.contains(value)


def test_min_abs_is_smallest_exact_upper_end_across_precisions():
    # points decided at 128 and at 256 bits compare by exact upper end
    # (|v| + e) 2^-prec, so 0.4 decided at 256 beats 0.5 decided at 128,
    # and of two ends 2 units of 2^-160 apart (one ball when rounded to the
    # report's precision) the smaller wins, wherever it stands
    near = 1 << 159     # 1/2 at 160 bits

    def f(r, bits):
        if r == 0:      # 0.5, decided at 128
            return 1 << (bits - 1), 1, bits
        if r == 1:      # 0.4, undecided at 128 (error 1/4), decided at 256
            return (2 << bits) // 5, (1 << (bits - 2)) if bits == 128 else 1, bits
        if r == 2:      # 0.6, undecided at 128, decided at 256
            return (3 << bits) // 5, (1 << (bits - 2)) if bits == 128 else 1, bits
        return (near + 2 if r == 3 else near, 13, 160)

    rep = alternating_verify(_pointwise(f), [F(0), F(1), F(2)], F(3, 10), 1)
    assert rep.signs == [1, 1, 1]
    assert rep.min_abs.prec == 256 and rep.min_abs.contains(F(2, 5))
    rep = alternating_verify(_pointwise(f), [F(3), F(4)], F(3, 10), 1)
    assert fixed.from_ball(rep.min_abs, 160) == (near, 13 + 2)


# the arccos denominators of W and Q as balls, independent of the route's pairs
_J0_DENOMINATORS = {"W": lambda pi: pi * pi * F(1, 3) - 2,
                    "Q": lambda pi: RealEnclosure.exact(2, pi.prec) - 16 / (pi * pi)}


def _j0_by_arccos(k, family, bits=128):
    """j0 = floor((k-1) alpha) + 1 with alpha certified from its arccos
    formula in ball arithmetic, escalating until the floor is decided."""
    d = FAMILY_SPECS[family].oscillation.d

    def attempt(b):
        pi = RealEnclosure.pi(b)
        alpha = ball_acos(RealEnclosure.exact(d, b) / _J0_DENOMINATORS[family](pi)) / pi
        x = alpha * (k - 1)
        lo, hi = int(mp.floor(x.lower)), int(mp.floor(x.upper))
        return lo == hi, lo + 1

    decided, j0 = escalate(attempt, bits)
    assert decided, k
    return j0


def _table_precisions(monkeypatch):
    """The precision of every cosine table j0 reads, in call order."""
    precs = []
    table = fixed.cos_table
    monkeypatch.setattr(fixed, "cos_table", lambda prec, M: precs.append(prec) or table(prec, M))
    return precs


@pytest.mark.parametrize("family", ["W", "Q"])
def test_j0_from_table_matches_arccos(family, monkeypatch):
    # counting the table cosines at or above x gives floor((k-1) alpha), the
    # arccos formula's j0, for every k the tests below 400 reach, each at the
    # first precision
    spec = FAMILY_SPECS[family].oscillation
    precs = _table_precisions(monkeypatch)
    table_j0 = [oscillation._alpha_j0(k, spec) for k in range(spec.min_k, 400)]
    assert set(precs) == {128 + GUARD}
    assert table_j0 == [_j0_by_arccos(k, family) for k in range(spec.min_k, 400)]


def test_j0_fallback_when_table_cannot_separate(monkeypatch):
    # a table error no entry at the first precision can clear escalates the
    # precision once, which gives the same j0
    spec = FAMILY_SPECS["W"].oscillation
    expected = [oscillation._alpha_j0(k, spec) for k in (11, 12, 35, 200)]
    precs = _table_precisions(monkeypatch)
    monkeypatch.setattr(fixed, "TABLE_ERR", 1 << 200)
    assert [oscillation._alpha_j0(k, spec) for k in (11, 12, 35, 200)] == expected
    assert precs == [128 + GUARD, 256 + GUARD] * 4


def test_j0_exact_boundary_raises_naming_k():
    # d / denominator = 1/2 = cos(pi/3) with 3 | k - 1: the table entry j =
    # (k-1)/3 equals x, and no precision of the escalation decides it
    spec = FAMILY_SPECS["W"].oscillation    # d = 3/10
    spec = dataclasses.replace(spec, j0_denominator=lambda prec: ((3 << prec) // 5, 1))
    with pytest.raises(PrecisionError, match="k=13"):
        oscillation._alpha_j0(13, spec)


_MULTIPLES = {"W": lambda k: (k, k - 2, k - 3, 1), "Q": lambda k: (k - 2, k - 1, k - 3, 1)}


@pytest.mark.parametrize("family", ["W", "Q"])
@pytest.mark.parametrize("k", [11, 12, 35, 60, 200])
def test_off_grid_powers_enclose_finer_reference(family, k):
    # the point just short of pi: each multiple's cos and sin from the one
    # rotation power encloses a ball_cos_sin 64 bits finer
    x = oscillation_samples(family, k)[-1] / (2 * (k - 1))
    for bits in (128, 256):
        prec = bits + GUARD
        powers = oscillation._rotation_powers(x, k, prec)
        pi = RealEnclosure.pi(prec + 64)
        for m in _MULTIPLES[family](k):
            for (v, e), ref in zip(powers[m], ball_cos_sin(pi * (x * m))):
                assert (ref.shift(prec) - v).abs().lt(e), (family, k, bits, m)


@pytest.mark.parametrize("family", ["W", "Q"])
def test_one_cos_sin_per_off_grid_angle(family, monkeypatch):
    # the two points just short of +-pi share |theta|: over a whole grid
    # whose cosine tables are built, one ball_cos_sin per precision, of that
    # angle (the tables and the rotation powers share `fixed.rotation`)
    calls = []

    def counted(x):
        calls.append(x)
        return ball_cos_sin(x)

    k = 35
    for bits in (128, 256):
        fixed.cos_table(bits + GUARD, 2 * (k - 1))
    monkeypatch.setattr(fixed, "ball_cos_sin", counted)
    oscillation._rotation_powers.cache_clear()
    f = (_w_eval if family == "W" else _q_eval)(k)
    pts = oscillation_samples(family, k)
    for bits in (128, 256):
        f(pts, bits)
        assert len(calls) == 1, (family, bits)
        x = pts[-1] / (2 * (k - 1))
        assert (calls[0] / RealEnclosure.pi(bits) - x).abs().lt(F(1, 2 ** 100))
        calls.clear()


@pytest.mark.parametrize("M, stride",
                         [pytest.param(2 * (k - 1), 1, id=str(k)) for k in (7, 11, 12, 35, 60, 200)]
                         + [pytest.param(M, 1, id=f"M{M}") for M in (4, 6, 2048)]
                         + [pytest.param(32768, 97, id="M32768-stride97")])
def test_oscillation_table_entries_within_bound(M, stride, monkeypatch):
    # the oscillation sizes 2(k-1) (M = 2 mod 4 for even k) and the sign
    # counter's powers of two share one builder: a cold build calls
    # ball_cos_sin once and a cache hit not at all, and at the default and an
    # escalated precision every entry of the full-period table (a stride
    # sample of the largest) is within TABLE_ERR of a reference 64 bits finer
    calls = []

    def counted(x):
        calls.append(x)
        return ball_cos_sin(x)

    monkeypatch.setattr(fixed, "ball_cos_sin", counted)
    fixed.cos_table.cache_clear()
    for bits in (128, 256):
        prec = bits + GUARD
        table = fixed.cos_table(prec, M)
        assert len(calls) == 1
        assert fixed.cos_table(prec, M) is table
        assert len(calls) == 1
        calls.clear()
        assert len(table) == 2 * M
        pi = RealEnclosure.pi(prec + 64)
        for t in range(0, 2 * M, stride):
            ref = ball_cos_sin(pi * F(t, M))[0].shift(prec)
            assert (ref - table[t]).abs().lt(TABLE_ERR), (M, prec, t)


def test_cos_table_entry_over_bound_raises(monkeypatch):
    # every entry is checked at run time: with the bound below the 2 units
    # the shift alone can cost, the first entry fails, named by prec, M and t
    monkeypatch.setattr(fixed, "TABLE_ERR", 1)
    fixed.cos_table.cache_clear()
    with pytest.raises(PrecisionError, match=r"cos\(pi 0/64\) at 160 bits"):
        fixed.cos_table(160, 64)
    assert fixed.cos_table.cache_info().currsize == 0


def _comparison_reference(family: str, k: int, r: Fraction, bits: int) -> RealEnclosure:
    """w_k or q_k at theta = r pi in plain ball arithmetic."""
    pi = RealEnclosure.pi(bits)
    theta = pi * r
    cos = lambda m: ball_cos_sin(theta * m)[0]
    sin = lambda m: ball_cos_sin(theta * m)[1]
    if r == 0 or abs(r) == 1:
        ratio = RealEnclosure.exact(k - 3 if r == 0 or k % 2 == 0 else 3 - k, bits)
    else:
        ratio = sin(k - 3) / sin(1)
    if family == "W":
        rho = 2 / (1 - F(2) ** (1 - 2 * k))
        return 2 * cos(k) + pi * pi * F(1, 3) * cos(k - 2) + rho * ratio
    rho = 8 * (1 - F(2) ** (3 - 2 * k)) / (1 - F(2) ** (2 - 2 * k))
    return 2 * cos(k - 2) + 4 / pi * sin(k - 1) + RealEnclosure.exact(rho, bits) / (pi * pi) * ratio


@pytest.mark.parametrize("family,k", [("W", 11), ("W", 12), ("W", 35), ("W", 60), ("W", 200),
                                      ("Q", 7), ("Q", 12), ("Q", 35), ("Q", 60), ("Q", 200)])
def test_comparison_function_overlaps_finer_ball_evaluation(family, k):
    # at every sample point, the two just short of +-pi included, the
    # fixed-point enclosure overlaps a ball evaluation 64 bits finer and is
    # no wider than 2^-100
    f = (_w_eval if family == "W" else _q_eval)(k)
    pts = oscillation_samples(family, k)
    assert sum(1 for t in pts if t.denominator != 1) == 2
    for t, v in zip(pts, f(pts, 128)):
        r = F(t, 2 * (k - 1))
        val = fixed.to_ball(*v, 128)
        assert val.prec == 128 and val.radius < mp.mpf(2) ** -100, (family, k, r)
        assert (val - _comparison_reference(family, k, r, 192)).contains_zero(), (family, k, r)


def _uniform_bound_reference(poly: FamilyPoly, bits: int) -> RealEnclosure:
    """The uniform bound of W_k or Q_k as the ball formula over exact
    Fraction ratios that the fixed-point sums replaced, kept as the reference."""
    k = poly.k
    pi = RealEnclosure.pi(bits)
    if poly.family == "W":
        ratios = [poly.coeffs[2 * j].a * (-1) ** j / poly.coeffs[0].a for j in range(k + 1)]
        rho = 2 / (1 - F(2) ** (1 - 2 * k))
        exact_sum = sum(abs(ratios[j] - rho) for j in range(2, k - 1))
        term1 = (RealEnclosure.exact(ratios[1], bits) - pi * pi * F(1, 6)).abs()
        return term1 + term1 + RealEnclosure.exact(exact_sum, bits)
    a1 = -poly.coeffs[2].a
    ratios = [poly.coeffs[2 * j].a * (-1) ** j / a1 for j in range(k)]
    rq = 8 * (1 - F(2) ** (3 - 2 * k)) / (1 - F(2) ** (2 - 2 * k))
    rho_ball = RealEnclosure.exact(rq, bits) / (pi * pi)
    acc = RealEnclosure.exact(0, bits)
    for j in range(2, k - 1):
        acc = acc + (RealEnclosure.exact(ratios[j], bits) - rho_ball).abs()
    tau = lambda_k(k, bits) * F((-1 if k % 2 else 1) * ((1 << (2 * k - 1)) - 1)) / a1
    term = (tau - 2 / pi).abs()
    return acc + term + term


@pytest.mark.parametrize("family,k", [("W", 11), ("W", 12), ("W", 35), ("W", 60), ("W", 200),
                                      ("W", 400), ("Q", 7), ("Q", 12), ("Q", 35), ("Q", 60),
                                      ("Q", 200), ("Q", 400)])
def test_uniform_bound_overlaps_exact_ratio_reference(family, k):
    # the fixed-point bound and the reference 64 bits finer share a point,
    # compared in exact rationals so no rounding of the comparison hides a
    # missing error term; and the bound is below the oscillation distance
    spec = FAMILY_SPECS[family].oscillation
    poly = build_family(family, k)
    bound = fixed.to_ball(*spec.uniform_bound(poly, 128), 128)
    ref = _uniform_bound_reference(poly, 128 + 64)
    (mb, rb), (mr, rr) = ((F(*libmp.to_rational(x.mid)), F(*libmp.to_rational(x.rad)))
                          for x in (bound, ref))
    assert abs(mb - mr) <= rb + rr, (family, k)
    assert bound.lt(spec.d)


def test_oscillation_certificates_form_no_exact_coefficient(monkeypatch):
    # the uniform bounds read fixed_coefficients: the one exact former of
    # the product forms sees no call
    calls = []
    orig = families._b_product
    monkeypatch.setattr(families, "_b_product", lambda *a: calls.append(a) or orig(*a))
    for family in ("W", "Q"):
        for k in (35, 200):
            (rep,) = verify_family(family, k, "oscillation")
            assert rep.certified and rep.method == "oscillation", (family, k)
    assert calls == []


@pytest.mark.parametrize("family", ["W", "Q"])
def test_grid_evaluated_once_and_only_an_undecided_point_escalates(family):
    # every point is evaluated once, at bits, in one call; a point forced
    # undecided at 128 and 256 bits is evaluated again on its own at 256 and
    # 512, and every other point keeps its first result
    spec, k = FAMILY_SPECS[family].oscillation, 35
    f, pts = spec.evaluator(k), oscillation_samples(family, k)
    calls = []

    def counted(ts, bits, forced=None):
        calls.append((list(ts), bits))
        return [(v, e + abs(v) + (1 << prec) if t == forced and bits < 512 else e, prec)
                for t, (v, e, prec) in zip(ts, f(ts, bits))]

    rep = alternating_verify(counted, pts, spec.d, 2 * (k - 1))
    assert calls == [(pts, 128)]
    assert rep.order_achieved >= 2 * k - 2 and 0 not in rep.signs
    calls.clear()
    rep2 = alternating_verify(lambda ts, bits: counted(ts, bits, forced=0), pts, spec.d,
                              2 * (k - 1))
    assert calls == [(pts, 128), ([0], 256), ([0], 512)]
    assert rep2.signs == rep.signs and rep2.order_achieved == rep.order_achieved
    assert rep2.min_abs.str_pair() == rep.min_abs.str_pair()


def test_oscillation_W():
    for k in (11, 12, 35):
        rep = oscillation_verify_W(build_W(k))
        assert rep.certified and rep.zeros_on_circle == 2 * k, k
        assert rep.method == "oscillation"
    # the exact closed-form limit bound: -3 + (2(1-2^-2k)/(1-2^(3-2k)) - 1) pi^2/3 < 0.3
    k = 12
    pi = RealEnclosure.pi(128)
    ratio = F(2) * (1 - F(2) ** (-2 * k)) / (1 - F(2) ** (3 - 2 * k)) - 1
    closed = pi * pi * F(1, 3) * ratio - 3
    assert closed.lt(F(3, 10))


def test_oscillation_Q():
    for k in (7, 8, 35):
        rep = oscillation_verify_Q(build_Q(k))
        assert rep.certified and rep.zeros_on_circle == 2 * k - 2, k


def test_oscillation_detail_names_k():
    # Q_k grids have 2k - 1 points, so k cannot be read off the grid size
    for k in (12, 13):
        rep = oscillation_verify_Q(build_Q(k))
        assert rep.detail["oscillation"]["k"] == k


def test_oscillation_routing_small_k():
    rep = oscillation_verify_Q(build_Q(2))
    assert rep.method == "sign-count" and rep.certified
    assert rep.detail.get("routed_from") == "oscillation"
    rep = oscillation_verify_W(build_W(7))
    assert rep.method == "sign-count" and rep.certified
    # the table's cutoffs: Q from k = 6, W from k = 11
    assert oscillation_verify_Q(build_Q(6)).method == "oscillation"
    assert oscillation_verify_W(build_W(10)).method == "sign-count"
    assert oscillation_verify_W(build_W(11)).method == "oscillation"


def test_oscillation_uniform_bounds_recorded():
    rep = oscillation_verify_W(build_W(12))
    assert "bound_mid" in rep.detail["oscillation"]


# -- sign counting -----------------------------------------------------------

def test_sign_count_P2_target4():
    # four sign changes of P_2*(u) on [-1, 1]: two of the factor g, each one a
    # conjugate pair of circle zeros
    rep = verify_by_sign_count(build_P(2))
    assert rep.certified and rep.zeros_on_circle == 4
    assert 2 * rep.detail["changes"] + rep.detail["boundary_zeros"] == 4


def test_sign_count_constant_trivial():
    rep = verify_by_sign_count(build_Y(2))
    assert rep.certified and rep.zeros_on_circle == 0
    assert rep.origin_zeros == 1


def test_sign_count_P100_target200():
    rep = verify_by_sign_count(build_P(100))
    assert rep.certified and rep.zeros_on_circle == 200


def test_sign_count_all_families_small():
    for fam in "PQYWS":
        for k in (2, 3, 9):
            rep = verify_by_sign_count(build_family(fam, k))
            assert rep.certified, (fam, k)
            stripped = build_family(fam, k).strip_origin()
            assert rep.zeros_on_circle == stripped.degree


def test_sign_count_generic_path_odd_degree():
    # odd degree: the forced zero z = -1 of S_31 is divided out exactly and
    # the even-degree quotient takes the factored route
    rep = verify_by_sign_count(build_S(31))
    assert rep.certified and rep.zeros_on_circle == 31
    assert rep.detail["deflated"] == "-1" and rep.detail["factored"]


def _rational_poly(eps, *coeffs):
    return FamilyPoly("S", len(coeffs) - 1, 0,
                      tuple(ZetaCoefficient.rational(c) for c in coeffs), eps)


def _deflate(p):
    """p(z) / (z + eps) by exact synthetic division in Q[lam], for an
    origin-stripped self-inversive p of odd degree: the reference quotient
    that `counted_form` forms in fixed point."""
    n, eps = p.degree, p.epsilon
    q = [p.coeffs[n]]
    for c in reversed(p.coeffs[1:n]):
        q.append(c - q[-1] if eps > 0 else c + q[-1])
    q.reverse()
    return FamilyPoly(p.family, p.k, p.pi_power, tuple(q), +1)


# eps = -1 at odd degree: z^3 - 1, (z - 1)(z^2 + 3z + 1), and (z - 1) times a
# reciprocal sextic whose coefficients no power of two floors exactly
_EPS_MINUS_ONE = {
    "z^3-1": (-1, 0, 0, 1),
    "z^3+2z^2-2z-1": (-1, -2, 2, 1),
    "(z-1)q6": (-1, F(2, 3), F(4, 21), F(-2, 35), F(2, 35), F(-4, 21), F(-2, 3), 1),
}


def test_sign_count_deflates_eps_minus_one():
    # z^3 - 1 (eps = -1): the forced zero is z = +1, the quotient z^2 + z + 1
    rep = verify_by_sign_count(_rational_poly(-1, -1, 0, 0, 1))
    assert rep.certified and rep.zeros_on_circle == 3 and rep.degree_nontrivial == 3
    assert rep.detail["deflated"] == "1"


def test_sign_count_uncertified_counts_deflated_zero_once():
    # z^3 + 2z^2 - 2z - 1 = (z - 1)(z^2 + 3z + 1): one zero on the circle and
    # two real zeros off it
    rep = verify_by_sign_count(_rational_poly(-1, -1, -2, 2, 1))
    assert not rep.certified and rep.zeros_on_circle == 1
    d = rep.detail
    assert rep.zeros_on_circle == 1 + 2 * d["changes"] + d["boundary_zeros"]


def test_sign_count_rejects_non_self_inversive_odd_degree():
    with pytest.raises(DomainError, match="S_3"):
        verify_by_sign_count(_rational_poly(+1, 1, 2, 3, 1))  # p(-1) = 1
    with pytest.raises(DomainError, match="S_3"):
        # (z + 1)(z^2 + 2z + 3): p(-1) = 0, the quotient is not reciprocal
        verify_by_sign_count(_rational_poly(+1, 3, 5, 3, 1))


def test_sign_count_rejects_eps_minus_one_nonzero_middle():
    with pytest.raises(DomainError, match="S_2"):
        verify_by_sign_count(_rational_poly(-1, -1, 1, 1))


@pytest.mark.parametrize("eps,coeffs", [
    (+1, (5, 3, 1)),          # roots of modulus sqrt 5
    (+1, (1, 0, 0, 0, 4)),    # roots of modulus 1/sqrt 2
    (-1, (-2, 1, 0, -1, 1)),  # c_0 mirrors c_4 with the wrong factor
], ids=["5+3z+z^2", "1+4z^4", "eps-1-unmirrored"])
def test_sign_count_rejects_unmirrored_even_degree(eps, coeffs):
    # the even-degree counter reads only c_0..c_m, so the symmetry it
    # assumes is checked once, exactly, at the entry
    poly = FamilyPoly("P", 7, 0, tuple(ZetaCoefficient.rational(c) for c in coeffs), eps)
    with pytest.raises(DomainError, match="P_7.*not self-inversive"):
        verify_by_sign_count(poly)


def test_sign_count_no_exact_boundary_test_on_P(monkeypatch):
    # eps = -1 takes p(+-1) = 0 from the symmetry and eps = +1 takes the signs
    # of p(+-1) from the evaluator, so no P_k needs an exact evaluation
    calls = []
    orig = FamilyPoly.eval_rational
    monkeypatch.setattr(FamilyPoly, "eval_rational",
                        lambda p, z: calls.append((p.family, p.k)) or orig(p, z))
    for k in range(2, 201):
        assert verify_by_sign_count(build_P(k)).certified, k
    assert calls == []


def test_sign_count_detail_keys_uniform():
    common = {"grid", "changes", "boundary_zeros", "evaluations", "factored"}
    for poly in (build_Y(2), build_S(1), build_Y(3), build_P(2), build_S(5)):
        rep = verify_by_sign_count(poly)
        keys = set(rep.detail)
        odd = poly.strip_origin().degree % 2 == 1
        assert keys == common | ({"deflated"} if odd else set()), poly


@pytest.mark.parametrize("fam,k", [(f, k) for f in "SY" for k in range(1, 62, 2)
                                   if (f, k) != ("Y", 1)]
                         + [(name, len(c) - 1) for name, c in _EPS_MINUS_ONE.items()])
def test_sign_count_odd_degree_deflation_exact(fam, k, monkeypatch):
    # the counted form divides out the forced zero in fixed point: its
    # integers (C, E) enclose every coefficient of the exact quotient,
    # 2^(emax - prec) (C_j +- E_j), which (z + eps) q == p checks
    poly = _rational_poly(-1, *_EPS_MINUS_ONE[fam]) if fam in _EPS_MINUS_ONE else \
        build_family(fam, k)
    p = poly.strip_origin()
    q = _deflate(p)
    eps = p.epsilon
    assert q.degree == p.degree - 1 and q.epsilon == 1
    # (z + eps) q(z) == p(z) coefficientwise in Q[lam]
    prod = [ZetaCoefficient()] * (q.degree + 2)
    for j, c in enumerate(q.coeffs):
        prod[j + 1] = prod[j + 1] + c
        prod[j] = prod[j] + c * eps
    assert tuple(prod) == p.coeffs
    seen = []
    evaluator = signcount._TrigEvaluator
    monkeypatch.setattr(signcount, "_TrigEvaluator",
                        lambda e, coeffs, prec: seen.append((e, coeffs)) or evaluator(e, coeffs, prec))
    prec = 128 + GUARD
    _, m, real = counted_form(eps, p.degree, p.fixed_coefficients(prec, p.degree // 2 + 1), prec)
    ((e, (emax, C, E)),) = seen
    assert (e, m, real, len(C), len(E)) == (1, q.degree // 2, [-eps], m + 1, m + 1)
    unit = F(2) ** (emax - prec)
    for j in range(m + 1):
        assert abs(q.coeffs[j].a - C[j] * unit) <= E[j] * unit, (fam, k, j)
    if fam in _EPS_MINUS_ONE:
        return
    rep = verify_by_sign_count(poly)
    assert rep.certified and rep.zeros_on_circle == rep.degree_nontrivial == p.degree
    assert rep.origin_zeros == (1 if fam == "Y" else 0)
    assert rep.degree_nontrivial == (k if fam == "S" else k - 2)


@pytest.mark.parametrize("eps,coeffs,double", [(+1, (1, 3, 3, 1), -1), (+1, (1, -1, -1, 1), 1),
                                               (-1, (-1, 3, -3, 1), 1), (-1, (-1, -1, 1, 1), -1)],
                         ids=["(z+1)^3", "(z+1)(z-1)^2", "(z-1)^3", "(z-1)(z+1)^2"])
def test_sign_count_exact_boundary_test_on_a_deflated_input(eps, coeffs, double, monkeypatch):
    # the quotient q = p / (z + eps) is (z - double)^2, whose value at
    # z = double no grid value can sign; its exact zero test reads p itself:
    # q(-eps) = p'(-eps) at the forced zero, q(eps) = p(eps) / (2 eps) at the
    # other end.  The report is the one the exact quotient in Q[lam] gave
    tested = []
    vanishes = signcount._counted_vanishes
    monkeypatch.setattr(signcount, "_counted_vanishes",
                        lambda p, x: tested.append((x, vanishes(p, x))) or tested[-1][1])
    rep = verify_by_sign_count(_rational_poly(eps, *coeffs))
    assert tested == [(double, True)]
    assert rep.to_doc() == {
        "family": "S", "k": 3, "method": "sign-count", "zeros_on_circle": 2,
        "degree_nontrivial": 3, "origin_zeros": 0, "certified": False,
        "verdict": INDETERMINATE, "max_mod_dev_mid": "", "max_mod_dev_rad": "",
        "min_root_sep_mid": "", "min_root_sep_rad": "",
        "detail": {"grid": 1024, "changes": 0, "boundary_zeros": 1, "factored": True,
                   "evaluations": 1023, "deflated": str(-eps)}}


def _evaluator(p, bits):
    """The sign counter's evaluator: p's coefficients read at bits + GUARD,
    through `counted_form`."""
    prec = bits + fixed.GUARD
    return counted_form(p.epsilon, p.degree, p.fixed_coefficients(prec, p.degree // 2 + 1),
                        prec)[0]


@pytest.mark.parametrize("k", [20, 200])
def test_trig_evaluator_scaled_coefficients_fit_prec(k):
    # coefficients are scaled by the largest exponent, so none exceeds 2^prec
    p = build_P(k)
    ev = _evaluator(p, 128)
    assert max(abs(c).bit_length() for c in ev.terms) <= ev.prec


@pytest.mark.parametrize("p", [build_P(2), build_P(5), build_P(10), build_S(31)],
                         ids=["P2", "P5", "P10", "S31-deflated"])
def test_trig_evaluator_matches_power_basis(p):
    # on |z| = 1, e^(-i m theta) q(e^(i theta)) is g(theta) for eps = +1 and
    # i g(theta) for eps = -1, with g the evaluator's trig polynomial of the
    # counted q: p itself, or for odd degree the reference quotient
    bits = 128
    prec = bits + 32
    ev = _evaluator(p, bits)
    p = _deflate(p) if p.degree % 2 else p
    m = p.degree // 2
    M = _first_grid(m)
    pi = RealEnclosure.pi(prec)
    values = ev.grid_values(M)
    assert len(values) == M + 1
    e = ev.emax - ev.prec
    for j, acc in enumerate(values):
        g = RealEnclosure(libmp.from_man_exp(acc, e), libmp.from_man_exp(ev.budget, e), prec)
        c, s = ball_cos_sin(pi * F(j, M))
        cm, sm = ball_cos_sin(pi * F(m * j, M))
        val = ComplexEnclosure(cm, -sm) * p.eval_ball(ComplexEnclosure(c, s), prec)
        part, other = (val.re, val.im) if p.epsilon > 0 else (val.im, val.re)
        assert (g - part).contains_zero(), j
        assert other.contains_zero(), j


@pytest.mark.parametrize("k", [5, 6], ids=["P5-sin", "P6-cos"])
def test_trig_table_mirrored_quarters_within_err(k):
    # the table computes t <= M/2 and mirrors the rest, and the transform
    # reads sin(pi t / M) as the entry M/2 earlier; a table is the same
    # whatever sizes the process built before it (none, finer, coarser), and
    # every cos or sin view entry is within TABLE_ERR of a reference 64 bits
    # finer, whose own radius is negligible
    p = build_P(k)
    bits = 128
    ev = _evaluator(p, bits)
    assert ev.use_sin == (p.epsilon < 0) == (k == 5)
    M = _first_grid(p.degree // 2)
    pi = RealEnclosure.pi(ev.prec + 64)
    refs = [ball_cos_sin(pi * F(t, M))[ev.use_sin].shift(ev.prec) for t in range(2 * M)]
    fixed.cos_table.cache_clear()
    fresh = fixed.cos_table(ev.prec, M)
    for history in ((), (1, 4), (4, 1), (1, 2, 4), (4, 2, 1)):
        fixed.cos_table.cache_clear()
        for factor in history:
            fixed.cos_table(ev.prec, factor * M)
        cos = fixed.cos_table(ev.prec, M)
        assert cos == fresh, history
        assert len(cos) == 2 * M
        for t in range(2 * M):
            v = cos[t - ev.use_sin * M // 2]
            assert (refs[t] - v).abs().lt(TABLE_ERR), (history, t)


def _dot_product_grid(p, bits, M):
    """The per-point route the transform replaced, kept as a reference:
    g(j pi / M) for j = 0 .. M as m-term dot products against the cos (or
    quarter-shifted sin) table, in units of 2^(emax - 2 prec), with their
    common budget."""
    m = p.degree // 2
    prec = bits + 32
    balls = p.coefficient_balls(prec)
    if p.epsilon > 0:
        terms = [(0, balls[m])] + [(r, balls[m - r].shift(1)) for r in range(1, m + 1)]
    else:
        terms = [(r, -balls[m - r].shift(1)) for r in range(1, m + 1)]
    emax = max(v.mid[2] + v.mid[3] for _, v in terms if v.mid != libmp.fzero)
    scaled = [(r, *from_ball(v.shift(-emax), prec)) for r, v in terms]
    budget = (TABLE_ERR * sum(abs(c) for _, c, _ in scaled)
              + ((1 << prec) + TABLE_ERR) * sum(e for _, _, e in scaled))
    cos = fixed.cos_table(prec, M)
    table = cos[3 * M // 2:] + cos[:3 * M // 2] if p.epsilon < 0 else cos
    return [sum(c * table[r * j % (2 * M)] for r, c, _ in scaled) for j in range(M + 1)], budget


def _certified_sign(v, budget):
    return 1 if v > budget else (-1 if v < -budget else 0)


@pytest.mark.parametrize("p", [build_P(80), build_P(81), build_P(258), build_P(351),
                               build_P(450), _deflate(build_S(31))],
                         ids=["P80", "P81", "P258", "P351", "P450", "S31-deflated"])
def test_transform_matches_dot_products(p):
    # on the first grid, at every j = 0 .. M, the transform's interval
    # overlaps the dot product's and both certify the same sign
    bits = 128
    ev = _evaluator(p, bits)
    M = _first_grid(p.degree // 2)
    values = ev.grid_values(M)
    ref, ref_budget = _dot_product_grid(p, bits, M)
    assert len(values) == len(ref) == M + 1
    for j, (v, w) in enumerate(zip(values, ref)):
        assert abs((v << ev.prec) - w) <= (ev.budget << ev.prec) + ref_budget, j
        assert _certified_sign(v, ev.budget) == _certified_sign(w, ref_budget), j


def _changes(signs):
    seq = [s for s in signs if s]
    return sum(a != b for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("poly", [build_P(40), build_S(41)], ids=["P40", "S41-deflated"])
def test_sign_count_doubling_path(poly, monkeypatch):
    # a first grid a quarter of the usual size falls short of the count, so
    # the grid doubles; a doubled grid keeps the coarse signs at even j, the
    # endpoint pi included, and takes its odd j from its own transform
    first_grid = signcount._first_grid
    monkeypatch.setattr(signcount, "_first_grid", lambda m: first_grid(m) // 4)
    grids = []
    grid_values = _TrigEvaluator.grid_values

    def recording(ev, M):
        values = grid_values(ev, M)
        grids.append((ev, M, values))
        return values

    monkeypatch.setattr(_TrigEvaluator, "grid_values", recording)
    rep = verify_by_sign_count(poly)
    p = poly.strip_origin()
    p = _deflate(p) if p.degree % 2 else p
    m = p.degree // 2
    M0 = signcount._first_grid(m)
    # m changes need m + 1 signs on [0, pi], so M >= m; both inputs (m = 40,
    # eps = +1) certify on the first doubled grid that has that many
    doublings = next(d for d in range(6) if M0 << d >= m)
    assert doublings >= 1   # the quartered grid is too small, so the path is taken
    assert rep.certified and rep.zeros_on_circle == rep.degree_nontrivial
    assert rep.detail["grid"] == M0 << doublings
    assert rep.detail["evaluations"] == (M0 << doublings) - 1
    assert [M for _, M, _ in grids] == [M0 << i for i in range(doublings + 1)]
    for (ev, M, coarse), (_, _, fine) in zip(grids, grids[1:]):
        assert [_certified_sign(v, ev.budget) for v in fine[0::2]] == \
            [_certified_sign(v, ev.budget) for v in coarse]
        ref, ref_budget = _dot_product_grid(p, 128, 2 * M)
        assert [_certified_sign(v, ev.budget) for v in fine[1::2]] == \
            [_certified_sign(w, ref_budget) for w in ref[1::2]]
    # the carried-over signs agree with the last transform, so the count is its
    # own, read over the closed interval [0, pi]
    ev, M, last = grids[-1]
    assert rep.detail["changes"] == _changes(_certified_sign(v, ev.budget) for v in last)


def test_sign_count_P16_counts_endpoint_signs():
    # P_16 (m = 16, eps = +1) has 15 sign changes inside (0, pi) on its first
    # grid M = 32, one short of 16; the certified nonzero sign of
    # g(0) = P_16(1) gives the 16th, so it certifies with no doubling
    p = build_P(16)
    ev = _evaluator(p, 128)
    signs = [_certified_sign(v, ev.budget) for v in ev.grid_values(_first_grid(16))]
    assert len(signs) == 33 and signs[0] and signs[32]
    assert (_changes(signs[1:32]), _changes(signs)) == (15, 16)
    rep = verify_by_sign_count(p)
    assert rep.certified and rep.zeros_on_circle == 32
    assert (rep.detail["grid"], rep.detail["changes"], rep.detail["boundary_zeros"]) == (32, 16, 0)


@pytest.mark.parametrize("coeffs,on_circle", [
    ((-1, 0, 0, 0, 1), 4),                  # z^4 - 1
    ((-1, F(5, 2), 0, F(-5, 2), 1), 2),     # (z^2 - 1)(z - 2)(z - 1/2)
], ids=["z^4-1", "(z^2-1)(z^2-5z/2+1)"])
def test_sign_count_eps_minus_one_forced_zeros_counted_once(coeffs, on_circle, monkeypatch):
    # with eps = -1, g(0) = g(pi) = 0: both signs are 0 within the budget on
    # every grid, so z = +-1 count once, among the real zeros, and the second
    # input, whose other zeros are off the circle, is not certified
    grids = []
    grid_values = _TrigEvaluator.grid_values

    def recording(ev, M):
        values = grid_values(ev, M)
        grids.append([_certified_sign(v, ev.budget) for v in values])
        return values

    monkeypatch.setattr(_TrigEvaluator, "grid_values", recording)
    rep = verify_by_sign_count(_rational_poly(-1, *coeffs))
    assert all(signs[0] == signs[-1] == 0 for signs in grids)
    assert rep.detail["boundary_zeros"] == 2
    assert rep.detail["changes"] == (on_circle - 2) // 2
    assert rep.zeros_on_circle == on_circle and rep.certified == (on_circle == 4)
    assert len(grids) == (1 if rep.certified else 6)


def test_sign_count_families_certify_on_first_grid():
    # with the endpoint signs kept, no P, Q, W, Y or S count up to k = 60
    # doubles its grid
    for fam in "PQWYS":
        for k in range(FAMILIES[fam].min_k, 61):
            rep = verify_by_sign_count(build_family(fam, k))
            m = rep.degree_nontrivial // 2
            assert rep.certified, (fam, k)
            assert rep.detail["grid"] == (_first_grid(m) if m else 0), (fam, k)


def _full_half_dft(x, cos, prec):
    """(re, im) of X_j = sum_r x_r e^(i pi r j / M) for j = 0 .. M: the
    transform whose top node formed both components, kept as the reference
    for the one-component top node of `signcount._half_dft`."""
    N = len(cos)
    quarter = N // 4

    def node(x, d):
        half = N // (2 * d)
        if not any(x[1:]):
            return [x[0] if x else 0] * (half + 1), [0] * (half + 1)
        re, im = node(x[0::2], 2 * d)
        o_r, oi = node(x[1::2], 2 * d)
        re += [0] * (half - half // 2)
        im += [0] * (half - half // 2)
        for j in range(half // 2, -1, -1):
            wr, wi = cos[j * d], cos[j * d - quarter]
            a, b = o_r.pop(), oi.pop()
            tr = (a * wr - b * wi) >> prec
            ti = (a * wi + b * wr) >> prec
            er, ei = re[j], im[j]
            re[j], im[j] = er + tr, ei + ti
            re[half - j], im[half - j] = er - tr, ti - ei
        return re, im

    return node(x, 1)


_DFT_TERM = st.one_of(st.just(0), st.integers(-(1 << 200), 1 << 200))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([32, 64, 128]), st.data())
def test_half_dft_one_component_equals_full_transform(M, data):
    # the top node forms only the component asked for, from the same floored
    # products: each is the full transform's, integer for integer, also when
    # the top node is a copy (one nonzero input)
    x = data.draw(st.lists(_DFT_TERM, min_size=1, max_size=M // 2 + 1))
    prec = 160
    cos = fixed.cos_table(prec, M)
    full = _full_half_dft(x, cos, prec)
    for imag in (False, True):
        assert signcount._half_dft(x, cos, prec, imag) == full[imag]


@pytest.mark.parametrize("k", [5, 16, 49, 450])
def test_half_dft_one_component_on_family_terms(k):
    # the same on the terms of P_k (eps = -1 at odd k), on the counter's grid
    ev = _evaluator(build_P(k), 128)
    cos = fixed.cos_table(ev.prec, _first_grid(k))
    full = _full_half_dft(ev.terms, cos, ev.prec)
    assert ev.grid_values(_first_grid(k)) == full[ev.use_sin]
    for imag in (False, True):
        assert signcount._half_dft(ev.terms, cos, ev.prec, imag) == full[imag]


def test_sign_count_reports_independent_of_table_history():
    # tables are cached per (prec, M) for the process; the reports must not
    # depend on which tables other counts built before them
    def docs():
        return [verify_by_sign_count(build_family(f, k)).to_doc()
                for f, k in (("P", 10), ("S", 31), ("Y", 51))]

    fixed.cos_table.cache_clear()
    fresh = docs()
    grids = []
    for grower in (build_P(450), build_R(12)):   # one large grid, then doublings
        fixed.cos_table.cache_clear()
        grids.append(verify_by_sign_count(grower).detail["grid"])
        assert docs() == fresh
    assert min(grids) > max(d["detail"]["grid"] for d in fresh)


def test_sign_count_R_not_certified():
    # the symmetric R family keeps 4 zeros off the circle; counting stalls
    rep = verify_by_sign_count(build_R(5), bits=96)
    assert not rep.certified
    assert rep.zeros_on_circle < rep.degree_nontrivial


# -- roots -------------------------------------------------------------------

def test_find_roots_S2_quadratic_oracle():
    # 5 z^2 + 6 z + 5: roots (-3 +- 4i)/5, modulus 1, distance 8/5
    roots = find_roots(build_S(2))
    assert len(roots) == 2
    for r in roots.balls():
        assert r.re.contains(F(-3, 5))
        assert abs(r.im.midpoint) - mp.mpf(4) / 5 < 1e-30
        assert (r.abs() - 1).abs().lt(F(1, 10 ** 30))
    lo, hi = simplicity_check(roots)
    assert 0 < lo * 5 <= 8 << roots.prec <= hi * 5 and hi - lo < 2 ** (roots.prec - 100)


def test_find_roots_Q2():
    roots = find_roots(build_Q(2))
    assert len(roots) == 2
    fourth = [r for r in roots.balls() if r.im.sign() < 0][0]
    assert abs(float(fourth.re.midpoint) - 0.92) < 0.01
    assert abs(float(fourth.im.midpoint) + 0.39) < 0.01


def test_find_roots_degree_one():
    roots = find_roots(build_S(1))
    assert len(roots) == 1
    (xr, xi, rad), one = roots[0], 1 << roots.prec
    assert abs(xr + one) <= rad and abs(xi) <= rad


def test_aberth_seeds_S2():
    # 5 + 6 z + 5 z^2: the float seeds already sit on (-3 +- 4i)/5
    seeds = sorted(roots_mod._aberth_float([5.0, 6.0, 5.0], 2), key=lambda z: z.imag)
    for z, want in zip(seeds, (complex(-0.6, -0.8), complex(-0.6, 0.8))):
        assert abs(z - want) < 1e-13


def test_aberth_derivative_zero_at_seed():
    # z^2 - 2 s z + s^2 - 1/4 has p'(s) = 0 at the first seed s, in floats
    # too; that correction counts as 0 instead of dividing by zero
    s = 1.01 * cmath.exp(1j * 0.37)
    p = [s * s - 0.25, -2 * s, 1.0]
    z = roots_mod._aberth_float(p, 2)
    assert all(cmath.isfinite(x) for x in z)
    assert min(abs(z[1] - (s + h)) for h in (0.5, -0.5)) < 1e-12


def test_find_roots_certifies_at_its_last_newton_pass(monkeypatch):
    # the roots workload's polynomials: two fixed.horner_pd passes per
    # polished root, the second of which certifies the point its own Newton
    # step lands on (x - S, with S = floor(2^prec p(x)/p'(x)) from that pass);
    # no pass certifies without stepping, and no point is evaluated twice.
    # R_20 has the exact roots +-i, and its orbit's seed sqrt(w), w = -1 a
    # root of F with F(z^2) = R_20(z), is within 1e-31 of i: that one root's
    # first pass certifies.  Each disc not polished is the exact image of a
    # polished one with the same radius: under conjugation, or for the even
    # W and R also under negation or both
    calls = []
    real = fixed.horner_pd

    def counted(coeffs, xr, xi, prec):
        out = real(coeffs, xr, xi, prec)
        calls.append((xr, xi, out))
        return out

    monkeypatch.setattr(fixed, "horner_pd", counted)
    for fam, k in (("P", 20), ("Q", 20), ("W", 20), ("Y", 42), ("S", 40), ("R", 20), ("P", 26)):
        calls.clear()
        poly = build_family(fam, k)
        roots = find_roots(poly, 128)
        prec = roots.prec
        centres = {(xr, xi) for xr, xi, _ in roots}
        assert len(calls) == roots.passes
        assert len({(xr, xi) for xr, xi, _ in calls}) == len(calls)
        runs, run = [], []     # (landing point, passes) of each polished root
        for xr, xi, (pr, pi, dr, di) in calls:
            assert not run or run[-1] == (xr, xi), (fam, k)   # a root's next pass starts where it landed
            den = dr * dr + di * di
            sr, si = ((pr * dr + pi * di) << prec) // den, ((pi * dr - pr * di) << prec) // den
            assert (sr, si) != (0, 0)
            run.append((xr - sr, xi - si))
            if run[-1] in centres:
                runs.append((run[-1], len(run)))
                run = []
        assert not run and len(runs) == len({x for x, _ in runs}) == roots.polished
        short = [x for x, passes in runs if passes == 1]
        if (fam, k) == ("R", 20):
            assert sum(c.a * (-1) ** (j // 2) for j, c in enumerate(poly.coeffs) if j % 2 == 0) == 0
            assert len(short) == 1 and abs(short[0][0]) + abs(short[0][1] - (1 << prec)) < 1 << (prec - 100)
        else:
            assert not short
        assert all(passes in (1, 2) for _, passes in runs)
        assert roots.passes == 2 * roots.polished - len(short), (fam, k)
        landed = {x for x, _ in runs}
        group = ((1, -1), (-1, -1), (-1, 1)) if fam in ("W", "R") else ((1, -1),)
        for xr, xi, rad in roots:
            assert (xr, xi) in landed or any(
                (a * xr, b * xi) in landed and (a * xr, b * xi, rad) in roots for a, b in group)
            assert 0 < rad <= 1 << (prec - 128 - 16)


def _exact_pd(C, xr, xi, prec):
    """(2^(prec n) p(x), 2^(prec (n - 1)) p'(x)) exactly, each as (re, im)
    integers, for p = sum C_k z^k at x = (xr + i xi) / 2^prec: Horner's rule
    on z = xr + i xi with C_k scaled by 2^(prec (n - k))."""
    n = len(C) - 1
    pr = pi = dr = di = 0
    for k in range(n, -1, -1):
        if k:
            dr, di = dr * xr - di * xi + (k * C[k] << prec * (n - k)), dr * xi + di * xr
        pr, pi = pr * xr - pi * xi + (C[k] << prec * (n - k)), pr * xi + pi * xr
    return (pr, pi), (dr, di)


def _within(exact, out, budget, scale):
    """|exact 2^-scale - out| <= budget, exactly, for (re, im) pairs."""
    dr, di = exact[0] - (out[0] << scale), exact[1] - (out[1] << scale)
    return dr * dr + di * di <= (budget << scale) ** 2


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_horner_pd_within_its_budget(data):
    # the quadratic-divisor pass against p and p' in exact integers, for
    # coefficients c_k + t_k, |t_k| <= e_k, at |x| in [1/4, 4] near the
    # angles 0, pi/2 and pi: the stated budget (fixed.pd_budget at
    # X = xabs 2^-prec > |x|) covers the drawn errors, and the ones aligned
    # with Re x^k (for p) and Re x^(k-1) (for p'), where it is nearly tight
    n = data.draw(st.integers(1, 60), label="n")
    prec = data.draw(st.integers(24, 96), label="prec")
    coeffs = data.draw(st.lists(st.integers(-(1 << prec + 40), 1 << prec + 40),
                                min_size=n + 1, max_size=n + 1), label="coeffs")
    errs = data.draw(st.lists(st.sampled_from([0, 1, 2]) | st.integers(0, 1 << 20),
                              min_size=n + 1, max_size=n + 1), label="errs")
    drawn = [data.draw(st.integers(-e, e)) for e in errs]
    r = data.draw(st.floats(0.25, 4.0), label="|x|")
    theta = math.pi * data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="angle / pi")
    theta += data.draw(st.just(0.0) | st.floats(-1e-3, 1e-3), label="offset")
    xr, xi = round(r * math.cos(theta) * 2 ** prec), round(r * math.sin(theta) * 2 ** prec)
    if theta in (0.0, math.pi / 2, math.pi):
        xr, xi = (xr, 0) if theta != math.pi / 2 else (0, xi)
    out = fixed.horner_pd(coeffs, xr, xi, prec)
    ep, ed = fixed.pd_budget(errs, math.isqrt(xr * xr + xi * xi) + 1, prec)
    x = complex(xr, xi) / 2 ** prec
    sign = [1 if (x ** k).real >= 0 else -1 for k in range(n + 1)]
    for t in (drawn, [e * sign[k] for k, e in enumerate(errs)],
              [e * sign[k - 1] for k, e in enumerate(errs)]):
        p, d = _exact_pd([c + u for c, u in zip(coeffs, t)], xr, xi, prec)
        assert _within(p, out[:2], ep, prec * n)
        assert _within(d, out[2:], ed, prec * (n - 1))


def test_horner_pd_budget_near_tight_at_the_imaginary_axis():
    # a case found by random search, |x| ~ 3.4 near the angle pi/2 with exact
    # coefficients: p' is off by 52 of its 74 units, more than the budget
    # would be without its (x - conj x) B(x) rounding term (47 units)
    coeffs = [-79919768177192838764892, -41861528318088276236241, 73974909344298346468679,
              -115078825518402181599177, 148942810918863624432049]
    xr, xi, prec = 66890927, 461904822614, 37
    out = fixed.horner_pd(coeffs, xr, xi, prec)
    ed = fixed.pd_budget([0] * 5, math.isqrt(xr * xr + xi * xi) + 1, prec)[1]
    _, d = _exact_pd(coeffs, xr, xi, prec)
    assert ed == 74 and _within(d, out[2:], ed, 3 * prec) and not _within(d, out[2:], 51, 3 * prec)


def _d2_sum(coeffs, errs, X):
    """sum k (k - 1) (|C_k| + e_k) X^(k-2) over k >= 2, exactly."""
    return sum(k * (k - 1) * (abs(c) + e) * X ** (k - 2)
               for k, (c, e) in enumerate(zip(coeffs, errs)) if k >= 2)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(112, 200), st.integers(1, 1 << 40))
def test_budget_memo_rounds_the_bound_up(data, prec, frac):
    # the memo's X is xabs 2^-prec rounded up, so its budget is never below
    # the budget at X = xabs 2^-prec itself, and a repeated X reads the memo;
    # K bounds sum k (k - 1) (|C_k| + e_k) X^(k-2), recomputed in Fractions,
    # and exceeds that sum at the rounded X only by the rounding up of each
    # Horner step, less than one unit, carried by the powers of X
    errs = data.draw(st.lists(st.integers(0, 1 << 30), min_size=2, max_size=80), label="errs")
    coeffs = data.draw(st.lists(st.integers(-(1 << prec + 8), 1 << prec + 8), min_size=len(errs),
                                max_size=len(errs)), label="coeffs")
    budget = roots_mod._budget_memo(coeffs, errs, prec)
    g = (16 * len(errs)).bit_length()
    for xabs in ((1 << prec) - frac, (1 << prec) + frac, (3 << prec - 1) + frac):
        ep, ed, K = budget(xabs)
        at = fixed.pd_budget(errs, xabs, prec)
        assert ep >= at[0] and ed >= at[1]
        assert K >= _d2_sum(coeffs, errs, F(xabs, 1 << prec))
        X = F(-(-xabs >> (prec - g)), 1 << g)
        assert K < _d2_sum(coeffs, errs, X) + len(errs) * max(1, X) ** len(errs)
        assert budget(xabs) == (ep, ed, K)


def _sqrt_bounds(q):
    """(lo, hi) with lo <= sqrt q <= hi, Fractions 2^-64 apart, for q >= 0."""
    r = math.isqrt(math.floor(q * 4 ** 64))
    return F(r, 2 ** 64), F(r + 1, 2 ** 64)


def _check_rouche_radius(P, D, ep, ed, K, prec):
    """The step S the caller takes, and the radius r that `_rouche_radius`
    gives for it, checked against delta and the Rouche condition recomputed
    in Fractions: r > delta >= |x' - z_L| 2^prec and
    K (r + |S|)^2 < 2 (|D| - ed) (r - delta) 2^prec."""
    den = D[0] ** 2 + D[1] ** 2
    S = (((P[0] * D[0] + P[1] * D[1]) << prec) // den, ((P[1] * D[0] - P[0] * D[1]) << prec) // den)
    r = roots_mod._rouche_radius(P, D, S, ep, ed, K, prec)
    if r is None:
        return None
    d_lo, p_hi = _sqrt_bounds(F(den))[0], _sqrt_bounds(F(P[0] ** 2 + P[1] ** 2))[1]
    assert d_lo > ed
    # 2^prec P/D - S, the floor's part of |x' - z_L|
    phi = (F((P[0] * D[0] + P[1] * D[1]) << prec, den) - S[0],
           F((P[1] * D[0] - P[0] * D[1]) << prec, den) - S[1])
    delta = (d_lo * ep + p_hi * ed) * 2 ** prec / (d_lo * (d_lo - ed))
    delta += _sqrt_bounds(phi[0] ** 2 + phi[1] ** 2)[1]
    s_hi = _sqrt_bounds(F(S[0] ** 2 + S[1] ** 2))[1]
    assert r > delta
    assert K * (r + s_hi) ** 2 < 2 * (d_lo - ed) * (r - delta) * 2 ** prec
    return r


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rouche_radius_against_exact_recomputation(data):
    # P, D and the budgets over wide ranges: a small |D| against ed, a large
    # ep (delta dominates) and a large K (the quadratic term dominates)
    prec = data.draw(st.integers(24, 96), label="prec")
    big = 1 << prec + 8
    P = (data.draw(st.integers(-big, big)), data.draw(st.integers(-big, big)))
    D = (data.draw(st.integers(-big, big)), data.draw(st.integers(-big, big)))
    ep, ed = data.draw(st.integers(0, 1 << 24)), data.draw(st.integers(0, 1 << 24))
    K = data.draw(st.integers(0, 1 << prec + 40) | st.integers(0, 1 << 12), label="K")
    if D == (0, 0):
        D = (1, 0)
    _check_rouche_radius(P, D, ep, ed, K, prec)


def test_rouche_radius_from_delta_or_none():
    # delta alone sets the radius when K = 0 (a linear p): 2^20 units of
    # p(x)'s error over |p'(x)| = 1, plus the floor's 2; with the step 2^30
    # units, a K of 2^140 leaves no radius: K r^2 < A r needs r < 2^-11
    prec = 64
    assert _check_rouche_radius((0, 0), (1 << prec, 0), 1 << 20, 0, 0, prec) == (1 << 20) + 3
    assert _check_rouche_radius((1 << 30, 0), (1 << prec, 0), 0, 0, 1 << 80, prec) is not None
    assert _check_rouche_radius((1 << 30, 0), (1 << prec, 0), 0, 0, 1 << 140, prec) is None


def _oracle_roots(p):
    """mpmath.polyroots at 120 digits of p's coefficients, valued at 450 bits."""
    balls = p.coefficient_balls(450)[:p.degree + 1]
    with mp.workdps(120):
        return mp.polyroots([b.midpoint for b in reversed(balls)], maxsteps=400, extraprec=800)


@pytest.mark.parametrize("fam", ["P", "Q", "W", "Y", "S", "R"])
def test_find_roots_each_disc_holds_exactly_one_root(fam):
    # every oracle root lies in exactly one disc, and every disc holds
    # exactly one oracle root, at the default and an escalated precision
    for k in range(FAMILIES[fam].min_k, 9):
        p = build_family(fam, k).strip_origin()
        oracle = _oracle_roots(p)
        for bits in (128, 256):
            discs = find_roots(p, bits)
            assert len(discs) == p.degree == len(oracle)
            with mp.workdps(120):
                unit = mp.ldexp(1, -discs.prec)
                inside = [[abs(w - mp.mpc(xr, xi) * unit) < rad * unit for xr, xi, rad in discs]
                          for w in oracle]
            assert all(sum(row) == 1 for row in inside), (fam, k, bits)
            assert all(sum(col) == 1 for col in zip(*inside)), (fam, k, bits)


def _near_circle_poly(*roots):
    """prod (z^2 - 2 rho c z + rho^2) over (rho, c): roots rho (c +- i sqrt(1 - c^2))."""
    coeffs = [F(1)]
    for rho, c in roots:
        quad = [rho * rho, -2 * c * rho, F(1)]
        coeffs = [sum(coeffs[i] * quad[j - i] for i in range(len(coeffs)) if 0 <= j - i < 3)
                  for j in range(len(coeffs) + 2)]
    return _rational_poly(+1, *coeffs)


_OUT, _IN = 1 + F(1, 10 ** 15), 1 - F(1, 10 ** 15)


@pytest.mark.parametrize("roots", [((_OUT, F(3, 5)),), ((_IN, F(3, 5)),),
                                   ((_OUT, F(3, 5)), (_IN, F(-5, 13)))],
                         ids=["1+1e-15", "1-1e-15", "both"])
@pytest.mark.parametrize("bits", [128, 256])
def test_roots_near_circle_never_certified(roots, bits):
    # roots at modulus 1 +- 1e-15 of an input that is not self-inversive: the
    # discs prove them off the circle, never on it
    poly = _near_circle_poly(*roots)
    assert not poly.self_inversive_ok()
    rep = verify_by_roots(poly, bits)
    assert rep.verdict == CERTIFIED_FALSE and rep.zeros_on_circle == 0
    assert rep.max_mod_dev.gt(F(9, 10 ** 16)) and rep.max_mod_dev.lt(F(11, 10 ** 16))


def test_roots_module_binds_no_libmp():
    # the route reads no mpmath internals: discs, separation and moduli are
    # integers, and the two report balls come from fixed.to_ball
    assert not any(v is libmp or (getattr(v, "__module__", None) or "").startswith("mpmath.libmp")
                   for v in vars(roots_mod).values())


def test_find_roots_budget_once_per_bound_and_no_history(monkeypatch):
    # the roots of P_60 near the circle share one or two bounds on |x|, so
    # the budget is evaluated a few times per call, not once per root; the
    # memo lives in one call, so P_20's balls are the same fresh, run twice
    # and run after R_20
    calls = []
    real = fixed.pd_budget
    monkeypatch.setattr(fixed, "pd_budget", lambda *a: calls.append(a) or real(*a))
    roots = find_roots(build_P(60))
    assert roots.polished == 60 and 1 <= len(calls) <= 3
    monkeypatch.undo()

    script = ("from circlezero.families import build_P\n"
              "from circlezero.roots import find_roots\n"
              "print(list(find_roots(build_P(20))))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second = list(find_roots(build_P(20))), list(find_roots(build_P(20)))
    find_roots(build_R(20))
    assert proc.stdout.strip() == repr(first) and first == second == list(find_roots(build_P(20)))


def test_find_roots_repeated_root_fails():
    dbl = FamilyPoly("S", 1, 0, (ZetaCoefficient.rational(1),
                                 ZetaCoefficient.rational(-2),
                                 ZetaCoefficient.rational(1)), +1)  # (z-1)^2
    with pytest.raises(NumericError):
        roots = find_roots(dbl)
        sep = simplicity_check(roots)
        assert sep is None or sep.sign() == 0  # overlapping disks if no raise


def test_find_roots_binds_coefficients_once_per_call(monkeypatch):
    # p and p' are bound to balls once per call, not once per root
    calls = []
    orig = ZetaCoefficient.eval
    monkeypatch.setattr(ZetaCoefficient, "eval", lambda c, lam: calls.append(1) or orig(c, lam))
    p = build_P(10)
    roots = find_roots(p)
    assert len(roots) == 20
    assert len(calls) <= 2 * p.degree + 1


@pytest.mark.parametrize("fam,k", [("P", 10), ("S", 40), ("Y", 42), ("R", 5)])
def test_find_roots_discs_pass_the_rouche_test_recomputed(monkeypatch, fam, k):
    # the pass that certifies each polished disc, recomputed: its p(x) and
    # p'(x) within the budget of the exact fixed-point polynomial (Fractions),
    # its K at least the exact sum over a disc that holds x' and the circle,
    # and its radius passing the Rouche condition in Fractions
    p = build_family(fam, k).strip_origin()
    seen = []
    real = roots_mod._rouche_radius

    def recorded(P, D, S, ep, ed, K, prec):
        r = real(P, D, S, ep, ed, K, prec)
        seen.append((points[-1], (P, D, S, ep, ed, K, r)))
        return r

    monkeypatch.setattr(roots_mod, "_rouche_radius", recorded)
    points = []
    horner = fixed.horner_pd
    monkeypatch.setattr(fixed, "horner_pd", lambda c, xr, xi, prec: points.append((xr, xi)) or
                        horner(c, xr, xi, prec))
    discs = find_roots(p, 128)
    monkeypatch.undo()
    prec = discs.prec
    _, C, E = p.fixed_coefficients(prec, p.degree + 1)
    certified = {}
    for (xr, xi), (P, D, S, ep, ed, K, r) in seen:
        if r is not None and r <= 1 << (prec - 128 - 16):
            certified[(xr - S[0], xi - S[1])] = r
            assert _check_rouche_radius(P, D, ep, ed, K, prec) == r
            xp, xd = _exact_pd(C, xr, xi, prec)
            n = len(C) - 1
            assert _within(xp, P, ep, prec * n) and _within(xd, D, ed, prec * (n - 1))
            X = (_sqrt_bounds(F(xr * xr + xi * xi))[1] + _sqrt_bounds(F(S[0] ** 2 + S[1] ** 2))[1]
                 + r) / 2 ** prec
            assert K >= _d2_sum(C, E, X)
    assert len(certified) == discs.polished
    assert all(certified.get((xr, xi), rad) == rad for xr, xi, rad in discs)


def _all_pairs_min(discs):
    """The reference scan: (lo, hi) of the pair of smallest lo over all
    pairs, the first in (i, j) order on ties."""
    best = None
    for i, (xa, ya, ra) in enumerate(discs):
        for xb, yb, rb in discs[i + 1:]:
            d2 = (xa - xb) ** 2 + (ya - yb) ** 2
            lo = math.isqrt(d2) - ra - rb
            if best is None or lo < best[0]:
                best = (lo, (math.isqrt(d2 - 1) + 1 if d2 else 0) + ra + rb)
    return best


def _discs(*discs, prec=176):
    """RootDiscs from (re, im, rad) Fractions, each floored to units of 2^-prec."""
    return RootDiscs([tuple(math.floor(v * 2 ** prec) for v in d) for d in discs], prec,
                     len(discs), "grid", 0)


@pytest.mark.parametrize("fam,k", [("P", 20), ("R", 5), ("Y", 42)])
def test_simplicity_check_matches_all_pairs_scan(fam, k):
    roots = find_roots(build_family(fam, k))
    assert simplicity_check(roots) == _all_pairs_min(roots)


_GRID = st.sampled_from([F(0), F(1), F(-1), F(1, 3), F(5, 2), F(1, 10 ** 12)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_GRID, _GRID, st.sampled_from([F(0), F(1, 2 ** 100), F(1, 10), F(1), F(3)])),
                min_size=2, max_size=10),
       st.lists(st.integers(0, 9), max_size=3))
def test_simplicity_check_matches_all_pairs_scan_random(discs, copies):
    # few distinct coordinates, so real parts repeat and centres coincide;
    # radii up to 3, so a far pair's wide discs can beat the closest centres
    discs += [discs[i % len(discs)] for i in copies]          # exact duplicates
    roots = _discs(*discs)
    assert simplicity_check(roots) == _all_pairs_min(roots)


def test_simplicity_check_wide_balls_beat_closer_centres():
    # the closest centres (distance 1) have tight discs; the pair at distance
    # 101/100 has radius 1/10 discs, so its lower bound is smaller
    tiny = F(1, 10 ** 30)
    roots = _discs((F(0), F(0), tiny), (F(1), F(0), tiny), (F(5), F(0), F(1, 10)),
                   (F(601, 100), F(0), F(1, 10)))
    lo, hi = simplicity_check(roots)
    assert (lo, hi) == _all_pairs_min(roots[2:]) and lo < 1 << roots.prec


def test_simplicity_check_memory_linear_in_roots():
    # 2,000 discs on the circle (the degree of P_999): the sweep over the
    # centres by real part holds only the near pairs, not all n(n-1)/2
    import tracemalloc

    n, prec = 2000, 176
    discs = RootDiscs([(int(math.cos(t) * 2 ** 52) << prec - 52, int(math.sin(t) * 2 ** 52) << prec - 52,
                        1 << 30) for t in (math.pi * (2 * j + 1) / n for j in range(n))],
                      prec, n, "grid", 0)
    tracemalloc.start()
    try:
        lo, hi = simplicity_check(discs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak
    assert abs(lo / 2 ** prec - 2 * math.sin(math.pi / n)) < 1e-12


def test_verify_by_roots_overlapping_discs_not_certified(monkeypatch):
    # two discs within 1e-20 of the circle whose centres are closer than
    # their radii: the count could be one double root, so no certificate
    tiny = F(1, 2 ** 80)
    roots = _discs((F(1), F(0), 2 * tiny), (F(1), tiny, 2 * tiny))
    monkeypatch.setattr(roots_mod, "find_roots", lambda poly, bits: roots)
    rep = verify_by_roots(build_S(2))
    assert rep.zeros_on_circle == 2 and rep.degree_nontrivial == 2
    assert not rep.certified and rep.verdict != CERTIFIED_TRUE


def test_verify_by_roots_escalates_indeterminate_only(monkeypatch):
    calls = []
    real = roots_mod.find_roots

    def first_wide(poly, bits):
        calls.append(bits)
        roots = real(poly, bits)
        if len(calls) == 1:   # radius 1e-10: neither on nor off the circle at 1e-20
            wide = (1 << roots.prec) // 10 ** 10
            roots = RootDiscs([(xr, xi, wide) for xr, xi, _ in roots], roots.prec,
                              roots.polished, roots.seeds, roots.passes)
        return roots

    monkeypatch.setattr(roots_mod, "find_roots", first_wide)
    rep = verify_by_roots(build_P(6), bits=128)
    assert calls == [128, 256]
    assert rep.verdict == CERTIFIED_TRUE and rep.zeros_on_circle == 12
    # a refutation is final
    calls.clear()
    monkeypatch.setattr(roots_mod, "find_roots",
                        lambda poly, bits: calls.append(bits) or real(poly, bits))
    assert verify_by_roots(build_R(5)).verdict == CERTIFIED_FALSE
    assert calls == [128]


def test_verify_by_roots_W2():
    rep = verify_by_roots(build_W(2))
    assert rep.certified
    assert float(rep.max_mod_dev.upper) < 1e-25
    assert rep.min_root_sep.gt(F(1, 10))
    # W_2 is even: its four roots are one orbit of conjugation and negation
    assert rep.detail == {"n_roots": 4, "polished": 1, "passes": 2, "seeds": "grid", "bits": 128}


def test_verify_by_roots_unbalanced_seeds_fall_back(monkeypatch):
    # the lowest seed s gives way to an upper-half point x whose Newton step
    # lands on s: a root of (x - s) p'(x) - p(x).  With one upper seed more
    # than lower, no ball is mirrored; every seed is polished.  (P_10 has no
    # real root, and Newton from a real seed stays on the real axis.)
    real = roots_mod._aberth_float

    def unbalanced(c, n):
        z = real(c, n)
        s = min(z, key=lambda w: w.imag)
        d = [j * c[j] for j in range(1, n + 1)] + [0.0]
        x = max(real([(j and d[j - 1]) - s * d[j] - c[j] for j in range(n + 1)], n),
                key=lambda w: w.imag)
        assert x.imag > 0.5
        z[z.index(s)] = x
        return z

    monkeypatch.setattr(roots_mod, "_aberth_float", unbalanced)
    monkeypatch.setattr(roots_mod, "_grid_seeds", lambda *args: None)   # the Aberth path
    rep = verify_by_roots(build_P(10))
    assert rep.verdict == CERTIFIED_TRUE and rep.zeros_on_circle == 20
    assert rep.detail["polished"] == rep.detail["n_roots"] == 20
    assert rep.detail["seeds"] == "aberth"


@pytest.mark.parametrize("fam,k,verdict,on_circle,near_real", [
    ("S", 9, CERTIFIED_TRUE, 9, 1), ("S", 41, CERTIFIED_TRUE, 41, 1),
    ("Y", 43, CERTIFIED_TRUE, 41, 1), ("R", 7, CERTIFIED_FALSE, 12, 4)])
def test_verify_by_roots_polishes_near_real_seeds(monkeypatch, fam, k, verdict, on_circle, near_real):
    # a seed within MIRROR_TOL of the real axis (the forced zero -1 of odd
    # degree) is polished on its own, not mirrored by conjugation; the even
    # R_7 polishes one seed per orbit of conjugation and negation: its four
    # real roots +-a and +-1/a (a > 0) from a and 1/a, and its twelve circle
    # roots from the three in the open first quadrant
    seeds = []
    real = roots_mod._newton_disc

    def recorded(poly, coeffs, budget, xr, xi, prec, bits):
        seeds.append(complex(xr, xi) / 2 ** prec)
        return real(poly, coeffs, budget, xr, xi, prec, bits)

    monkeypatch.setattr(roots_mod, "_newton_disc", recorded)
    rep = verify_by_roots(build_family(fam, k))
    n = rep.degree_nontrivial
    assert (rep.verdict, rep.zeros_on_circle, rep.detail["n_roots"]) == (verdict, on_circle, n)
    orbit = 4 if fam == "R" else 2      # the size of an orbit off the axes
    assert rep.detail["polished"] == len(seeds) == (n - near_real) // orbit + near_real * 2 // orbit
    on_axis = [w for w in seeds if abs(w.imag) <= roots_mod.MIRROR_TOL * max(1, abs(w))]
    assert len(on_axis) == near_real * 2 // orbit
    assert all(w.imag > 0 for w in seeds if w not in on_axis)
    if fam == "R":
        assert all(w.real > 0 for w in seeds)


class _OddTerm(families.ProductForm):
    """W_k or R_k with its fixed-point z^3 and z^(N-3) terms set to (C, e),
    (C eps, e): the polynomial within those integers is W_k or R_k plus a
    symmetric odd term of at most (|C| + e) units, so a self-inversive one
    that is even only when the term is 0."""

    def __init__(self, family, k, term):
        super().__init__(family, k)
        object.__setattr__(self, "term", term)

    def fixed_coefficients(self, prec, count):
        emax, C, e = super().fixed_coefficients(prec, count)
        for i, sign in ((3, 1), (self.N - 3, self.epsilon)):
            C[i], e[i] = sign * self.term[0], self.term[1]
        return emax, C, e


@pytest.mark.parametrize("term", [(0, 1), (1, 0)], ids=["C=0,e=1", "C=1,e=0"])
@pytest.mark.parametrize("fam,k,verdict,on_circle,seeds,polished", [
    ("W", 12, CERTIFIED_TRUE, 24, "grid", 12), ("R", 7, CERTIFIED_FALSE, 12, "aberth", 10)])
def test_roots_odd_term_is_not_negation_mirrored(monkeypatch, term, fam, k, verdict, on_circle,
                                                 seeds, polished):
    # one odd coefficient (and its mirror) that is 0 within an error of one
    # unit, or one unit: the integers do not prove p even, so only
    # conjugation mirrors, Aberth runs at the full degree, and the report is
    # the one of W_12 and R_7 with conjugation alone (polished 12 and 10)
    started = []
    real = roots_mod._newton_disc
    monkeypatch.setattr(roots_mod, "_newton_disc", lambda poly, coeffs, budget, xr, xi, prec, bits:
                        started.append(complex(xr, xi) / 2 ** prec) or
                        real(poly, coeffs, budget, xr, xi, prec, bits))
    calls = _count_aberth(monkeypatch)
    rep = verify_by_roots(_OddTerm(fam, k, term))
    n = rep.degree_nontrivial
    assert (rep.verdict, rep.zeros_on_circle, rep.detail["n_roots"], rep.detail["seeds"],
            rep.detail["polished"]) == (verdict, on_circle, n, seeds, polished)
    assert calls == ([n] if seeds == "aberth" else [])
    assert any(w.real < -0.1 for w in started) and len(started) == polished


def _orbit_counts(discs):
    """The orbits of the discs' roots under conjugation and negation, two
    roots on an axis (|Re| or |Im| below 2^-100) or four off both, and
    under conjugation alone, one real root or two others."""
    tiny = 1 << (discs.prec - 100)
    quarters = sum(2 if min(abs(xr), abs(xi)) < tiny else 1 for xr, xi, _ in discs)
    halves = sum(2 if abs(xi) < tiny else 1 for _, xi, _ in discs)
    assert quarters % 4 == 0 and halves % 2 == 0
    return quarters // 4, halves // 2


def test_even_families_polish_one_root_per_orbit(monkeypatch):
    # W and R are polynomials in z^2: R_1..R_60 and W_2..W_60 keep the
    # verdicts, counts and seed sources of the conjugate-only route (R: four
    # real roots, the rest on the circle, Aberth seeds, refuted; W: every
    # root on the circle, grid seeds), polishing one root per orbit
    found = []
    real = roots_mod.find_roots
    monkeypatch.setattr(roots_mod, "find_roots", lambda poly, bits: found.append(real(poly, bits))
                        or found[-1])
    for fam, ks in (("R", range(1, 61)), ("W", range(2, 61))):
        for k in ks:
            found.clear()
            rep = verify_by_roots(build_family(fam, k))
            n = rep.degree_nontrivial
            (discs,) = found
            assert n == (2 * k + 2 if fam == "R" else 2 * k) == rep.detail["n_roots"]
            assert (rep.verdict, rep.zeros_on_circle, rep.detail["seeds"]) == (
                (CERTIFIED_FALSE, n - 4, "aberth") if fam == "R" else (CERTIFIED_TRUE, n, "grid"))
            orbits, conjugate_orbits = _orbit_counts(discs)
            assert rep.detail["polished"] == orbits < conjugate_orbits, (fam, k)


def test_grid_seeds_skip_the_confirming_newton_step(monkeypatch):
    # P_200's 200 grid seeds took 715 float Newton evaluations when each ran
    # until a step fell below 1e-13; stopping once quadratic convergence puts
    # the next step below float resolution takes fewer, and every root still
    # certifies at its second fixed-point pass
    calls = []
    real = roots_mod._horner_float
    monkeypatch.setattr(roots_mod, "_horner_float", lambda rev, x: calls.append(1) or real(rev, x))
    roots = find_roots(build_P(200))
    assert roots.seeds == "grid" and len(roots) == 400
    assert roots.passes == 2 * roots.polished == 400
    assert len(calls) < 715


def _aberth_sliced(coeffs, n):
    """`_aberth_float` as first written, each root's sum formed over the new
    list z[:i] + z[i + 1:]: the reference its seeds must match bit for bit."""
    rev = coeffs[::-1]
    z = [1.01 * cmath.exp(1j * (2.0 * cmath.pi * j / n + 0.37)) for j in range(n)]
    moving = list(range(n))
    for _ in range(roots_mod.ABERTH_SWEEPS):
        corr = []
        for i in moving:
            x = z[i]
            p, d = roots_mod._horner_float(rev, x)
            try:
                w = p / d
                c = w / (1 - w * sum([1 / (x - y) for y in z[:i] + z[i + 1:]]))
            except ZeroDivisionError:
                c = 0j
            corr.append(c if cmath.isfinite(c) else 0j)
        for i, c in zip(moving, corr):
            z[i] -= c
        moving = [i for i, c in zip(moving, corr) if abs(c) >= 1e-13]
        if not moving:
            break
    return z


@pytest.mark.parametrize("k", [20, 60])
def test_aberth_seeds_match_the_sliced_sum(k):
    # R_k at its full degree and, as the route runs it, at half the degree
    p = build_R(k)
    prec = 128 + roots_mod.ROOT_GUARD
    floats = [c / 2 ** prec for c in p.fixed_coefficients(prec, p.degree + 1)[1]]
    for coeffs in (floats, floats[::2]):
        n = len(coeffs) - 1
        assert roots_mod._aberth_float(coeffs, n) == _aberth_sliced(coeffs, n)


def test_verify_by_roots_modulus_decided_in_integers(monkeypatch):
    # on, off or undecided against ROOT_TOL by exact integer comparisons of
    # each disc's | |z| - 1 | enclosure; no ball is formed but the two the
    # report prints
    tiny, wide = F(1, 2 ** 100), F(1, 10 ** 10)
    on, conj, off_im, off_re = ((re, im, tiny) for re, im in
                                ((F(3, 5), F(4, 5)), (F(3, 5), F(-4, 5)), (F(3, 5), F(1, 2)), (F(1, 5), F(4, 5))))
    wide_disc = (F(3, 5), F(-4, 5), wide)
    made = []
    to_ball = fixed.to_ball
    monkeypatch.setattr(fixed, "to_ball", lambda *a: made.append(a) or to_ball(*a))
    monkeypatch.setattr(roots_mod, "ComplexEnclosure", None)    # no per-root ball
    for discs, verdict, on_circle in (([on, conj], CERTIFIED_TRUE, 2),
                                      ([on, conj, off_im], CERTIFIED_FALSE, 2),
                                      ([on, conj, off_re], CERTIFIED_FALSE, 2),
                                      ([on, wide_disc], INDETERMINATE, 1)):
        made.clear()
        calls = []
        monkeypatch.setattr(roots_mod, "find_roots",
                            lambda poly, bits: calls.append(bits) or _discs(*discs))
        rep = verify_by_roots(build_S(len(discs)))     # degree = number of discs
        assert (rep.verdict, rep.zeros_on_circle) == (verdict, on_circle)
        assert len(made) == 2 * len(calls)
        dev = rep.max_mod_dev
        assert {CERTIFIED_TRUE: dev.lt(roots_mod.ROOT_TOL), CERTIFIED_FALSE: dev.gt(F(1, 10)),
                INDETERMINATE: not dev.lt(roots_mod.ROOT_TOL) and not dev.gt(roots_mod.ROOT_TOL)}[verdict]


@pytest.mark.parametrize("offset,verdict,on_circle", [
    (0, INDETERMINATE, 0), (-1, CERTIFIED_TRUE, 1), (1, CERTIFIED_FALSE, 0)],
    ids=["at-tol", "below", "above"])
def test_verify_by_roots_modulus_exactly_at_tol(monkeypatch, offset, verdict, on_circle):
    # a dyadic tolerance, so a point disc can sit exactly on it: |x| - 1 = tol
    # is neither below nor above tol; one unit of 2^-200 either way decides
    tol = F(1, 2 ** 70)
    x = _discs((1 + tol + F(offset, 2 ** 200), F(0), F(0)), prec=256)
    monkeypatch.setattr(roots_mod, "ROOT_TOL", tol)
    monkeypatch.setattr(roots_mod, "find_roots", lambda poly, bits: x)
    rep = verify_by_roots(build_S(1))
    assert (rep.verdict, rep.zeros_on_circle) == (verdict, on_circle)
    dev = rep.max_mod_dev
    assert dev.rad == libmp.fzero and dev.contains(tol + F(offset, 2 ** 200))


_DYADIC = st.integers(-2 ** 12, 2 ** 12).map(lambda v: F(v, 2 ** 10))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_DYADIC, _DYADIC, st.integers(0, 2 ** 10).map(lambda v: F(v, 2 ** 12))),
                min_size=1, max_size=4))
def test_modulus_deviations_enclose_every_point(discs):
    # for each disc, | |x| - 1 | at its centre, at its points nearest to and
    # farthest from 0 and at eight points of its circle lies in [lo, hi]
    # 2^-prec, and the enclosure is no wider than the true range plus two
    # units (one of isqrt rounding per end)
    roots = _discs(*discs, prec=16)
    unit = 2.0 ** -roots.prec
    for (a, b, r), (lo, hi) in zip(discs, roots_mod._modulus_deviations(roots)):
        c = math.hypot(a, b)
        near, far = max(c - r, 0), c + r
        points = [near, far, c]
        points += [abs(complex(a, b) + float(r) * cmath.exp(1j * math.pi * t / 4)) for t in range(8)]
        for mod in points:
            assert lo * unit - 1e-12 <= abs(mod - 1) <= hi * unit + 1e-12
        true_hi = max(abs(near - 1), abs(far - 1))
        true_lo = 0 if near <= 1 <= far else min(abs(near - 1), abs(far - 1))
        assert hi * unit <= true_hi + 2 * unit + 1e-12 and lo * unit >= true_lo - 2 * unit - 1e-12


def test_root_count_conservation_R():
    poly = build_R(5)
    roots = find_roots(poly).balls()
    on_circle = sum(1 for r in roots if (r.abs() - 1).abs().lt(F(1, 10 ** 20)))
    off_circle = sum(1 for r in roots if (r.abs() - 1).abs().gt(F(1, 10 ** 20)))
    assert on_circle + off_circle + poly.origin_multiplicity == poly.degree
    assert off_circle == 4


def test_verify_by_roots_refutes_R():
    rep = verify_by_roots(build_R(5))
    assert not rep.certified
    assert rep.verdict == CERTIFIED_FALSE


def _count_aberth(monkeypatch):
    calls = []
    real = roots_mod._aberth_float
    monkeypatch.setattr(roots_mod, "_aberth_float", lambda c, n: calls.append(n) or real(c, n))
    return calls


@pytest.mark.parametrize("fam,k,aberth,verdict", [
    ("P", 20, 0, CERTIFIED_TRUE), ("Q", 20, 0, CERTIFIED_TRUE), ("W", 20, 0, CERTIFIED_TRUE),
    ("Y", 42, 0, CERTIFIED_TRUE), ("S", 40, 0, CERTIFIED_TRUE), ("P", 26, 0, CERTIFIED_TRUE),
    ("S", 41, 0, CERTIFIED_TRUE), ("P", 21, 0, CERTIFIED_TRUE), ("z^3-1", 3, 0, CERTIFIED_TRUE),
    ("R", 20, 1, CERTIFIED_FALSE)])
def test_roots_seeded_from_sign_count_grid(monkeypatch, fam, k, aberth, verdict):
    # every family the sign counter certifies is seeded from its first grid
    # (the roots workload's k, an odd degree, eps = -1 with its real seeds
    # +-1, and eps = -1 at odd degree, deflated by z - 1 in fixed point); R's
    # real roots leave its count short, so it takes Aberth
    calls = _count_aberth(monkeypatch)
    poly = _rational_poly(-1, -1, 0, 0, 1) if fam == "z^3-1" else build_family(fam, k)
    rep = verify_by_roots(poly)
    assert len(calls) == aberth and rep.verdict == verdict
    assert rep.detail["seeds"] == ("aberth" if aberth else "grid")


_GRID_VALUES = _TrigEvaluator.grid_values


def _zero_at_one_point(ev, M):
    values = _GRID_VALUES(ev, M)
    values[M // 3] = 0
    return values


@pytest.mark.parametrize("fam,k", [("P", 20), ("S", 41), ("P", 21)])
@pytest.mark.parametrize("short", ["coarse-grid", "sign-zero"])
def test_roots_short_bracket_count_falls_back_to_aberth(monkeypatch, fam, k, short):
    # too coarse a grid for every bracket, or one grid point without a
    # certified sign: the same polynomial takes Aberth, with the same outcome
    poly = build_family(fam, k)
    want = verify_by_roots(poly)
    assert want.detail["seeds"] == "grid"
    calls = _count_aberth(monkeypatch)
    if short == "coarse-grid":
        monkeypatch.setattr(roots_mod, "_seed_grid", lambda m: 4)
    else:
        monkeypatch.setattr(_TrigEvaluator, "grid_values", _zero_at_one_point)
    rep = verify_by_roots(poly)
    assert len(calls) == 1 and rep.detail["seeds"] == "aberth"
    assert (rep.verdict, rep.zeros_on_circle, rep.detail["polished"], rep.detail["bits"]) == \
        (want.verdict, want.zeros_on_circle, want.detail["polished"], want.detail["bits"])


@pytest.mark.parametrize("fam,k", [("P", 20), ("S", 41)])
def test_roots_seed_leaving_its_bracket_is_refused(monkeypatch, fam, k):
    # each grid seed's argument lies in its own bracket, so no two seeds are
    # alike; a float Newton that carries seeds out of their brackets (here
    # every step lands on i) gives no grid seeds at all
    p = build_family(fam, k).strip_origin()
    prec = 128 + roots_mod.ROOT_GUARD
    fc = p.fixed_coefficients(prec, p.degree + 1)
    floats = [c / 2 ** prec for c in fc[1]]
    seeds = roots_mod._grid_seeds(p, fc, prec, floats)
    assert len(seeds) == p.degree
    upper = sorted(cmath.phase(z) for z in seeds if z.imag > 0)
    assert len(upper) == p.degree // 2 and all(a < b for a, b in zip(upper, upper[1:]))
    monkeypatch.setattr(roots_mod, "_horner_float", lambda rev, z: (z - 1j, 1.0))
    assert roots_mod._grid_seeds(p, fc, prec, floats) is None


@pytest.mark.parametrize("coeffs", [
    (F(-(10 ** 6 + 1), 10 ** 6), 0, 0, 1),   # roots at |z|^3 = 1 + 1e-6
    (1, 1, 2, 1),                           # c_0 = c_3, c_1 != c_2
], ids=["z^3-(1+1e-6)", "1+z+2z^2+z^3"])
def test_roots_unsymmetric_input_never_seeded_from_grid(monkeypatch, coeffs):
    # the grid path assumes the symmetry; an input that fails the exact
    # check goes to Aberth without reaching it
    poly = _rational_poly(+1, *coeffs)
    assert not poly.self_inversive_ok()
    monkeypatch.setattr(roots_mod, "_grid_seeds", lambda *args: pytest.fail("grid path taken"))
    calls = _count_aberth(monkeypatch)
    rep = verify_by_roots(poly)
    assert len(calls) == 1 and rep.detail["seeds"] == "aberth"
    assert rep.verdict == CERTIFIED_FALSE


# -- printed balls -----------------------------------------------------------

def test_printed_report_balls_enclose_their_values(monkeypatch):
    # every ball a route prints: Fraction(mid_str) +- Fraction(rad_str) must
    # contain [mid - rad, mid + rad]
    printed = []
    str_pair = RealEnclosure.str_pair

    def recording(self, dps=None):
        printed.append((self, str_pair(self, dps)))
        return printed[-1][1]

    monkeypatch.setattr(RealEnclosure, "str_pair", recording)
    docs = [rep.to_doc() for fam, k, method in (("S", 9, "criteria"), ("Y", 9, "criteria"),
                                                ("W", 12, "oscillation"), ("Q", 12, "oscillation"),
                                                ("P", 10, "roots"), ("Q", 8, "roots"))
            for rep in verify_family(fam, k, method)]
    nested = [d for doc in docs for d in (doc, *doc["detail"].values()) if isinstance(d, dict)]
    fields = {name for d in nested for name, v in d.items() if name.endswith("_rad") and v}
    assert fields == {"c_rad", "margin_rad", "min_abs_rad", "bound_rad",
                      "max_mod_dev_rad", "min_root_sep_rad"}
    for ball, (mid_str, rad_str) in printed:
        mid, rad = (F(*libmp.to_rational(x)) for x in (ball.mid, ball.rad))
        assert F(rad_str) >= abs(F(mid_str) - mid) + rad, (mid_str, rad_str)


# -- dispatch ----------------------------------------------------------------

def test_verify_family_all_methods_agree():
    for fam, k in (("S", 6), ("Y", 6), ("W", 12), ("Q", 8), ("P", 6)):
        reports = verify_family(fam, k, "all")
        certified = [r for r in reports if r.certified]
        assert certified, (fam, k)
        counts = {r.zeros_on_circle for r in certified}
        assert len(counts) == 1, (fam, k, counts)
        by_roots = [r for r in reports if r.method == "roots"]
        assert by_roots and by_roots[0].certified


def test_verify_family_domain_checks():
    with pytest.raises(DomainError):
        verify_family("P", 1, "sign-count")
    with pytest.raises(DomainError):
        verify_family("S", 3, "oscillation")
    with pytest.raises(DomainError):
        verify_family("S", 3, "bogus")


def test_family_specs_min_k_matches_builders():
    # the one registry row gives each family's smallest k to the builders
    assert list(FAMILIES) == ["R", "P", "Q", "Y", "W", "S"]
    assert set(FAMILY_SPECS) == {"Q", "Y", "W", "S"}
    for fam, row in FAMILIES.items():
        assert build_family(fam, row.min_k).k == row.min_k
        with pytest.raises(DomainError):
            build_family(fam, row.min_k - 1)


def test_verify_family_builds_once(monkeypatch):
    calls = {"P": 0, "Q": 0}
    for fam in calls:
        original = getattr(families, f"build_{fam}")

        def counted(k, fam=fam, original=original):
            calls[fam] += 1
            return original(k)

        monkeypatch.setattr(families, f"build_{fam}", counted)
    (rep,) = verify_family("Q", 12, "oscillation")
    assert rep.certified and rep.method == "oscillation"
    assert calls == {"P": 0, "Q": 1}


def test_oscillation_sign_tables_sampled():
    # w_k: strictly alternating signs over the whole mirrored grid; q_k:
    # strictly alternating except one documented repeated-sign pair when the
    # two excluded half-integer points coincide (k = 2 j0)
    for k in (12, 17, 23, 29, 34, 38, 41, 47, 53, 60):
        w_rep = alternating_verify(_w_eval(k), oscillation_samples("W", k), F(3, 10), 2 * (k - 1))
        assert all(s != 0 for s in w_rep.signs), k
        assert w_rep.order_achieved == len(w_rep.signs) - 1 == 2 * k, k

        pts = oscillation_samples("Q", k)
        q_rep = alternating_verify(_q_eval(k), pts, F(3, 100), 2 * (k - 1))
        assert all(s != 0 for s in q_rep.signs), k
        repeats = [i for i in range(len(q_rep.signs) - 1)
                   if q_rep.signs[i] == q_rep.signs[i + 1]]
        assert q_rep.order_achieved == 2 * k - 2, k
        if len(pts) == 2 * k - 1:
            assert repeats == [], k
        else:
            assert len(repeats) == 1, k
