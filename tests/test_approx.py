"""Identity residuals, zeta(3) approximation schemes, auxiliary zeros."""

from fractions import Fraction

import pytest
from mpmath import mp

from circlezero.approx import (
    approx1_zeta3,
    approx2_zeta3,
    auxiliary_zeros,
    matched_leading_digits,
    ramanujan_identity_residual,
    sech_identity_residual,
)
from circlezero.enclosure import RealEnclosure, zeta_odd
from circlezero.errors import DomainError

F = Fraction


def test_ramanujan_k2_z1():
    se = ramanujan_identity_residual(2, (F(1), F(0)), 30, bits=256)
    assert se.encloses_zero()
    assert se.residual_width() < 1e-30


def test_ramanujan_z1_sums_coincide():
    # at z = 1 both exponential sums coincide; the identity reduces to the
    # classical zeta(3)-type series, residual still encloses zero
    se = ramanujan_identity_residual(2, (F(1), F(0)), 12, bits=128)
    assert se.encloses_zero()
    assert (se.rhs.re + se.rhs.re - se.rhs.re * 2).contains_zero()


def test_ramanujan_k5():
    se = ramanujan_identity_residual(5, (F(3, 2), F(0)), 40, bits=256)
    assert se.encloses_zero()


def test_ramanujan_complex_point():
    se = ramanujan_identity_residual(3, (F(3, 10), F(7, 10)), None, bits=256)
    assert se.encloses_zero()
    assert se.residual_width() < 1e-25


def test_ramanujan_domain():
    with pytest.raises(DomainError):
        ramanujan_identity_residual(2, (F(0), F(1)), 10)  # Re z = 0
    with pytest.raises(DomainError):
        ramanujan_identity_residual(1, (F(1), F(0)), 10)
    for n_terms in (0, -1):  # a truncation below one term is no truncation
        with pytest.raises(DomainError):
            ramanujan_identity_residual(2, (F(1), F(0)), n_terms)


def test_ramanujan_tail_soundness_under_truncation():
    # halving N keeps the rhs enclosures overlapping (the tail inflation at
    # the coarser N covers the discarded terms)
    big = ramanujan_identity_residual(4, (F(1), F(0)), 40, bits=192)
    small = ramanujan_identity_residual(4, (F(1), F(0)), 20, bits=192)
    for a, b in ((big.rhs.re, small.rhs.re), (big.rhs.im, small.rhs.im)):
        assert a.lower <= b.upper and b.lower <= a.upper


def test_sech_identity_examples():
    se = sech_identity_residual(2, F(1), 25, bits=256)
    assert se.encloses_zero() and se.residual_width() < 1e-24
    se = sech_identity_residual(1, F(1), None, bits=128)
    assert se.encloses_zero()
    se = sech_identity_residual(3, F(1, 2), 40, bits=256)
    assert se.encloses_zero() and se.residual_width() < 1e-24
    # auto-selected truncation reaches far smaller certified widths
    se = sech_identity_residual(3, F(1, 2), None, bits=256)
    assert se.encloses_zero() and se.residual_width() < 1e-25


def test_sech_domain():
    with pytest.raises(DomainError):
        sech_identity_residual(2, F(-1))
    with pytest.raises(DomainError):
        sech_identity_residual(0, F(1))
    for n_terms in (0, -3):
        with pytest.raises(DomainError):
            sech_identity_residual(2, F(1), n_terms)


def test_approx1_six_decimals():
    res = approx1_zeta3(128)
    assert res.matched_decimals >= 6
    assert float(res.constraint_residual.upper) < 1e-30
    # seed sanity: the returned root stays within 1e-3 of the unit circle
    # (the constraint zero is near, not on, the circle)
    assert abs(float(res.root.abs().midpoint) - 1.0) < 1e-3


def test_approx1_seed_on_circle():
    # the seed root itself (P_2 root) is on the circle to 1e-20
    from circlezero.families import build_P
    from circlezero.roots import find_roots
    roots = find_roots(build_P(2), 128).balls()
    for r in roots:
        assert (r.abs() - 1).abs().lt(F(1, 10 ** 20))


def test_approx2_four_decimals():
    res = approx2_zeta3(128)
    assert res.matched_decimals >= 4
    assert float(res.constraint_residual.upper) < 1e-30
    assert abs(float(res.root.re.midpoint) - 0.92) < 0.01
    assert abs(float(res.root.im.midpoint) + 0.39) < 0.01


def test_approx2_worse_than_approx1():
    r1 = approx1_zeta3(128)
    r2 = approx2_zeta3(128)
    assert r2.matched_decimals < r1.matched_decimals


def test_approx_seed_conventions_differ():
    principal = approx1_zeta3(128, "principal")
    secondary = approx1_zeta3(128, "secondary")
    assert principal.matched_decimals > secondary.matched_decimals
    with pytest.raises(DomainError):
        approx1_zeta3(128, "third")


def test_approx_determinism():
    a = approx1_zeta3(128).to_doc()
    b = approx1_zeta3(128).to_doc()
    assert a == b


def test_matched_digits_helper():
    ref = zeta_odd(3, 192)
    # 1.2020569 vs 1.2020569031...: common prefix 1-2-0-2-0-5-6-9-0
    exact_ball = RealEnclosure.exact(F(12020569, 10 ** 7), 128)
    assert matched_leading_digits(exact_ball.mid, ref) == 9
    off = RealEnclosure.exact(F(12021, 10 ** 4), 128)
    assert matched_leading_digits(off.mid, ref) == 4
    neg = RealEnclosure.exact(F(-1), 128)
    assert matched_leading_digits(neg.mid, ref) == 0


def test_auxiliary_zeros_k2():
    pairs = auxiliary_zeros(2, 128)
    assert len(pairs) == 4
    assert all(p.converged for p in pairs)
    # measured pairing distances: two at ~3.7e-5, two at ~1.35e-4
    dists = sorted(p.distance for p in pairs)
    assert dists[0] < 1e-4
    assert dists[-1] < 2e-4


def test_auxiliary_zeros_k3_count():
    pairs = auxiliary_zeros(3, 128)
    assert len(pairs) == 6  # deg P_3 = 2k, no origin zeros
    converged = [p for p in pairs if p.converged]
    assert len(converged) == 6
    assert max(p.distance for p in converged) < 1e-3
