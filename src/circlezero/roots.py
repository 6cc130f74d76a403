"""The roots route, which cross-validates every certification: integer
root discs from a fixed-point Newton polish whose last step is certified by
Rouche's theorem, seeded from the sign counter's transform, a separation
check over the discs' integer centres and radii, and | |z| - 1 | decided in
integers.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import atan2, isqrt
from typing import Callable

from . import fixed
from .enclosure import ComplexEnclosure, escalate
from .errors import NumericError
from .families import FamilyPoly
from .reports import CERTIFIED_FALSE, CERTIFIED_TRUE, INDETERMINATE, VerificationReport
from .signcount import counted_form

ABERTH_SWEEPS = 200      # float Aberth sweeps that seed the polish
SEED_STEPS = 8           # float Newton steps that bring a grid seed to Aberth quality
POLISH_SWEEPS = 8        # fixed-point Newton steps per root
ROOT_TOL = Fraction(1, 10 ** 20)  # | |z| - 1 | below which a root disc counts as on the circle
ROOT_GUARD = 48          # fixed-point bits kept beyond the requested precision
MIRROR_TOL = 1e-8        # a seed within MIRROR_TOL max(1, |w|) of an axis is taken as on it


def _horner_float(rev: list[float], x: complex) -> tuple[complex, complex]:
    """(p(x), p'(x)) in floats, for the coefficients `rev` from the top down."""
    p, d = rev[0], 0j
    for a in rev[1:]:
        d = d * x + p
        p = p * x + a
    return p, d


def _aberth_float(coeffs: list[float], n: int) -> list[complex]:
    """Float Aberth--Ehrlich seeds for the n roots of sum coeffs[j] z^j.

    Every sweep takes the correction w / (1 - w s), w = p(z_i)/p'(z_i) and
    s = sum over j != i of 1/(z_i - z_j), added in the order of j, of each
    moving root from the same iterate.  A root whose correction is below
    1e-13 stops moving, but stays in the other roots' sums; a correction
    that divides by zero or is not finite counts as 0.  `find_roots` calls
    it on p itself, or for an even p on F with F(z^2) = p(z), at half the
    degree."""
    rev = coeffs[::-1]
    z = [1.01 * cmath.exp(1j * (2.0 * cmath.pi * j / n + 0.37)) for j in range(n)]
    moving = list(range(n))
    for _ in range(ABERTH_SWEEPS):
        corr = []
        for i in moving:
            x = z[i]
            p, d = _horner_float(rev, x)
            try:
                s = 0
                for j, y in enumerate(z):
                    if j != i:
                        s += 1 / (x - y)
                w = p / d
                c = w / (1 - w * s)
            except ZeroDivisionError:
                c = 0j
            corr.append(c if cmath.isfinite(c) else 0j)
        for i, c in zip(moving, corr):
            z[i] -= c
        moving = [i for i, c in zip(moving, corr) if abs(c) >= 1e-13]
        if not moving:
            break
    return z


def _seed_grid(m: int) -> int:
    """The seeder's grid for a degree-2m counted polynomial: the smallest
    power of two >= max(3m, 32).  It is finer than the sign counter's
    `_first_grid`, which only needs a certified point between neighbouring
    zeros: the seeds start from the interpolated crossing in each bracket,
    and on a grid of 2m points P_1000's float Newton steps rose from 3,734
    to 4,351, which costs more than the smaller transform saves."""
    return 1 << (max(3 * m, 32) - 1).bit_length()


def _newton_float(rev: list[float], z: complex) -> complex:
    """z after up to SEED_STEPS float Newton steps on the coefficients `rev`
    from the top down.  It stops after a step s_i below 1e-13 (Aberth's
    stop), after one with |s_i|^3 < 1e-17 |s_(i-1)|^2, where quadratic
    convergence puts the next step below float resolution, so that no step
    only confirms convergence, and before a step that divides by zero or is
    not finite."""
    last = 0.0
    for _ in range(SEED_STEPS):
        f, d = _horner_float(rev, z)
        try:
            step = f / d
        except ZeroDivisionError:
            break
        if not cmath.isfinite(step):
            break
        z -= step
        size = abs(step)
        if size < 1e-13 or size ** 3 < 1e-17 * last * last:
            break
        last = size
    return z


def _grid_seeds(p: FamilyPoly, fixed_coeffs: tuple[int, list[int], list[int]], prec: int,
                floats: list[float], even: bool = False) -> list[complex] | None:
    """Seeds for the n roots of the origin-stripped p, whose symmetry
    c_(n-j) = eps c_j the caller has checked exactly, from the sign
    counter's transform on the seeder's grid; None when its certified
    brackets do not account for every root.

    `signcount.counted_form` gives, from `fixed_coeffs`, the counted
    polynomial q of degree 2m (p, or for odd n the quotient p / (z + eps))
    and the real zeros its trig polynomial g leaves out.  One
    `_TrigEvaluator.grid_values` transform of g on the grid
    theta_j = j pi / M, M = `_seed_grid(m)`, gives certified signs.  Every
    point must have one, apart from the forced zeros g(0) = g(pi) = 0 when q
    has eps = -1, and the sign changes must number m (m - 1 for eps = -1):
    with the real zeros as seeds, that is all n roots, one simple circle
    zero in each bracket.  Each bracket gives the angle where the straight
    line through its two grid values crosses 0, and float Newton steps on
    `floats` (`_newton_float`) move e^(i theta) from there.  For an `even` p,
    whose roots are closed under z -> -conj z (theta -> pi - theta), only
    the brackets in (0, pi/2] take Newton steps: a bracket whose mirror
    bracket below pi/2 has a seed z takes -conj z.  A seed whose argument
    leaves its bracket is not trusted, and the caller falls back to Aberth,
    so no two seeds can polish to the same root.  The seeds are the upper
    ones, the real ones and the conjugates of the upper ones.
    """
    ev, m, real = counted_form(p.epsilon, p.degree, fixed_coeffs, prec)
    M = _seed_grid(m)
    values = ev.grid_values(M)
    first, last = (1, M - 1) if ev.use_sin else (0, M)
    if any(abs(v) <= ev.budget for v in values[first:last + 1]):
        return None
    brackets = [j for j in range(first, last) if (values[j] > 0) != (values[j + 1] > 0)]
    if len(brackets) != m - ev.use_sin:
        return None
    rev = floats[::-1]
    upper = {}
    for j in brackets:
        if even and M - 1 - j in upper:
            z = -upper[M - 1 - j].conjugate()
        else:
            v, w = values[j], values[j + 1]
            z = _newton_float(rev, cmath.rect(1.0, cmath.pi * (j + v / (v - w)) / M))
        if not j * cmath.pi <= M * atan2(z.imag, z.real) <= (j + 1) * cmath.pi:
            return None
        upper[j] = z
    return [*upper.values(), *map(float, real), *(z.conjugate() for z in upper.values())]


def _budget_memo(coeffs: list[int], errs: list[int],
                 prec: int) -> Callable[[int], tuple[int, int, int]]:
    """budget(xabs) -> (ep, ed, K) for one `find_roots` call: at any x with
    |x| 2^prec < xabs, `fixed.pd_budget`'s error bounds ep and ed of p and p',
    and a bound K on |p''| over the whole disc |w| <= xabs 2^-prec, all in
    the units of `coeffs`.

    K is sum_(k>=2) k (k - 1) (|C_k| + e_k) X^(k-2), a bound on the second
    derivative of every polynomial whose coefficients lie within e_k of C_k,
    summed by Horner's rule with every product rounded up (`fixed.ceil_mul`).
    The bound X is xabs 2^-prec rounded up to a multiple of 2^-g,
    2^g > 16 n; all three bounds grow with X, so the rounded X keeps them
    sound.  X - |x| is below 2^-g plus one unit of 2^-prec, so for |x| near
    1, X^n exceeds |x|^n by a factor of about (1 + 1/(16 n))^n < 1.07.  The
    roots near the circle share one or two values of X, so each value is
    evaluated once, in a memo that lives as long as the call."""
    g = (16 * len(errs)).bit_length()
    memo: dict[int, tuple[int, int, int]] = {}

    def budget(xabs: int) -> tuple[int, int, int]:
        m = -(-xabs >> (prec - g))
        if m not in memo:
            K = 0
            for k in range(len(coeffs) - 1, 1, -1):
                K = fixed.ceil_mul(K, m, g) + k * (k - 1) * (abs(coeffs[k]) + errs[k])
            memo[m] = (*fixed.pd_budget(errs, m, g), K)
        return memo[m]

    return budget


def _rouche_radius(P: tuple[int, int], D: tuple[int, int], S: tuple[int, int],
                   ep: int, ed: int, K: int, prec: int) -> int | None:
    """A radius r such that the disc |z - x'| < r 2^-prec, x' = x - S 2^-prec,
    holds exactly one root of p; None when the test below fails.
    (P +- ep) 2^-prec and (D +- ed) 2^-prec enclose p(x) and p'(x)
    (`fixed.horner_pd`, in the units of the coefficients), S is the step the
    caller took, floor(2^prec P / D) in each component, and K 2^-prec bounds
    |p''| on a disc |w| <= X that holds every point within |S| 2^-prec + r
    2^-prec of x.

    Let L(z) = p(x) + p'(x) (z - x), whose root is z_L = x - p(x)/p'(x).  With
    p(x) 2^prec = P + eta and p'(x) 2^prec = D + xi,
      p(x)/p'(x) - P/D = (D eta - P xi) / (D (D + xi)),
    at most (|D| ep + |P| ed) / (|D| (|D| - ed)), which falls with |D| and
    grows with |P|; and 2^prec P/D - S has both components in [0, 1), so
    modulus below 2.  So |x' - z_L| <= delta 2^-prec with
      delta = ceil(2^prec (d ep + p ed) / (d (d - ed))) + 2,
    d = isqrt |D|^2 <= |D| and p = isqrt |P|^2 + 1 > |P|.  On the circle
    |z - x'| = r 2^-prec, |z - x| <= (r + s) 2^-prec with s = isqrt |S|^2 + 1,
    and Taylor's formula with the integral remainder gives
    |p(z) - L(z)| <= (K 2^-prec / 2) |z - x|^2, while
    |L(z)| = |p'(x)| |z - z_L| >= (d - ed) (r - delta) 2^-2prec.  So when
      K (r + s)^2 < 2 (d - ed) (r - delta) 2^prec,                   (*)
    |p - L| < |L| on the circle, and by Rouche's theorem p has as many roots
    in the disc as L, which has exactly one, z_L, since delta < r.

    The radius tried is r = delta + m, m = floor(4 K u^2 / A) + 1 with
    A = 2 (d - ed) 2^prec and u = delta + s + 1: when m <= u, r + s <= 2u
    and (*) holds.  (*) itself is checked in integers, whatever m is."""
    d = isqrt(D[0] * D[0] + D[1] * D[1])
    A = (d - ed) << (prec + 1)
    if A <= 0:
        return None
    p = isqrt(P[0] * P[0] + P[1] * P[1]) + 1
    delta = -(-((d * ep + p * ed) << prec) // (d * (d - ed))) + 2
    s = isqrt(S[0] * S[0] + S[1] * S[1]) + 1
    m = 4 * K * (delta + s + 1) ** 2 // A + 1
    r = delta + m
    return r if K * (r + s) ** 2 < A * m else None


def _newton_disc(poly: FamilyPoly, coeffs: list[int],
                 budget: Callable[[int], tuple[int, int, int]],
                 xr: int, xi: int, prec: int, bits: int) -> tuple[int, int, int, int]:
    """(xr, xi, rad, passes): a disc of centre (xr + i xi) / 2^prec and radius
    rad 2^-prec that holds exactly one root of p, from a Newton polish that
    took `passes` passes of `fixed.horner_pd`.

    Each pass gives p(x), p'(x) and the Newton step S = floor(2^prec p/p')
    in integers.  The step is taken, and the same pass tries to certify the
    new point x - S by Rouche's theorem on the linearisation at x
    (`_rouche_radius`), with the budget (ep, ed, K) at X >= |x| + |S| + a
    bound on r (`_budget_memo`).  The test runs only once the step is small
    enough to pass: a radius r needs K |S|^2 < 2 (|D| - ed) r 2^prec.  The
    first disc of radius at most 2^-(bits + 16) is returned; after
    POLISH_SWEEPS + 1 passes, any disc of radius at most 2^-(bits / 2) is,
    and its report escalates the precision when the disc is too wide to
    decide.  Raises NumericError, naming the family and k, when p'(x)
    computes to 0 or no such disc is found."""
    tol = 1 << (prec - bits - 16)
    loose = 1 << (prec - bits // 2)
    for sweep in range(POLISH_SWEEPS + 1):
        pr, pi, dr, di = fixed.horner_pd(coeffs, xr, xi, prec)
        den = dr * dr + di * di
        if not den:
            raise NumericError(f"derivative enclosure touches 0 for {poly.family}_{poly.k}",
                               family=poly.family, k=poly.k)
        sr = ((pr * dr + pi * di) << prec) // den
        si = ((pi * dr - pr * di) << prec) // den
        move2 = sr * sr + si * si
        limit = tol if sweep < POLISH_SWEEPS else loose
        ep, ed, K = budget(isqrt(xr * xr + xi * xi) + isqrt(move2) + loose + 2)
        if K * move2 < (isqrt(den) - ed) * limit << (prec + 1):
            rad = _rouche_radius((pr, pi), (dr, di), (sr, si), ep, ed, K, prec)
            if rad is not None and rad <= limit:
                return xr - sr, xi - si, rad, sweep + 1
        xr, xi = xr - sr, xi - si
    raise NumericError(f"Newton polish did not converge for {poly.family}_{poly.k}",
                       family=poly.family, k=poly.k, last_move=isqrt(move2) / (1 << prec))


class RootDiscs(list):
    """`find_roots`'s discs (xr, xi, rad): the disc of centre
    (xr + i xi) 2^-prec and radius rad 2^-prec holds exactly one root.
    `polished`: how many of them were Newton-polished (the others are images
    of polished ones under the symmetry group of `find_roots`); `seeds`:
    "grid" when the sign counter's transform on the seeder's own grid
    (`_seed_grid`) seeded every root (a constant has none to seed), "aberth"
    when float Aberth did; `passes`: the `fixed.horner_pd` passes of the
    polish."""

    def __init__(self, discs: list[tuple[int, int, int]], prec: int, polished: int,
                 seeds: str, passes: int):
        super().__init__(discs)
        self.prec = prec
        self.polished = polished
        self.seeds = seeds
        self.passes = passes

    def balls(self) -> list[ComplexEnclosure]:
        """The square ball around each disc, for readers of balls."""
        return [ComplexEnclosure(fixed.to_ball(xr, rad, self.prec, self.prec),
                                 fixed.to_ball(xi, rad, self.prec, self.prec))
                for xr, xi, rad in self]


def _orbit_seeds(seeds: list[complex],
                 even: bool) -> list[tuple[complex, tuple[tuple[int, int], ...]]]:
    """[(w, images), ...]: the seeds to polish, each with the elements of
    the symmetry group whose images of its disc `find_roots` adds.

    The group G is generated by conjugation, and for an even p by negation
    as well; besides the identity its elements are (1, -1), or (1, -1),
    (-1, -1) and (-1, 1), (a, b) mapping x + iy to ax + iby.  A seed's cell
    is the pair of signs of Re w (0 unless p is even) and Im w, a sign being
    0 within tau = MIRROR_TOL max(1, |w|) of the axis, and G permutes the
    cells.  In an orbit of cells that each hold as many seeds as the home
    cell, the one with both signs >= 0, only the home cell's seeds are
    polished, each with one element reaching each other cell of the orbit;
    in any other orbit every seed is polished, with no image."""
    group = ((1, -1), (-1, -1), (-1, 1)) if even else ((1, -1),)
    cells: dict[tuple[int, int], list[complex]] = {}
    for w in seeds:
        tau = MIRROR_TOL * max(1.0, abs(w))
        sr = (w.real > tau) - (w.real < -tau) if even else 0
        cells.setdefault((sr, (w.imag > tau) - (w.imag < -tau)), []).append(w)
    polish = []
    for sr, si in sorted({(abs(sr), abs(si)) for sr, si in cells}):
        home, orbit = cells.get((sr, si), []), {}
        for a, b in group:
            orbit.setdefault((a * sr, b * si), (a, b))
        orbit.pop((sr, si), None)
        if all(len(cells.get(c, ())) == len(home) for c in orbit):
            polish += [(w, tuple(orbit.values())) for w in home]
        else:
            polish += [(w, ()) for c in ((sr, si), *orbit) for w in cells.get(c, ())]
    return polish


def find_roots(poly: FamilyPoly, bits: int = 128) -> RootDiscs:
    """All roots of the origin-stripped polynomial, as integer discs, each
    holding exactly one root, sorted by argument.

    The coefficients are read once at prec = bits + ROOT_GUARD bits as
    integers over one common power of two (`FamilyPoly.fixed_coefficients`).
    When p passes the exact symmetry check, the seeds come from the sign
    counter's transform on those same integers (`_grid_seeds`); when it
    fails the check, or the grid's brackets do not account for every root,
    float Aberth--Ehrlich (deterministic start: 1.01 * roots of unity rotated
    by 0.37 rad) seeds instead, for an even p on F with F(z^2) = p(z) at
    half the degree, each root w of F giving the seeds +-sqrt(w).  Either
    way each seed starts a Newton polish of its root on its own in fixed
    point, each pass one division by the real quadratic with roots x and
    conj x (`fixed.horner_pd`); the pass whose step lands close enough also
    certifies the point it lands on, by Rouche's theorem, with integer error
    budgets evaluated once per bound on |x| in the call (`_budget_memo`,
    `_newton_disc`).  Nothing below depends on where the seeds came from.

    Every family has real coefficients (rationals and the real lam), so
    conjugation maps the roots of the exact polynomial (the budgets cover
    the coefficient errors) one to one onto its roots.  p is even when every
    odd-index C_i and e_i is 0, so that its exact odd coefficients vanish
    (W and R, polynomials in z^2); then negation maps its roots one to one
    onto its roots as well.  `_orbit_seeds` picks one seed per orbit of the
    group G these generate wherever the seeds fall into orbits of full
    size, and each polished disc (x, r) also gives the discs (g x, r) for
    the elements g it names, exact integer images; every other seed is
    polished on its own.  An image disc holds exactly one root, since g
    maps the roots one to one onto the roots.  Each of the n discs thus
    holds one root whichever seeds were polished, and the separation check
    over all n discs (`simplicity_check`) is what proves they hold n
    distinct roots.  So soundness does not depend on how the seeds were
    grouped: a grouping that pairs the wrong seeds can put two discs around
    one root, which costs the certificate, never gives a false one.
    MIRROR_TOL only keeps seeds near an axis from being taken for a pair;
    it sits far above the 1e-13 stop of either seed source.
    """
    p = poly.strip_origin()
    n = p.degree
    prec = bits + ROOT_GUARD
    if n == 0:
        return RootDiscs([], prec, 0, "grid", 0)
    fixed_coeffs = p.fixed_coefficients(prec, n + 1)
    _, coeffs, errs = fixed_coeffs
    even = not any(coeffs[1::2]) and not any(errs[1::2])
    one = 1 << prec
    floats = [c / one for c in coeffs]
    seeds = _grid_seeds(p, fixed_coeffs, prec, floats, even) if p.self_inversive_ok() else None
    source = "grid"
    if seeds is None:
        source = "aberth"
        if even:
            seeds = [s for w in _aberth_float(floats[::2], n // 2)
                     for s in (cmath.sqrt(w), -cmath.sqrt(w))]
        else:
            seeds = _aberth_float(floats, n)
    budget = _budget_memo(coeffs, errs, prec)
    # floored from the seed's exact ratio: float(2^prec) overflows past prec = 1023
    polished = [(_newton_disc(poly, coeffs, budget, fixed.floor_shift(w.real, prec),
                              fixed.floor_shift(w.imag, prec), prec, bits), images)
                for w, images in _orbit_seeds(seeds, even)]
    z = [(a * xr, b * xi, rad) for (xr, xi, rad, _), images in polished
         for a, b in ((1, 1), *images)]
    z.sort(key=lambda x: (atan2(x[1] / one, x[0] / one), x[0]))
    return RootDiscs(z, prec, len(polished), source, sum(disc[3] for disc, _ in polished))


def simplicity_check(discs: RootDiscs) -> tuple[int, int] | None:
    """(lo, hi): the closest pair of discs, as the distance of any point of
    one from any point of the other, in [lo, hi] 2^-prec; None for fewer
    than two discs.  The pair is the one of smallest lo, the first in (i, j)
    order on ties, as a scan of all pairs would find it.

    For centres at squared distance d2 (exact) and radii r_i, r_j, the
    distance lies in [isqrt(d2) - r_i - r_j, ceil(sqrt d2) + r_i + r_j], with
    ceil(sqrt d2) = isqrt(d2 - 1) + 1 for d2 >= 1.  A pair's lo is within
    2 r_max + 1 of its centre distance, so only pairs whose centres are
    closer than T = isqrt(d2_min) + 2 r_max + 1 can hold the smallest.  One
    sweep over the centres sorted by real part finds them: each row stops at
    the first centre whose real part alone is farther than T, with T taken
    from the smallest distance seen so far, which only falls.  So lo > 0
    proves the discs pairwise disjoint.
    """
    n = len(discs)
    if n < 2:
        return None
    r_max = max(rad for _, _, rad in discs)
    order = sorted(range(n), key=lambda i: discs[i][0])
    best = T = None
    near = []
    for a, i in enumerate(order):
        xa, ya, _ = discs[i]
        for j in order[a + 1:]:
            xb, yb, _ = discs[j]
            if T is not None and xb - xa > T:
                break
            d2 = (xb - xa) ** 2 + (yb - ya) ** 2
            if best is None or d2 < best:
                best, T = d2, isqrt(d2) + 2 * r_max + 1
            if d2 < T * T:
                near.append((d2, min(i, j), max(i, j)))
    lo, i, j, d2 = min((isqrt(d2) - discs[i][2] - discs[j][2], i, j, d2)
                       for d2, i, j in near if d2 < T * T)
    return lo, (isqrt(d2 - 1) + 1 if d2 else 0) + discs[i][2] + discs[j][2]


def _modulus_deviations(discs: RootDiscs) -> list[tuple[int, int]]:
    """[(lo, hi), ...]: for every x in the i-th disc, | |x| - 1 | lies in
    [lo_i, hi_i] 2^-prec, in exact integers.

    For a disc of centre c 2^-prec and radius r 2^-prec,
    |c| - r <= |x| 2^prec <= |c| + r.  isqrt(N) = floor(sqrt N), and
    isqrt(N - 1) + 1 = ceil(sqrt N) for N >= 1, so with N = |c|^2,
    L = max(isqrt(N) - r, 0) <= |x| 2^prec <= U = ceil(sqrt N) + r.
    t -> |t - 2^prec| is convex, so on [L, U] its largest value is at an end,
    hi = max(2^prec - L, U - 2^prec), and its smallest is 0 when
    L <= 2^prec <= U, else the distance from 2^prec to the nearer end:
    lo = max(L - 2^prec, 2^prec - U, 0).
    """
    one = 1 << discs.prec
    devs = []
    for xr, xi, rad in discs:
        N = xr * xr + xi * xi
        lo_mod, hi_mod = max(isqrt(N) - rad, 0), (isqrt(N - 1) + 1 if N else 0) + rad
        devs.append((max(lo_mod - one, one - hi_mod, 0), max(one - lo_mod, hi_mod - one)))
    return devs


def verify_by_roots(poly: FamilyPoly, bits: int = 128) -> VerificationReport:
    """Cross-validation report: every certified root disc within ROOT_TOL of
    |z| = 1; max_mod_dev is the largest | |z| - 1 | (the first on ties).

    Each disc holds exactly one root; `certified-true` also needs the discs
    pairwise disjoint (`simplicity_check`'s lo > 0), so that they hold n
    distinct roots, all of them.  A disc is on the circle when its upper end
    hi of | |z| - 1 | (`_modulus_deviations`) is below ROOT_TOL = num/den,
    hi den < num 2^prec, and off it when its lower end is above,
    lo den > num 2^prec: exact integer comparisons.  Only the two report
    balls are made: max_mod_dev, the ball [lo, hi] 2^-prec of the largest
    hi, and min_root_sep, the separation [lo, hi] 2^-prec.  An undecided
    result is retried at doubled precision through `enclosure.escalate`; a
    refutation is final.  The detail counts the polished roots and the
    fixed-point Newton passes, names the seed source and gives the bits of
    the attempt that decided.
    """
    n = poly.strip_origin().degree
    num, den = ROOT_TOL.numerator, ROOT_TOL.denominator

    def attempt(b: int) -> tuple[bool, VerificationReport]:
        discs = find_roots(poly, b)
        prec = discs.prec
        devs = _modulus_deviations(discs)
        tol = num << prec
        dev = None
        if discs:
            lo, hi = max(devs, key=lambda d: d[1])
            dev = fixed.to_ball(lo + hi, hi - lo, prec + 1, prec)
        sep = simplicity_check(discs)
        on_circle = sum(1 for _, hi in devs if hi * den < tol)
        refuted = any(lo * den > tol for lo, _ in devs)
        certified = on_circle == n and (sep is None or sep[0] > 0)
        verdict = CERTIFIED_TRUE if certified else (CERTIFIED_FALSE if refuted else INDETERMINATE)
        sep_ball = None if sep is None else fixed.to_ball(sep[0] + sep[1], sep[1] - sep[0],
                                                          prec + 1, prec)
        return verdict != INDETERMINATE, VerificationReport(
            poly.family, poly.k, "roots", on_circle, n, dev, sep_ball, certified,
            origin_zeros=poly.origin_multiplicity,
            detail={"n_roots": len(discs), "polished": discs.polished, "passes": discs.passes,
                    "seeds": discs.seeds, "bits": b},
            verdict=verdict)

    return escalate(attempt, bits)[1]
