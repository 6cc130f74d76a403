"""The benchmark's certification workloads and the outcomes the theorem predicts.

A workload is a fixed list of tasks ``(family, k, method)``; each task is one
``verify.verify_family(family, k, method)`` call, the call ``circlezero verify``
makes per task with ``--workers 1``.  The seed only picks the sampled k values
inside each workload's fixed strata, so one seed always gives the same task list.

Every workload is a scaled-down form of a full CLI run (the full runs take
12-27 s per pass, too long to repeat several times in one benchmark run); each
keeps the layer mix of its full form, noted in ``exercises``/``bypasses``.

The P sweep and the sampled large-k P claim are one workload, not two: on a
shared host CPU speed drifts by 10-30% over tens of seconds, so a run's
figures are only steady when the run is long, and three workloads leave each
run 40 s where four left 30 s.  In the one workload the many small tasks set
``task_p50_s`` (the per-task fixed costs of the sweep) and k = 450 sets
``task_max_s`` (how cost grows with k).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

BITS = 128  # the CLI's default working precision

CERTIFIED_TRUE = "certified-true"
CERTIFIED_FALSE = "certified-false"

Task = tuple[str, int, str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exercises: str
    bypasses: str
    strata: str
    make_tasks: Callable[[random.Random], list[Task]]
    # layers (tracing span names) that must record calls on this workload
    expected_spans: tuple[str, ...]

    def tasks(self, seed: int) -> list[Task]:
        return self.make_tasks(random.Random(f"{self.name}:{seed}"))


def _odd_in(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([k for k in range(lo, hi + 1) if k % 2])


P_SWEEP = range(2, 81)
P_EXTENDED_STRATA = ((240, 259), (290, 309), (340, 359))
P_EXTENDED_TOP = 450


def _p_sweep_extended(rng: random.Random) -> list[Task]:
    ks = [*P_SWEEP] + [rng.randint(lo, hi) for lo, hi in P_EXTENDED_STRATA] + [P_EXTENDED_TOP]
    return [("P", k, "sign-count") for k in ks]


# Y_k's generic count probes gaps from k = 49 on, and the probe count, which
# sets most of the cost, changes from one odd k to the next: Y's probing task
# is fixed, so the seed does not move the workload's slowest task.
Y_PROBE_K = 51


def _odd_criteria_osc(rng: random.Random) -> list[Task]:
    k = _odd_in(rng, 25, 31)
    tasks = [("S", k, "sign-count"), ("Y", k, "sign-count"),
             ("S", _odd_in(rng, 45, 55), "sign-count"), ("Y", Y_PROBE_K, "sign-count")]
    # fewer criteria tasks (1-3 ms each) than oscillation ones (15-60 ms), so
    # the median task is an oscillation certificate, not a millisecond timing
    tasks += [("S", k, "criteria") for k in range(1, 26)]
    tasks += [("Y", k, "criteria") for k in range(3, 26)]
    tasks += [("W", k, "oscillation") for k in range(11, 36)]
    tasks += [("Q", k, "oscillation") for k in range(7, 36)]
    return tasks


# The roots route's cost grows about as k^3 here, so one step of a seeded k
# moves a task by 10-30% and the median task by as much: the k are fixed.
# Y_k and S_k have about half the degree of P_k, so they run at twice the k,
# and every task but the last has degree near 40.
ROOTS_KS = {"P": 20, "Q": 20, "W": 20, "Y": 42, "S": 40, "R": 20}
ROOTS_TOP = 26  # slower than every other task, so it sets task_max_s


def _roots(rng: random.Random) -> list[Task]:
    return [(fam, k, "roots") for fam, k in ROOTS_KS.items()] + [("P", ROOTS_TOP, "roots")]


_COMMON_SPANS = ("exact.tangent_numbers", "families.build", "enclosure.lambda_k",
                 "enclosure.ball_arith", "reports.json_document")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="p-sweep-extended",
        why="the CLI sweep verify --family P --k-range 2..80 --method sign-count, then the "
            "paper's large-k P claim sampled at three seeded k and k = 450, in one process",
        exercises="the sweep's many small factored-route certificates, where per-task fixed "
                  "costs dominate (lambda_k, cosine tables at M = 8m, grid dot products, "
                  "JSON serialisation); then big-integer dot products on large-M grids, "
                  "tangent_numbers and Bernoulli table growth, Fraction products in build_P, "
                  "which show how cost grows with k",
        bypasses="the generic odd-degree counter, oscillation, criteria and roots",
        strata="k = 2..80 ascending, then one k from each of [240, 259], [290, 309], "
               "[340, 359], then k = 450 fixed; the order is fixed because table growth "
               "depends on history",
        make_tasks=_p_sweep_extended,
        expected_spans=_COMMON_SPANS + ("enclosure.ball_cos", "verify.sign_count"),
    ),
    Workload(
        name="odd-criteria-osc",
        why="odd-degree S/Y sign-count (generic counter, gap probes), Schinzel criteria "
            "for S and Y, oscillation for W and Q: 106 tasks off the factored route",
        exercises="the generic counter with per-probe ball_cos, the build_Q/build_W "
                  "closed-form cross-checks that rebuild P_k, the retry loops, "
                  "Schinzel margins, the secant (Euler) table",
        bypasses="the factored sign-count route and roots",
        strata="S and Y sign-count at one odd k in [25, 31], S at one odd k in [45, 55], "
               "Y at k = 51 fixed (it probes gaps); criteria S k = 1..25, Y k = 3..25; "
               "oscillation W k = 11..35, Q k = 7..35",
        make_tasks=_odd_criteria_osc,
        expected_spans=_COMMON_SPANS + ("exact.secant_numbers", "enclosure.ball_cos",
                                        "verify.sign_count", "verify.oscillation",
                                        "verify.criteria"),
    ),
    Workload(
        name="roots",
        why="verify_family(fam, k, 'roots') for P, Q, W, Y, S and R near degree 40, then P_26: "
            "Aberth polish and the ball certification pass dominate; R must be certified-false",
        exercises="float Aberth, the mpmath polish, ComplexEnclosure Horner certification, "
                  "the pairwise simplicity check",
        bypasses="sign counting, cosine tables, oscillation and criteria",
        strata="none: P, Q, W, R at k = 20, Y at k = 42, S at k = 40, then P at k = 26; "
               "the seed does not change the tasks",
        make_tasks=_roots,
        expected_spans=_COMMON_SPANS + ("exact.secant_numbers", "verify.roots.polish",
                                        "verify.simplicity_check"),
    ),
)}


def expected_outcome(family: str, k: int) -> tuple[int, int] | None:
    """(zeros on the unit circle, zeros at the origin) that the theorem gives,
    or None for R_k, which must be refuted."""
    if family in ("P", "W"):
        return 2 * k, 0
    if family == "Q":
        return 2 * k - 2, 1
    if family == "Y":
        # Y_k has zero coefficients at z^0 and z^k only: degree k - 1, one origin zero
        return k - 2, 1
    if family == "S":
        return k, 0
    if family == "R":
        return None
    raise ValueError(f"no expected outcome for family {family!r}")


def judge(family: str, k: int, verdict: str, zeros: int, degree: int, origin: int) -> str:
    """'ok', 'failed' (indeterminate) or 'contradiction' (a certified verdict
    that the theorem refutes)."""
    expected = expected_outcome(family, k)
    if verdict not in (CERTIFIED_TRUE, CERTIFIED_FALSE):
        return "failed"
    if expected is None:
        return "ok" if verdict == CERTIFIED_FALSE else "contradiction"
    if verdict == CERTIFIED_FALSE:
        return "contradiction"
    return "ok" if (zeros, degree, origin) == (expected[0], expected[0], expected[1]) else "contradiction"
