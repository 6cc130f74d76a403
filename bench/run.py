"""circlezero benchmark: certification workloads run in fresh, serial,
single-process closed loops.

    python3 bench/run.py --workload roots --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload in turn

A run repeats passes of one workload for ``--seconds`` seconds.  A pass is a
fresh interpreter (bench/worker.py) that imports circlezero from ``src/``,
builds the seeded task list and certifies every task one after another, each
task starting when the previous certificate returns; caches start cold, as
in every CLI call.  End-to-end metrics over the passes of a run:

  setup_s      launch of a fresh interpreter until circlezero is imported and
               the task list is built (median over the passes)
  wall_s       certifying every task and serialising the reports
  task_p50_s   median single-task time within a pass
  task_max_s   slowest single certificate within a pass
  peak_rss_mb  ru_maxrss of the pass process

The last four are means over the passes without the fastest and the slowest
one (``pass_mean``).  On a shared host CPU speed drifts smoothly by 10-30%
over tens of seconds; over a run's 7-15 passes such a drift moves the median
more than the mean, and the two dropped passes keep one stalled pass out.

``fail_ratio`` (tasks indeterminate or raising, over tasks attempted) is
printed and carried by ``failed``/``attempted`` in the result line.  Every
verdict is checked against the theorem (workloads.judge); a certified verdict
that contradicts it aborts the run.  Once per invocation, and untimed, the
harness's JSON document for P k = 2..20 must equal the CLI's byte for byte.

With ``--trace 1`` the run alternates traced and untraced passes and reports
the per-layer metrics (bench/spans.py); every ``.s`` metric is a self time,
except ``verify.simplicity_check.s`` (its whole span) and
``verify.roots.certify_s`` (enclosure self time under find_roots).  Counts must
repeat exactly across traced passes, every span the workload should reach
must fire, and traced passes must produce the untraced passes' document.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

HARD_LIMIT_S = 160    # one workload's run ends well inside 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "task_max_s": "s",
              "peak_rss_mb": "MB"}

# per-layer metric -> unit; "<layer>.s" / "<layer>.calls" come from spans.LAYERS
PER_LAYER = {
    "exact.tangent_numbers.s": "s", "exact.tangent_numbers.calls": "count",
    "exact.secant_numbers.s": "s", "exact.secant_numbers.calls": "count",
    "families.build.s": "s", "families.build.calls": "count",
    "families.build_P.calls": "count",
    "enclosure.lambda_k.s": "s", "enclosure.lambda_k.calls": "count",
    "enclosure.ball_cos.s": "s", "enclosure.ball_cos.calls": "count",
    "enclosure.ball_arith.s": "s", "enclosure.ball_arith.calls": "count",
    "verify.sign_count.s": "s", "verify.sign_count.calls": "count",
    "verify.sign_count.evaluations": "count", "verify.sign_count.grid_points": "count",
    "verify.sign_count.evals_per_zero": "evals/zero",
    "verify.oscillation.s": "s", "verify.criteria.s": "s",
    "verify.roots.polish_s": "s", "verify.roots.certify_s": "s",
    "verify.simplicity_check.s": "s",
    "reports.json_document.s": "s",
    "other_s": "s", "trace_overhead_ratio": "ratio",
}


class BenchError(Exception):
    """A self-check failed: the harness cannot vouch for its figures."""


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def load1() -> float:
    return os.getloadavg()[0]


def environment() -> dict:
    import mpmath
    import numpy

    return {"git_commit": git_commit(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


class Runner:
    """Launches worker processes one at a time, all inside one deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "CIRCLEZERO_BITS"}

    def launch(self, mode: str, trace: bool = False) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(self.seed)]
        if trace:
            cmd.append("--trace")
        t_launch = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - t_launch))
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = out["t_ready"] - t_launch
        return out


def pass_mean(values: list[float]) -> float:
    """Mean of a run's per-pass values without the lowest and the highest."""
    values = sorted(values)
    if len(values) >= 5:
        values = values[1:-1]
    return statistics.fmean(values)


def gate(outcomes: list[list]) -> tuple[int, list[str]]:
    """Number of failed tasks; raises on a verdict the theorem contradicts."""
    failed = []
    for fam, k, method, verdict, zeros, degree, origin in outcomes:
        judged = workloads.judge(fam, k, verdict, zeros, degree, origin)
        if judged == "contradiction":
            raise BenchError(f"{fam}_{k} {method}: {verdict} with {zeros} zeros on the circle, "
                             f"degree {degree}, {origin} at the origin contradicts the theorem")
        if judged == "failed":
            failed.append(f"{fam}_{k} {method}: {verdict}")
    return len(failed), failed


def layer_metrics(traced: list[dict], untraced_wall: float, workload: workloads.Workload) -> dict:
    """Medians of the per-layer times; counts checked to repeat exactly."""
    counts = [(p["trace"]["calls"], p["trace"]["entries"], p["sign_count"]) for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        raise BenchError("trace counts differ between traced passes of one seed")
    calls, entries, sc = counts[0]
    for layer in workload.expected_spans:
        if calls[layer] == 0:
            raise BenchError(f"span {layer} recorded no calls on {workload.name}")

    def med(f):
        return statistics.median(f(p) for p in traced)

    out = {}
    for layer in calls:
        out[f"{layer}.s"] = med(lambda p: p["trace"]["self_s"][layer])
        out[f"{layer}.calls"] = calls[layer]
    out["families.build_P.calls"] = entries.get("families.build_P", 0)
    out["verify.sign_count.evaluations"] = sc["evaluations"]
    out["verify.sign_count.grid_points"] = sc["grid_points"]
    out["verify.sign_count.evals_per_zero"] = sc["evaluations"] / sc["zeros"] if sc["zeros"] else 0.0
    out["verify.roots.polish_s"] = med(lambda p: p["trace"]["self_s"]["verify.roots.polish"])
    out["verify.roots.certify_s"] = med(lambda p: p["trace"]["certify_s"])
    out["verify.simplicity_check.s"] = med(lambda p: p["trace"]["incl_s"]["verify.simplicity_check"])
    out["other_s"] = med(lambda p: p["wall_s"] - p["trace"]["spanned_s"])
    out["trace_overhead_ratio"] = pass_mean([p["wall_s"] for p in traced]) / untraced_wall - 1
    return {name: out[name] for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    runner = Runner(name, seed)
    load_start = load1()
    passes: list[dict] = []
    t_start = time.monotonic()
    while True:
        n_traced = sum(1 for p in passes if p["traced"])
        want_trace = trace and n_traced <= len(passes) - n_traced
        t0 = time.monotonic()
        p = runner.launch("pass", trace=want_trace)
        p["traced"] = want_trace
        p["failed"], p["failures"] = gate(p["outcomes"])
        passes.append(p)
        n_traced += want_trace
        enough = not trace or (n_traced >= 2 and len(passes) > n_traced)
        now = time.monotonic()
        if enough and now - t_start + (now - t0) > seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    if len({p["doc_sha256"] for p in passes}) != 1:
        raise BenchError("passes of one seed produced different report documents")
    attempted = sum(len(p["outcomes"]) for p in plain)
    failed = sum(p["failed"] for p in plain)
    wall = pass_mean([p["wall_s"] for p in plain])
    e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "wall_s": wall,
        "task_p50_s": pass_mean([statistics.median(p["task_s"]) for p in plain]),
        "task_max_s": pass_mean([max(p["task_s"]) for p in plain]),
        "peak_rss_mb": pass_mean([p["rss_mb"] for p in plain]),
    }
    result = {
        "workload": name, "seed": seed, "tasks": len(plain[0]["task_s"]),
        "passes": len(plain), "traced_passes": len(passes) - len(plain),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": plain[0]["failures"],
        "load1_start": load_start, "load1_end": load1(),
        "e2e": e2e,
    }
    if trace:
        result["layers"] = layer_metrics([p for p in passes if p["traced"]], wall, workload)
    return result


def report(res: dict) -> None:
    w = workloads.WORKLOADS[res["workload"]]
    print(f"== {res['workload']} seed {res['seed']}: {res['tasks']} tasks, "
          f"{res['passes']} passes ({res['traced_passes']} traced), "
          f"load1 {res['load1_start']:.2f} -> {res['load1_end']:.2f}")
    print(f"   strata: {w.strata}")
    for metric, unit in END_TO_END.items():
        print(f"   {metric:<14} {res['e2e'][metric]:.6g} {unit}")
    print(f"   {'fail_ratio':<14} {res['failed']}/{res['attempted']} = {res['fail_ratio']:.4g}"
          + (f"  {res['failures']}" if res["failures"] else ""))
    for metric, value in res.get("layers", {}).items():
        print(f"   {metric:<34} {value:.6g} {PER_LAYER[metric]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "circlezero" / "__init__.py").is_file():
        print(f"no circlezero sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("env: " + json.dumps(environment(), sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        if not Runner(names[0], args.seed).launch("cli-check")["identical"]:
            raise BenchError("harness JSON differs from `circlezero verify --format json`")
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            report(results[-1])
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": sum(r["attempted"] for r in results) or 1,
                          "failed": sum(r["failed"] for r in results), "metrics": {}}))
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for res in results:
        values = res["layers"] if args.trace else res["e2e"]
        prefix = "" if len(results) == 1 else res["workload"] + "."
        metrics.update({prefix + m: {"value": values[m], "unit": u} for m, u in units.items()})
    print(json.dumps({"correct": True, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
