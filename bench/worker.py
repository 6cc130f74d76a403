"""One benchmark step in a fresh interpreter, so every pass starts with cold
Bernoulli/Euler tables and zeta cache, as a ``circlezero verify`` call does.

bench/run.py launches it as
``python3 bench/worker.py --mode pass|cli-check --workload W --seed N [--trace]``
and reads the one JSON object it prints on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import circlezero  # noqa: E402
from circlezero import cli, reports, verify  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

CLI_CHECK_RANGE = (2, 20)


def run_tasks(tasks: list[workloads.Task]) -> dict:
    """Certify every task serially and serialise the reports as the CLI does."""
    rows: list[dict] = []
    outcomes: list[list] = []
    task_s: list[float] = []
    t0 = time.perf_counter()
    for fam, k, method in tasks:
        t = time.perf_counter()
        try:
            docs = [r.to_doc() for r in verify.verify_family(fam, k, method, workloads.BITS)]
        except Exception as exc:  # a raising task is counted as failed, not fatal
            docs = []
            outcomes.append([fam, k, method, f"raised {type(exc).__name__}: {exc}", 0, 0, 0])
        task_s.append(time.perf_counter() - t)
        rows.extend(docs)
        outcomes += [[d["family"], d["k"], d["method"], d["verdict"], d["zeros_on_circle"],
                      d["degree_nontrivial"], d["origin_zeros"]] for d in docs]
    text = reports.json_document("verification_report", rows, meta={"bits": workloads.BITS})
    wall_s = time.perf_counter() - t0
    counted = [d for d in rows if d["method"] == "sign-count"]
    return {
        "wall_s": wall_s,
        "task_s": task_s,
        "outcomes": outcomes,
        "text": text,
        "sign_count": {
            "evaluations": sum(d["detail"]["evaluations"] for d in counted),
            "grid_points": sum(d["detail"]["grid"] for d in counted),
            "zeros": sum(d["zeros_on_circle"] for d in counted),
        },
    }


def cli_check() -> dict:
    """Does the harness's JSON document equal the CLI's, byte for byte?"""
    lo, hi = CLI_CHECK_RANGE
    ours = run_tasks([("P", k, "sign-count") for k in range(lo, hi + 1)])["text"]
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".cli-check-") as tmp:
        out = Path(tmp) / "verify.json"
        code = cli.main(["verify", "--family", "P", "--k-range", f"{lo}..{hi}",
                         "--method", "sign-count", "--format", "json", "--out", str(out)])
        theirs = out.read_text()
    return {"identical": code == 0 and ours == theirs, "exit_code": code}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("pass", "cli-check"), required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(circlezero.__file__).resolve().parents:
        raise SystemExit(f"circlezero was imported from {circlezero.__file__}, not from {src}")
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    tasks = workloads.WORKLOADS[args.workload].tasks(args.seed)
    out: dict = {"t_ready": time.monotonic()}

    if args.mode == "cli-check":
        out.update(cli_check())
    elif args.mode == "pass":
        res = run_tasks(tasks)
        text = res.pop("text")
        out.update(res)
        out["doc_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["trace"] = {"self_s": tracer.self_s, "incl_s": tracer.incl_s,
                            "calls": tracer.calls, "entries": dict(tracer.entries),
                            "certify_s": tracer.certify_s, "spanned_s": tracer.spanned_s()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
