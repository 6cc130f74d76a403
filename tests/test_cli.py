"""CLI surface: flags, formats, determinism, exit-code contract."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from circlezero import families
from circlezero.cli import (
    EXIT_INDETERMINATE,
    EXIT_INTERNAL,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    _parse_fraction,
    _verdict_exit,
    main,
)
from decimal import Decimal
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_S2(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "S", "--k", "2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == "circlezero/1"
    item = doc["items"][0]
    assert [c[0] for c in item["coeffs"]] == ["5/1", "6/1", "5/1"]


def test_gen_P2_reproduces_zeta3_polynomial(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "P", "--k", "2", "--format", "json")
    doc = json.loads(out)["items"][0]
    assert doc["pi_power"] == 3
    # -1/90 scale of z^4 + 5z^2 + 1 plus lam (z^3 + z)
    assert [c[0] for c in doc["coeffs"]] == ["-1/90", "0/1", "-1/18", "0/1", "-1/90"]
    assert [c[1] for c in doc["coeffs"]] == ["0/1", "1/1", "0/1", "1/1", "0/1"]


def test_gen_Y2_degenerate(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "Y", "--k", "2", "--format", "json")
    doc = json.loads(out)["items"][0]
    assert doc["degree"] == 1
    nonzero = [c for c in doc["coeffs"] if c[0] != "0/1"]
    assert nonzero == [["1/16", "0/1", "0/1"]]


def test_gen_bad_family_usage_exit(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "X", "--k", "2")
    assert code == EXIT_USAGE and "unknown family" in err


def test_gen_bad_range_usage_exit(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "S", "--k-range", "5..2")
    assert code == EXIT_USAGE


def test_gen_past_int_str_digit_limit(capsys):
    # P_900's coefficients have numerators past CPython's 4300-digit int -> str limit
    code, out, _ = run_cli(capsys, "gen", "--family", "P", "--k", "900", "--format", "json")
    assert code == EXIT_OK
    coeffs = [c[0].split("/") for c in json.loads(out)["items"][0]["coeffs"]]
    j = max(range(len(coeffs)), key=lambda i: max(map(len, coeffs[i])))
    assert max(map(len, coeffs[j])) > 4300
    num, den = (int(Decimal(part)) for part in coeffs[j])
    assert Fraction(num, den) == families.build_P(900).coeffs[j].a


def test_verify_error_names_family_and_k(capsys):
    # B_4098 lies past the exact table's cap: the error exits 4 and says which task
    code, out, err = run_cli(capsys, "verify", "--family", "P", "--k-range", "2049..2049",
                             "--method", "sign-count")
    assert code == EXIT_NUMERIC and out == ""
    assert "P_2049: " in err and "above cap" in err


def test_unexpected_exception_is_not_a_refutation(capsys, monkeypatch):
    def broken(family, k):
        raise RuntimeError("broken builder")

    monkeypatch.setattr(families, "build_family", broken)
    code, _, err = run_cli(capsys, "gen", "--family", "S", "--k", "2")
    assert code == EXIT_INTERNAL != EXIT_REFUTED
    assert "RuntimeError: broken builder" in err


def test_verify_S_criteria(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "S", "--k-range", "1..8",
                           "--method", "criteria", "--format", "json")
    assert code == EXIT_OK
    items = json.loads(out)["items"]
    assert len(items) == 8
    assert all(i["certified"] for i in items)


def test_verify_R_roots_refuted_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "R", "--k", "5",
                           "--method", "roots", "--format", "json")
    assert code == EXIT_REFUTED


def test_verify_P120_roots_certified_at_default_bits(capsys, monkeypatch):
    monkeypatch.delenv("CIRCLEZERO_BITS", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--family", "P", "--k", "120",
                           "--method", "roots", "--format", "json")
    assert code == EXIT_OK
    (item,) = json.loads(out)["items"]
    assert item["verdict"] == "certified-true" and item["zeros_on_circle"] == 240


def test_roots_route_imports_no_numpy():
    # the roots route and its CLI run on the standard library and mpmath
    script = ("import sys\n"
              "from circlezero.cli import main\n"
              "from circlezero.families import build_P\n"
              "from circlezero.roots import verify_by_roots\n"
              "assert verify_by_roots(build_P(10)).certified\n"
              "code = main(['verify', '--family', 'P', '--k', '10', '--method', 'roots'])\n"
              "print(code, 'numpy' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False"


def test_verify_json_deterministic_and_worker_invariant(capsys):
    args = ["verify", "--family", "S,Y", "--k-range", "3..6", "--method",
            "sign-count", "--format", "json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, *args, "--workers", "2")
    assert out1 == out3


def test_verify_workers_capped_by_tasks(capsys, monkeypatch):
    # the fork start method launches all max_workers processes at the first submit
    import concurrent.futures

    class SerialPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    recorded = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    args = ["verify", "--family", "P", "--k-range", "2..3", "--format", "json"]
    _, serial, _ = run_cli(capsys, *args, "--workers", "1")
    code, pooled, _ = run_cli(capsys, *args, "--workers", "8")
    assert code == EXIT_OK and recorded == [2] and pooled == serial


def test_verify_csv_projection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "W", "--k", "2",
                           "--method", "roots", "--format", "csv")
    assert code == EXIT_OK
    header = out.splitlines()[0].split(",")
    assert header[:6] == ["family", "k", "method", "zeros_on_circle",
                          "degree_nontrivial", "origin_zeros"]
    assert "max_mod_dev_mid" in header and "max_mod_dev_rad" in header


def test_criteria_table(capsys):
    code, out, _ = run_cli(capsys, "criteria", "--family", "Y", "--k-range", "3..20",
                           "--format", "json")
    assert code == EXIT_OK
    items = json.loads(out)["items"]
    assert len(items) == 18
    assert all(i["holds"] == "certified-true" for i in items)


def test_zeta_approx1(capsys):
    code, out, _ = run_cli(capsys, "zeta", "approx1", "--bits", "128", "--format", "json")
    assert code == EXIT_OK
    item = json.loads(out)["items"][0]
    assert item["matched_decimals"] >= 6


def test_identity_sk_at_1(capsys):
    code, out, _ = run_cli(capsys, "identity", "sk-at-1", "--k-range", "1..20",
                           "--format", "json")
    assert code == EXIT_OK
    assert all(i["equal"] for i in json.loads(out)["items"])


def test_identity_qk_sum(capsys):
    code, out, _ = run_cli(capsys, "identity", "qk-sum", "--k-range", "2..20",
                           "--format", "json")
    assert code == EXIT_OK


def test_identity_combination(capsys):
    code, out, _ = run_cli(capsys, "identity", "combination-vs-closed-form",
                           "--k-range", "2..12", "--format", "json")
    assert code == EXIT_OK
    assert all(i["w_scalar"] == "2" for i in json.loads(out)["items"])


def test_identity_observation(capsys):
    code, out, _ = run_cli(capsys, "identity", "observation", "--k-range", "2..6",
                           "--format", "json")
    assert code == EXIT_OK
    assert all(i["exact"] for i in json.loads(out)["items"])


def test_identity_sech_with_z(capsys):
    code, out, _ = run_cli(capsys, "identity", "sech", "--k-range", "1..2",
                           "--z", "1/2", "--z", "1", "--bits", "192", "--format", "json")
    assert code == EXIT_OK
    items = json.loads(out)["items"]
    assert len(items) == 4
    assert all(i["encloses_zero"] for i in items)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "gen", "--family", "S", "--k", "1",
                           "--format", "json", "--out", str(path))
    assert code == EXIT_OK and out == ""
    assert json.loads(path.read_text())["kind"] == "family_poly"


def test_bits_below_floor_usage_exit(capsys):
    # doubling from 0 never raises the precision: reject it up front
    for argv in (["criteria", "--family", "S", "--k", "5"],
                 ["verify", "--family", "P", "--k", "3"],
                 ["gen", "--family", "S", "--k", "1"],
                 ["identity", "qk-sum", "--k", "2"],
                 ["zeta", "approx1"]):
        for bits in ("0", "-5", "63"):
            code, out, err = run_cli(capsys, *argv, "--bits", bits)
            assert code == EXIT_USAGE and out == "" and "--bits" in err, (argv, bits)
    code, _, _ = run_cli(capsys, "criteria", "--family", "S", "--k", "5", "--bits", "64")
    assert code == EXIT_OK


@pytest.mark.parametrize("argv", [
    "identity ramanujan --k 2 --z 1/0",
    "identity ramanujan --k 2 --z abc",
    "identity ramanujan --k 2 --z 1+abci",
    "identity sech --k 2 --z 1/0",
    "identity ramanujan --k 2 --z 1 --n-terms -1",
    "identity sech --k 2 --z 1 --n-terms -3",
])
def test_identity_malformed_input_usage_exit(capsys, argv):
    # exit 1 means certified-false, so bad input must not crash into it
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_USAGE and out == "" and "usage error" in err


def test_env_bits_default(capsys, monkeypatch):
    monkeypatch.setenv("CIRCLEZERO_BITS", "192")
    code, out, _ = run_cli(capsys, "gen", "--family", "S", "--k", "1", "--format", "json")
    assert json.loads(out)["meta"]["bits"] == 192


@pytest.mark.parametrize("value", ["0", "63", "abc"])
def test_env_bits_validated_like_flag(capsys, monkeypatch, value):
    # the environment value is parsed and floored exactly like --bits
    monkeypatch.setenv("CIRCLEZERO_BITS", value)
    try:
        code = main(["criteria", "--family", "S", "--k", "5"])
    except SystemExit as exc:  # argparse rejects a non-integer
        code = exc.code
    assert code == EXIT_USAGE
    assert capsys.readouterr().out == ""


# SHA-256 of the JSON output of fixed runs, pinned when the format was last
# changed on purpose; a differing digest means the report contract moved
JSON_DIGESTS = [
    ("verify --family P,Q,W,Y,S --k-range 3..30 --method sign-count", EXIT_OK,
     "1bc51c87b04733d9db4d98fb3dd4a58a5bd07dfcb39874248023a362261b01f7"),
    ("verify --family S,Y --k-range 3..30 --method criteria", EXIT_OK,
     "8531b486d916bff955b801e445c5d5e6f646dd9947468350b18230aacf4e97de"),
    ("verify --family W,Q --k-range 7..30 --method oscillation", EXIT_OK,
     "2e39a69a21cc0a5e0682feb96a49d1459ef21ad23036e5163c4c1902275284ef"),
    ("criteria --family R,S,Y --k-range 3..30", EXIT_REFUTED,
     "132f3d60037d50aa45aa0ce4286e8898d65653f6850f196110612aa2933c84f1"),
    ("identity combination-vs-closed-form --k-range 2..30", EXIT_OK,
     "67bd8df36f9e6f5adb55f41c6701c99ff770412b9d46e9799e64d753927661ef"),
    # R never certifies, so every grid doubles and carries its signs over
    ("verify --family R --k-range 1..12 --method sign-count", EXIT_INDETERMINATE,
     "104d31b3ac25dd66e2484a4d09afdb1f7623be31fbfa143da1561a3ff7dde1e3"),
]


@pytest.mark.parametrize("argv,exit_code,digest", JSON_DIGESTS, ids=[a for a, _, _ in JSON_DIGESTS])
def test_json_output_pinned(capsys, monkeypatch, argv, exit_code, digest):
    monkeypatch.delenv("CIRCLEZERO_BITS", raising=False)
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parse_fraction_complex():
    assert _parse_fraction("1/2") == (Fraction(1, 2), Fraction(0))
    assert _parse_fraction("0.3+0.7i") == (Fraction(3, 10), Fraction(7, 10))
    assert _parse_fraction("-2-3j") == (Fraction(-2), Fraction(-3))
    assert _parse_fraction("1i") == (Fraction(0), Fraction(1))


def test_exit_code_contract_property():
    T, Fv, I = "certified-true", "certified-false", "indeterminate"
    assert _verdict_exit([T, T]) == EXIT_OK
    assert _verdict_exit([T, I]) == EXIT_INDETERMINATE
    assert _verdict_exit([T, Fv, I]) == EXIT_REFUTED
    assert _verdict_exit([]) == EXIT_OK
    # injected indeterminate anywhere wins over OK, refuted wins over all
    import itertools
    for combo in itertools.product([T, Fv, I], repeat=3):
        want = EXIT_REFUTED if Fv in combo else (EXIT_INDETERMINATE if I in combo else EXIT_OK)
        assert _verdict_exit(list(combo)) == want


def test_run_config_invariants():
    from circlezero.cli import RunConfig
    from circlezero.errors import DomainError
    import pytest
    cfg = RunConfig(("S",), (1, 2), "criteria", 128)
    assert len(cfg.tasks()) == 2
    with pytest.raises(DomainError):
        RunConfig(("P",), (1, 2), "all", 128)  # P needs k >= 2
    with pytest.raises(DomainError):
        RunConfig(("S",), (1,), "all", 128, workers=0)
