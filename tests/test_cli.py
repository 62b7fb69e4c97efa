import hashlib
import json
import os

import pytest

from anomcancel import suite
from anomcancel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass_json(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "3.1", "--k", "1", "--l", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "PASS"
    assert obj["schema"] == 1
    assert obj["checks"]["decomposition_residual"]["zero"]


def test_verify_corollary_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "3.3", "--l", "3", "--qorder", "6")
    assert code == 0
    assert json.loads(out)["status"] == "PASS_WITH_VARIANT"


def test_verify_validation_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "3.1", "--k", "0")
    assert code == 2
    assert "k and l" in err
    code, _, _ = run(capsys, "verify", "--theorem", "nope")
    assert code == 2


def test_verify_gap_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "4.9", "--m", "0")
    assert code == 1
    assert json.loads(out)["outcome"] == "GAP"


def test_verify_spinc(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "4.8", "--k", "1", "--l", "2")
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_expand_delta1(capsys):
    code, out, _ = run(capsys, "expand", "--object", "delta1", "--order", "10", "--format", "text")
    assert code == 0
    assert out.startswith("delta1")
    assert "1/4 + 6*q" in out


def test_expand_eps2_and_theta_null(capsys):
    code, out, _ = run(capsys, "expand", "--object", "eps2", "--order", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["series"][0] == [4, "1"]
    code, out, _ = run(capsys, "expand", "--object", "theta3-null", "--order", "8", "--format", "text")
    assert code == 0
    assert "2*q^(1/2)" in out


def test_expand_p_series(capsys):
    code, out, _ = run(capsys, "expand", "--object", "P2", "--setting", "spin4k",
                       "--k", "1", "--l", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["setting"]["kind"] == "spin4k"


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "--setting", "spin4k", "--k", "2", "--l", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["residual_zero"] is True
    assert obj["integral_solve"] is True
    assert len(obj["h"]) == 2
    assert all(all(row_c.lstrip("-").isdigit() for row_c in row) for row in obj["solve_coeffs"])


def test_suite_qorder_guard(capsys):
    code, _, err = run(capsys, "suite", "--qorder", "3")
    assert code == 2
    assert "insufficient" in err


@pytest.fixture
def pool_sizes(monkeypatch):
    """``max_workers`` of every pool the suite opens; the grid is cut to three audits.

    The pool is replaced by one that maps in-process, so no worker starts.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    real_cases = suite.suite_cases
    monkeypatch.setattr(suite, "suite_cases",
                        lambda n_q=None: [c for c in real_cases(n_q) if c.kind == "divisibility"][:3])
    monkeypatch.setattr(suite, "ProcessPoolExecutor", RecordingPool)
    return sizes


# (argv, expected exit code, check on (stdout, stderr, pool sizes)); the suite
# rows run three cases on a machine that reports four CPUs
EXIT_CODE_TABLE = [
    (["decompose", "--setting", "spinc4k2", "--k", "1", "--l", "1", "--which", "P1"], 1,
     lambda out, err, pools: json.loads(out)["residual_zero"] is False),
    (["expand", "--object", "factor-a", "--weight", "-1"], 2,
     lambda out, err, pools: "--weight" in err),
    (["expand", "--object", "delta1", "--order", "-1"], 2,
     lambda out, err, pools: "--order" in err),
    (["expand", "--object", "P1", "--k", "1", "--l", "1", "--order", "99"], 0,
     lambda out, err, pools: json.loads(out)["order"] == 6),
    (["verify", "--theorem", "3.1", "--k", "1", "--output", "/nonexistent/d/x.json"], 2,
     lambda out, err, pools: err.startswith("error:") and "/nonexistent/d/x.json" in err),
    (["expand", "--object", "basis", "--k", "-1"], 2,
     lambda out, err, pools: "k=-1" in err),
    (["suite", "--parallel", "0"], 2,
     lambda out, err, pools: "parallel must be >= 1" in err and pools == []),
    (["suite", "--parallel", "1000"], 0,
     lambda out, err, pools: pools == [3]),
]


@pytest.mark.parametrize("argv,code,check", EXIT_CODE_TABLE,
                         ids=[" ".join(row[0]) for row in EXIT_CODE_TABLE])
def test_exit_code_contract(capsys, monkeypatch, pool_sizes, argv, code, check):
    """1 = FAIL or GAP, 2 = usage error; the pool never exceeds CPUs or cases."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    got, out, err = run(capsys, *argv)
    assert got == code, err
    assert check(out, err, pool_sizes)


def test_suite_workers_clamped_to_cpus(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert suite.run_suite(parallel=64)["all_ok"]
    assert pool_sizes == [2]


SUITE_JSON_SHA256 = "c945fa7224b0dd17c89009de4d6e39c7f6c3e8a2d403819c7cb9fa85d8f56cd9"


def test_suite_json_hash_is_pinned(capsys):
    """Refactor gate: `suite --format json` stdout is byte-identical to the recorded run,
    serial and with two workers."""
    code, serial, _ = run(capsys, "suite", "--format", "json")
    assert code == 0
    assert serial == suite.suite_json(suite.run_suite()) + "\n"
    assert hashlib.sha256(serial.encode()).hexdigest() == SUITE_JSON_SHA256
    code, parallel, _ = run(capsys, "suite", "--format", "json", "--parallel", "2")
    assert code == 0
    assert parallel == serial
