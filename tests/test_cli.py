import hashlib
import json
import os
from types import SimpleNamespace

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
def recording_pool(monkeypatch):
    """Every pool the suite opens: ``sizes`` holds each ``max_workers``, ``tasks`` what it mapped.

    The pool is replaced by one that maps in-process, so no worker starts.
    """
    record = SimpleNamespace(sizes=[], tasks=[])

    class RecordingPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            record.tasks.extend(items)
            return map(fn, items)

    monkeypatch.setattr(suite, "ProcessPoolExecutor", RecordingPool)
    return record


@pytest.fixture
def pool_sizes(monkeypatch, recording_pool):
    """``max_workers`` of every pool the suite opens; the grid is cut to three audits."""
    real_cases = suite.suite_cases
    monkeypatch.setattr(suite, "suite_cases",
                        lambda n_q=None: [c for c in real_cases(n_q) if c.kind == "divisibility"][:3])
    return recording_pool.sizes


# (argv, expected exit code, check on (stdout, stderr, pool sizes)); the suite
# rows run three cases on a machine that reports four CPUs
EXIT_CODE_TABLE = [
    (["decompose", "--setting", "spinc4k2", "--k", "1", "--l", "1", "--which", "P1"], 1,
     lambda out, err, pools: json.loads(out)["residual_zero"] is False),
    (["expand", "--object", "factor-a", "--weight", "-1"], 2,
     lambda out, err, pools: "--weight" in err),
    (["expand", "--object", "factor-d", "--weight", "0"], 2,
     lambda out, err, pools: err.startswith("error:") and out == ""),
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
    (["verify", "--theorem", "3.6", "--m", "0", "--k", "7", "--l", "9"], 2,
     lambda out, err, pools: "2m+1" in err),
    (["verify", "--theorem", "3.6", "--m", "0", "--l", "9"], 0,
     lambda out, err, pools: (json.loads(out)["k"], json.loads(out)["l"]) == (1, 9)),
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


def test_parallel_suite_shards_by_family(monkeypatch, recording_pool):
    """One task per (kind, k, n_q) family, one for the theta layer, one per audit;
    the sharded result equals the serial one."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = suite.run_suite()
    assert recording_pool.sizes == []
    family = {r["case"]: tuple(r["report"]["setting"][f] for f in ("kind", "k", "n_q"))
              for r in serial["cases"] if "setting" in r["report"]}
    assert suite.run_suite(parallel=2) == serial
    assert recording_pool.sizes == [2]
    tasks = recording_pool.tasks
    assert len(tasks) == 20
    families = [{family[c.case_id] for c in task if c.case_id in family} for task in tasks]
    assert all(len(f) <= 1 for f in families)                          # no task mixes families
    assert sum(map(len, families)) == len(set().union(*families)) == 7  # no family is split
    assert all(len(task) == 1 for task, f in zip(tasks, families) if not f)
    assert sorted(c.case_id for task in tasks for c in task) == sorted(r["case"] for r in serial["cases"])


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


# sha256 of `expand --object factor-KIND --order ORDER --weight WEIGHT --format FORMAT`
# stdout, recorded when the factors were still built as products of O(order) series
FACTOR_SHA256 = {
    ("a", 3, 6, "json"): "ab2a855cefdc850136fbe967c899f39d2d6f256c58b16e26dc75d27d9979a3cc",
    ("a", 3, 6, "text"): "7cf146960a417b0dac1f5d25c1de62ca9c7a7f4a3c05b08371638fda524378dc",
    ("a", 0, 5, "json"): "5d413ed95c951d85c04c3ed58b9f3aab56cd38e67501e0695cae1c4ab5fa94f7",
    ("a", 0, 5, "text"): "9fbd6380d987627dc27c08909c3dd25b0fe0f9d8e673cca0401501a7644faa89",
    ("a", 10, 11, "json"): "aa837916456c89f7ba3384a7b61a80d8251d178b8c6234d1b3af279bb99de943",
    ("a", 10, 11, "text"): "c24b128c5db309ed8820e66a515198f7fb967c41194e22f94b2e54c2031d3959",
    ("t1", 3, 6, "json"): "0e65e83aea68303e7f2dff7f11502862beee7c58bb5e76eae3c3a62fb68e753c",
    ("t1", 3, 6, "text"): "8c944feed4027c113a84a16567c531d3cce79f136528a4db5fb501fea2b82b67",
    ("t1", 0, 5, "json"): "e5c61625eb8ebddac06a5016bde7d0adab0c21bffbf32ede85059ddafc6dc2bb",
    ("t1", 0, 5, "text"): "2dcb9e3a3a761617157bb087db28555c9956fa42f2b068d49c3a53f9648cfffa",
    ("t1", 10, 11, "json"): "fb87a5defda8301528c7a51b8aedf267582b1b335befc6628d20b7b5eb569590",
    ("t1", 10, 11, "text"): "00adb1da14a4183210982450cffb59703016124e94028448640e1cfa97b919f1",
    ("t2", 3, 6, "json"): "e6bbb94575034766248b52dbd00eb88895acac3a89b8653f7bfce35650f0c15d",
    ("t2", 3, 6, "text"): "4e4c993b17b05503a17eae1134f124eb991e52cb0beab393fd2ec312ea98e65b",
    ("t2", 0, 5, "json"): "4d52e536ef6f625c8a78d18aff84ed0de1c02fce14bcf3b0dc616a2ad57a1d20",
    ("t2", 0, 5, "text"): "c4a4b4f2c03bf2bc2ee498694082d89194760b858713dd551b1544bbecc79327",
    ("t2", 10, 11, "json"): "f6479a166c743fe8c43d0a0cdd2e85a9e2488e347b519e1bf5984730e47bb2e8",
    ("t2", 10, 11, "text"): "83f91ddb2d9909dc04e89b7208d81916c9afed7f19ed7bb404e2999a361ece13",
    ("t3", 3, 6, "json"): "9b800bebaa39718b2c7992d412b56d65389b1c2ed34912680486ec75bbd08292",
    ("t3", 3, 6, "text"): "40c9807e8decf45d5568dbea679bf1c539eb92c12b22f26bf027ad383f5ba5e2",
    ("t3", 0, 5, "json"): "0387ea85d475cc3b5ebef56daccb9a7e48354aea2dd00bd4d906c0d0a1ce8fdc",
    ("t3", 0, 5, "text"): "e7104d43efbdf43e82cd2a925099ec41a5cd6642b16ebdef4b397c54d51d364a",
    ("t3", 10, 11, "json"): "6167d7507232c654fe62722e3e8aa7b6fd89757a8d611f25e7d9e2abbb20820a",
    ("t3", 10, 11, "text"): "d145e064fda30aa6692b66d1e49e9f435518734a7001775b47ceda53388683a1",
    ("d", 3, 6, "json"): "dbeff5e82463b174986041c4a55b40f998d7e34f564eb42a6dfda00663c859b8",
    ("d", 3, 6, "text"): "58359456a3bc38acf1a79370f85336551b9c81d0fe51da0de5799133efed9f25",
    ("d", 0, 5, "json"): "7a8ed211e69e96721247c03faeecbc3712dd0655bb8b71a26f2c828a8c4bfe09",
    ("d", 0, 5, "text"): "7ba09d73e73d7c4f8e38b7d542f45cdc7a5466215e12649b4fdce84686728bdc",
    ("d", 10, 11, "json"): "bfe78de680c2240d1ebf17bb7224e78dd58fec57e169b67a914d0272912e4091",
    ("d", 10, 11, "text"): "e2dec318d0a875681234362668f6f48a40caeee05a5b19ca3edb79891766b711",
}


@pytest.mark.parametrize("kind,order,weight,fmt", sorted(FACTOR_SHA256),
                         ids=["-".join(map(str, key)) for key in sorted(FACTOR_SHA256)])
def test_expand_factor_bytes_are_pinned(capsys, kind, order, weight, fmt):
    code, out, _ = run(capsys, "expand", "--object", f"factor-{kind}", "--order", str(order),
                       "--weight", str(weight), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FACTOR_SHA256[(kind, order, weight, fmt)]
