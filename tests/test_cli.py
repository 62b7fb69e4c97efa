import hashlib
import json
import os
import select
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from anomcancel import anomaly, suite
from anomcancel.algebra import AlgebraError
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


@pytest.mark.parametrize("basis,shown,hidden", [(None, "pM", "nM"), ("normalized", "nM", "pM")])
def test_check_values_render_in_the_report_basis(capsys, basis, shown, hidden):
    """A nonzero check value is printed in the generators the h_r are printed in."""
    code, out, _ = run(capsys, "verify", "--theorem", "3.3", "--l", "1",
                       *(() if basis is None else ("--basis", basis)))
    assert code == 0
    value = json.loads(out)["checks"]["printed_identity_independent_v"]["value"]
    assert shown in value and hidden not in value


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
    assert set(obj) == {"schema", "setting", "which", "h", "residual_zero", "solve_coeffs"}
    assert len(obj["h"]) == 2
    assert all(all(row_c.lstrip("-").isdigit() for row_c in row) for row in obj["solve_coeffs"])


def test_suite_qorder_guard(capsys):
    code, _, err = run(capsys, "suite", "--qorder", "3")
    assert code == 2
    assert "insufficient" in err


def test_parallel_suite_rejects_a_short_qorder_before_forking(monkeypatch):
    """Every setting of the grid is built in the caller, before a fork: a too-small order raises the
    serial run's ``AlgebraError``, never a worker's ``RuntimeError``."""
    with pytest.raises(AlgebraError) as serial:
        suite.run_suite(n_q=4)
    monkeypatch.setattr(suite, "_usable_cpus", lambda: 2)

    def no_fork():
        raise AssertionError("the suite forked before checking its settings")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(AlgebraError) as parallel:
        suite.run_suite(n_q=4, parallel=2)
    assert str(parallel.value) == str(serial.value) and "q-order 4 is insufficient for k=3" in str(serial.value)


@pytest.fixture
def recording_runner(monkeypatch):
    """Every process runner the suite starts: ``sizes`` holds each worker count, ``tasks`` its shards.

    The runner is replaced by one that runs every shard in-process, so nothing is forked.
    """
    record = SimpleNamespace(sizes=[], tasks=[])

    def run_in_process(workers, tasks):
        record.sizes.append(workers)
        record.tasks.extend(tasks)
        return [[n, [suite.run_case(c) for c in task]] for n, task in enumerate(tasks)]

    monkeypatch.setattr(suite, "_run_forked", run_in_process)
    return record


@pytest.fixture
def three_audits(monkeypatch):
    """The grid cut to its first three audits: three shards of one case each."""
    real_cases = suite.suite_cases
    monkeypatch.setattr(suite, "suite_cases",
                        lambda n_q=None: [c for c in real_cases(n_q) if c.kind == "divisibility"][:3])


@pytest.fixture
def runner_sizes(three_audits, recording_runner):
    """Worker count of every runner the suite starts, on the grid cut to three audits."""
    return recording_runner.sizes


# (argv, expected exit code, check on (stdout, stderr, runner sizes)); the suite
# rows run three cases on a machine that reports four CPUs
EXIT_CODE_TABLE = [
    (["decompose", "--setting", "spinc4k2", "--k", "1", "--l", "1", "--which", "P1"], 1,
     lambda out, err, runs: json.loads(out)["residual_zero"] is False),
    (["expand", "--object", "factor-a", "--weight", "-1"], 2,
     lambda out, err, runs: "--weight" in err),
    (["expand", "--object", "factor-d", "--weight", "0"], 2,
     lambda out, err, runs: err.startswith("error:") and out == ""),
    (["expand", "--object", "delta1", "--order", "-1"], 2,
     lambda out, err, runs: "--order" in err),
    (["expand", "--object", "delta1", "--order", "100000000000000000000"], 2,
     lambda out, err, runs: err.startswith("error: input too large") and out == ""),
    (["expand", "--object", "P2", "--setting", "spinc4k2", "--k", "1", "--l", "1", "--qorder", str(10 ** 21)], 2,
     lambda out, err, runs: err.startswith("error: input too large") and out == ""),
    # each asks for a list of over 800 TB, beyond a 47-bit address space: a MemoryError, with nothing allocated
    (["expand", "--object", "delta1", "--order", str(10 ** 14)], 2,
     lambda out, err, runs: err == "error: input too large\n" and out == ""),
    (["expand", "--object", "theta3-null", "--order", str(10 ** 14)], 2,
     lambda out, err, runs: err == "error: input too large\n" and out == ""),
    (["expand", "--object", "factor-t2", "--order", str(10 ** 14)], 2,
     lambda out, err, runs: err == "error: input too large\n" and out == ""),
    (["expand", "--object", "P2", "--k", "1", "--qorder", str(10 ** 14)], 2,
     lambda out, err, runs: err == "error: input too large\n" and out == ""),
    (["expand", "--object", "P1", "--k", "1", "--l", "1", "--order", "99"], 0,
     lambda out, err, runs: json.loads(out)["order"] == 6),
    (["verify", "--theorem", "3.1", "--k", "1", "--output", "/nonexistent/d/x.json"], 2,
     lambda out, err, runs: err.startswith("error:") and "/nonexistent/d/x.json" in err),
    (["expand", "--object", "basis", "--k", "-1"], 2,
     lambda out, err, runs: "k=-1" in err),
    (["suite", "--parallel", "0"], 2,
     lambda out, err, runs: "parallel must be >= 1" in err and runs == []),
    (["suite", "--parallel", "1000"], 0,
     lambda out, err, runs: runs == [3]),
    (["verify", "--theorem", "3.6", "--m", "0", "--k", "7", "--l", "9"], 2,
     lambda out, err, runs: "2m+1" in err),
    (["verify", "--theorem", "3.6", "--m", "0", "--l", "9"], 0,
     lambda out, err, runs: (json.loads(out)["k"], json.loads(out)["l"]) == (1, 9)),
    (["verify", "--theorem", "3.6", "--m", "1", "--qorder", "2"], 2,
     lambda out, err, runs: err.startswith("error:") and "--qorder" in err and out == ""),
    (["verify", "--theorem", "3.1", "--k", "1", "--m", "5", "--v2h", "7"], 2,
     lambda out, err, runs: err.startswith("error:") and "--m, --v2h do not apply" in err and out == ""),
    (["verify", "--theorem", "3.1", "--k", "1", "--m", "0"], 2,
     lambda out, err, runs: "--m does not apply" in err and out == ""),
    (["verify", "--theorem", "3.1", "--k", "1", "--v2h", "1"], 2,
     lambda out, err, runs: "--v2h does not apply" in err and out == ""),
    (["verify", "--theorem", "3.6", "--m", "1", "--basis", "normalized", "--timings"], 2,
     lambda out, err, runs: "--basis, --timings do not apply" in err and out == ""),
    (["verify", "--theorem", "3.6", "--m", "1", "--basis", "standard"], 2,
     lambda out, err, runs: "--basis does not apply" in err and out == ""),
    (["verify", "--theorem", "3.6", "--m", "1", "--timings"], 2,
     lambda out, err, runs: "--timings does not apply" in err and out == ""),
    (["verify", "--theorem", "3.6", "--m", "1", "--v2h", "2"], 0,
     lambda out, err, runs: json.loads(out)["assumed_v2_h"] == 2),
    (["verify", "--theorem", "3.6"], 0,
     lambda out, err, runs: (json.loads(out)["m"], json.loads(out)["assumed_v2_h"]) == (0, 1)),
    (["verify", "--theorem", "3.1", "--k", "1", "--basis", "normalized", "--timings"], 0,
     lambda out, err, runs: {"elapsed_seconds", "h_normalized"} <= set(json.loads(out))),
]


@pytest.mark.parametrize("argv,code,check", EXIT_CODE_TABLE,
                         ids=[" ".join(row[0]) for row in EXIT_CODE_TABLE])
def test_exit_code_contract(capsys, monkeypatch, runner_sizes, argv, code, check):
    """1 = FAIL or GAP, 2 = usage error; the runner never exceeds CPUs or cases."""
    monkeypatch.setattr(suite, "_usable_cpus", lambda: 4)
    got, out, err = run(capsys, *argv)
    assert got == code, err
    assert check(out, err, runner_sizes)


def test_suite_workers_clamped_to_cpus(monkeypatch, runner_sizes):
    monkeypatch.setattr(suite, "_usable_cpus", lambda: 2)
    assert suite.run_suite(parallel=64)["all_ok"]
    assert runner_sizes == [2]


def test_one_usable_cpu_runs_the_suite_serially(monkeypatch, recording_runner):
    """Under a one-CPU affinity mask ``parallel=2`` forks nothing, since the worker would share the
    caller's CPU, and the JSON is byte-identical to the serial run's."""
    serial = suite.suite_json(suite.run_suite())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert suite._usable_cpus() == 1
    assert suite.suite_json(suite.run_suite(parallel=2)) == serial
    assert recording_runner.sizes == []


def test_suite_runs_serially_where_fork_is_missing(monkeypatch, runner_sizes):
    monkeypatch.setattr(suite, "_usable_cpus", lambda: 2)
    serial = suite.run_suite()
    monkeypatch.delattr(os, "fork")
    assert suite.run_suite(parallel=2) == serial
    assert runner_sizes == []


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_failed_shard_raises_and_leaves_no_child(monkeypatch, three_audits, failing):
    """A fault planted in ``run_case`` reaches the caller, and no forked process outlives it.

    The failing process raises on the first case it runs, so one case id fails; the
    other process waits at its first case until then, so each side is sure to run a
    shard.  A worker's fault comes back as ``RuntimeError`` carrying its traceback.
    The caller gets back the affinity mask it had before the call.
    """
    monkeypatch.setattr(suite, "_usable_cpus", lambda: 2)
    caller, real_run_case = os.getpid(), suite.run_case
    mask = os.sched_getaffinity(0)
    raised_r, raised_w = os.pipe()

    def planted(case):
        if (os.getpid() == caller) == (failing == "caller"):
            os.write(raised_w, b"!")
            raise ValueError(f"planted fault in {case.case_id}")
        select.select([raised_r], [], [], 30)
        return real_run_case(case)

    monkeypatch.setattr(suite, "run_case", planted)
    try:
        with pytest.raises(RuntimeError if failing == "worker" else ValueError,
                           match="planted fault in divisibility"):
            suite.run_suite(parallel=2)
    finally:
        os.close(raised_r)
        os.close(raised_w)
    assert os.sched_getaffinity(0) == mask
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(suite, "run_case", real_run_case)
    serial = suite.run_suite()
    assert serial["all_ok"]
    assert suite.run_suite(parallel=2) == serial


@pytest.mark.parametrize("caller_cpus", ["all", "one"])
def test_pool_processes_run_pinned_to_their_own_cpus(monkeypatch, three_audits, caller_cpus):
    """Real forks: each process of a two-process pool runs with a one-CPU mask, the two
    masks differ when the caller may use two CPUs or more and are equal when it may use
    one, and the caller's mask after the call is the one it had before.

    The suite is told of two usable CPUs, so it forks under a one-CPU mask too, and the
    pinning's wrap-around is exercised.  Each process waits at its first case until the
    other has taken one, so both run a shard.
    """
    monkeypatch.setattr(suite, "_usable_cpus", lambda: 2)
    caller, real_run_case = os.getpid(), suite.run_case
    started = {"caller": os.pipe(), "worker": os.pipe()}     # written once each side has a case

    def recording(case):
        me, other = ("caller", "worker") if os.getpid() == caller else ("worker", "caller")
        os.write(started[me][1], b"!")
        select.select([started[other][0]], [], [], 30)
        return dict(real_run_case(case), pid=os.getpid(), mask=sorted(os.sched_getaffinity(0)))

    monkeypatch.setattr(suite, "run_case", recording)
    original = os.sched_getaffinity(0)
    try:
        if caller_cpus == "one":
            os.sched_setaffinity(0, {min(original)})
        before = os.sched_getaffinity(0)
        result = suite.run_suite(parallel=2)
        after = os.sched_getaffinity(0)
    finally:
        os.sched_setaffinity(0, original)
        for fds in started.values():
            for fd in fds:
                os.close(fd)
    assert result["all_ok"]
    masks = {r["pid"]: set(r["mask"]) for r in result["cases"]}
    assert len(masks) == 2 and caller in masks
    assert all(len(m) == 1 and m <= before for m in masks.values())
    caller_mask, worker_mask = masks.pop(caller), masks.popitem()[1]
    assert (caller_mask != worker_mask) == (len(before) >= 2)
    assert after == before


def test_parallel_suite_shards_by_family(monkeypatch, recording_runner):
    """One task per (kind, k, n_q) family, heaviest first, then one for the theta layer and
    one per audit; the sharded result equals the serial one."""
    monkeypatch.setattr(suite, "_usable_cpus", lambda: 2)
    serial = suite.run_suite()
    assert recording_runner.sizes == []
    family = {r["case"]: tuple(r["report"]["setting"][f] for f in ("kind", "k", "n_q"))
              for r in serial["cases"] if "setting" in r["report"]}
    assert suite.run_suite(parallel=2) == serial
    assert recording_runner.sizes == [2]
    tasks = recording_runner.tasks
    assert len(tasks) == 20
    families = [{family[c.case_id] for c in task if c.case_id in family} for task in tasks]
    assert all(len(f) <= 1 for f in families)                          # no task mixes families
    assert sum(map(len, families)) == len(set().union(*families)) == 7  # no family is split
    assert all(len(task) == 1 for task, f in zip(tasks, families) if not f)
    # the order of their cold in-process times
    assert [f.pop() for f in families[:7]] == [("spin4k", 3, 10), ("spin4k", 2, 8), ("spinc4k", 2, 8),
                                               ("spinc4k2", 2, 8), ("spin4k", 1, 6), ("spinc4k", 1, 6),
                                               ("spinc4k2", 1, 6)]
    assert sorted(c.case_id for task in tasks for c in task) == sorted(r["case"] for r in serial["cases"])


SUITE_JSON_SHA256 = "014a990d07818510b2a3d8e4dc49b4337e8d11245bb7de70b670ff40d97409be"


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


def test_json_writer_matches_the_standard_library():
    """``suite_json`` writes ``json.dumps(obj, indent=2)``'s text on every shape, and refuses what ``json`` cannot
    spell the same way."""
    shapes = {"empty": {}, "nested": {"a": {}, "b": [], "c": [[], {}, [{}], {"d": [1]}]},
              "text": 'quote " backslash \\ newline \n control \x01\x1f tab \t non-ASCII \u00e9 \u2211 \U0001d53d',
              "": "an empty key", "ints": [0, 1, -7, 10 ** 59 + 1, -(10 ** 59)],
              "constants": [True, False, None], "floats": [0.125, -1e-300, 1e300, float("inf"), float("nan")],
              "tuple": (1, ("x", [])), "unicode key \u00e9": -3}
    assert suite.suite_json(shapes) == json.dumps(shapes, indent=2)
    for scalar in ("x", 0, -2.5, None, True, [], {}):
        assert suite.suite_json(scalar) == json.dumps(scalar, indent=2)
    report = anomaly.verify_theorem("3.1", k=1, l=1).to_json_obj(include_timings=True)
    assert type(report["elapsed_seconds"]) is float
    assert suite.suite_json(report) == json.dumps(report, indent=2)
    for bad in ({"x": Fraction(1, 2)}, [Fraction(3)], {1: "x"}, {None: 1}, {"s": {1, 2}}):
        with pytest.raises(TypeError):
            suite.suite_json(bad)


# sha256 of the concatenated `verify --format json` stdout of every operation the benchmark's
# verify workloads can pick, per basis, as tools/output_hashes.py prints it
VERIFY_OPERATIONS_SHA256 = {
    "standard": "5331a77fd2cbf1204ac1774508216df7b37a533995e0d38876ac5b4361a4db33",
    "normalized": "4cc60c36be569265a7ccbbd955ca43cbd24fc7cff27ae24ea0a5cf3820f3c5ca",
}


@pytest.mark.parametrize("basis", list(VERIFY_OPERATIONS_SHA256))
def test_benchmark_verify_operations_are_pinned(monkeypatch, basis):
    """Refactor gate: the benchmark's verify operations print the recorded bytes, hashed by the tool."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import output_hashes
    digest = hashlib.sha256()
    for op in output_hashes.workloads.all_verify_operations():
        digest.update(output_hashes._stdout_of(output_hashes._verify_argv(op, basis)))
    assert digest.hexdigest() == VERIFY_OPERATIONS_SHA256[basis]


# (exit code, sha256 of stdout) of `verify --theorem ID [--k K] --l L --format FORMAT`, one
# operation per identity; between them they carry notes, non-gating checks with values,
# variant notes and the sorted check order
VERIFY_SHA256 = {
    ("3.1", 2, 2, "json"): (0, "67440003fa3068ff678d5cb1607956c80eddb5f6318c86f17612226d7c75be5e"),
    ("3.1", 2, 2, "text"): (0, "772aae5380dcb892c4343e8288d4bb8d1a69a8d1f10d84eecebcf2442d03ca89"),
    ("3.2", 2, 2, "json"): (0, "ceeff52d8d1d6ee9401c53ec72811805055e1118231c4beac1b634134c1d1757"),
    ("3.2", 2, 2, "text"): (0, "9617c4ee3cc8114843c6fdc8442eef27a9786c0fa51522ff11edde57bc1ba715"),
    ("3.3", None, 1, "json"): (0, "e59c0640fc844bd5d82cf441640adb27e91af8ddd3af2283219674cb1f9c4b23"),
    ("3.3", None, 1, "text"): (0, "850e8f3620eb05af7c5c335c0a3ce5fd07aadc4d51e6fb56a263535f57390f28"),
    ("3.4", None, 1, "json"): (0, "9cb451b5678bba5bf376c60147c5a13cbccc4d14aaf347822e8bf6ab759ec75d"),
    ("3.4", None, 1, "text"): (0, "fa53589924c6f2b5ade0b5c249b1d2a836ec86b4bd7eec7f682aabeab9f0cfca"),
    ("4.1", 1, 2, "json"): (0, "8a84b59428e920720d9fa7b1106ae5ebe68664b638cdd2fa107d68264e4010ca"),
    ("4.1", 1, 2, "text"): (0, "164021b1a455f26b30383da0ccfb2d6239221f2ee3d133c50f39e354bc36ac0c"),
    ("4.2", 2, 1, "json"): (0, "481ea18bd98c91c7a12bdbfbdc0a1c9461e9aa1096a4ec572ae06b1efa21641d"),
    ("4.2", 2, 1, "text"): (0, "054bb35c5c2b03107f0652aed4ef97ade384195bdd6f578907998ef6f14c5232"),
    ("4.6", 1, 2, "json"): (0, "c9f824006fa03aff9207a28c615ea16c0f85c67249d535d29f0d44fbc706c112"),
    ("4.6", 1, 2, "text"): (0, "def1e45bd09ddad2dd0dc2f15c15dc513e76a54a78f5678fccc35c39b0f8fe09"),
    ("4.8", 1, 1, "json"): (0, "046c7acefb1906de548191888a1523e6300de20cb15aafffa95bda156be67938"),
    ("4.8", 1, 1, "text"): (0, "5021414209932e9017a255713b7afc3f854c00958a648fc670a86a2952da1ddb"),
}


@pytest.mark.parametrize("theorem,k,l,fmt", list(VERIFY_SHA256),
                         ids=["-".join(map(str, key)) for key in VERIFY_SHA256])
def test_verify_bytes_are_pinned(capsys, theorem, k, l, fmt):
    argv = ["verify", "--theorem", theorem, "--l", str(l), "--format", fmt]
    code, out, _ = run(capsys, *argv, *(() if k is None else ("--k", str(k))))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERIFY_SHA256[(theorem, k, l, fmt)]


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


# sha256 of `expand --object KIND --order ORDER --format FORMAT` stdout and of
# `expand --object basis --group GROUP --k K --r R --order 10 --format FORMAT`
# stdout, recorded when the generators and basis were Fraction series products
DELTA_EPS_SHA256 = {
    ("delta1", 1, "json"): "e8b900fc241c492becc8bd172019d490ce0527d2253c6bd0b3b465d585198894",
    ("delta1", 1, "text"): "d385be90bf83e5ddc432d6e78434365f10132f1b906e76e1e153a16ecd85237d",
    ("delta1", 6, "json"): "aa0f26e0247c340031fb910fd870f6206fbb82cefca653fd5765900d257d4d6a",
    ("delta1", 6, "text"): "9a29f18a5d1954642a0e8d83a25469a75a597143f4eff2a1b12d8062e2283c4f",
    ("delta1", 32, "json"): "30c50fb3ebc8e9cfaf5fb11577a5ff5332c6b96a72e3bbd8acaed1904c9694c5",
    ("delta1", 32, "text"): "3ca94e3f217e28345a1e6a795beff29508fdc65ca8e7db50eef278418c0496aa",
    ("eps1", 1, "json"): "55ed75dbaa0e7e5da67a56ba9a6d2e0361f60c974f4dbe33c28dff011de33d96",
    ("eps1", 1, "text"): "84e9d7a8ac704a581acc4f50bea5adf17b7973959e69bf8b08d48c87657df394",
    ("eps1", 6, "json"): "51f96231d754409c4fd371f3f03f4527a3ace382f81ccf468e29e0e8c79bb9a3",
    ("eps1", 6, "text"): "c9c40bdfa8429cb3488d033ab5de8bc758ac408272156e79f73eee044ca10603",
    ("eps1", 32, "json"): "c950eeb07f9d8dde0bb1d1e1ece4310d91ef43c669ab42e84e69e293f1798855",
    ("eps1", 32, "text"): "fa4e7ee796eaff368eb8d0c5a4a2e40c957b97382071a3a05bad63217692607e",
    ("delta2", 1, "json"): "914edbe4b34af0195c379c1f7a2f740b67e18b5a4dde7b0588e2a0184300b9fa",
    ("delta2", 1, "text"): "c8f1b1a8d85bf15fb7cfe5a9b6df76c50b58ffceeb72beb7e37e7e9da20cf459",
    ("delta2", 6, "json"): "2abe20ae01cebcb4a89a16fad014dac370d99e1e9cf164e52007f3351a0569c1",
    ("delta2", 6, "text"): "7fd0d09109a789f18d8381d90c14020a15aacf186c1fa1d789672edacda927e5",
    ("delta2", 32, "json"): "04c9ed08726400db438f2bfa4870918e910a7be96a9c178d000d15a340bcc318",
    ("delta2", 32, "text"): "e59f2f589a279314d4890def395b7e2df7a7aafc6d7e706ec8e593efc769e9d7",
    ("eps2", 1, "json"): "2df748ba670cade6566ae9a311c79aae54cb94ab6e4fa107c94f4276fb3b4707",
    ("eps2", 1, "text"): "2e1f22420292b2b071e28c9b0a90e2ff523808bd0d9c6458e1dd8124b1510480",
    ("eps2", 6, "json"): "35c221849fe2e919e4612ed7129e90e6b824f65671cd5a88cfa04d200258d2d0",
    ("eps2", 6, "text"): "584f48a91801d4488e97e2b5928a82a6ba738e0745cd1cf70b52b26dbe1827ae",
    ("eps2", 32, "json"): "e6b994b7fb82ecf96ae5369cda5f4422898e1457f6fe54f40bc30b66877283f4",
    ("eps2", 32, "text"): "6f82c8200566392c4a4b6f47727c3b9f406e5a66f35bc37a94773d49390fd26d",
}
BASIS_SHA256 = {
    ("upper", 1, 0, "json"): "29dd4ee03774dae486e3d5a2a92079deeec042858572045cd1db6152beeeb2c9",
    ("upper", 1, 0, "text"): "dd833c63ade630c23a96d0e19c1160c22c9b6b1456fed4c91d80d4d06ba50bd5",
    ("upper", 4, 0, "json"): "b755355a14f1f1400a0a2dc0206c38f3055bfea9cd0b40f7b4f8f4f8f2388231",
    ("upper", 4, 0, "text"): "2cacb56eba7c572772224da6ce31a2b5addd225f90967d121ba417b0262f5d5d",
    ("upper", 4, 2, "json"): "6820b0a0e3d7515a2b6cbe0441bf0fe5f0926bfbc4b0fa86df604f92090fd480",
    ("upper", 4, 2, "text"): "98c6124f6994cfc23c2870fb5bd1bcec9530500ba4d79fee4390dc9ba0798ee3",
    ("upper", 7, 0, "json"): "6f160401980f5e59d49b3e3dcbb3f3b48b3f52e7e8260a243b5547a0d1591451",
    ("upper", 7, 0, "text"): "7a13e1ad9b582bef739bb256961ad8c9a93903bb7b739d04a9e3705b7b0d0234",
    ("upper", 7, 3, "json"): "bad4beb9b8e034e9d302a168339221548df4cce282898694b0f6ca081824447f",
    ("upper", 7, 3, "text"): "cd6e664c193d3b1d6c016121bfcdb84ed11f9316893e80a69f98117e1ebcc2c3",
    ("lower", 1, 0, "json"): "984456d04889e26b3db30f285fb5e96f3a95ecc58b074998e88e2ab92855284d",
    ("lower", 1, 0, "text"): "45943c287edb5643d0cfbc0c5bed08653c46a6dff7c7a92224f6125132e300c5",
    ("lower", 4, 0, "json"): "33d51cb5f68a809cd0af877d7f3b0f557f3af85b47af82e0b760cb5c88db3457",
    ("lower", 4, 0, "text"): "98345113fb99ed8eed5aad3ae776b63fbe0f3bcde8eeaac5c9d9f9f585e24ec3",
    ("lower", 4, 2, "json"): "c9576b5b402845a469d679955fd0eb84c8e55ab03a86e580d58c6518b33c83e0",
    ("lower", 4, 2, "text"): "808984089254377d73b482d049d0803f7f968c5c01983c9de3883fe81e7cd92f",
    ("lower", 7, 0, "json"): "a2277356aefeda7659959fd5f231a92727293934beb3f84ca1fc32eb81276d37",
    ("lower", 7, 0, "text"): "ea2161010f0d9d3800c1aeaae6e8e0f8e7329e40895f766b524153a27d8ec8d9",
    ("lower", 7, 3, "json"): "22edac098940e7c21820f8dc19c10356f931085b6d41616d6f838093e2e410f0",
    ("lower", 7, 3, "text"): "0ac7e302717a4376caa06b7a99e674297fd1f95b9f7dd1db2b9ea42ad5136d23",
}


@pytest.mark.parametrize("kind,order,fmt", sorted(DELTA_EPS_SHA256),
                         ids=["-".join(map(str, key)) for key in sorted(DELTA_EPS_SHA256)])
def test_expand_generator_bytes_are_pinned(capsys, kind, order, fmt):
    code, out, _ = run(capsys, "expand", "--object", kind, "--order", str(order), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DELTA_EPS_SHA256[(kind, order, fmt)]


@pytest.mark.parametrize("group,k,r,fmt", sorted(BASIS_SHA256),
                         ids=["-".join(map(str, key)) for key in sorted(BASIS_SHA256)])
def test_expand_basis_bytes_are_pinned(capsys, group, k, r, fmt):
    code, out, _ = run(capsys, "expand", "--object", "basis", "--group", group, "--k", str(k),
                       "--r", str(r), "--order", "10", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BASIS_SHA256[(group, k, r, fmt)]


# sha256 of `expand --object WHICH --setting KIND --k K --l L --basis BASIS --format FORMAT`
# stdout, recorded when `PuiseuxSeries.from_packed` still unpacked the monomials itself
EXPAND_P_SHA256 = {
    ("spin4k", 2, 2, "P1", "normalized", "json"): "f3441f943a727038122329341aec0560dfa9141f29fd256dcbb250d6ffb6a2d6",
    ("spin4k", 2, 2, "P1", "normalized", "text"): "0791a551e05c223a8250958374a90355307be8e025650fb10bf1443a718868cb",
    ("spin4k", 2, 2, "P1", "standard", "json"): "dd3bec58ad64b79947ae9e766e1c3bff315ad7ff8f71f1684a213b3fb2d43b3b",
    ("spin4k", 2, 2, "P1", "standard", "text"): "246a341a90dd2464cab617b846dacd2f646b9095095d664b6b95223355991708",
    ("spin4k", 2, 2, "P2", "normalized", "json"): "6b5bcda53b99b064222db37862a0aff8d39c317ea50bd4021af5362a46b76ae7",
    ("spin4k", 2, 2, "P2", "normalized", "text"): "b3ed3ff835bea5f0372dccd9ac05d7b5b842c4976056559b9b17a54fc493a15b",
    ("spin4k", 2, 2, "P2", "standard", "json"): "d87c8da4fc233e3247307c4d152b30246a38876abddd8fd8c9c16ff35e39e76d",
    ("spin4k", 2, 2, "P2", "standard", "text"): "d345a8c2bde39f34b216c1073ab6ba269e0afd352a6c64835e40471155afca91",
    ("spin4k", 2, 2, "P3", "normalized", "json"): "f830894c13a85170619fd2953f02b4bfde2c2c92e590f058b0575902653915f9",
    ("spin4k", 2, 2, "P3", "normalized", "text"): "a14f11cde99df01f5096064233919c7f1647121dbc6783d0bb7573644a5c8dc1",
    ("spin4k", 2, 2, "P3", "standard", "json"): "5ef0c1de1e4f0bce9450760de39694f4aa1c4fa4b7efd42e18632f6ae52859fe",
    ("spin4k", 2, 2, "P3", "standard", "text"): "3f4cf6772f3a21734d5b61556e95855a933f60a6de2a436d3a82ce35b6701679",
    ("spinc4k", 1, 2, "P1", "normalized", "json"): "b332d872087dc2ce1d84de48b6c80cb603e138c5b86dddaa4f16240ccd081099",
    ("spinc4k", 1, 2, "P1", "normalized", "text"): "fae9b78777ac857655661311ee5511ff563f3bedd659f6604ee09c11c80a3e04",
    ("spinc4k", 1, 2, "P1", "standard", "json"): "e1f8555309ef8b653b734e1226ee13fee6e1a536869943a2a6a1b1d596362755",
    ("spinc4k", 1, 2, "P1", "standard", "text"): "72ac7ecc3a7ac844774da3cd284d72907e31b4aba8e1c0fdbed5fcf9522fa3bc",
    ("spinc4k", 1, 2, "P2", "normalized", "json"): "92fd4e46aa86fe322279e5b43e4d591d5a9d57fb89c55937d32186a4af72a14b",
    ("spinc4k", 1, 2, "P2", "normalized", "text"): "9d489f84a9f230c4414e1298a913b20bedbd3f5b09ae6bbfb8955dab82abcd77",
    ("spinc4k", 1, 2, "P2", "standard", "json"): "5f3d18ad2b860ea127e9a9817959f6076cd90d01ea7253416bdc41c101adbd8c",
    ("spinc4k", 1, 2, "P2", "standard", "text"): "7a9f31e69cc72d15ba829abdb528c8482fce9146eadfa8b3e2454ca04a7acb5f",
    ("spinc4k", 1, 2, "P3", "normalized", "json"): "0cd502bf3e4c0fb01ea53458111c482d88b388598e74edced784fcc3d213d2f0",
    ("spinc4k", 1, 2, "P3", "normalized", "text"): "4aa3d5e6501ae9452825c6a15a23ecff94f2b64b575367a1cdb7f7dd0541aea7",
    ("spinc4k", 1, 2, "P3", "standard", "json"): "ef2398bbf20d353fe392ecf6e19f33b9b2a842ee2576c29900c7c656798aef53",
    ("spinc4k", 1, 2, "P3", "standard", "text"): "b496101384b976f511e5ec276108de2a4325be498f87f20a98771abc36e147c4",
    ("spinc4k2", 1, 1, "P1", "normalized", "json"): "857db5f3c236b5dc6ed1cc8607280af8820e920ab8f53027f8802de437a2baf2",
    ("spinc4k2", 1, 1, "P1", "normalized", "text"): "2d6ec869182f4ccf212b9fcc5e26440b53edda0df68bdb32691dfb16b510a561",
    ("spinc4k2", 1, 1, "P1", "standard", "json"): "4be7b5b2d4852cb7dd982975a3eefbc66990f752eb894e98ec3c0db0bdb33cfe",
    ("spinc4k2", 1, 1, "P1", "standard", "text"): "e9de726d9d530697c4774e1a828c3ea3c3bc0d76e99214992ac2f163021d031c",
    ("spinc4k2", 1, 1, "P2", "normalized", "json"): "dc9d65efa35684466f57628d5bed0780bb00402be6549fbecd879d69484e0091",
    ("spinc4k2", 1, 1, "P2", "normalized", "text"): "404e4398819baa1160aa1878e68cf707e939ab4781c2cd7431ee97fe87c17cd0",
    ("spinc4k2", 1, 1, "P2", "standard", "json"): "a6d0c088e98cb33b08cf96640ccaaf226856afa3eb88068fb9eda63f635b9744",
    ("spinc4k2", 1, 1, "P2", "standard", "text"): "c7a11ea0abcc17f36fe3f9695f2dce1c9b6a161a61ed3c7ad7146ea7eab3ebf5",
    ("spinc4k2", 1, 1, "P3", "normalized", "json"): "31f2149d603a84185d910592f6e3202521b054fba13ac6492f3002a7b623a15e",
    ("spinc4k2", 1, 1, "P3", "normalized", "text"): "e069fbc449b30c306a271087b6a0fd08d7303b1f60d7c8a971156ec5ebb2bf20",
    ("spinc4k2", 1, 1, "P3", "standard", "json"): "a6a3a50139df4e172768237125c851808b3bca0ac78a47ae74cabb42faf0b5b4",
    ("spinc4k2", 1, 1, "P3", "standard", "text"): "fb2c24de75a754616d47ffbc0ecfd17f979bac6857523a2c6269ccafa954b14a",
}


@pytest.mark.parametrize("kind,k,l,which,basis,fmt", list(EXPAND_P_SHA256),
                         ids=["-".join(map(str, key)) for key in EXPAND_P_SHA256])
def test_expand_p_series_bytes_are_pinned(capsys, kind, k, l, which, basis, fmt):
    code, out, _ = run(capsys, "expand", "--object", which, "--setting", kind, "--k", str(k), "--l", str(l),
                       "--basis", basis, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_P_SHA256[(kind, k, l, which, basis, fmt)]


# (exit code, sha256 of stdout) of `decompose --setting KIND --k K --l L --which WHICH
# --format FORMAT`: the bytes recorded when P1 and P3 went through the polynomial view of
# the series, less the retired `integral_solve` entry
DECOMPOSE_SHA256 = {
    ("spin4k", 2, 2, "P1", "json"): (1, "6e5045d277904d1e123ce3f6caec686940e1f61d15febe50fa9bde5ba76fbcbf"),
    ("spin4k", 2, 2, "P1", "text"): (1, "941c16862276904c92401a3d5e21ec1ee1a9f7c7816df316addee088a10b87d7"),
    ("spin4k", 2, 2, "P2", "json"): (0, "6599bd5bd8e1c0e10112c20b36296e160701525358578e06f096dc18216b466b"),
    ("spin4k", 2, 2, "P2", "text"): (0, "2fb1da0e751181844d4fe597f4402a0d2e118eeaf1c878ff580a930a66422cee"),
    ("spin4k", 2, 2, "P3", "json"): (1, "ce5daf72e1be1dce98b7be328d17455a915e3bb594691aeefc6ca7da53d06e1d"),
    ("spin4k", 2, 2, "P3", "text"): (1, "74260ce8ebd9b95ae4afdc07b415790c6e44cf8a4cd23f17dd0e85a963b206f1"),
    ("spinc4k", 2, 3, "P1", "json"): (1, "913bfc32021da4c7d2ca7438fc0eb51469d2a713bb717c2f503a09b4c762714b"),
    ("spinc4k", 2, 3, "P1", "text"): (1, "f7ebe1a5f396870d096e1d9285056609f24c4833cdac455a40c4b09c50b38578"),
    ("spinc4k", 2, 3, "P2", "json"): (0, "990bece620c9738361b0652806fb66721791e8f1e81e0426065a94c71adf42ab"),
    ("spinc4k", 2, 3, "P2", "text"): (0, "a9edff8cc483bdd7e609a36b4bef8d012998f0b2b48cafbdc1ecd29e4d6e062f"),
    ("spinc4k", 2, 3, "P3", "json"): (1, "efbdefb2cfd484fe94cdcd4c605dbb3999b9c1b1913292674bd03cf874432417"),
    ("spinc4k", 2, 3, "P3", "text"): (1, "e1090b948cf047400740708b536f397ddfdf1657f89eff912afcad4802779870"),
    ("spinc4k2", 2, 1, "P1", "json"): (1, "1a1b0537ca7ea8dd3973e0585b3ed84624843abd42848c8321bebecc20a22771"),
    ("spinc4k2", 2, 1, "P1", "text"): (1, "61d8af8885dac03e731db40e04f9571011cd828c65c5b2814a54f904649b5c9e"),
    ("spinc4k2", 2, 1, "P2", "json"): (0, "02f2334235ff54211644b3450e2fd2ce679c37a732c1986763727cf5a6447c1a"),
    ("spinc4k2", 2, 1, "P2", "text"): (0, "ada081c5bd9f121c0938630cc58aa674fc0cbdcf353a6a0ed79ddfca8fc11302"),
    ("spinc4k2", 2, 1, "P3", "json"): (1, "622218b61618200bc1662ff1fbd7197441c91f2203123a77ec9ec6c7e7b5f69d"),
    ("spinc4k2", 2, 1, "P3", "text"): (1, "10ce7084b22b1c71366cf82b74752e5c1c8a605586ed70d8e78765e4778673dd"),
    ("spin4k", 5, 3, "P1", "json"): (1, "52843367d2d87c6945864fe888d8595f1ef299322e9473709798b7b9192726d3"),
    ("spin4k", 5, 3, "P1", "text"): (1, "27ec88df9ef971788650e52bd20cd1f13101cd12b69eaec820bceeffca47e98d"),
    ("spin4k", 5, 3, "P2", "json"): (0, "afb07b04944e621e1ddad2732be8ec2648894d327f9c8406e3b9ef307f3ca753"),
    ("spin4k", 5, 3, "P2", "text"): (0, "4384599bc5c70376546ba935d8458e86f7bd87b61ca3ba7e2c9240ac8feab52f"),
    ("spin4k", 5, 3, "P3", "json"): (1, "23d2535844a3fb7839beb7724f63af2339282945d104ea26d6495ff3c9f2d068"),
    ("spin4k", 5, 3, "P3", "text"): (1, "ab6a68f66b64d4ff7c8e3aea4051232e883d5c84715ce0ba7ee38a79f63778b6"),
}


@pytest.mark.parametrize("kind,k,l,which,fmt", sorted(DECOMPOSE_SHA256),
                         ids=["-".join(map(str, key)) for key in sorted(DECOMPOSE_SHA256)])
def test_decompose_bytes_are_pinned(capsys, kind, k, l, which, fmt):
    code, out, _ = run(capsys, "decompose", "--setting", kind, "--k", str(k), "--l", str(l),
                       "--which", which, "--format", fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DECOMPOSE_SHA256[(kind, k, l, which, fmt)]
