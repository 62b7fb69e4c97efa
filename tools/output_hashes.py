"""Print the sha256 of the outputs a refactor must leave byte-identical.

Run it with the package to hash on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/output_hashes.py

It prints one JSON object: the sha256 of ``anomcancel suite --format json``
at ``--parallel 1`` and ``--parallel 2``, and, for each basis, the sha256 of
the concatenated ``verify --format json`` output of every operation that
``benchmarks/workloads.all_verify_operations()`` lists, in that order.
``"expand theta layer"`` hashes ``expand --format json`` of every object but
``P1``/``P2``/``P3``/``basis`` (the level-2 generators, the theta nulls and
the per-root factors) at ``--order`` 1, 2, 5 and 12, the factors at
``--weight`` 6 and 11: 72 outputs, by object, then order, then weight.
``"expand series"`` hashes the series views of the P-series and the basis
rows, 52 outputs in this order: ``expand --object P1|P2|P3 --setting
spin4k|spinc4k|spinc4k2 --k 1|2 --l 1 --basis normalized|standard``, by
object, then setting, then k, then basis; then ``expand --object basis
--group upper|lower --k 1..4 --r 0..k//2 --order 10``, by group, then k,
then r.  ``"decompose"`` hashes ``decompose --setting
spin4k|spinc4k|spinc4k2 --k 1|2|3 --l 1|2 --which P1|P2|P3 --format json``,
54 outputs, by setting, then k, then l, then which; exit code 1 (a nonzero
residual) is a result there, not an error.  Two checkouts produce the same
hashes exactly when those outputs agree.  Each
hashed output must also equal ``json.dumps(json.loads(out), indent=2)`` plus a
newline, so the package's JSON writer is checked against the standard
library on every output hashed; a difference exits nonzero.  The last entry,
``"src lines"``, is the line count of the hashed package's modules
(``anomcancel/*.py``), as ``wc -l`` counts it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402

import anomcancel  # noqa: E402
from anomcancel.cli import EXPAND_OBJECTS, main  # noqa: E402


def _stdout_of(argv: list[str], codes: tuple[int, ...] = (0,)) -> bytes:
    """The stdout of one ``--format json`` command that exits with one of ``codes``, checked against
    ``json.dumps(..., indent=2)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code not in codes:
        raise SystemExit(f"anomcancel {' '.join(argv)} exited {code}")
    text = out.getvalue()
    if text != json.dumps(json.loads(text), indent=2) + "\n":
        raise SystemExit(f"anomcancel {' '.join(argv)}: output differs from json.dumps(indent=2)")
    return text.encode()


def _verify_argv(op: tuple, basis: str) -> list[str]:
    theorem, k, l, n_q = op
    argv = ["verify", "--theorem", theorem, "--k", str(k), "--l", str(l),
            "--basis", basis, "--format", "json"]
    return argv if n_q is None else argv + ["--qorder", str(n_q)]


def output_hashes() -> dict[str, str | int]:
    hashes = {f"suite --parallel {p}": hashlib.sha256(
        _stdout_of(["suite", "--format", "json", "--parallel", str(p)])).hexdigest() for p in (1, 2)}
    ops = workloads.all_verify_operations()
    for basis in ("standard", "normalized"):
        digest = hashlib.sha256()
        for op in ops:
            digest.update(_stdout_of(_verify_argv(op, basis)))
        hashes[f"verify {len(ops)} operations --basis {basis}"] = digest.hexdigest()
    digest = hashlib.sha256()
    for obj in EXPAND_OBJECTS:
        if obj in ("P1", "P2", "P3", "basis"):
            continue
        for order in (1, 2, 5, 12):
            for weight in (6, 11) if obj.startswith("factor-") else (None,):
                argv = ["expand", "--object", obj, "--order", str(order), "--format", "json"]
                digest.update(_stdout_of(argv if weight is None else argv + ["--weight", str(weight)]))
    hashes["expand theta layer"] = digest.hexdigest()
    digest = hashlib.sha256()
    for obj in ("P1", "P2", "P3"):
        for setting in ("spin4k", "spinc4k", "spinc4k2"):
            for k in (1, 2):
                for basis in ("normalized", "standard"):
                    digest.update(_stdout_of(["expand", "--object", obj, "--setting", setting, "--k", str(k),
                                              "--l", "1", "--basis", basis, "--format", "json"]))
    for group in ("upper", "lower"):
        for k in range(1, 5):
            for r in range(k // 2 + 1):
                digest.update(_stdout_of(["expand", "--object", "basis", "--group", group, "--k", str(k),
                                          "--r", str(r), "--order", "10", "--format", "json"]))
    hashes["expand series"] = digest.hexdigest()
    digest = hashlib.sha256()
    for setting in ("spin4k", "spinc4k", "spinc4k2"):
        for k in (1, 2, 3):
            for l in (1, 2):
                for which in ("P1", "P2", "P3"):
                    digest.update(_stdout_of(["decompose", "--setting", setting, "--k", str(k), "--l", str(l),
                                              "--which", which, "--format", "json"], codes=(0, 1)))
    hashes["decompose"] = digest.hexdigest()
    modules = Path(anomcancel.__file__).parent.glob("*.py")
    hashes["src lines"] = sum(p.read_bytes().count(b"\n") for p in modules)
    return hashes


if __name__ == "__main__":
    print(json.dumps(output_hashes(), indent=2))
