"""Guard for cold passes: every module-level memo in the package is named ``*_cache``.

A cold pass (as the benchmark times it) empties every module-level dict whose
name ends in ``_cache`` before each operation; a memo under any other name
would silently carry work from one operation into the next.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import anomcancel

_PROBE = """
import json, sys
from anomcancel import anomaly, suite

def sizes():
    return {f"{mod}.{name}": len(value)
            for mod, module in list(sys.modules.items()) if mod.startswith("anomcancel.")
            for name, value in vars(module).items()
            if isinstance(value, dict) and not name.startswith("__")}

before = sizes()
anomaly.verify_theorem("4.6", k=1, l=2)
case = next(c for c in suite.suite_cases() if c.case_id == "crosscheck spinc4k k=1 l=2")
assert suite.run_case(case)["ok"]
after = sizes()
print(json.dumps(sorted(name for name, n in after.items() if n > before.get(name, 0))))
"""


def test_only_cache_named_module_dicts_grow():
    src = str(Path(anomcancel.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    grew = json.loads(out)
    assert "anomcancel.anomaly._env_cache" in grew
    assert "anomcancel.anomaly._tangent_cache" in grew
    assert "anomcancel.theta._log_cache" in grew
    assert "anomcancel.theta._table_cache" in grew
    assert "anomcancel.genus._power_sums_cache" in grew
    assert "anomcancel.modforms._gen_cache" in grew
    assert "anomcancel.modforms._basis_cache" in grew
    assert [name for name in grew if not name.endswith("_cache")] == []
