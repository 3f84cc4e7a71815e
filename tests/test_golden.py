"""Golden outputs: a fixed argv set must write the same files through a refactor.

tests/golden/cases.json is written by scripts/gen_golden.py from a trusted
tree, never from the code under test.  Each output passes if its sha256
matches.  Otherwise it passes on a tolerance check, with a UserWarning naming
the file: every CSV fingerprint value within 1e-13 of its column's max |v|
(each column sum within n_rows times that), and in a JSON output every
non-number equal and every number within 1e-13 of the largest |number| under
the same top-level key.
"""

import importlib.util
import json
import math
import warnings
from numbers import Number
from pathlib import Path

import pytest

from ginzburg.cli import run

ROOT = Path(__file__).resolve().parents[1]
REL_TOL = 1e-13

_spec = importlib.util.spec_from_file_location("gen_golden",
                                               ROOT / "scripts" / "gen_golden.py")
gen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_golden)

CASES = json.loads((ROOT / "tests" / "golden" / "cases.json")
                   .read_text(encoding="utf-8"))["cases"]


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol or (math.isnan(a) and math.isnan(b))


def csv_problems(expected: dict, actual: dict) -> list:
    if (expected["n_rows"], expected["rows"]) != (actual["n_rows"], actual["rows"]):
        return [f"{actual['n_rows']} rows, golden {expected['n_rows']}"]
    if list(expected["columns"]) != list(actual["columns"]):
        return [f"columns {list(actual['columns'])}, golden {list(expected['columns'])}"]
    problems = []
    for name, exp in expected["columns"].items():
        act = actual["columns"][name]
        tol = REL_TOL * exp["max_abs"]
        pairs = [("max_abs", exp["max_abs"], act["max_abs"], tol),
                 ("sum", exp["sum"], act["sum"], expected["n_rows"] * tol)]
        pairs += [(f"row {r}", e, a, tol)
                  for r, e, a in zip(expected["rows"], exp["values"], act["values"])]
        problems += [f"{name} {what}: {a!r}, golden {e!r}"
                     for what, e, a, t in pairs if not _close(e, a, t)]
    return problems


def _is_number(x) -> bool:
    return isinstance(x, Number) and not isinstance(x, bool)


def _max_abs_number(value) -> float:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return max(map(_max_abs_number, value), default=0.0)
    return abs(value) if _is_number(value) and math.isfinite(value) else 0.0


def json_problems(expected, actual, tol, where="") -> list:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return [f"{where}: keys {sorted(actual)}, golden {sorted(expected)}"]
        return [p for k in expected
                for p in json_problems(expected[k], actual[k], tol, f"{where}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)}, golden {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in json_problems(e, a, tol, f"{where}/{i}")]
    if _is_number(expected) and _is_number(actual):
        ok = _close(expected, actual, tol)
    else:
        ok = expected == actual
    return [] if ok else [f"{where}: {actual!r}, golden {expected!r}"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_outputs(tmp_path, capsys, case):
    for name, config in case["inputs"].items():
        (tmp_path / name).write_text(json.dumps(config), encoding="utf-8")
    assert run([a.replace("{d}", str(tmp_path)) for a in case["argv"]]) == 0, \
        capsys.readouterr().err
    written = gen_golden.output_files(tmp_path, case["inputs"])
    assert [p.name for p in written] == sorted(case["outputs"])

    for path in written:
        expected = case["outputs"][path.name]
        if gen_golden.sha256(path) == expected["sha256"]:
            continue
        actual = gen_golden.fingerprint(path)
        if "csv" in expected:
            problems = csv_problems(expected["csv"], actual["csv"])
        else:
            exp, act = expected["json"], actual["json"]
            problems = json_problems(sorted(exp), sorted(act), 0.0, "top-level keys")
            if not problems:
                problems = [p for key in exp for p in json_problems(
                    exp[key], act[key], REL_TOL * _max_abs_number(exp[key]), key)]
        assert not problems, f"{case['name']}/{path.name}:\n" + "\n".join(problems[:20])
        warnings.warn(f"{case['name']}/{path.name}: sha256 differs from the golden "
                      f"file; values agree within {REL_TOL:g}", UserWarning)
