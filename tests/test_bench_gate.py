"""The benchmark regression gate: ratio metrics with tolerance, work
counters exactly."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def run(gate, tmp_path, current, baseline):
    (tmp_path / "current.json").write_text(json.dumps(current))
    (tmp_path / "baseline.json").write_text(json.dumps(baseline))
    return gate([str(tmp_path / "current.json"), str(tmp_path / "baseline.json")])


BASELINE = {"speedup_x": 4.0, "counters": {"n_plans_sdss": 3, "n_plans_olap": 171}}


def test_equal_counters_pass(gate, tmp_path):
    current = {"speedup_x": 2.5, "n_plans_sdss": 3, "n_plans_olap": 171}
    assert run(gate, tmp_path, current, BASELINE) == 0


@pytest.mark.parametrize("moved", [{"n_plans_sdss": 4}, {"n_plans_sdss": 2}, {"n_plans_sdss": None}])
def test_a_counter_off_its_baseline_fails_even_within_the_ratio_tolerance(gate, tmp_path, moved):
    current = {"speedup_x": 4.0, "n_plans_sdss": 3, "n_plans_olap": 171, **moved}
    if moved["n_plans_sdss"] is None:
        del current["n_plans_sdss"]
    assert run(gate, tmp_path, current, BASELINE) == 1


def test_ratio_tolerance_still_applies(gate, tmp_path):
    current = {"speedup_x": 1.9, "n_plans_sdss": 3, "n_plans_olap": 171}
    assert run(gate, tmp_path, current, BASELINE) == 1
