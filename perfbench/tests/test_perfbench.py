"""Tests of the benchmark itself, at a tiny size.

Run from the root of the checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's input schedule to a few small cases."""
    monkeypatch.setattr(inputs, "FAMILY_KS", (4, 5))
    monkeypatch.setattr(inputs, "CERTIFY_GLUED_KS", (2, 3))
    monkeypatch.setattr(inputs, "CERTIFY_RNC_NS", (6,))
    monkeypatch.setattr(inputs, "CERTIFY_RNC_DROPPED_NS", (6,))
    monkeypatch.setattr(inputs, "LATTICE_SHAPES", ((3, 6), (4, 8)))


def bench(capsys, workload, trace=0, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_is_correct_and_complete(tiny, capsys, workload):
    record, result = bench(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["failed_share"] == 0.0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
    assert record["environment"]["python"] and record["environment"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(tiny, capsys, workload):
    record, result = bench(capsys, workload, trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_traced_run_separates_the_layers(tiny, capsys):
    _, lattice = bench(capsys, "lattice", trace=1)
    m = {k: v["value"] for k, v in lattice["metrics"].items()}
    assert m["exact_linalg.normal_form.self_s"] > 0
    assert m["oracle.enumerate.calls"] == 0 and m["sums.sum_shared.calls"] == 0
    _, family = bench(capsys, "family-sum", trace=1)
    m = {k: v["value"] for k, v in family["metrics"].items()}
    assert m["sums.sum_shared.calls"] > 0 and m["oracle.rewrite.calls"] == 0
    assert m["sums.usage_check.incl_s"] > 0


def test_tracer_restores_the_program():
    import toricsum
    import toricsum.parametrization
    import tracing

    original = toricsum.parametrization.rank
    with tracing.Tracer():
        assert toricsum.parametrization.rank is not original
        assert toricsum.rank is toricsum.parametrization.rank
    assert toricsum.parametrization.rank is original and toricsum.rank is original


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name) and len(name) <= 64, name


def test_same_seed_same_inputs_and_checksum(tiny, capsys):
    for make in inputs.CASES.values():
        assert [c.text for c in make(5)] == [c.text for c in make(5)]
        assert [c.text for c in make(5)] != [c.text for c in make(6)]
    first, _ = bench(capsys, "certify", seed=5)
    second, _ = bench(capsys, "certify", seed=5)
    assert first["checksum"] == second["checksum"]


def _tamper_sum_family(monkeypatch):
    import toricsum
    from toricsum import IntegerMatrix, Parametrization

    real = toricsum.sum_family

    def wrong(ps, names):
        p, report = real(ps, names)
        rows = [list(r) for r in p.matrix.entries]
        rows[0][0] += 1
        return Parametrization(p.params, p.vars, IntegerMatrix.from_rows(rows)), report

    monkeypatch.setattr(toricsum, "sum_family", wrong)


def _tamper_cli(monkeypatch):
    import toricsum.cli

    real = toricsum.cli.main

    def wrong(argv):
        real(argv)
        print("verdict: equal-up-to-degree (degree 4)")
        return 0

    monkeypatch.setattr(toricsum.cli, "main", wrong)


def _tamper_hnf(monkeypatch):
    import toricsum
    from toricsum import IntegerMatrix

    real = toricsum.hermite_normal_form

    def wrong(m):
        h, u = real(m)
        rows = [list(r) for r in u.entries]
        rows[0] = [2 * x for x in rows[0]]
        return h, IntegerMatrix.from_rows(rows)

    monkeypatch.setattr(toricsum, "hermite_normal_form", wrong)


@pytest.mark.parametrize("workload, tamper", [
    ("family-sum", _tamper_sum_family),
    ("certify", _tamper_cli),
    ("lattice", _tamper_hnf),
])
def test_tampered_answers_are_counted_as_failed(tiny, capsys, monkeypatch, workload, tamper):
    tamper(monkeypatch)
    record, result = bench(capsys, workload)
    assert result["failed"] > 0 and not result["correct"]
    assert record["failed_share"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1
    assert record["problems"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_checks_agree_with_hand_computations():
    assert checks.rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    assert checks.reduced_echelon([[2, 4], [1, 3]]) == checks.reduced_echelon([[1, 0], [0, 1]])
    assert checks.kernel_basis([[1, 1, 1]], 3) == [[-1, 1, 0], [-1, 0, 1]]
    assert checks.determinant([[2, 1], [7, 4]]) == 1
    assert checks.has_grading([[3, 2, 1, 0], [0, 1, 2, 3]])
    assert not checks.has_grading([[1, 2]])
    assert checks.parse_monomial("a*b^2", ["a", "b"]) == [1, 2]


def test_rnc_minors_generate_the_curve():
    from toricsum import VariableSet, parse_binomial
    from toricsum.parametrization import Parametrization, contains_binomial
    from toricsum.exact_linalg import IntegerMatrix

    names = [f"y{i}" for i in range(5)]
    p = Parametrization(VariableSet.of("s", "t"), VariableSet(tuple(names)),
                        IntegerMatrix.from_rows(inputs.rnc_rows(4)))
    gens = inputs.rnc_minors(names)
    assert len(gens) == 6
    assert all(contains_binomial(p, parse_binomial(g, p.vars)) for g in gens)
