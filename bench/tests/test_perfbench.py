"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout_package()

import instances  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import qclock  # noqa: E402
import qclock.cli  # noqa: E402

TINY_CLOCK = {True: (2, 3), False: (1, 3)}
TINY_CLI = {True: (2, 2), False: (1, 2)}


@pytest.mark.parametrize("family, draw", [
    ("clock", workloads._circuit_draw(TINY_CLOCK)),
    ("local", lambda rng, i: instances.local_hamiltonian(rng, 5, 6)),
])
def test_generators_repeat_per_seed_and_differ_across_seeds(family, draw):
    def key(spec):
        return spec.to_text() if family == "clock" else instances._local_key(spec)

    def batch(seed):
        d = instances.Distinct(seed, family, draw)
        return [key(d(i)) for i in range(6)]

    first = batch(1)
    assert first == batch(1)
    assert len(set(first)) == len(first)
    assert all(a != b for a, b in zip(first, batch(2)))


def test_instance_families_have_the_promised_acceptance():
    d = instances.Distinct(3, "clock", workloads._circuit_draw(TINY_CLOCK))
    for i in range(6):
        spec = d(i)
        best = qclock.optimal_witness(qclock.parse_circuit(spec.to_text())).probability
        assert best == pytest.approx(1.0 if spec.perfect else 0.0, abs=1e-12)


def test_legal_reference_matches_dense_solve_at_low_penalty():
    spec = instances.all_reject_circuit(instances.stream(0, 0, "t"), 1, 3)
    c = qclock.parse_circuit(spec.to_text())
    penalty = 1e4
    h = qclock.compile_circuit(c, clock_penalty=penalty)
    lam = qclock.min_eigenvalue(h, method="dense").min_eigenvalue
    lam_legal = oracle.legal_spectrum(spec)[0]
    h1 = spec.n_ancilla + 1 + 1.5 * spec.length
    assert lam_legal - h1 ** 2 / (penalty - 2 * h1) - 1e-9 <= lam <= lam_legal + 1e-9


def _run_ops(workload, count, corrupt=None):
    done = []
    for i in range(count):
        inst = workload.prepare(i)
        out = workload.run(inst)
        if corrupt is not None:
            out = corrupt(i, out)
        done.append((i, inst, out, 0.1, False, None))
    return done


def test_corrupted_results_count_in_fail_frac(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "CLOCK_INPUTS", TINY_CLOCK)
    w = workloads.ClockSolve(5, tmp_path)

    def corrupt(i, rep):
        budget = oracle.ClockBudget(w.draw(i))
        shift = {1: 1e-3, 2: 2 * budget.threshold, 4: 1.5 * budget.accuracy}.get(i, 0.0)
        spectrum = tuple(v + shift for v in rep.spectrum)
        return rep._replace(min_eigenvalue=spectrum[0], spectrum=spectrum)

    records = run.check_all(w, _run_ops(w, 5, corrupt))
    fails = {r[0]: " ".join(r[3]) for r in records}
    assert fails[0] == "" and fails[3] == ""
    assert "vs legal" in fails[1]
    assert "wrong verdict" in fails[2]          # op 2 is perfect, pushed above threshold
    assert "of the gap" in fails[4] and "wrong verdict" not in fails[4]
    metrics, extra, _ = run.end_to_end(w, records, [0.5], 1024)
    assert extra["fail_frac"][0] == 0.6
    assert metrics["ops_per_s"][0] == pytest.approx(2 / 0.5)
    assert "FAIL clock_solve op 2 [n_input 2;" in capsys.readouterr().err


def test_local_check_rejects_a_wrong_eigenvalue(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "LOCAL_QUBITS", 5)
    monkeypatch.setattr(workloads, "LOCAL_TERMS", 6)
    w = workloads.LocalSolve(2, tmp_path)
    inst = w.prepare(0)
    rep = w.run(inst)
    assert w.check(inst, rep) == []
    spectrum = tuple(v + 1e-6 for v in rep.spectrum)
    bad = w.check(inst, rep._replace(min_eigenvalue=spectrum[0], spectrum=spectrum))
    assert any("vs reference" in f for f in bad)


def test_tracing_leaves_cli_stdout_byte_identical(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CLI_INPUTS", TINY_CLI)
    w = workloads.CliPipeline(4, tmp_path)
    for i in range(2):
        inst = w.prepare(i)
        plain = w.run(inst)
        tracer = spans.Tracer()
        with spans.instrumented(tracer):
            traced = w.run(inst)
        for name in w.COMMANDS:
            assert plain[name][0] == 0, plain[name][2]
            assert plain[name][1] == traced[name][1], name
        assert w.check(inst, plain) == []
        calls = tracer.summary(1)
        assert calls["cli.cmd_gibbs.calls"][0] == 2
        assert calls["qcore.DensityMatrix.calls"][0] > 0
    assert qclock.cli.cmd_compile.__module__ == "qclock.cli"
    assert "__wrapped__" not in vars(qclock.DensityMatrix.__post_init__)
    assert qclock.spectral.assemble is qclock.thermal.assemble


def test_one_command_prints_every_metric_with_its_unit(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "CLI_INPUTS", TINY_CLI)
    assert run.main(["--workload", "cli_pipeline", "--seed", "3",
                     "--seconds", "1", "--trace", "1"]) == 0
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    printed = {}
    for line in err.splitlines():
        parts = line.split()
        if parts[0] == "cli_pipeline":
            printed[parts[1]] = parts[3]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    want["fail_frac"] = "ratio"
    want.update({f"cli_{c}_s": "s" for c in workloads.CliPipeline.COMMANDS})
    assert {k: printed.get(k) for k in want} == want
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert "cli_pipeline op_tail_s " in err
    assert "(median of 7)" in err and "same-instance pairs" in err


def test_tail_is_the_highest_point_with_ten_samples_above():
    assert run.tail(range(30)) == (19, 100 * 19 / 29, 30)
    assert run.tail(range(21)) == (10, 50.0, 21)
    assert run.tail(range(20)) is None


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "clock_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
