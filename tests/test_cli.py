import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import qclock as q
from qclock.cli import main

from conftest import checkout_env


CIRCUIT = """\
n_input 1
n_ancilla 0
accept 0
epsilon 0.25
gate H 0
"""

REJECT_CIRCUIT = """\
n_input 1
n_ancilla 1
accept 1
epsilon 0.25
gate X 0
"""


@pytest.fixture
def circuit_file(tmp_path):
    p = tmp_path / "c.qc"
    p.write_text(CIRCUIT)
    return str(p)


@pytest.fixture
def ham_file(tmp_path, circuit_file):
    out = tmp_path / "c.ham"
    assert main(["compile", circuit_file, "--out", str(out)]) == 0
    return str(out)


def test_compile_stdout_and_summary(circuit_file, capsys):
    assert main(["compile", circuit_file]) == 0
    cap = capsys.readouterr()
    assert cap.out.startswith("qubits 2\n")
    assert "term out" in cap.out
    assert "compiled 2 qubits" in cap.err
    # stdout parses back into the same Hamiltonian text
    h = q.parse_hamiltonian(cap.out)
    assert q.serialize_hamiltonian(h) == cap.out


def test_compile_out_file(tmp_path, circuit_file, capsys):
    out = tmp_path / "h.txt"
    assert main(["compile", circuit_file, "--out", str(out)]) == 0
    cap = capsys.readouterr()
    assert cap.out == ""
    text = out.read_text()
    assert text.startswith("qubits 2\n")


def test_compile_clock_penalty_flag(circuit_file, capsys):
    assert main(["compile", circuit_file, "--clock-penalty", "9"]) == 0
    # single-step circuit has no clock pair terms; penalty only gates input
    h = q.parse_hamiltonian(capsys.readouterr().out)
    assert h.part_counts()["clock"] == 0


def test_spectrum_report(ham_file, capsys):
    assert main(["spectrum", ham_file, "--k", "3"]) == 0
    cap = capsys.readouterr()
    lines = dict(line.split(" ", 1) for line in cap.out.strip().split("\n"))
    assert set(lines) == {"lambda_min", "spectrum", "method", "residual", "seed"}
    assert lines["method"] == "dense"
    assert abs(float(lines["lambda_min"])) < 1e-9  # perfect witness instance
    assert "lambda_min" in cap.err


def test_spectrum_sparse_alias(ham_file, capsys):
    assert main(["spectrum", ham_file, "--method", "sparse"]) == 0
    lines = dict(line.split(" ", 1)
                 for line in capsys.readouterr().out.strip().split("\n"))
    # 2-qubit instance: the iterative path falls back to dense honestly
    assert lines["method"] == "dense"


def test_witness_output_block(circuit_file, capsys):
    assert main(["witness", circuit_file]) == 0
    out = capsys.readouterr().out
    head, tail = out.split("accept_probability", 1)
    report = dict(line.split(" ", 1)
                  for line in ("accept_probability" + tail).strip().split("\n"))
    assert float(report["accept_probability"]) > 0.999
    assert report["flags"] == "-"
    assert report["k"] == "1"
    n, entries = q.read_matrix(head)
    assert n == 1
    assert abs(np.trace(entries) - 1.0) < 1e-12


def test_witness_gibbs_source(circuit_file, capsys):
    assert main(["witness", circuit_file, "--source", "gibbs:0.01"]) == 0
    out = capsys.readouterr().out
    assert "accept_probability" in out


@pytest.mark.parametrize("argv, message", [
    (["witness", "{c}", "--source", "gibbs:abc"], "bad gibbs source temperature 'abc'"),
    (["witness", "{c}", "--source", "gibbs:inf"], "gibbs source temperature inf must be finite"),
    (["witness", "{c}", "--source", "gibbs:nan"], "gibbs source temperature nan must be finite"),
    (["gibbs", "{h}", "--temp", "inf"], "temperature inf must be > 0 and finite"),
    (["gibbs", "{h}", "--temp", "0.1,nan"], "temperature nan must be > 0 and finite"),
], ids=["source-abc", "source-inf", "source-nan", "temp-inf", "temp-nan"])
def test_non_finite_temperatures_exit_2(argv, message, circuit_file, ham_file, capsys):
    argv = [a.format(c=circuit_file, h=ham_file) for a in argv]
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert message in cap.err
    assert cap.out == ""
    with pytest.raises(q.ValidationError):
        q.Temperature(float("inf"))


def test_witness_prints_the_projection_leak(tmp_path, capsys):
    # two H steps on one input: ||H1|| <= 1 + 3/2 * 2 = 4 and J = 2**12;
    # the leak goes to stderr only
    two_step = tmp_path / "two.qc"
    two_step.write_text(CIRCUIT + "gate H 0\n")
    assert main(["witness", str(two_step)]) == 0
    cap = capsys.readouterr()
    assert f"within {16 / (4096 - 8):.3e} below" in cap.err
    assert "leak" not in cap.out and "within" not in cap.out


# 9-qubit bench-size circuits: 3 inputs and L = 6 (perfect), 2 inputs, 1
# ancilla and L = 6 (all-reject: its accept ancilla is never touched). At
# k = 1 their H' has 56 dimensions; the identity across thread counts is
# measured at this size, not a general property (the ground-space mixture
# is basis-free only up to rounding)
NINE_QUBIT_CIRCUITS = {
    "perfect": ("n_input 3\nn_ancilla 0\naccept 2\nepsilon 0.25\n"
                "gate H 0\ngate CNOT 0 1\ngate T 1\ngate CZ 1 2\ngate S 2\ngate H 2\n"),
    "all-reject": ("n_input 2\nn_ancilla 1\naccept 2\nepsilon 0.25\n"
                   "gate H 0\ngate CNOT 0 1\ngate T 1\ngate S 0\ngate H 1\ngate CZ 0 1\n"),
}


@pytest.mark.parametrize("name", sorted(NINE_QUBIT_CIRCUITS))
def test_witness_stdout_independent_of_blas_threads(name, tmp_path):
    circuit = tmp_path / "c.qc"
    circuit.write_text(NINE_QUBIT_CIRCUITS[name])
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "qclock.cli", "witness", str(circuit), "--seed", "3"],
            capture_output=True, cwd=tmp_path, env=checkout_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    report = dict(line.split(" ", 1) for line in outs[0].decode().splitlines()
                  if line.split(" ", 1)[0] in ("accept_probability", "flags"))
    acc = float(report["accept_probability"])
    if name == "perfect":
        assert abs(acc - 1.0) <= 1e-12
    else:
        assert acc <= 1e-12 and "no-witness-regime" in report["flags"]


def test_witness_bad_source(circuit_file, capsys):
    assert main(["witness", circuit_file, "--source", "what"]) == 2
    assert "unknown source" in capsys.readouterr().err


def test_witness_hot_source_fails_consistency(circuit_file, capsys):
    # maximally mixed input from a very hot Gibbs source misses the energy
    # target for a witness-regime circuit
    code = main(["witness", circuit_file, "--source", "gibbs:50"])
    assert code == 5
    assert "consistency" in capsys.readouterr().err


def test_witness_rejects_non_finite_target_energy(circuit_file, capsys):
    # a nan target would switch the energy-target check off: this hot
    # source exits 5 without the flag, and must not pass with it
    code = main(["witness", circuit_file, "--source", "gibbs:50",
                 "--target-energy", "nan"])
    cap = capsys.readouterr()
    assert code == 2
    assert "target energy nan must be finite" in cap.err
    assert cap.out == ""


@pytest.mark.parametrize("flags, message", [
    (["--temp", "0.1", "--decide", "nan"], "--decide energy nan must be finite"),
    (["--auto-qma", "0.25", "nan", "2"], "--auto-qma L nan must be finite"),
    (["--auto-qma", "0.25", "inf", "2"], "--auto-qma L inf must be finite"),
    (["--auto-qma", "0.25", "1.9", "2"], "--auto-qma L 1.9 must be a whole number"),
], ids=["decide-nan", "auto-qma-L-nan", "auto-qma-L-inf", "auto-qma-L-fraction"])
def test_gibbs_rejects_non_finite_or_fractional_numbers(ham_file, capsys,
                                                        flags, message):
    code = main(["gibbs", ham_file, *flags])
    cap = capsys.readouterr()
    assert code == 2
    assert message in cap.err
    assert cap.out == ""


def test_amplify_table(capsys):
    assert main(["amplify", "--k", "16,81", "--eps", "0.25,0.1"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == ("k,epsilon,l,exact_reject,kl_bound,sqrt_k_bound,"
                       "mc_estimate,mc_stderr,seed")
    assert len(rows) == 5  # header + 2x2 grid
    first = rows[1].split(",")
    assert first[0] == "16" and first[2] == "4"
    assert first[6] == "nan" and first[7] == "nan"


def test_amplify_mc_columns(capsys):
    assert main(["amplify", "--k", "16", "--eps", "0.25", "--mc", "2000",
                 "--seed", "3"]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    est, err = float(row[6]), float(row[7])
    assert 0.0 <= est <= 1.0 and err >= 0.0
    assert row[8] == "3"


def test_amplify_sweep_grammar(capsys):
    assert main(["amplify", "--sweep", "k=16,81;eps=0.25"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 3
    assert main(["amplify", "--sweep", "k=16"]) == 2
    assert main(["amplify"]) == 2  # nothing to tabulate


def test_gibbs_table(ham_file, capsys):
    assert main(["gibbs", ham_file, "--temp", "0.01,0.1"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "T,mean_energy,bound_rhs,Z,lambda_min,e_max,verdict"
    assert len(rows) == 3
    assert rows[1].endswith(",-")  # no decision requested
    assert rows[1].split(",")[2] == "nan"


def test_gibbs_auto_qma_decides(ham_file, capsys):
    assert main(["gibbs", ham_file, "--auto-qma", "0.25", "1", "2",
                 "--decide"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 2
    assert rows[1].endswith("witness-exists")


def test_gibbs_rejects_zero_temperature(ham_file, capsys):
    for temps in ("0", "0.1,-1"):
        assert main(["gibbs", ham_file, "--temp", temps]) == 2
        cap = capsys.readouterr()
        assert "must be > 0" in cap.err
        assert cap.out == ""


def test_gibbs_temperature_list_matches_single_runs(ham_file, capsys):
    # one factorisation serves the whole list; each row is byte for byte
    # the row of a run at that temperature alone
    temps = ["0.003", "0.07", "1.5"]
    assert main(["gibbs", ham_file, "--temp", ",".join(temps),
                 "--decide", "0.2"]) == 0
    header, *rows = capsys.readouterr().out.strip().split("\n")
    singles = []
    for t in temps:
        assert main(["gibbs", ham_file, "--temp", t, "--decide", "0.2"]) == 0
        single_header, row = capsys.readouterr().out.strip().split("\n")
        assert single_header == header
        singles.append(row)
    assert rows == singles


def test_gibbs_needs_some_temperature(ham_file, capsys):
    assert main(["gibbs", ham_file]) == 2
    assert main(["gibbs", ham_file, "--decide"]) == 2


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text("n_input 1\naccept 0\ngate NOPE 0\n")
    assert main(["compile", str(bad)]) == 2
    assert "line" in capsys.readouterr().err
    # a non-finite clock penalty is rejected before any term carries it
    two_step = tmp_path / "two.qc"
    two_step.write_text(CIRCUIT + "gate H 0\n")
    assert main(["compile", str(two_step), "--clock-penalty", "inf"]) == 2
    assert "clock penalty inf must be positive and finite" in capsys.readouterr().err


def test_exit_code_term_count_past_file(tmp_path, capsys):
    # a 30-qubit term announces 4^30 entry lines; the count is checked
    # against the file before anything that size is allocated
    bad = tmp_path / "bad.ham"
    bad.write_text("qubits 30\nlayout 30 0 0\nterm in 1.0 30 "
                   + " ".join(str(q) for q in range(30)) + "\n1 0\n")
    assert main(["spectrum", str(bad)]) == 2
    assert "entry lines" in capsys.readouterr().err


def test_exit_code_term_support_outside_register(tmp_path, capsys):
    # the error names the term's own line, not the header's
    entries = "1 0\n0 0\n0 0\n0 0\n"
    for qubit in ("5", "-1"):
        bad = tmp_path / "bad.ham"
        bad.write_text("qubits 1\nlayout 1 0 0\n\n# comment\n"
                       f"term in 1.0 1 {qubit}\n" + entries)
        assert main(["spectrum", str(bad)]) == 2
        assert (f"line 5: term support ({qubit},) outside register of 1"
                in capsys.readouterr().err)
    # so does a non-finite weight or matrix entry, before any solver sees it
    for term, want in (("term in inf 1 0\n" + entries,
                        "line 5: term weight inf must be positive and finite"),
                       ("term in 1.0 1 0\nnan 0\n0 0\n0 0\n0 0\n",
                        "line 5: term matrix has a non-finite entry")):
        bad = tmp_path / "bad.ham"
        bad.write_text("qubits 1\nlayout 1 0 0\n\n# comment\n" + term)
        for argv in (["spectrum", str(bad)], ["gibbs", str(bad), "--temp", "1"]):
            assert main(argv) == 2
            assert want in capsys.readouterr().err


def test_exit_code_negative_layout(tmp_path, capsys):
    bad = tmp_path / "bad.ham"
    bad.write_text("qubits 0\nlayout -1 0 0\n")
    assert main(["spectrum", str(bad)]) == 2
    assert "line 2: RegisterLayout: negative register size" in capsys.readouterr().err


@pytest.mark.parametrize("layout", ["0 0 0", "-1 0 0"])
def test_exit_code_negative_header(layout, tmp_path, capsys):
    # the header is read by the same parser as state and matrix files
    bad = tmp_path / "bad.ham"
    bad.write_text(f"qubits -1\nlayout {layout}\n")
    assert main(["spectrum", str(bad)]) == 2
    assert "line 1: negative qubit count -1" in capsys.readouterr().err


def test_exit_code_missing_file(capsys):
    assert main(["compile", "/nonexistent/file.qc"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_exit_code_resource_limit(tmp_path, capsys):
    big = tmp_path / "big.qc"
    big.write_text("n_input 12\nn_ancilla 4\naccept 0\ngate H 0\n")
    assert main(["compile", str(big)]) == 3
    assert "resource" in capsys.readouterr().err


def test_exit_code_convergence(ham_file, capsys):
    # an impossible residual target forces the convergence failure path
    code = main(["spectrum", ham_file, "--tolerance", "residual=1e-30"])
    assert code == 4
    assert "convergence" in capsys.readouterr().err


def test_exit_code_dense_eigensolver_failure(monkeypatch, circuit_file,
                                             ham_file, capsys):
    # a LAPACK failure in a dense factorisation is a typed convergence
    # failure (exit 4), not a traceback
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    for argv in (["gibbs", ham_file, "--temp", "0.1"],
                 ["gibbs", ham_file, "--auto-qma", "0.25", "1", "2"],
                 ["spectrum", ham_file],
                 ["witness", circuit_file]):
        assert main(argv) == 4
        assert "convergence failure: dense eigensolver failed" in capsys.readouterr().err
    with pytest.raises(q.ConvergenceError, match="dense eigensolver failed"):
        q.optimal_witness(q.parse_circuit(CIRCUIT))


def test_zheevd_nonconvergence_instance(tmp_path):
    # On this 9-qubit clock Hamiltonian, np.linalg.eigh (LAPACK zheevd)
    # raises "Eigenvalues did not converge" at one BLAS thread; at two
    # threads it converges, so this test needs the one-thread setting.
    circuit = tmp_path / "c.qc"
    circuit.write_text(
        "n_input 2\nn_ancilla 1\naccept 2\nepsilon 0.25\n"
        "gate CNOT 1 0\ngate CZ 1 0\ngate Z 1\ngate S 1\ngate CZ 0 1\n"
        "gate I 1\n")
    ham = tmp_path / "c.ham"
    env = checkout_env(OPENBLAS_NUM_THREADS="1")
    for args in (["compile", str(circuit), "--out", str(ham)],
                 ["gibbs", str(ham), "--temp", "0.01,0.02"],
                 ["witness", str(circuit)]):
        proc = subprocess.run([sys.executable, "-m", "qclock.cli", *args],
                              capture_output=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr.decode()


def test_unknown_tolerance_name(ham_file, capsys):
    assert main(["spectrum", ham_file, "--tolerance", "wat=1"]) == 2
    assert "unknown tolerance" in capsys.readouterr().err


def test_seed_changes_mc_output(capsys):
    assert main(["amplify", "--k", "81", "--eps", "0.25", "--mc", "400",
                 "--seed", "1"]) == 0
    out1 = capsys.readouterr().out
    assert main(["amplify", "--k", "81", "--eps", "0.25", "--mc", "400",
                 "--seed", "1"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_global_flags_accepted_before_subcommand(circuit_file, capsys):
    assert main(["--seed", "2", "compile", circuit_file]) == 0
    capsys.readouterr()
