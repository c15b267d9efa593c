import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg

import qclock as q
from qclock import spectral
from qclock.cli import main

from conftest import (
    all_reject_circuit, checkout_env, marginal_circuit, random_povm_hamiltonian, rng_for,
)


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
    # iterative is the one spelling; sparse is an argparse usage error
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", ham_file, "--method", "sparse"])
    assert exc.value.code == 2
    assert "invalid choice: 'sparse'" in capsys.readouterr().err
    assert main(["spectrum", ham_file, "--method", "iterative"]) == 0
    lines = dict(line.split(" ", 1)
                 for line in capsys.readouterr().out.strip().split("\n"))
    # 2-qubit instance: the iterative path falls back to dense honestly
    assert lines["method"] == "dense"


def test_spectrum_iterative_exits_4_when_lanczos_spends_its_budget(tmp_path, monkeypatch,
                                                                   capsys):
    # an 11-qubit clock layout at the default L**12 penalty: no Ritz pair
    # reaches the absolute residual target, so the budget runs out
    monkeypatch.setattr(spectral, "_LANCZOS_MATVECS", 60)
    ham = tmp_path / "c11.ham"
    circuit = all_reject_circuit(rng_for("cli-lanczos-budget"), 2, 8)
    ham.write_text(q.serialize_hamiltonian(q.compile_circuit(circuit)))
    assert main(["spectrum", str(ham), "--method", "iterative"]) == 4
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "convergence failure: Lanczos did not converge within 60 matvecs" in cap.err


def test_spectrum_exits_3_when_k_passes_the_lanczos_budget(tmp_path, monkeypatch, capsys):
    # k = 700 on 13 qubits: one restart alone would take 2103 products, past
    # the budget of 2000, so the solve is refused before its first product
    # (or its 2^13 x 1401 Krylov basis)
    def refuse(h, v):
        raise AssertionError("matvec called")

    monkeypatch.setattr(spectral, "matvec", refuse)
    ham = tmp_path / "r13.ham"
    ham.write_text(q.serialize_hamiltonian(
        random_povm_hamiltonian(rng_for("cli-lanczos-k"), 13, 4)))
    assert main(["spectrum", str(ham), "--k", "700"]) == 3
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == ("resource limit: Lanczos for k=700 eigenvalues needs 2103 "
                       "matvecs to restart once, above the budget of 2000\n")


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


def test_witness_echoes_the_seed_but_draws_nothing(circuit_file, capsys):
    # the k-copy witness is the exact mixture of the register marginals, so
    # --seed changes the echoed seed line and nothing else
    outs = []
    for seed in ("1", "2"):
        assert main(["witness", circuit_file, "--k", "2", "--seed", seed]) == 0
        outs.append(capsys.readouterr().out.splitlines())
    assert len(outs[0]) == len(outs[1])
    differ = [(a, b) for a, b in zip(*outs) if a != b]
    assert differ == [("seed 1", "seed 2")]


def test_witness_of_marginal_gates(tmp_path, capsys):
    # each gate passes Gate's unitarity check and the file compiles, so the
    # witness run must not refuse the product of the two gates
    path = tmp_path / "marginal.qc"
    path.write_text(q.serialize_circuit(marginal_circuit()))
    assert main(["compile", str(path)]) == 0
    assert main(["witness", str(path)]) == 0
    assert "accept_probability 1\n" in capsys.readouterr().out


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
    # one step: every clock state is legal, so nothing leaks
    one_step = tmp_path / "one.qc"
    one_step.write_text(CIRCUIT)
    assert main(["witness", str(one_step)]) == 0
    assert "within 0.000e+00 below" in capsys.readouterr().err


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


@pytest.mark.parametrize("name", sorted(NINE_QUBIT_CIRCUITS))
def test_spectrum_stdout_independent_of_blas_threads(name, tmp_path):
    # one more gate makes a 10-qubit clock layout, which the dense route
    # solves with its penalized block eliminated: the printed levels are the
    # finite-penalty ones, to rounding, whatever the BLAS thread count
    circuit = q.parse_circuit(NINE_QUBIT_CIRCUITS[name] + "gate H 0\n")
    ham = tmp_path / "c.ham"
    ham.write_text(q.serialize_hamiltonian(q.compile_circuit(circuit)))
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "qclock.cli", "spectrum", str(ham)],
            capture_output=True, cwd=tmp_path, env=checkout_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    report = dict(line.split(" ", 1) for line in outs[0].decode().splitlines())
    assert report["method"] == "dense"
    assert float(report["residual"]) <= 1e-12


@pytest.mark.parametrize("text, k, dim", [
    # 20000 copies of 1 input and L = 2
    ("n_input 1\nn_ancilla 0\naccept 0\ngate H 0\ngate H 0\n", "20000",
     "2**20000 * 40001"),
    # one copy of 14300 qubits
    ("n_input 1\nn_ancilla 14299\naccept 0\ngate H 0\n", "1", "2**14300 * 2"),
], ids=["many-copies", "wide-register"])
def test_witness_past_the_legal_cap_exits_3(text, k, dim, tmp_path, capsys):
    # 2^(k w) (k L + 1) is refused before any copy is built, and without
    # formatting an integer of thousands of digits
    path = tmp_path / "wide.qc"
    path.write_text(text)
    assert main(["witness", str(path), "--k", k]) == 3
    assert capsys.readouterr().err == (
        f"resource limit: legal_hamiltonian of dimension {dim} exceeds the "
        "dense cap of 2**12\n")


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
    assert main(["amplify"]) == 2  # nothing to tabulate
    # the grid is given by --k and --eps only
    with pytest.raises(SystemExit) as exc:
        main(["amplify", "--sweep", "k=16,81;eps=0.25"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sweep" in capsys.readouterr().err


def test_amplify_mc_columns(capsys):
    assert main(["amplify", "--k", "16", "--eps", "0.25", "--mc", "2000",
                 "--seed", "3"]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    est, err = float(row[6]), float(row[7])
    assert 0.0 <= est <= 1.0 and err >= 0.0
    assert row[8] == "3"
    assert main(["amplify", "--k", "16", "--eps", "0.25", "--mc", "-5"]) == 2
    cap = capsys.readouterr()
    assert "shots -5 must be >= 1" in cap.err and cap.out == ""


def test_amplify_at_a_billion_copies(capsys):
    # the closed-form tail costs the same at any k
    start = time.perf_counter()
    assert main(["amplify", "--k", "1000000000", "--eps", "0.25"]) == 0
    assert time.perf_counter() - start < 0.5
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[:6] == ["1000000000", "0.25", "744376587", "0", "0", "0"]


def test_amplify_refuses_k_past_a_c_int(capsys):
    # the exact tail reads k as a C int: the largest one still gives a
    # finite row, and a larger one is refused rather than printed as nan
    assert main(["amplify", "--k", "2147483647", "--eps", "0.25"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[:6] == ["2147483647", "0.25", "1600636943", "0", "0", "0"]
    for k in ("2147483648", "100000000000000000000"):
        assert main(["amplify", "--k", k, "--eps", "0.25"]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and f"k={k} above 2**31 - 1" in cap.err


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


FLAT_HAM = "qubits 2\nlayout 1 0 1\nterm in 0.2 1 0\n1 0\n0 0\n0 0\n1 0\n"


def test_gibbs_cli_and_gibbs_decide_agree(tmp_path, capsys):
    # 0.2 * I: the mean 0.2 lies between the bound's cutoff 0.1875 and the
    # decision energy d = 0.25; both routes decide at d
    ham = tmp_path / "flat.ham"
    ham.write_text(FLAT_HAM)
    h = q.parse_hamiltonian(FLAT_HAM)
    verdict, _ = q.gibbs_decide(h, q.decision_temperature(0.25, 1, 2))
    assert main(["gibbs", str(ham), "--auto-qma", "0.25", "1", "2", "--decide"]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert row[1] == "0.20000000000000001"
    assert row[-1] == verdict == "witness-exists"


def test_gibbs_auto_qma_must_match_the_file(ham_file, capsys, monkeypatch):
    factored = []
    monkeypatch.setattr("qclock.cli.gibbs_reports", lambda *a: factored.append(a) or ())
    for length, n in (("99", "9"), ("1", "3"), ("2", "2")):
        assert main(["gibbs", ham_file, "--auto-qma", "0.25", length, n, "--decide"]) == 2
        cap = capsys.readouterr()
        assert f"--auto-qma L={length} N={n} do not match" in cap.err
        assert "n_clock 1 and 2 qubits" in cap.err and cap.out == ""
    assert factored == []    # refused before H is factored


def test_gibbs_temp_and_auto_qma_exclude_each_other(ham_file, capsys):
    argv = ["gibbs", ham_file, "--auto-qma", "0.25", "1", "2", "--temp", "5,6"]
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert "--temp and --auto-qma exclude each other" in cap.err and cap.out == ""


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


def test_exit_code_infinite_total_weight(tmp_path, capsys):
    # every weight is finite, but their sum overflows float64: compile
    # writes no file, and a file holding such terms is refused on reading
    three_step = tmp_path / "three.qc"
    three_step.write_text(CIRCUIT + "gate H 0\ngate H 0\n")
    out = tmp_path / "big.ham"
    assert main(["compile", str(three_step), "--clock-penalty", "1e308",
                 "--out", str(out)]) == 2
    assert "total term weight inf is not finite" in capsys.readouterr().err
    assert not out.exists()
    term = "term in 1e308 1 0\n1 0\n0 0\n0 0\n0 0\n"
    bad = tmp_path / "bad.ham"
    bad.write_text("qubits 1\nlayout 1 0 0\n" + 2 * term)
    for argv in (["spectrum", str(bad)], ["gibbs", str(bad), "--temp", "1"]):
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and "total term weight inf is not finite" in cap.err


def test_spectrum_of_an_empty_register(tmp_path, capsys):
    # 0 qubits: one basis state, whose level is 0
    ham = tmp_path / "empty.ham"
    ham.write_text("qubits 0\nlayout 0 0 0\n")
    assert main(["spectrum", str(ham)]) == 0
    assert capsys.readouterr().out == (
        "lambda_min 0\nspectrum 0\nmethod dense\nresidual 0\nseed 0\n")


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


def test_exit_code_undecodable_file(tmp_path, capsys):
    binary = tmp_path / "bin.qc"
    binary.write_bytes(b"n_input 1\n\xff\xfe\n")
    assert main(["compile", str(binary)]) == 2
    assert f"error: cannot read {binary}: " in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing/c.ham", "."])
def test_exit_code_unwritable_out(target, tmp_path, circuit_file, capsys):
    # a missing directory, then a path that is a directory
    out = tmp_path / target
    assert main(["compile", circuit_file, "--out", str(out)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"error: cannot write {out}: " in cap.err


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


@pytest.mark.parametrize("num_qubits, terms, method", [
    (4, (), "iterative"),
    (4, (q.LocalTerm("in", 0.75, (2,), np.eye(2)),), "iterative"),
    (13, (), "auto"),
], ids=["termless", "identity-sum", "termless-past-the-dense-cap"])
def test_zero_lanczos_operator_exits_4(num_qubits, terms, method, tmp_path, capsys):
    # sigma*I - H is exactly 0: ARPACK's error is a convergence failure
    ham = tmp_path / "z.ham"
    ham.write_text(q.serialize_hamiltonian(q.LocalHamiltonian(num_qubits, terms)))
    assert main(["spectrum", str(ham), "--method", method]) == 4
    cap = capsys.readouterr()
    assert cap.out == "" and "Traceback" not in cap.err
    assert "convergence failure: ARPACK error -9" in cap.err


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


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "{h}", "--tolerance", "residual=-1"],
     "residual_target -1.0 must be finite and > 0"),
    (["spectrum", "{h}", "--tolerance", "residual=0"],
     "residual_target 0.0 must be finite and > 0"),
    (["witness", "{c}", "--tolerance", "degeneracy=-1"],
     "degeneracy_tol -1.0 must be finite and >= 0"),
    # subcommands that do not read the value check it too
    (["gibbs", "{h}", "--temp", "0.1", "--tolerance", "degeneracy=-1"],
     "degeneracy_tol -1.0 must be finite and >= 0"),
    (["spectrum", "{h}", "--tolerance", "degeneracy=-1"],
     "degeneracy_tol -1.0 must be finite and >= 0"),
    (["gibbs", "{h}", "--temp", "0.1", "--tolerance", "residual=-1"],
     "residual_target -1.0 must be finite and > 0"),
    (["witness", "{c}", "--source", "gibbs:0.01", "--tolerance", "degeneracy=-1"],
     "degeneracy_tol -1.0 must be finite and >= 0"),
    (["witness", "{c}", "--source", "gibbs:0.01", "--tolerance", "residual=-1"],
     "residual_target -1.0 must be finite and > 0"),
], ids=["residual-negative", "residual-zero", "degeneracy-negative",
        "gibbs-degeneracy-negative", "spectrum-degeneracy-negative",
        "gibbs-residual-negative", "gibbs-source-degeneracy-negative",
        "gibbs-source-residual-negative"])
def test_bad_tolerance_values_exit_2(argv, message, circuit_file, ham_file, capsys):
    argv = [a.format(c=circuit_file, h=ham_file) for a in argv]
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert message in cap.err
    assert cap.out == ""


def test_seed_changes_mc_output(capsys):
    assert main(["amplify", "--k", "81", "--eps", "0.25", "--mc", "400",
                 "--seed", "1"]) == 0
    out1 = capsys.readouterr().out
    assert main(["amplify", "--k", "81", "--eps", "0.25", "--mc", "400",
                 "--seed", "1"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_global_flags_accepted_before_subcommand(circuit_file, tmp_path, capsys):
    assert main(["--seed", "2", "compile", circuit_file]) == 0
    capsys.readouterr()
    # the flags given before the subcommand are used, not reset by its defaults
    table = ["amplify", "--k", "16", "--eps", "0.25", "--mc", "400"]
    assert main(table + ["--seed", "5"]) == 0
    after = capsys.readouterr().out
    assert main(["--seed", "5"] + table) == 0
    assert capsys.readouterr().out == after
    assert after.splitlines()[1].endswith(",5")
    out = tmp_path / "before.csv"
    assert main(["--seed", "5", "--out", str(out)] + table) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == after
    assert main(["--tolerance", "residual=-1"] + table) == 2
    assert "residual_target -1.0 must be finite and > 0" in capsys.readouterr().err
