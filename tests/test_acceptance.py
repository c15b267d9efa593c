"""End-to-end acceptance gate.

Each test prints exactly one `criterion NN: PASS/FAIL` line and then
asserts. Randomized families are seeded, so a passing run is stable.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import qclock as q

from conftest import (
    all_reject_circuit, assemble_oracle, checkout_env,
    history_transform_oracle, random_circuit, random_density_matrix,
    random_povm_hamiltonian, random_pure_state, rng_for,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} ({name}): {tag}{suffix}", flush=True)
    assert ok, f"criterion {num:02d} ({name}) failed: {detail}"


def outer(state):
    return q.DensityMatrix(
        state.num_qubits,
        np.outer(state.amplitudes, state.amplitudes.conj()))


def test_criterion_01_history_energy_identity():
    t0 = time.monotonic()
    rng = rng_for("acc-energy")
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, 5 - n))
        c = random_circuit(rng, n_input=n, n_ancilla=m,
                           length=int(rng.integers(1, 6)))
        inp = random_pure_state(rng, n)
        eta = q.history_state(c, inp)
        energy = q.hamiltonian_energy(outer(eta), q.compile_circuit(c))
        p = q.accept_probability(c, outer(inp)).accept_probability
        worst = max(worst, abs(energy - (1 - p) / (c.length + 1)))
    elapsed = time.monotonic() - t0
    report(1, "history energy identity",
           worst < 1e-9 and elapsed < 60.0,
           f"worst deviation {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_perfect_witness_ground():
    rng = rng_for("acc-perfect")
    ok = True
    details = []
    for n, length in [(2, 1), (2, 2), (1, 3), (2, 4), (3, 3)]:
        t0 = time.monotonic()
        c = random_circuit(rng, n_input=n, n_ancilla=0, length=length)
        h = q.compile_circuit(c)
        assert h.num_qubits <= 10
        rep = q.min_eigenvalue(h, method="dense")
        res = q.extract_witness(outer(rep.ground_state), c, ham=h)
        per_instance = time.monotonic() - t0
        good = (rep.min_eigenvalue <= 1e-9
                and res.accept_probability >= 0.999
                and per_instance < 30.0)
        ok = ok and good
        details.append(f"L={length}: lam={rep.min_eigenvalue:.2e} "
                       f"acc={res.accept_probability:.6f}")
    report(2, "perfect witness ground energy", ok, "; ".join(details))


def test_criterion_03_all_reject_lower_bound():
    # frozen floor 0.5 for lambda_min * L^3, measured once across this
    # family (observed range 1.0 .. 4.3) and kept fixed since
    rng = rng_for("acc-reject")
    floor = 0.5
    ok = True
    vals = []
    for length in (2, 3, 4, 5):
        c = all_reject_circuit(rng, int(rng.integers(1, 3)), length)
        h = q.compile_circuit(c)
        rep = q.min_eigenvalue(h, method="dense")
        scaled = rep.min_eigenvalue * length ** 3
        vals.append(f"L={length}: {scaled:.3f}")
        ok = ok and rep.min_eigenvalue > 0 and scaled > floor
    report(3, "all-reject cubic lower bound", ok, "; ".join(vals))


def test_criterion_04_propagation_spectrum():
    worst = 0.0
    for length in range(1, 7):
        c = random_circuit(rng_for(f"acc-walk-{length}"), n_input=1,
                           n_ancilla=0, length=length)
        h = q.compile_circuit(c).restricted_to(
            ["prop_projector", "prop_hopping", "clock"])
        mat = assemble_oracle(h)
        w = history_transform_oracle(c)
        conj = w.conj().T @ mat @ w
        cols = []
        for b in range(2):
            for t in range(length + 1):
                v = np.zeros(2 ** (1 + length))
                v[b * 2 ** length + q.ClockState(t, length).basis_index] = 1.0
                cols.append(v)
        b_iso = np.array(cols).T
        evals = np.linalg.eigvalsh(b_iso.T @ conj @ b_iso)
        want = np.repeat(np.sort(q.propagation_spectrum(length)), 2)
        worst = max(worst, float(np.abs(evals - want).max()))
    report(4, "propagation spectrum closed form", worst < 1e-9,
           f"worst deviation {worst:.3e} over L=1..6")


def test_criterion_05_povm_verifier():
    rng = rng_for("acc-povm")
    worst_closed = 0.0
    sigma_misses = 0
    for i in range(20):
        n = int(rng.integers(2, 6))
        h = random_povm_hamiltonian(rng, n, int(rng.integers(3, 9)))
        rho = random_density_matrix(rng, n)
        got = q.povm_verifier_accept(rho, h)
        want = 1.0 - np.trace(
            rho.entries @ assemble_oracle(h)).real / h.total_weight
        worst_closed = max(worst_closed, abs(got - want))
        est, err = q.povm_verifier_sample(rho, h, shots=100000, seed=100 + i)
        sigma = max(err, math.sqrt(max(want * (1 - want), 1e-12) / 100000))
        if abs(est - want) > 3 * sigma:
            sigma_misses += 1
    report(5, "term-sampling verifier", worst_closed < 1e-12 and sigma_misses == 0,
           f"closed-form dev {worst_closed:.2e}, 3-sigma misses {sigma_misses}/20")


def test_criterion_06_vote_tail_bounds():
    t0 = time.monotonic()
    ok = True
    worst_gap = 0.0
    for k in (16, 81, 256, 625):
        for eps in (0.05, 0.1, 0.25, 1 / 3):
            p = q.AmplifyParams(k, eps)
            tb = q.tail_bounds(p)
            ok = ok and tb.exact_reject <= tb.kl_bound + 1e-15
            sqrt_cap = (tb.threshold_l + 1) * 2.0 ** (-math.sqrt(k) / math.log(2))
            ok = ok and tb.exact_reject <= sqrt_cap + 1e-15
            worst_gap = max(worst_gap, tb.exact_reject / max(tb.kl_bound, 1e-300))
    grid = np.linspace(0.005, 0.995, 100)
    c = 2.0 / math.log(2.0)
    pinsker_ok = all(
        q.kl_divergence(float(a), float(b)) >= c * (a - b) ** 2 - 1e-12
        for a in grid for b in grid)
    elapsed = time.monotonic() - t0
    report(6, "vote tail bounds", ok and pinsker_ok and elapsed < 10.0,
           f"max exact/KL ratio {worst_gap:.2e}, pinsker grid ok, {elapsed:.1f}s")


def test_criterion_07_naive_restriction_counterexample():
    vals = [q.naive_restriction_reject(q.AmplifyParams(k, 0.25), 2 / 3)
            for k in (4, 16, 81, 256, 625)]
    ok = (all(abs(v - 1 / 3) < 1e-15 for v in vals)
          and len(set(vals)) == 1)
    report(7, "naive restriction counterexample", ok,
           f"reject rate {vals[0]!r} for every k")


def test_criterion_08_thermal_bound_dominance():
    rng = rng_for("acc-thermal")
    violations = 0
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        h = random_povm_hamiltonian(rng, n, int(rng.integers(3, 13)))
        evals = np.linalg.eigvalsh(assemble_oracle(h))
        a, e_max = float(evals[0]), float(evals[-1])
        d = a + 0.25 * (e_max - a) + 1e-9
        scale = max(e_max, 1e-6)
        for temp in np.geomspace(1e-3, 10.0, 20) * scale:
            _, rep = q.gibbs_state(h, float(temp))
            bound = q.mean_energy_bound(a, d, n, e_max, float(temp))
            checked += 1
            if rep.mean_energy > bound.rhs + 1e-10:
                violations += 1
    report(8, "thermal mean-energy bound dominance", violations == 0,
           f"{violations} violations in {checked} grid points")


def test_criterion_09_thermal_decision():
    t0 = time.monotonic()
    rng = rng_for("acc-decide")
    correct = 0
    total = 0
    details = []
    # witness side: perfect instances across L = 1..4
    for n, length in [(2, 1), (2, 2), (1, 3), (2, 4), (3, 2)]:
        c = random_circuit(rng, n_input=n, n_ancilla=0, length=length)
        h = q.compile_circuit(c)
        dt = q.decision_temperature(0.25, c.length, h.num_qubits)
        _, rep = q.gibbs_state(h, dt.temperature)
        good = rep.mean_energy <= dt.decision_energy
        correct += int(good)
        total += 1
        details.append(f"yes/L={length}: {rep.mean_energy:.4f}<=d={dt.decision_energy:.4f}" if good
                       else f"yes/L={length}: MISS {rep.mean_energy:.4f}")
    # no-witness side: independent single-step instances (longer all-reject
    # instances sit below d by construction; see the design notes)
    for i in range(5):
        c = all_reject_circuit(rng, 1 + i % 3, 1)
        h = q.compile_circuit(c)
        dt = q.decision_temperature(0.25, c.length, h.num_qubits)
        _, rep = q.gibbs_state(h, dt.temperature)
        good = rep.mean_energy > dt.decision_energy
        correct += int(good)
        total += 1
        if not good:
            details.append(f"no/{i}: MISS {rep.mean_energy:.4f}")
    elapsed = time.monotonic() - t0
    report(9, "thermal decision", correct == total and elapsed < 300.0,
           f"{correct}/{total} classified, {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    circuit = tmp_path / "c.qc"
    circuit.write_text(
        "n_input 2\nn_ancilla 0\naccept 1\nepsilon 0.25\n"
        "gate H 0\ngate CNOT 0 1\n")
    ham = tmp_path / "c.ham"
    # The child runs in tmp_path, where a relative PYTHONPATH such as `src`
    # no longer resolves; point it at the qclock this process imported.
    env = checkout_env()

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "qclock.cli", *args],
            capture_output=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    compile_args = ["compile", str(circuit), "--out", str(ham)]
    run(compile_args)
    commands = [
        compile_args,
        ["spectrum", str(ham), "--k", "3", "--seed", "5"],
        ["witness", str(circuit), "--seed", "5"],
        ["amplify", "--k", "16,81", "--eps", "0.25", "--mc", "500",
         "--seed", "5"],
        ["gibbs", str(ham), "--auto-qma", "0.25", "2", "4", "--decide"],
    ]
    stable = True
    for args in commands:
        first = run(args)
        first_out = ham.read_bytes()
        second = run(args)
        stable = stable and first == second
        if args[0] == "compile":
            stable = stable and first_out == ham.read_bytes()
    report(10, "CLI determinism", stable,
           f"{len(commands)} commands re-run byte-identically")
