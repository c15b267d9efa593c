"""The three workloads: one closed-loop client, one op at a time.

Each workload splits an op into three steps. prepare(i) draws instance i
and turns it into program input; run(inst) is the timed call into qclock;
check(inst, out) compares the output with the independent references in
oracle.py and returns the list of failures. Only run() is timed.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import qclock
import qclock.cli

import instances
import oracle

CLOCK_INPUTS = {True: (3, 7), False: (2, 7)}       # perfect 3+0+7, all-reject 2+1+7
CLI_INPUTS = {True: (3, 6), False: (2, 6)}         # perfect 3+0+6, all-reject 2+1+6
LOCAL_QUBITS, LOCAL_TERMS = 14, 42
SOLVE_K = 6
# criterion 02's bar for a witness extracted from a perfect instance
WITNESS_ACCEPT = 0.999


def _circuit_draw(sizes):
    def draw(rng, index):
        perfect = index % 2 == 0
        n_input, length = sizes[perfect]
        make = instances.perfect_circuit if perfect else instances.all_reject_circuit
        return make(rng, n_input, length)
    return draw


class Health:
    """Largest numerical-health readings seen over the checked ops."""

    def __init__(self):
        self.residual_rel = 0.0
        self.energy_err_over_gap = 0.0

    def clock_energy(self, spec, lam: float, lam_legal: float):
        self.energy_err_over_gap = max(self.energy_err_over_gap,
                                       abs(lam - lam_legal) * spec.length ** 3)


def _clock_checks(spec, lam: float, health: Health):
    """Ground energy against the legal-subspace reference, and the verdict."""
    budget = oracle.ClockBudget(spec)
    lam_legal = float(oracle.legal_spectrum(spec)[0])
    health.clock_energy(spec, lam, lam_legal)
    fails = []
    if not abs(lam - lam_legal) <= budget.delta:
        fails.append(f"lambda {lam!r} vs legal {lam_legal!r}: "
                     f"off by more than {budget.delta:.3e}")
    if not abs(lam - lam_legal) <= budget.accuracy:
        fails.append(f"lambda {lam!r} vs legal {lam_legal!r}: off by more than "
                     f"{oracle.GAP_SHARE} of the gap 1/L^3")
    for name, value in (("lambda", lam), ("legal lambda", lam_legal)):
        if (value < budget.threshold) != spec.perfect:
            fails.append(f"{name} {value!r} gives the wrong verdict for a "
                         f"{'perfect' if spec.perfect else 'all-reject'} circuit")
    return fails


def _spectral_report_checks(lam: float, spectrum, residual: float,
                            total_weight: float, health: Health):
    scale = max(1.0, total_weight)
    health.residual_rel = max(health.residual_rel, residual / scale)
    fails = []
    if len(spectrum) != SOLVE_K or list(spectrum) != sorted(spectrum) or spectrum[0] != lam:
        fails.append(f"spectrum {spectrum} is not {SOLVE_K} ascending values from lambda_min")
    if not residual <= 1e-8 * scale:
        fails.append(f"residual {residual!r} above 1e-8 * {scale!r}")
    return fails


class ClockSolve:
    """Compile a 10-qubit clock instance at the default penalty and solve it."""

    name = "clock_solve"

    def __init__(self, seed: int, workdir: Path):
        self.draw = instances.Distinct(seed, self.name, _circuit_draw(CLOCK_INPUTS))
        self.health = Health()

    def prepare(self, index: int):
        spec = self.draw(index)
        return spec, qclock.parse_circuit(spec.to_text())

    def run(self, inst):
        h = qclock.compile_circuit(inst[1])
        return qclock.min_eigenvalue(h, method="auto", k=SOLVE_K)

    def check(self, inst, report):
        spec = inst[0]
        budget = oracle.ClockBudget(spec)
        return (_spectral_report_checks(report.min_eigenvalue, report.spectrum,
                                        report.residual, budget.total_weight, self.health)
                + _clock_checks(spec, report.min_eigenvalue, self.health))

    def describe(self, inst) -> str:
        return inst[0].to_text().replace("\n", "; ")


class LocalSolve:
    """Matrix-free Lanczos on a 14-qubit random 3-local Hamiltonian."""

    name = "local_solve"

    def __init__(self, seed: int, workdir: Path):
        self.draw = instances.Distinct(
            seed, self.name,
            lambda rng, index: instances.local_hamiltonian(rng, LOCAL_QUBITS, LOCAL_TERMS))
        self.health = Health()

    def prepare(self, index: int):
        spec = self.draw(index)
        terms = tuple(qclock.LocalTerm("in", w, s, m) for w, s, m in spec.terms)
        return spec, qclock.LocalHamiltonian(spec.num_qubits, terms)

    def run(self, inst):
        return qclock.min_eigenvalue(inst[1], method="auto", k=SOLVE_K)

    def check(self, inst, report):
        spec = inst[0]
        total_weight = sum(w for w, _, _ in spec.terms)
        fails = _spectral_report_checks(report.min_eigenvalue, report.spectrum,
                                        report.residual, total_weight, self.health)
        mat = oracle.sparse_hamiltonian(spec)
        lam_ref, ref_residual = oracle.sparse_ground_energy(mat)
        rounding = math.sqrt(mat.shape[0]) * oracle.EPS * total_weight
        tol = report.residual + ref_residual + rounding
        if not abs(report.min_eigenvalue - lam_ref) <= tol:
            fails.append(f"lambda {report.min_eigenvalue!r} vs reference {lam_ref!r}: "
                         f"off by more than {tol:.3e}")
        v = report.ground_state.amplitudes
        own = float(np.linalg.norm(mat @ v - report.min_eigenvalue * v))
        if not own <= 1e-8 * max(1.0, total_weight) + rounding:
            fails.append(f"ground pair residual {own!r} on the reference matrix")
        return fails

    def describe(self, inst) -> str:
        spec = inst[0]
        return f"{spec.num_qubits} qubits, supports {[s for _, s, _ in spec.terms]}"


def cli(argv):
    """qclock.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = qclock.cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def decision_temperature(length: int, n: int) -> float:
    return (1.0 - 2.0 * instances.EPSILON) / (4.0 * math.log(2.0) * (length + 1) * n)


class CliPipeline:
    """compile -> spectrum -> witness -> gibbs sweep -> gibbs at the decision
    temperature -> amplify, on a 9-qubit circuit file."""

    name = "cli_pipeline"
    COMMANDS = ("compile", "spectrum", "witness", "gibbs_sweep", "gibbs", "amplify")
    VOTE_K, VOTE_SHOTS = (16, 81, 256), 100000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.draw = instances.Distinct(seed, self.name, _circuit_draw(CLI_INPUTS))
        self.health = Health()
        self.command_times = {c: [] for c in self.COMMANDS}

    def prepare(self, index: int):
        spec = self.draw(index)
        qc = self.workdir / f"op{index}.qc"
        qc.write_text(spec.to_text())
        ham = self.workdir / f"op{index}.ham"
        length, n = spec.length, spec.num_qubits
        t_dec = decision_temperature(length, n)
        temps = [0.5 * t_dec, t_dec, 2.0 * t_dec]
        decide = 0.5 / length ** 3
        cli_seed = int(instances.stream(self.seed, index, "cli-seed").integers(2 ** 31))
        argvs = {
            "compile": ["compile", qc, "--out", ham, "--seed", cli_seed],
            "spectrum": ["spectrum", ham, "--seed", cli_seed],
            "witness": ["witness", qc, "--source", "groundstate", "--seed", cli_seed],
            "gibbs_sweep": ["gibbs", ham, "--temp", ",".join(repr(t) for t in temps),
                            "--decide", repr(decide), "--seed", cli_seed],
            "gibbs": ["gibbs", ham, "--auto-qma", instances.EPSILON, length, n,
                      "--decide", "--seed", cli_seed],
            "amplify": ["amplify", "--k", ",".join(map(str, self.VOTE_K)),
                        "--eps", instances.EPSILON, "--mc", self.VOTE_SHOTS,
                        "--seed", cli_seed],
        }
        return dict(spec=spec, ham=ham, argvs=argvs, temps=temps, decide=decide,
                    t_dec=t_dec, cli_seed=cli_seed)

    def run(self, inst):
        outs = {}
        for name in self.COMMANDS:
            t0 = perf_counter()
            outs[name] = cli(inst["argvs"][name])
            outs[name + ".s"] = perf_counter() - t0
        return outs

    def record_times(self, outs):
        for name in self.COMMANDS:
            self.command_times[name].append(outs[name + ".s"])

    def check(self, inst, outs):
        fails = [f"{name} exited {outs[name][0]}: {outs[name][2].strip()}"
                 for name in self.COMMANDS if outs[name][0] != 0]
        if fails:
            return fails
        spec = inst["spec"]
        budget = oracle.ClockBudget(spec)
        evals = oracle.legal_spectrum(spec)
        checks = (
            self._check_compile(spec, inst["ham"].read_text()),
            self._check_spectrum(spec, budget, outs["spectrum"][1]),
            self._check_witness(spec, budget, evals, outs["witness"][1]),
            self._check_gibbs(spec, budget, evals, outs["gibbs_sweep"][1],
                              inst["temps"], inst["decide"]),
            self._check_gibbs(spec, budget, evals, outs["gibbs"][1],
                              [inst["t_dec"]], 1.0 / (2.0 * (spec.length + 1))),
            self._check_amplify(outs["amplify"][1], inst["cli_seed"]),
        )
        return [f for group in checks for f in group]

    def check_determinism(self, inst, outs):
        """Re-run an op outside the timed loop; stdout and the compiled file
        must repeat byte for byte."""
        ham_bytes = inst["ham"].read_bytes()
        again = self.run(inst)
        fails = [f"{name} stdout differs on re-run" for name in self.COMMANDS
                 if again[name][1] != outs[name][1]]
        if inst["ham"].read_bytes() != ham_bytes:
            fails.append("compiled Hamiltonian differs on re-run")
        return fails

    def describe(self, inst) -> str:
        return inst["spec"].to_text().replace("\n", "; ")

    # --- output checks ---------------------------------------------------

    @staticmethod
    def _check_compile(spec, text):
        lines = text.splitlines()
        length = spec.length
        want_terms = math.comb(length, 2) + spec.n_ancilla + 1 + 3 * length
        fails = []
        if lines[:2] != [f"qubits {spec.num_qubits}",
                         f"layout {spec.n_input} {spec.n_ancilla} {length}"]:
            fails.append(f"compiled header {lines[:2]}")
        terms = sum(1 for line in lines if line.startswith("term "))
        if terms != want_terms:
            fails.append(f"compiled {terms} terms, want {want_terms}")
        return fails

    def _check_spectrum(self, spec, budget, text):
        fields = dict(line.split(" ", 1) for line in text.splitlines())
        lam = float(fields["lambda_min"])
        spectrum = tuple(float(v) for v in fields["spectrum"].split())
        fails = []
        if fields["method"] != "dense":
            fails.append(f"spectrum method {fields['method']}, want dense")
        return (fails
                + _spectral_report_checks(lam, spectrum, float(fields["residual"]),
                                          budget.total_weight, self.health)
                + _clock_checks(spec, lam, self.health))

    @staticmethod
    def _check_witness(spec, budget, evals, text):
        lines = text.splitlines()
        dim = 2 ** spec.n_input
        body = lines[1:1 + dim * dim]
        fields = dict(line.split(" ", 1) for line in lines[1 + dim * dim:])
        fails = []
        if lines[0] != f"qubits {spec.n_input}" or len(body) != dim * dim:
            fails.append("witness matrix has the wrong size")
        else:
            rho = np.array([complex(*map(float, row.split())) for row in body]).reshape(dim, dim)
            if abs(np.trace(rho) - 1.0) > 1e-9 or np.abs(rho - rho.conj().T).max() > 1e-9:
                fails.append("witness matrix is not a unit-trace Hermitian matrix")
        acc = float(fields["accept_probability"])
        flags = fields["flags"].split(",")
        if spec.perfect and not (acc >= WITNESS_ACCEPT and "no-witness-regime" not in flags):
            fails.append(f"perfect instance: witness accepted with {acc!r}, flags {flags}")
        if not spec.perfect and not (acc <= 1e-12 and "no-witness-regime" in flags):
            fails.append(f"all-reject instance: witness accepted with {acc!r}, flags {flags}")
        energy = float(fields["energy"])
        if not abs(energy - evals[0]) <= 2 * budget.delta:
            fails.append(f"witness source energy {energy!r} vs legal {evals[0]!r}")
        return fails

    @staticmethod
    def _check_gibbs(spec, budget, evals, text, temps, decide):
        lines = text.splitlines()
        fails = []
        if len(lines) != 1 + len(temps):
            return [f"gibbs printed {len(lines) - 1} rows for {len(temps)} temperatures"]
        n = spec.num_qubits
        for line, temp in zip(lines[1:], temps):
            t, mean, rhs, z, e_min, e_max, verdict = line.split(",")
            t, mean, rhs, z = float(t), float(mean), float(rhs), float(z)
            e_min, e_max = float(e_min), float(e_max)
            mean_ref, log_z_ref = oracle.gibbs_reference(evals, temp)
            tol = oracle.gibbs_tolerance(mean_ref, budget.delta, temp)
            where = f"gibbs T={temp!r}"
            if not math.isclose(t, temp, rel_tol=1e-12):
                fails.append(f"{where}: printed T {t!r}")
            if not abs(mean - mean_ref) <= tol:
                fails.append(f"{where}: mean energy {mean!r} vs legal {mean_ref!r} (tol {tol:.3e})")
            if not abs(math.log(z) - log_z_ref) <= budget.delta / temp + 1e-12:
                fails.append(f"{where}: ln Z {math.log(z)!r} vs legal {log_z_ref!r}")
            if not abs(e_min - evals[0]) <= budget.delta:
                fails.append(f"{where}: lambda_min {e_min!r} vs legal {evals[0]!r}")
            if not budget.penalty * (1 - 1e-9) <= e_max <= budget.total_weight * (1 + 1e-9):
                fails.append(f"{where}: e_max {e_max!r} outside [J, total weight]")
            if decide > e_min:
                exponent = n * math.log(2.0) - 0.5 * (decide - e_min) / temp
                want = 0.5 * (decide + e_min) + (math.exp(exponent) * e_max
                                                 if exponent < 700 else math.inf)
                if not math.isclose(rhs, want, rel_tol=1e-9):
                    fails.append(f"{where}: bound_rhs {rhs!r}, want {want!r}")
            elif not math.isnan(rhs):
                fails.append(f"{where}: bound_rhs {rhs!r} printed below e_min")
            want_verdict = "witness-exists" if mean_ref <= decide else "no-witness"
            if abs(mean_ref - decide) > tol and verdict != want_verdict:
                fails.append(f"{where}: verdict {verdict}, want {want_verdict}")
        return fails

    @classmethod
    def _check_amplify(cls, text, seed):
        lines = text.splitlines()
        if len(lines) != 1 + len(cls.VOTE_K):
            return [f"amplify printed {len(lines) - 1} rows"]
        fails = []
        for line, k in zip(lines[1:], cls.VOTE_K):
            row = line.split(",")
            l_want, _, exact, kl, sqrt_k = oracle.vote_reference(k, instances.EPSILON)
            got = [float(x) for x in row[3:8]]
            if int(row[0]) != k or int(row[2]) != l_want or int(row[8]) != seed:
                fails.append(f"amplify k={k}: row {row[:3] + row[8:]}")
            for name, value, want in (("exact_reject", got[0], exact),
                                      ("kl_bound", got[1], kl),
                                      ("sqrt_k_bound", got[2], sqrt_k)):
                if not math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-300):
                    fails.append(f"amplify k={k}: {name} {value!r}, want {want!r}")
            sigma = math.sqrt(exact * (1 - exact) / cls.VOTE_SHOTS)
            if not abs(got[3] - exact) <= 5 * sigma + 1.0 / cls.VOTE_SHOTS:
                fails.append(f"amplify k={k}: Monte Carlo {got[3]!r} vs exact {exact!r}")
        return fails


WORKLOADS = {w.name: w for w in (ClockSolve, LocalSolve, CliPipeline)}
