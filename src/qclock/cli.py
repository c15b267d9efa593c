"""Command line front end.

Data goes to stdout (or --out), diagnostics to stderr. Identical inputs,
flags and seed produce byte-identical output. Exit codes: 0 ok,
2 validation/parse, 3 resource cap, 4 solver non-convergence,
5 numerical consistency.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    ConsistencyError, ConvergenceError, ParseError, ResourceLimitError,
    ValidationError,
)
from .qcore import _DEGENERACY_TOL, _RESIDUAL_TARGET, fmt_float, write_matrix
from .circuit import parse_circuit
from .clockham import compile_circuit, parse_hamiltonian, serialize_hamiltonian
from .spectral import min_eigenvalue, serialize_report
from .witness import WitnessParams, prepare_witness
from .amplify import AmplifyParams, simulate_majority_vote, tail_bounds
from .thermal import (
    Temperature, decision_temperature, gibbs_factor, gibbs_reports,
    ground_space_factor, mean_energy_bound,
)

_TOLERANCE_DEFAULTS = {"residual": _RESIDUAL_TARGET, "degeneracy": _DEGENERACY_TOL}


def _parse_tolerances(pairs):
    tol = dict(_TOLERANCE_DEFAULTS)
    for pair in pairs or ():
        if "=" not in pair:
            raise ValidationError(f"--tolerance expects name=value, got {pair!r}")
        name, _, val = pair.partition("=")
        if name not in tol:
            raise ValidationError(
                f"unknown tolerance {name!r}; known: {', '.join(sorted(tol))}"
            )
        tol[name] = _finite(val, "tolerance value")
    return tol


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"bad {what} {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{what} {text} must be finite")
    return value


def _whole(text: str, what: str) -> int:
    value = _finite(text, what)
    if not value.is_integer():
        raise ValidationError(f"{what} {text} must be a whole number")
    return int(value)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _floats(text: str):
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ValidationError(f"bad numeric list {text!r}") from None


def _ints(text: str):
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ValidationError(f"bad integer list {text!r}") from None


def cmd_compile(args, tol) -> str:
    c = parse_circuit(_read(args.circuit))
    h = compile_circuit(c, clock_penalty=args.clock_penalty)
    counts = h.part_counts()
    locality = {1: 0, 2: 0, 3: 0}
    for t in h.terms:
        locality[len(t.support)] += 1
    print(
        f"compiled {h.num_qubits} qubits (L={c.length}); "
        + ", ".join(f"{p}:{counts[p]}" for p in counts)
        + "; locality " + " ".join(f"{k}:{v}" for k, v in locality.items())
        + f"; total weight {fmt_float(h.total_weight)}",
        file=sys.stderr,
    )
    return serialize_hamiltonian(h)


def cmd_spectrum(args, tol) -> str:
    h = parse_hamiltonian(_read(args.hamiltonian))
    method = {"sparse": "iterative"}.get(args.method, args.method)
    report = min_eigenvalue(
        h, k=args.k, method=method, seed=args.seed,
        residual_target=tol["residual"],
    )
    print(f"lambda_min {report.min_eigenvalue:.6e} via {report.method}", file=sys.stderr)
    return serialize_report(report)


def _witness_source(spec: str, tol):
    if spec == "groundstate":
        return lambda h: ground_space_factor(h, tol["degeneracy"])
    if spec.startswith("gibbs:"):
        temp = Temperature(_finite(spec.split(":", 1)[1], "gibbs source temperature"))
        return lambda h: gibbs_factor(h, temp)[0]
    raise ValidationError(f"unknown source {spec!r}; use groundstate or gibbs:<T>")


def cmd_witness(args, tol) -> str:
    c = parse_circuit(_read(args.circuit))
    params = WitnessParams(k=args.k, seed=args.seed)
    result = prepare_witness(
        c, params, _witness_source(args.source, tol),
        target_energy=args.target_energy,
    )
    print(
        f"witness acceptance {result.accept_probability:.9f}, "
        f"legal-clock source energy {result.energy:.6e}; the compiled "
        f"Hamiltonian's ground energy at penalty L**12 lies within "
        f"{result.leak:.3e} below the legal one", file=sys.stderr,
    )
    body = write_matrix(result.witness.num_qubits, result.witness.entries)
    report = [
        f"accept_probability {fmt_float(result.accept_probability)}",
        f"energy {fmt_float(result.energy)}",
        f"k {result.k}",
        f"seed {result.seed}",
        "flags " + (",".join(result.flags) if result.flags else "-"),
    ]
    return body + "\n".join(report) + "\n"


def cmd_amplify(args, tol) -> str:
    ks, epss = args.k, args.eps
    if args.sweep:
        grid = {}
        for clause in args.sweep.split(";"):
            name, _, vals = clause.partition("=")
            grid[name.strip()] = vals
        if set(grid) != {"k", "eps"}:
            raise ValidationError("--sweep expects `k=...;eps=...`")
        ks, epss = _ints(grid["k"]), _floats(grid["eps"])
    if not ks or not epss:
        raise ValidationError("need at least one k and one eps")
    rows = ["k,epsilon,l,exact_reject,kl_bound,sqrt_k_bound,mc_estimate,mc_stderr,seed"]
    for k in ks:
        for eps in epss:
            p = AmplifyParams(k, eps)
            tb = tail_bounds(p)
            if args.mc > 0:
                est, err = simulate_majority_vote(p, 1.0 - eps, args.mc, seed=args.seed)
                mc_est, mc_err = fmt_float(est), fmt_float(err)
            else:
                mc_est = mc_err = "nan"
            rows.append(",".join([
                str(k), fmt_float(eps), str(tb.threshold_l),
                fmt_float(tb.exact_reject), fmt_float(tb.kl_bound),
                fmt_float(tb.sqrt_k_bound), mc_est, mc_err, str(args.seed),
            ]))
    return "\n".join(rows) + "\n"


def cmd_gibbs(args, tol) -> str:
    h = parse_hamiltonian(_read(args.hamiltonian))
    decide = None
    if args.auto_qma is not None:
        eps, length, n = args.auto_qma
        dt = decision_temperature(_finite(eps, "--auto-qma EPS"),
                                  _whole(length, "--auto-qma L"),
                                  _whole(n, "--auto-qma N"))
        temps = [dt.temperature]
        decide = dt.decision_energy
    elif args.temp is not None:
        # every T is checked (T <= 0 is rejected) before H is factored
        temps = [Temperature(t) for t in _floats(args.temp)]
        if not temps:
            raise ValidationError("--temp needs at least one value")
    else:
        raise ValidationError("one of --temp or --auto-qma is required")
    if args.decide is not None:
        if args.decide == "auto":
            if decide is None:
                raise ValidationError("--decide without value needs --auto-qma")
        else:
            decide = _finite(args.decide, "--decide energy")

    rows = ["T,mean_energy,bound_rhs,Z,lambda_min,e_max,verdict"]
    for temp, report in zip(temps, gibbs_reports(h, temps)):
        if decide is not None:
            rhs = mean_energy_bound(
                report.e_min, decide, h.num_qubits, report.e_max, temp
            ).rhs if decide > report.e_min else float("nan")
            verdict = "witness-exists" if report.mean_energy <= decide else "no-witness"
        else:
            rhs, verdict = float("nan"), "-"
        rows.append(",".join([
            fmt_float(temp.value), fmt_float(report.mean_energy), fmt_float(rhs),
            fmt_float(report.partition_function), fmt_float(report.e_min),
            fmt_float(report.e_max), verdict,
        ]))
    return "\n".join(rows) + "\n"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root RNG seed")
    common.add_argument("--tolerance", action="append", metavar="NAME=VAL",
                        help="override a named tolerance")
    common.add_argument("--out", help="write data to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="qclock",
        description="clock-Hamiltonian compiler and numerical workbench",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):  # noqa: A002 - argparse's own vocabulary
        return sub.add_parser(name, help=help, parents=[common])

    p = add("compile", "circuit file -> Hamiltonian term list")
    p.add_argument("circuit")
    p.add_argument("--clock-penalty", type=float, default=None)
    p.set_defaults(func=cmd_compile)

    p = add("spectrum", "term list -> low spectrum report")
    p.add_argument("hamiltonian")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--method", default="auto",
                   choices=["auto", "dense", "sparse", "iterative"])
    p.set_defaults(func=cmd_spectrum)

    p = add("witness", "circuit file -> extracted witness")
    p.add_argument("circuit")
    p.add_argument("--source", default="groundstate",
                   help="groundstate or gibbs:<T>")
    p.add_argument("--k", type=int, default=1, help="verifier copies")
    p.add_argument("--target-energy", type=float, default=None)
    p.set_defaults(func=cmd_witness)

    p = add("amplify", "majority-vote tail bound table")
    p.add_argument("--k", type=_ints, default=[], help="comma list of copy counts")
    p.add_argument("--eps", type=_floats, default=[], help="comma list of epsilons")
    p.add_argument("--mc", type=int, default=0, help="Monte Carlo shots per row")
    p.add_argument("--sweep", default=None, help="grid `k=...;eps=...`")
    p.set_defaults(func=cmd_amplify)

    p = add("gibbs", "term list -> thermal sweep table")
    p.add_argument("hamiltonian")
    p.add_argument("--temp", default=None, help="comma list of temperatures")
    p.add_argument("--auto-qma", nargs=3, metavar=("EPS", "L", "N"), default=None)
    p.add_argument("--decide", nargs="?", const="auto", default=None,
                   help="decision energy (default: promise d with --auto-qma)")
    p.set_defaults(func=cmd_gibbs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _parse_tolerances(args.tolerance)
        text = args.func(args, tol)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 5
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
