"""Command-line interface: check, classify, verify, examples.

Exit codes: 0 success, 1 semantic failure (an emitted quantity failing its
own conservation check, or drift above threshold), 2 input or validation
error, 141 (128 + SIGPIPE, as a shell reports) when the reader of stdout
goes away before the output is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from typing import List, Optional, Tuple

from . import __version__
from .symexpr import ExprError, ParseError, ProbeConfig, parse
from .exterior import form_to_string
from .hamiltonian import HamiltonianSystem, make_system
from .classifier import (
    ClassificationReport,
    ClassifyConfig,
    InternalInconsistencyError,
    classify,
)
from .systemio import BUNDLED_EXAMPLES, SystemFile, SystemFileError, _finite, load_system_file
from .verify import METHODS, check_conserved, dump_trajectory, integrate

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2
EXIT_BROKEN_PIPE = 141


def _load(args) -> Tuple[SystemFile, ProbeConfig, HamiltonianSystem]:
    """The file named on the command line, its probe plan and its system."""
    sf = load_system_file(args.file)
    probes = ProbeConfig(count=args.probes, tolerance=args.tol, seed=args.seed)
    return sf, probes, make_system(sf.space, sf.symplectic, sf.hamiltonian, probes)


def _select_candidates(sf: SystemFile, name: Optional[str]):
    if name is None:
        return sf.symmetries
    for cand in sf.symmetries:
        if cand.name == name:
            return [cand]
    raise SystemFileError(
        f"unknown symmetry {name!r}; file declares "
        + ", ".join(c.name for c in sf.symmetries)
    )


def cmd_check(args) -> int:
    sf, probes, system = _load(args)
    print(f"system: {sf.name} (n={sf.space.n})")
    print(f"coordinates: {' '.join(sf.space.coords)}")
    if sf.space.parameters:
        print("parameters: "
              + ", ".join(f"{k} = {v}" for k, v in sorted(sf.space.parameters.items())))
    print(f"symplectic form: {form_to_string(system.omega_form)}")
    print(f"  closed and nondegenerate at probes; "
          f"i(X_h)omega = dh: {system.field_certificate.kind}; "
          f"L(X_h)h: {system.energy_certificate.kind}")
    print(f"hamiltonian: {system.h}")
    print("hamilton equations:")
    for name, rhs in zip(sf.space.coords, system.x_h.components):
        print(f"  d{name}/dt = {rhs}")
    for cand in sf.symmetries:
        print(f"candidate {cand.name}: {cand.field}")
    return EXIT_OK


def _classification_doc(sf: SystemFile, system: HamiltonianSystem,
                        reports: List[ClassificationReport], args) -> dict:
    return {
        "format_version": 1,
        "tool_version": __version__,
        "seed": args.seed,
        "tolerance": args.tol,
        "probe_count": args.probes,
        "max_order": args.max_order,
        "system": {
            "name": sf.name,
            "dof": sf.space.n,
            "coordinates": list(sf.space.coords),
            "parameters": {k: v for k, v in sorted(sf.space.parameters.items())},
            "symplectic": form_to_string(system.omega_form),
            "hamiltonian": str(system.h),
        },
        "candidates": [r.to_dict() for r in reports],
    }


def _print_report_text(report: ClassificationReport) -> None:
    print(f"candidate {report.candidate}: {report.label.describe()}")
    print(f"  commutator with X_h: {report.bracket.describe()}")
    if report.numeric_branch:
        print("  note: at least one branch decision is a numeric certificate")
    for stage, detail in report.branch_certificates:
        print(f"  [{stage}] {detail}")
    for q in report.conserved:
        flags = []
        if q.trivial:
            flags.append("trivial")
        if q.certificate is not None and q.certificate.numeric:
            flags.append("numeric certificate")
        suffix = f"  ({', '.join(flags)})" if flags else ""
        print(f"  conserved [{q.rule}]: {q.printable}{suffix}")
        if q.raw is not None:
            print(f"    raw form: {q.raw}")
        for rule, detail in q.derivation:
            print(f"    - {rule}: {detail}")
    if report.bihamiltonian_pair is not None:
        w2, a2 = report.bihamiltonian_pair
        print(f"  second pair: omega~ = {form_to_string(w2)}; alpha~ = {form_to_string(a2)}")
        print(f"    {report.bihamiltonian.describe()}")


def cmd_classify(args) -> int:
    sf, probes, system = _load(args)
    config = ClassifyConfig(max_order=args.max_order, probes=probes)
    candidates = _select_candidates(sf, args.symmetry)
    reports = [classify(cand, system, config) for cand in candidates]
    if args.format == "structured":
        doc = _classification_doc(sf, system, reports, args)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"system: {sf.name} (n={sf.space.n}), seed {args.seed}")
        for report in reports:
            _print_report_text(report)
    return EXIT_OK


def cmd_verify(args) -> int:
    sf, probes, system = _load(args)
    if not (math.isfinite(args.drift_tol) and args.drift_tol > 0):
        raise SystemFileError(f"--drift-tol must be finite and positive, got {args.drift_tol}")
    run = dict(sf.verify)
    try:
        if args.x0 is not None:
            run["x0"] = tuple(_finite(p) for p in args.x0.replace(",", " ").split())
        for key in ("t_final", "dt"):
            if getattr(args, key) is not None:
                run[key] = _finite(getattr(args, key))
    except ValueError as exc:
        raise SystemFileError(f"bad verification run value: {exc}")
    if args.method is not None:
        run["method"] = args.method
    missing = [k for k in ("x0", "t_final", "dt") if k not in run]
    if missing:
        raise SystemFileError(
            "no verification run parameters for " + ", ".join(missing)
            + " (provide a verify block in the file or command-line flags)"
        )
    x0 = run["x0"]
    if len(x0) != 2 * sf.space.n:
        raise SystemFileError(f"x0 needs {2 * sf.space.n} components")
    method = run.get("method", "rk4")
    quantities = []
    if args.quantity is not None:
        try:
            quantities.append((parse(args.quantity, sf.space), "user quantity"))
        except ParseError as exc:
            raise SystemFileError(f"bad --quantity expression: {exc}")
    # the dump path is opened before the run, so a bad one costs no
    # integration; a run that stops early leaves the file empty
    try:
        with (nullcontext() if args.dump is None
              else open(args.dump, "w", encoding="utf-8")) as dump:
            traj = integrate(system, x0, run["t_final"], run["dt"], method)
            if dump is not None and not traj.truncated:
                dump_trajectory(traj, sf.space, dump)
    except OSError as exc:
        raise SystemFileError(str(exc)) from None
    if traj.truncated:
        print(f"trajectory truncated: {traj.diagnostic}", file=sys.stderr)
        return EXIT_SEMANTIC

    if args.quantity is None:
        config = ClassifyConfig(max_order=args.max_order, probes=probes)
        for cand in _select_candidates(sf, args.symmetry):
            for q in classify(cand, system, config).conserved:
                quantities.append((q.expr, f"{cand.name}: {q.printable}"))
        quantities.append((system.h, "h (energy)"))

    print(f"run: {method}, dt = {run['dt']}, t_final = {run['t_final']}, x0 = {x0}")
    all_ok = True
    for expr, label in quantities:
        rep = check_conserved(expr, traj, sf.space, name=label)
        ok = rep.passed(args.drift_tol)
        all_ok = all_ok and ok
        status = "pass" if ok else "FAIL"
        print(f"[{status}] {rep.describe()}")
    return EXIT_OK if all_ok else EXIT_SEMANTIC


def cmd_examples(args) -> int:
    target = args.install
    try:
        os.makedirs(target, exist_ok=True)
        for fname, text in sorted(BUNDLED_EXAMPLES.items()):
            path = os.path.join(target, fname)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {path}")
    except OSError as exc:
        print(f"cannot install examples: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamsym",
        description="Classify infinitesimal symmetries of Hamiltonian systems "
                    "and derive their conserved quantities.",
    )
    parser.add_argument("--version", action="version", version=f"hamsym {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42,
                        help="seed for probe sampling (default 42)")
    common.add_argument("--tol", type=float, default=1e-9,
                        help="numeric zero tolerance (default 1e-9)")
    common.add_argument("--probes", type=int, default=64,
                        help="probe points per zero test (default 64)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common],
                             help="validate a system file and print the dynamics")
    p_check.add_argument("file")
    p_check.set_defaults(fn=cmd_check)

    p_classify = sub.add_parser("classify", parents=[common],
                                help="classify candidate symmetries")
    p_classify.add_argument("file")
    p_classify.add_argument("--symmetry", help="only this named candidate")
    p_classify.add_argument("--max-order", type=int, default=6)
    p_classify.add_argument("--format", choices=("text", "structured"),
                            default="text")
    p_classify.set_defaults(fn=cmd_classify)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="integrate and measure conserved-quantity drift")
    p_verify.add_argument("file")
    p_verify.add_argument("--symmetry", help="only this named candidate")
    p_verify.add_argument("--quantity", help="verify this expression instead")
    p_verify.add_argument("--max-order", type=int, default=6)
    p_verify.add_argument("--x0", help="comma- or space-separated initial state")
    p_verify.add_argument("--t-final", type=float, dest="t_final")
    p_verify.add_argument("--dt", type=float)
    p_verify.add_argument("--method", choices=METHODS)
    p_verify.add_argument("--drift-tol", type=float, default=1e-6, dest="drift_tol")
    p_verify.add_argument("--dump", help="write the trajectory table to this path")
    p_verify.set_defaults(fn=cmd_verify)

    p_examples = sub.add_parser("examples", help="install the bundled system files")
    p_examples.add_argument("--install", required=True, metavar="DIR")
    p_examples.set_defaults(fn=cmd_examples)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader went away: send what is still buffered to devnull,
        # so the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (SystemFileError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except ExprError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
