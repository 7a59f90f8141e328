"""Command-line interface.

Subcommands
-----------
drazin   Drazin inverse of one matrix (oracle route), with axiom residuals.
sum      Additive formulas for a + b (theorems 2.2, 2.3, 2.4).
block    Block-matrix formulas for [[A, B], [C, D]] (rules 3.1 .. 4.3).
gen      Write a generated instance directory for a target hypothesis set.
verify   Re-check a directory of generated instances end to end.

Exit codes: 0 success/match, 2 precondition violation (or an instance the
generator cannot realize), 3 mismatch, failed axioms, or a forced run that
did not converge, 4 I/O, parse, or usage errors.

Thresholds: --eps-rank, --eps-check, --eps-match, --eps-tail; each falls
back to the environment (GDZ_TOL_RANK, GDZ_TOL_CHECK, GDZ_TOL_MATCH,
GDZ_TOL_TAIL) before the built-in defaults. Flags and environment are read
again on every call.

Every report is one compact JSON line written by orjson (pipe it through
`python3 -m json.tool` to read it indented); a number in it that is not
finite, such as a residual that overflowed, is written as null. main()
builds the parser once per process and reuses it on every later call.
"""

import argparse
import functools
import os
import re
import sys
import time

from .additive import PAIR_TARGETS, require_lambda
from .blockmat import RULE_IDS
from .drazin import AxiomReport, check_drazin_axioms, drazin_oracle
from .errors import (
    AxiomViolation,
    ConvergenceError,
    GenerationFailed,
    PreconditionViolated,
    ReconciliationError,
)
from .evaluation import OPERANDS, PRESET_NAMES, TARGETS, evaluate
from .io import (
    SCHEMA_VERSION,
    DocumentError,
    check_shapes,
    complex_to_doc,
    doc_to_complex,
    dumps,
    factor_check_to_doc,
    join_path,
    load_instance,
    load_matrix,
    matrix_to_doc,
    norm_path,
    parse_scalar,
    save_instance,
    write_bytes,
)
from .linalg import Tolerance

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_MISMATCH = 3
EXIT_IO = 4

_ENV_TOLS = {
    "eps_rank": "GDZ_TOL_RANK",
    "eps_check": "GDZ_TOL_CHECK",
    "eps_match": "GDZ_TOL_MATCH",
    "eps_tail": "GDZ_TOL_TAIL",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors, which collides with the
    precondition-violation code; route usage problems to the I/O code.

    Tokens that start like a negative scalar ("-2", "-1/2", "-i", "-.5j")
    are values, so "--lambda -1/2" works as well as "--lambda=-1/2". No
    option of gdz looks like one.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|[ij]$)")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _add_tol_flags(p: argparse.ArgumentParser) -> None:
    for field, env in _ENV_TOLS.items():
        flag = "--" + field.replace("_", "-")
        p.add_argument(flag, type=float, default=None, help=f"override {field} (env {env})")


def _tol_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Tolerance:
    values = {}
    for field, env in _ENV_TOLS.items():
        v = getattr(args, field)
        if v is None and env in os.environ:
            try:
                v = float(os.environ[env])
            except ValueError:
                parser.error(f"environment {env}={os.environ[env]!r} is not a number")
        if v is not None:
            values[field] = v
    try:
        return Tolerance(**values)
    except ValueError as exc:
        parser.error(str(exc))


def _emit(report: dict, out: str | None) -> None:
    text = dumps(report)
    if out:
        write_bytes(out, text)
        print(f"report written to {out}")
    else:
        sys.stdout.write(text.decode())


_REPORT_FIELDS = (
    "theorem", "lambda", "conditions", "result", "oracle", "axiom_residuals", "match", "error", "wall_ms"
)


def _report(command: str, **fields) -> dict:
    """A report with every common field, None where ``fields`` gives none."""
    base = {"schema_version": SCHEMA_VERSION, "command": command, **dict.fromkeys(_REPORT_FIELDS)}
    base.update(fields)
    return base


def _axioms_doc(axioms: AxiomReport) -> dict:
    return {"solution": axioms.solution, "commute": axioms.commute, "power": axioms.power}


def cmd_drazin(args, parser, tol: Tolerance) -> tuple[dict, int]:
    a = load_matrix(args.matrix)
    try:
        res = drazin_oracle(a, tol)
    except AxiomViolation as exc:
        return _report("drazin", error=str(exc)), EXIT_MISMATCH
    axioms = check_drazin_axioms(a, res.d, tol, index=res.index)
    report = _report(
        "drazin",
        result=matrix_to_doc(res.d),
        pi=matrix_to_doc(res.pi),
        index=res.index,
        axiom_residuals=_axioms_doc(axioms),
        match=bool(axioms.ok),
    )
    return report, EXIT_OK if axioms.ok else EXIT_MISMATCH


def cmd_solve(args, parser, tol: Tolerance) -> tuple[dict, int]:
    """``sum`` and ``block``: evaluate, plus the axiom check of the formula."""
    try:
        require_lambda(args.lam)
    except ValueError as exc:
        parser.error(str(exc))
    mats = {name: load_matrix(getattr(args, name)) for name in args.names}
    check_shapes(args.theorem, mats)
    out = evaluate(args.theorem, mats, args.lam, tol, args.force)
    fitted = next((c.lam for c in out.conditions if c.lam is not None), None)
    report = _report(
        args.command,
        theorem=args.theorem,
        conditions=[factor_check_to_doc(c) for c in out.conditions],
        **{"lambda": complex_to_doc(fitted if args.lam is None else args.lam)},
    )
    if out.failing and not args.force:
        report["error"] = "precondition violated: " + "; ".join(c.condition for c in out.failing)
        code = EXIT_PRECONDITION
    elif out.closed is not None:
        report["match"] = out.closed
        code = EXIT_OK if out.closed else EXIT_MISMATCH
    elif out.error is not None:
        report["error"] = out.error
        code = EXIT_MISMATCH
    else:
        axioms = check_drazin_axioms(out.m, out.formula, tol, index=out.oracle.index)
        ok = out.gap <= out.bound and axioms.ok
        report.update(
            result=matrix_to_doc(out.formula),
            oracle=matrix_to_doc(out.oracle.d),
            oracle_gap=out.gap,
            axiom_residuals=_axioms_doc(axioms),
            match=bool(ok),
        )
        code = EXIT_OK if ok else EXIT_MISMATCH
    return report, code


def cmd_gen(args, parser, tol: Tolerance) -> tuple[dict, int]:
    """``gen``, the one command that runs the generator, and so the one that
    imports ``casegen`` (and, at its first draw, ``numpy.random``); the
    parser names targets and presets without it."""
    from .casegen import PRESET_SPECS, CaseSpec, generate

    if args.preset:
        spec = PRESET_SPECS[args.preset]
    else:
        if args.target is None or args.dim is None:
            parser.error("gen requires --target and --dim (or --preset)")
        if args.lam is None:
            parser.error("gen requires a concrete --lambda (not auto)")
        try:
            spec = CaseSpec(
                target=args.target, dim=args.dim, lam=args.lam, seed=args.seed, negate=args.negate
            )
        except ValueError as exc:
            parser.error(str(exc))
    case = generate(spec, tol)
    manifest = save_instance(args.out, case)
    report = _report(
        "gen",
        theorem=spec.target,
        conditions=manifest["certificate"],
        match=True,
        out_dir=str(args.out),
        **{"lambda": complex_to_doc(complex(spec.lam))},
    )
    return report, EXIT_OK


def _verify_one(manifest: dict, matrices: dict, tol: Tolerance) -> tuple[bool, str]:
    """Contract check for one instance: valid instances must evaluate and
    match the oracle; negated instances must trip the precondition."""
    lam = doc_to_complex(manifest.get("lambda"))
    out = evaluate(manifest["target"], matrices, lam, tol, force=False)
    if manifest.get("negate", False):
        if not out.failing:
            return False, "negated instance was accepted (no condition failed)"
        return True, f"precondition tripped: {out.failing[0].condition}"
    if out.failing:
        return False, "valid instance rejected: " + "; ".join(c.condition for c in out.failing)
    if out.closed is not None:
        return out.closed, "closure holds" if out.closed else "closure failed"
    if out.error is not None:
        return False, out.error
    if out.gap > out.bound:
        return False, f"formula/oracle gap {out.gap:.3e} exceeds {out.bound:.3e}"
    return True, f"match (gap {out.gap:.3e})"


def cmd_verify(args, parser, tol: Tolerance) -> tuple[dict, int]:
    root = norm_path(args.directory)
    if not os.path.isdir(root):
        raise DocumentError(f"{root} is not a directory")
    if os.path.exists(join_path(root, "instance.json")):
        dirs = [root]
    else:
        children = (join_path(root, name) for name in os.listdir(root))
        dirs = sorted(
            p for p in children if os.path.isdir(p) and os.path.exists(join_path(p, "instance.json"))
        )
    if not dirs:
        raise DocumentError(f"no instances under {root}")

    rows = []
    for d in dirs:
        manifest, matrices = load_instance(d)
        if args.theorem and manifest["target"] != args.theorem:
            continue
        try:
            ok, detail = _verify_one(manifest, matrices, tol)
        except AxiomViolation as exc:  # from the oracle run on an operand
            ok, detail = False, str(exc)
        rows.append(
            {
                "dir": d,
                "target": manifest["target"],
                "negate": bool(manifest.get("negate", False)),
                "ok": ok,
                "detail": detail,
            }
        )
    if not rows:
        raise DocumentError(f"no instances under {root} match theorem {args.theorem}")
    all_ok = all(row["ok"] for row in rows)

    report = _report(
        "verify",
        theorem=args.theorem,
        match=all_ok,
        instances=rows,
    )
    return report, EXIT_OK if all_ok else EXIT_MISMATCH


@functools.cache
def build_parser() -> _Parser:
    """The gdz parser, built on the first call and shared by every later one;
    nothing may change it after it is built."""
    parser = _Parser(prog="gdz", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("drazin", help="Drazin inverse of one matrix", parents=[])
    p.add_argument("matrix", help="matrix document (JSON)")
    p.add_argument("--out", default=None, help="write the report JSON here")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_drazin)

    for command, kind, theorems, text in (
        ("sum", "pair", PAIR_TARGETS, "additive formulas for a + b"),
        ("block", "block", RULE_IDS, "block-matrix formulas for [[A,B],[C,D]]"),
    ):
        p = sub.add_parser(command, help=text)
        names = OPERANDS[kind]
        for name in names:
            p.add_argument(name)
        p.add_argument("--theorem", required=True, choices=list(theorems))
        p.add_argument("--lambda", dest="lam", type=parse_scalar, default=None, metavar="L",
                       help="scalar (complex, fraction, or 'auto'); default auto")
        p.add_argument("--force", action="store_true", help="evaluate even if the hypothesis fails")
        p.add_argument("--out", default=None)
        _add_tol_flags(p)
        p.set_defaults(func=cmd_solve, names=names)

    p = sub.add_parser("gen", help="write a generated instance directory")
    p.add_argument("--target", choices=list(TARGETS), default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=parse_scalar, default=complex(1.0), metavar="L")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--negate", action="store_true",
                   help="break exactly one hypothesis condition at the declared lambda")
    p.add_argument("--preset", choices=sorted(PRESET_NAMES), default=None,
                   help="canonical named instance (overrides the other selectors)")
    p.add_argument("--out", required=True, help="instance directory to create")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="re-check a directory of generated instances")
    p.add_argument("directory")
    p.add_argument("--theorem", default=None, choices=list(TARGETS),
                   help="only verify instances of this target")
    p.add_argument("--out", default=None)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        tol = _tol_from_args(parser, args)
        t0 = time.perf_counter()
        report, code = args.func(args, parser, tol)
        report["wall_ms"] = (time.perf_counter() - t0) * 1e3
        # gen's --out names the instance directory; its report goes to stdout
        _emit(report, None if args.command == "gen" else args.out)
        return code
    except SystemExit as exc:
        # argparse --help exits 0, _Parser.error exits 4; surface both as
        # return values so in-process callers never see SystemExit.
        return int(exc.code or 0)
    except (DocumentError, OSError) as exc:  # OSError: writing a report or an instance
        print(f"gdz: {exc}", file=sys.stderr)
        return EXIT_IO
    except PreconditionViolated as exc:
        print(f"gdz: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ConvergenceError, AxiomViolation, ReconciliationError) as exc:
        print(f"gdz: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (GenerationFailed, ValueError) as exc:
        print(f"gdz: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
