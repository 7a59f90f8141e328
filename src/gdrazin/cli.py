"""Command-line interface.

Subcommands
-----------
drazin   Drazin inverse of one matrix (oracle route), with axiom residuals.
sum      Additive formulas for a + b (theorems 2.2, 2.3, 2.4).
block    Block-matrix formulas for [[A, B], [C, D]] (rules 3.1 .. 4.3).
gen      Write a generated instance directory for a target hypothesis set.
verify   Re-check a directory of generated instances end to end.

Exit codes: 0 success/match, 2 precondition violation (or an instance the
generator cannot realize), 3 mismatch, failed axioms, a forced run that did
not converge, an input the oracle refuses (an ambiguous rank), or a product
of finite inputs that leaves the float range, each written as a report
(verify writes one row for each such instance and goes on), 4 I/O, parse,
or usage errors (a non-square drazin input among them, and an instance
manifest whose kind or files are not the ones gen writes for its target).
The parser of each command checks every value given to it, so a usage
error prints that command's usage line.

Thresholds are fixed (gdrazin.linalg: EPS_RANK 1e-10, EPS_CHECK 1e-9,
EPS_MATCH 1e-8, EPS_TAIL 1e-12): no option or environment variable changes
a verdict.

Every report is one compact JSON line written by orjson to stdout, and
only there: redirect stdout to keep it in a file, and pipe it through
`python3 -m json.tool` to read it indented. A number in it that is not
finite, such as a residual that overflowed, is written as null. The one
--out is gen's, and names the instance directory. main() builds the parser
once per process and reuses it on every later call.
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
from .errors import AxiomViolation, GenerationFailed
from .evaluation import OPERANDS, TARGETS, evaluate
from .io import (
    SCHEMA_VERSION,
    DocumentError,
    check_shapes,
    complex_to_doc,
    dumps,
    factor_check_to_doc,
    join_path,
    load_instance,
    load_matrix,
    matrix_to_doc,
    norm_path,
    parse_scalar,
    save_instance,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_MISMATCH = 3
EXIT_IO = 4


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

    def parse_known_args(self, args=None, namespace=None):
        # refuse a command's unknown arguments here, not in the top parser
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _lambda(text: str) -> complex:
    """The type of --lambda: a scalar parse_scalar reads and require_lambda
    accepts, so its parser reports either refusal with the reason."""
    try:
        lam = parse_scalar(text)
        require_lambda(lam)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return lam


def _emit(report: dict) -> None:
    sys.stdout.write(dumps(report).decode())


_REPORT_FIELDS = (
    "theorem", "lambda", "conditions", "result", "oracle", "axiom_residuals", "match", "error", "wall_ms"
)


def _report(command: str, **fields) -> dict:
    """A report with every common field, None where ``fields`` gives none."""
    base = {"schema_version": SCHEMA_VERSION, "command": command, **dict.fromkeys(_REPORT_FIELDS)}
    base.update(fields)
    return base


# What a request raises, past the checks of its documents and their shapes,
# that becomes its report (exit 3): the oracle's refusal of an operand, and
# the ValueError of an intermediate product of finite inputs that left the
# float range, the one ValueError that the checked documents leave possible.
_REFUSED = (AxiomViolation, ValueError)


def _axioms_doc(axioms: AxiomReport) -> dict:
    return {"solution": axioms.solution, "commute": axioms.commute, "power": axioms.power}


def cmd_drazin(args) -> tuple[dict, int]:
    a = load_matrix(args.matrix)
    if a.shape[0] != a.shape[1]:
        raise DocumentError(f"{norm_path(args.matrix)}: expected a square matrix, got {a.shape}")
    try:
        res = drazin_oracle(a)
        axioms = check_drazin_axioms(a, res.d, index=res.index)
    except _REFUSED as exc:
        return _report("drazin", error=str(exc)), EXIT_MISMATCH
    report = _report(
        "drazin",
        result=matrix_to_doc(res.d),
        pi=matrix_to_doc(res.pi),
        index=res.index,
        axiom_residuals=_axioms_doc(axioms),
        match=bool(axioms.ok),
    )
    return report, EXIT_OK if axioms.ok else EXIT_MISMATCH


def cmd_solve(args) -> tuple[dict, int]:
    """``sum`` and ``block``: evaluate, plus the axiom check of the formula."""
    mats = {name: load_matrix(getattr(args, name)) for name in args.names}
    check_shapes(args.theorem, mats)
    try:
        out = evaluate(args.theorem, mats, args.lam, args.force)
        # the formula has a gap exactly when the report below reads its axioms
        axioms = None if out.gap is None else check_drazin_axioms(out.m, out.formula, index=out.oracle.index)
    except _REFUSED as exc:
        return _report(args.command, theorem=args.theorem, error=str(exc)), EXIT_MISMATCH
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


def cmd_gen(args) -> tuple[dict, int]:
    """``gen``, the one command that runs the generator, and so the one that
    imports ``casegen`` (and, at its first draw, ``numpy.random``); the
    parser names targets without it."""
    from .casegen import CaseSpec, generate

    try:
        spec = CaseSpec(args.target, args.dim, args.lam, args.seed, args.negate)
    except ValueError as exc:  # --dim or --seed out of range
        args.parser.error(str(exc))
    case = generate(spec)
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


def _verify_one(manifest: dict, matrices: dict, lam: complex) -> tuple[bool, str]:
    """Contract check for one instance, at the lambda load_instance decoded:
    valid instances must evaluate and match the oracle; negated instances
    must trip the precondition."""
    out = evaluate(manifest["target"], matrices, lam)
    if manifest["negate"]:
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


def cmd_verify(args) -> tuple[dict, int]:
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
        manifest, matrices, lam = load_instance(d)
        try:
            ok, detail = _verify_one(manifest, matrices, lam)
        except _REFUSED as exc:
            ok, detail = False, str(exc)
        rows.append(
            {
                "dir": d,
                "target": manifest["target"],
                "negate": manifest["negate"],
                "ok": ok,
                "detail": detail,
            }
        )
    all_ok = all(row["ok"] for row in rows)
    return _report("verify", match=all_ok, instances=rows), EXIT_OK if all_ok else EXIT_MISMATCH


@functools.cache
def build_parser() -> _Parser:
    """The gdz parser, built on the first call and shared by every later one;
    nothing may change it after it is built."""
    parser = _Parser(prog="gdz", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("drazin", help="Drazin inverse of one matrix")
    p.add_argument("matrix", help="matrix document (JSON)")
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
        p.add_argument("--lambda", dest="lam", type=_lambda, default=None, metavar="L",
                       help="scalar (complex or fraction); fitted when not given")
        p.add_argument("--force", action="store_true", help="evaluate even if the hypothesis fails")
        p.set_defaults(func=cmd_solve, names=names)

    p = sub.add_parser("gen", help="write a generated instance directory")
    p.add_argument("--target", required=True, choices=list(TARGETS))
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--lambda", dest="lam", type=_lambda, default=complex(1), metavar="L",
                   help="default 1")
    p.add_argument("--seed", type=int, default=0, help="default 0")
    p.add_argument("--negate", action="store_true",
                   help="break exactly one hypothesis condition at the declared lambda")
    p.add_argument("--out", required=True, help="instance directory to create")
    p.set_defaults(func=cmd_gen, parser=p)

    p = sub.add_parser("verify", help="re-check a directory of generated instances")
    p.add_argument("directory")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        report, code = args.func(args)
        report["wall_ms"] = (time.perf_counter() - t0) * 1e3
        _emit(report)
        return code
    except SystemExit as exc:
        # argparse --help exits 0, _Parser.error exits 4; surface both as
        # return values so in-process callers never see SystemExit.
        return int(exc.code or 0)
    except (DocumentError, OSError) as exc:  # OSError: writing an instance
        print(f"gdz: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GenerationFailed, ValueError) as exc:
        print(f"gdz: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
