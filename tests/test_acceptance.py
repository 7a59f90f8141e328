"""Acceptance gate: one test per contract criterion, each printing a summary
line with its headline numbers and wall time (visible under ``pytest -s``).

Every check here runs against the public API or the CLI entry point; nothing
reaches into module internals. Criteria 4 and 7 judge their instances with
``evaluate``, the route ``gdz sum``, ``gdz block`` and ``gdz verify`` run,
so the gate checks the path users run.
"""

import json
import time
from pathlib import Path

import numpy as np

from helpers import (
    LAMBDAS,
    criterion_4_corpus,
    criterion_7_corpus,
    mild_similarity,
    mixture,
    rectangular_pair,
    triangular_instance,
)

from gdrazin import (
    CaseSpec,
    assemble,
    block_drazin,
    check_drazin_axioms,
    check_factor_condition,
    check_hypothesis,
    cline_drazin,
    closed_form_drazin,
    drazin_oracle,
    drazin_sum,
    evaluate,
    fro_norm,
    generate,
    is_quasinilpotent,
    nilpotent_sum_closure,
    pierce_split,
    preset,
    scale_of,
    triangular_drazin,
)
from gdrazin.casegen import TARGETS
from gdrazin.cli import EXIT_MISMATCH, EXIT_OK, EXIT_PRECONDITION, main
from gdrazin.io import save_matrix

REPO = Path(__file__).resolve().parent.parent


def _pass(n, detail, t0):
    print(f"\nPASS criterion {n}: {detail} ({time.perf_counter() - t0:.2f} s)", flush=True)


def _projector(m):
    dr = drazin_oracle(m)
    return dr, np.eye(m.shape[0], dtype=complex) - m @ dr.d


def test_criterion_1_canonical_pair_regression():
    t0 = time.perf_counter()
    case = preset("example-2.5")
    a, b = case.pair
    a_dr, a_pi = _projector(a)
    b_dr, b_pi = _projector(b)

    fit = check_factor_condition(a @ b, a_pi @ b @ a @ b_pi)
    assert fit.holds and fit.lam is not None
    assert abs(fit.lam - 0.5) < 1e-12
    assert fit.residual < 1e-12
    forced = check_factor_condition(a @ b, a_pi @ b @ a @ b_pi, given_lambda=1.0)
    assert not forced.holds

    formula = drazin_sum(a, b, lam=0.5)
    assert not formula.any()
    gap = fro_norm(formula - drazin_oracle(a + b).d)
    assert gap < 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, f"lambda fit {fit.lam:.1f}, residual {fit.residual:.1e}, sum gap {gap:.1e}", t0)


def test_criterion_2_canonical_block_regression():
    t0 = time.perf_counter()
    case = preset("example-4.4")
    blocks = case.blocks

    checks = check_hypothesis(blocks, "4.3", lam=3.0)
    assert all(c.holds for c in checks)
    scalar_rows = [c for c in checks if c.lam is not None]
    assert scalar_rows and all(abs(c.lam - 3.0) < 1e-12 for c in scalar_rows)
    assert fro_norm(blocks.b @ blocks.c) == 0.0

    rejected = check_hypothesis(blocks, "4.3", lam=1.0)
    assert not rejected[0].holds  # the A B condition is the one that fails

    formula = block_drazin(blocks, "4.3", lam=3.0)
    gap = fro_norm(formula - drazin_oracle(assemble(blocks)).d)
    assert gap < 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(2, f"both scalar conditions at 3, B C = 0 exact, block gap {gap:.1e}", t0)


def test_criterion_3_oracle_axioms_and_invariances():
    t0 = time.perf_counter()
    worst_axiom = 0.0
    worst_scaling = 0.0
    worst_similar = 0.0
    for seed in range(500):
        n = 2 + seed % 11
        rng = np.random.default_rng(seed)
        a = mixture(n, rng)
        res = drazin_oracle(a)
        ax = check_drazin_axioms(a, res.d)
        assert ax.ok, f"axioms fail at seed {seed}"
        worst_axiom = max(worst_axiom, ax.worst() / scale_of(a, res.d))

        alpha = LAMBDAS[seed % 4]
        scaled = drazin_oracle(alpha * a).d
        tol_here = 1e-8 * scale_of(a, res.d)
        gap = fro_norm(scaled - res.d / alpha)
        assert gap < tol_here, f"scaling breaks at seed {seed}"
        worst_scaling = max(worst_scaling, gap / tol_here)

        s = mild_similarity(n, rng)
        s_inv = np.linalg.inv(s)
        conjugated = drazin_oracle(s @ a @ s_inv).d
        expected = s @ res.d @ s_inv
        tol_here = 1e-8 * scale_of(s @ a @ s_inv, expected)
        gap = fro_norm(conjugated - expected)
        assert gap < tol_here, f"similarity breaks at seed {seed}"
        worst_similar = max(worst_similar, gap / tol_here)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(
        3,
        "500 matrices sized 2-12; worst relative axiom residual "
        f"{worst_axiom:.1e}; invariance margins {worst_scaling:.1e}/{worst_similar:.1e}",
        t0,
    )


def test_criterion_4_formula_oracle_equivalence_sweep():
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for target, i, lam, case in criterion_4_corpus():
        out = evaluate(target, case.matrices, lam)
        if out.gap is None:  # refused, or the formula or the oracle raised
            failures.append((target, i, out.error))
            continue
        gap = fro_norm(out.formula - out.oracle.d)
        limit = 1e-8 * scale_of(out.m)
        worst = max(worst, gap / limit)
        if gap > limit:
            failures.append((target, i))
        # the verdict that gdz verify gives: the gap against out.bound,
        # EPS_MATCH times the scale of the operands
        if out.gap > out.bound:
            failures.append((target, i, f"gap {out.gap:.3e} exceeds bound {out.bound:.3e}"))
    assert len(criterion_4_corpus()) == 900
    assert not failures, f"mismatches: {failures[:10]}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass(4, f"9 targets x 100 instances, zero failures, worst margin {worst:.1e}", t0)


def test_criterion_5_supporting_operations():
    t0 = time.perf_counter()

    worst_tri = 0.0
    worst_tail = 0.0
    for i in range(200):
        orientation = "lower" if i < 100 else "upper"
        n = 3 + i % 8
        rng = np.random.default_rng(2000 + i)
        x, p = triangular_instance(n, rng, orientation)
        got = triangular_drazin(x, p)
        gap = fro_norm(got - drazin_oracle(x).d)
        limit = 1e-8 * scale_of(x)
        assert gap < limit, f"triangular case {i} off by {gap:.3e}"
        assert check_drazin_axioms(x, got).ok
        worst_tri = max(worst_tri, gap / limit)

        # termination: the coupling-series terms carry (a a^pi)^i or
        # (b b^pi)^i, so every term at i = dimension must be dead
        split = pierce_split(x, p)
        if orientation == "lower":
            a, b, c = split.pp, split.qq, split.qp
        else:
            a, b, c = split.qq, split.pp, split.pq
        a_dr, a_pi = _projector(a)
        b_dr, b_pi = _projector(b)
        power = np.linalg.matrix_power
        term_left = power(b_dr.d, n + 2) @ c @ power(a @ a_pi, n) @ a_pi
        term_right = b_pi @ power(b @ b_pi, n) @ c @ power(a_dr.d, n + 2)
        tail = max(fro_norm(term_left), fro_norm(term_right))
        assert tail < 1e-12 * scale_of(x), f"series tail alive at case {i}: {tail:.3e}"
        worst_tail = max(worst_tail, tail / scale_of(x))

    worst_cline = 0.0
    for i in range(200):
        m, n = 2 + i % 7, 2 + (3 * i + 1) % 7
        rng = np.random.default_rng(3000 + i)
        a, b = rectangular_pair(m, n, rng)
        want = drazin_oracle(a @ b).d
        gap = fro_norm(cline_drazin(a, b) - want)
        # products of rectangular factors can have small nonzero eigenvalues,
        # so the inverse itself sets the comparison scale
        limit = 1e-8 * scale_of(a @ b, want)
        assert gap < limit, f"cline case {i} off by {gap:.3e}"
        worst_cline = max(worst_cline, gap / limit)

    for i in range(100):
        lam = LAMBDAS[i % 4]
        case = generate(CaseSpec("2.2", dim=2 + i % 7, lam=lam, seed=i))
        a, b = case.pair
        assert nilpotent_sum_closure(a, b, lam=lam) is True
        assert is_quasinilpotent(a + b)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(
        5,
        "200 triangular + 200 rectangular + 100 nilpotent pairs, zero failures; "
        f"margins {worst_tri:.1e}/{worst_cline:.1e}, worst series tail {worst_tail:.1e}",
        t0,
    )


def test_criterion_6_reading_decisions_validated():
    t0 = time.perf_counter()

    worst_anti = 0.0
    for i in range(100):
        lam = LAMBDAS[i % 4]
        case = generate(CaseSpec("3.3", dim=2 + i % 7, lam=lam, seed=500 + i))
        m = assemble(case.blocks)
        gap = fro_norm(block_drazin(case.blocks, "3.3", lam=lam) - drazin_oracle(m).d)
        limit = 1e-8 * scale_of(m)
        assert gap < limit, f"3.3 sweep case {i} off by {gap:.3e}"
        worst_anti = max(worst_anti, gap / limit)

    worst_closed = 0.0
    for i in range(100):
        lam = LAMBDAS[i % 4]
        case = generate(CaseSpec("4.1", dim=2 + i % 7, lam=lam, seed=700 + i))
        m = assemble(case.blocks)
        # closed_form_drazin cross-checks the explicit corners against the
        # splitting engine internally and raises on disagreement
        gap = fro_norm(closed_form_drazin(case.blocks, lam=lam) - drazin_oracle(m).d)
        limit = 1e-8 * scale_of(m)
        assert gap < limit, f"closed-form sweep case {i} off by {gap:.3e}"
        worst_closed = max(worst_closed, gap / limit)

    # the reconciled series index ranges must be stated in the docs
    doc = closed_form_drazin.__doc__
    assert "n >= 0" in doc and "n >= 1" in doc and "k=1..n" in doc
    readme = (REPO / "README.md").read_text()
    assert "n >= 0" in readme and "n >= 1" in readme

    _pass(
        6,
        "projector-exponent and closed-form sweeps 100/100 clean, "
        f"margins {worst_anti:.1e}/{worst_closed:.1e}; index ranges documented",
        t0,
    )


def test_criterion_7_negative_paths(tmp_path, capsys):
    t0 = time.perf_counter()

    refusals = 0
    forced_mismatches = 0
    forced_accepted = 0
    for target, i, lam, case in criterion_7_corpus():
        out = evaluate(target, case.matrices, lam)
        assert [c.condition for c in out.failing] == [case.broken]
        assert out.formula is None and out.closed is None
        refusals += 1

        # the same instance through the CLI, forced: a failing result
        # must surface as exit 3, never as a silent exit 0
        argv, names = [], sorted(case.matrices)
        for name in names:
            path = tmp_path / f"{target}-{i}-{name}.json"
            save_matrix(path, case.matrices[name])
            argv.append(str(path))
        cmd = "sum" if case.kind == "pair" else "block"
        lam_text = f"{lam.real}" if isinstance(lam, float) else "i"
        code = main(
            [cmd, *argv, "--theorem", target, "--lambda", lam_text, "--force"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code in (EXIT_OK, EXIT_MISMATCH)
        if code == EXIT_OK:
            assert doc["match"] is True
            forced_accepted += 1
        else:
            assert doc["match"] is not True
            forced_mismatches += 1

    assert refusals == 50 * len(TARGETS)
    assert forced_mismatches > 0

    # unforced CLI pass over one instance per target: exit 2 with a report
    for target in TARGETS:
        case = generate(CaseSpec(target, dim=4, lam=0.5, seed=1, negate=True))
        argv = []
        for name in sorted(case.matrices):
            path = tmp_path / f"plain-{target}-{name}.json"
            save_matrix(path, case.matrices[name])
            argv.append(str(path))
        cmd = "sum" if case.kind == "pair" else "block"
        code = main([cmd, *argv, "--theorem", target, "--lambda", "1/2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_PRECONDITION
        assert "precondition" in doc["error"]

    # deterministic forced mismatch: formula output fails the axioms
    case = generate(CaseSpec("4.1", dim=4, lam=0.5, seed=3, negate=True))
    argv = []
    for name in sorted(case.matrices):
        path = tmp_path / f"known-{name}.json"
        save_matrix(path, case.matrices[name])
        argv.append(str(path))
    code = main(["block", *argv, "--theorem", "4.1", "--lambda", "1/2", "--force"])
    capsys.readouterr()
    assert code == EXIT_MISMATCH

    _pass(
        7,
        f"{refusals} refusals; forced runs: {forced_mismatches} reported "
        f"failures, {forced_accepted} legitimate matches, none silent",
        t0,
    )
