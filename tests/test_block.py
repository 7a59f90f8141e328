"""Block-matrix rules: hypothesis checks, dispatch, exchange, closed form."""

import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import gdrazin.additive
import gdrazin.blockmat
from gdrazin import (
    RULE_IDS,
    Block2x2,
    CaseSpec,
    DrazinResult,
    PreconditionViolated,
    assemble,
    block_drazin,
    certify,
    check_drazin_axioms,
    check_hypothesis,
    closed_form_drazin,
    drazin_oracle,
    evaluate,
    exchange,
    generate,
    preset,
)
from gdrazin.additive import _FACTOR
from gdrazin.blockmat import RULES, _quad, block_formula, block_oracles
from gdrazin.linalg import scale_of
from helpers import LAMBDAS, count_sweeps

README = Path(__file__).resolve().parent.parent / "README.md"

EXPECTED_LABELS = {
    "3.1": ["B D = lambda (B C)^pi A B D^pi", "C A = lambda (C B)^pi D C A^pi"],
    "3.2": ["B D = lambda A B D^pi", "C A = lambda D C A^pi", "B C = 0"],
    "3.3": ["A B = lambda A^pi B D (C B)^pi", "D C = lambda D^pi C A (B C)^pi"],
    "3.4": ["A B = lambda A^pi B D", "D C = 0", "B C = 0"],
    "4.1": ["B D = lambda A^pi A B", "D C = (1/lambda) D^pi C A A^pi", "B C = 0"],
    "4.2": ["C A = lambda D^pi D C", "A B = (1/lambda) A^pi B D D^pi", "C B = 0"],
    "4.3": ["A B = lambda A^pi B D", "D C = lambda D^pi C A", "B C = 0"],
}


def _case(rule, dim, lam, seed):
    return generate(CaseSpec(target=rule, dim=dim, lam=lam, seed=seed))


def _record_series(monkeypatch):
    """The label of every series sum_formula forms from now on, in order."""
    labels = []
    real_summed = gdrazin.additive.summed

    def recording(terms, nmax, scale, label):
        labels.append(label)
        return real_summed(terms, nmax, scale, label)

    monkeypatch.setattr(gdrazin.additive, "summed", recording)
    return labels


def _assert_zero_corner(blocks):
    """B C is at rounding-noise level: the corner Q's data is (0, I)."""
    q_dr, size = gdrazin.blockmat._q_drazin(blocks), sum(blocks.dims)
    assert q_dr.d.shape == (size, size) and not q_dr.d.any()
    assert np.array_equal(q_dr.pi, np.eye(size))


def _swap_permutation(m, n):
    """Permutation p with assemble(blocks) = p @ assemble(exchange(blocks)) @ p.T
    for blocks of dims (m, n)."""
    top = np.hstack([np.zeros((m, n)), np.eye(m)])
    bot = np.hstack([np.eye(n), np.zeros((n, m))])
    return np.vstack([top, bot]).astype(complex)


class TestBlock2x2:
    def test_conformability_enforced(self):
        with pytest.raises(ValueError):
            Block2x2(a=np.eye(2), b=np.zeros((3, 2)), c=np.zeros((2, 2)), d=np.eye(2))
        with pytest.raises(ValueError):
            Block2x2(a=np.zeros((2, 3)), b=np.zeros((2, 2)), c=np.zeros((2, 2)), d=np.eye(2))

    def test_assemble_layout(self):
        blocks = Block2x2(
            a=np.eye(2), b=np.full((2, 3), 2.0), c=np.full((3, 2), 3.0), d=4 * np.eye(3)
        )
        m = assemble(blocks)
        assert m.shape == (5, 5)
        assert np.array_equal(m[:2, :2], np.eye(2))
        assert np.array_equal(m[:2, 2:], np.full((2, 3), 2.0))
        assert np.array_equal(m[2:, :2], np.full((3, 2), 3.0))
        assert blocks.dims == (2, 3)

    def test_assembly_has_the_bytes_of_np_block(self):
        # m != n, signed zeros and non-square corner products included, as
        # the splittings build them
        rng = np.random.default_rng(5)

        def z(rows, cols):
            x = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            x[0, 0] = complex(-0.0, 0.0)
            x[-1, -1] = complex(0.0, -0.0)
            return x

        for m, n in ((1, 4), (3, 2), (2, 5)):
            tl, tr, bl, br = z(m, m), z(m, n), z(n, m), z(n, n)
            want = np.block([[tl, tr], [bl, br]])
            for got in (assemble(Block2x2(a=tl, b=tr, c=bl, d=br)), _quad(tl, tr, bl, br)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()

    def test_exchange_is_an_involution_and_a_similarity(self):
        rng = np.random.default_rng(0)
        blocks = Block2x2(
            a=rng.normal(size=(2, 2)),
            b=rng.normal(size=(2, 3)),
            c=rng.normal(size=(3, 2)),
            d=rng.normal(size=(3, 3)),
        )
        back = exchange(exchange(blocks))
        assert np.array_equal(back.a, blocks.a)
        assert np.array_equal(back.c, blocks.c)
        perm = _swap_permutation(2, 3)
        assert np.allclose(perm @ perm.T, np.eye(5))
        assert np.allclose(
            assemble(blocks), perm @ assemble(exchange(blocks)) @ perm.T
        )


class TestRuleTable:
    def test_readme_table_lists_the_labels(self):
        table = {}
        for line in README.read_text().splitlines():
            row = re.fullmatch(r"\| (\d\.\d) \| (.*) \|", line)
            if row and row.group(1) in RULE_IDS:
                table[row.group(1)] = tuple(re.findall(r"`([^`]*)`", row.group(2)))
        assert table == RULES
        assert tuple(table) == RULE_IDS

    def test_module_docstring_points_at_the_table(self):
        doc = gdrazin.blockmat.__doc__
        assert "``RULES``" in doc
        assert [label for labels in RULES.values() for label in labels if label in doc] == []

    def test_corner_rules_are_those_naming_bc_idempotents(self):
        # the generator's core slot of b and c, and block_oracles' corner
        # data, follow the rules whose labels name (B C)^pi or (C B)^pi
        assert gdrazin.blockmat._BC_RULES == {"3.1", "3.3"}


class TestHypothesisChecks:
    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_labels_in_catalog_order(self, rule):
        case = _case(rule, 5, 3.0, 0)
        checks = check_hypothesis(case.blocks, rule, lam=3.0)
        assert [c.condition for c in checks] == EXPECTED_LABELS[rule]
        assert all(c.holds for c in checks)

    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_fitted_mode_recovers_lambda(self, rule):
        lam = -2.0
        case = _case(rule, 6, lam, 1)
        checks = check_hypothesis(case.blocks, rule)
        assert all(c.holds for c in checks)
        fitted = [c for c in checks if c.lam is not None]
        assert fitted
        # every scalar row reports lambda itself, (1/lambda) rows included
        assert all(abs(c.lam - lam) < 1e-6 for c in fitted)

    def test_lambda_consistency_row_appears(self):
        case = _case("4.3", 6, 0.5, 2)
        checks = check_hypothesis(case.blocks, "4.3")
        assert checks[-1].condition == "lambda consistency"
        assert checks[-1].holds

    def test_wrong_lambda_fails_scalar_rows_only(self):
        case = _case("4.3", 5, 3.0, 0)
        checks = check_hypothesis(case.blocks, "4.3", lam=1.0)
        by_label = {c.condition: c for c in checks}
        assert not by_label["A B = lambda A^pi B D"].holds
        assert by_label["B C = 0"].holds

    def test_unknown_rule_rejected(self):
        case = _case("3.1", 4, 0.5, 0)
        with pytest.raises(ValueError, match="unknown rule"):
            check_hypothesis(case.blocks, "9.9")
        with pytest.raises(ValueError):
            block_drazin(case.blocks, "9.9")

    def test_zero_lambda_rejected(self):
        case = _case("3.1", 4, 0.5, 0)
        with pytest.raises(ValueError):
            check_hypothesis(case.blocks, "3.1", lam=0)

    @pytest.mark.parametrize("lam", [float("nan"), complex("inf")])
    @pytest.mark.parametrize("route", [check_hypothesis, block_drazin])
    def test_non_finite_lambda_rejected(self, route, lam):
        # every row of 4.3 is degenerate on these blocks, so a NaN or
        # infinite scalar would pass them all
        z = np.zeros((2, 2))
        blocks = Block2x2(a=np.array([[0, 1], [0, 0]]), b=z, c=z, d=np.eye(2))
        with pytest.raises(ValueError, match="lambda must be finite"):
            route(blocks, "4.3", lam=lam)


class TestBlockDrazin:
    @pytest.mark.parametrize("rule", RULE_IDS)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_matches_oracle(self, rule, lam):
        for dim, seed in ((3, 0), (5, 1), (8, 2)):
            case = _case(rule, dim, lam, seed)
            got = block_drazin(case.blocks, rule, lam=lam)
            m = assemble(case.blocks)
            want = drazin_oracle(m).d
            scale = scale_of(*case.matrices.values())
            assert np.linalg.norm(got - want) < 1e-8 * scale, (rule, lam, dim, seed)
            assert check_drazin_axioms(m, got).ok

    @pytest.mark.parametrize("side", ["a", "d"])
    @pytest.mark.parametrize("rule", RULE_IDS)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_unequal_corners_match_oracle(self, lam, rule, side):
        # a valid dim-4 instance with diag(2, -3i) set beside A (or D), and B
        # and C padded with zeros, is a valid instance of the same rule with
        # (m, n) = (6, 4) (or (4, 6)); 3.1 and 3.3 form Q's data at those sizes
        def grow(x):
            return _quad(x, np.zeros((4, 2)), np.zeros((2, 4)), np.diag([2, -3j]))

        rows, cols = ((0, 2), (0, 0)), ((0, 0), (0, 2))
        for seed in range(3):
            a, b, c, d = vars(_case(rule, 4, lam, seed).blocks).values()
            if side == "a":
                padded = Block2x2(a=grow(a), b=np.pad(b, rows), c=np.pad(c, cols), d=d)
            else:
                padded = Block2x2(a=a, b=np.pad(b, cols), c=np.pad(c, rows), d=grow(d))
            assert padded.dims == ((6, 4) if side == "a" else (4, 6))
            out = evaluate(rule, vars(padded), lam)
            assert out.failing == [] and out.error is None, (seed, out.failing, out.error)
            assert out.gap <= out.bound, (seed, out.gap, out.bound)

    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_negated_instance_is_refused_with_named_condition(self, rule):
        case = generate(CaseSpec(target=rule, dim=6, lam=3.0, seed=0, negate=True))
        with pytest.raises(PreconditionViolated) as err:
            block_drazin(case.blocks, rule, lam=3.0)
        assert case.broken in str(err.value)

    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_oracle_data_without_index(self, rule):
        # DrazinResult.index may be None, and no splitting reads it
        case = _case(rule, 4, 3.0, 0)
        oracles = block_oracles(case.blocks, rule)
        bare = {k: DrazinResult(dr.d, dr.pi, None) for k, dr in oracles.items()}
        got = block_formula(case.blocks, rule, **bare)
        assert np.array_equal(got, block_drazin(case.blocks, rule, lam=3.0))

    def test_bc_inverse_is_computed_once(self, monkeypatch):
        # rule 3.1 reads (B C)^d in its conditions and in its splitting
        case = _case("3.1", 6, 0.5, 1)
        sweeps = count_sweeps(monkeypatch)
        block_drazin(case.blocks, "3.1", lam=0.5)
        assert sorted(sweeps) == [6, 6, 6]  # A, D, B C

    @pytest.mark.parametrize("rule", ["3.1", "3.3"])
    def test_corner_data_is_formed_once_per_evaluate(self, rule, monkeypatch):
        # the rows read (B C)^pi and (C B)^pi off Q^pi, and the splitting
        # reads Q^d and Q^pi: one evaluate forms the corner data once
        case = _case(rule, 6, 0.5, 1)
        calls = []
        real = gdrazin.blockmat._q_drazin

        def counting(blocks):
            calls.append(blocks)
            return real(blocks)

        monkeypatch.setattr(gdrazin.blockmat, "_q_drazin", counting)
        out = evaluate(rule, case.matrices, 0.5)
        assert out.failing == [] and out.gap <= out.bound
        assert len(calls) == 1

    @pytest.mark.parametrize("rule", ["3.1", "3.3"])
    def test_corner_idempotent_from_its_diagonal_blocks(self, rule):
        # Q^pi is formed from its diagonal blocks (B C)^pi and (C B)^pi at
        # sizes m and n; it is I - Q Q^d multiplied out at size m + n
        for i in range(8):
            blocks = _case(rule, 3 + i % 4, LAMBDAS[i % 4], i).blocks
            (m, n), q_dr = blocks.dims, gdrazin.blockmat._q_drazin(blocks)
            q = _quad(np.zeros((m, m)), blocks.b, blocks.c, np.zeros((n, n)))
            want = np.eye(m + n) - q @ q_dr.d
            assert np.linalg.norm(q_dr.pi - want) <= 1e-12 * np.linalg.norm(want), (rule, i)

    @pytest.mark.parametrize("rule", ["3.4", "4.3"])
    def test_zero_q_drazin_forms_one_series(self, rule, monkeypatch):
        # B C = 0 makes Q^d = 0, and Q is the b of the splitting's sum, so
        # sum_formula forms series 2 alone: the others carry powers of b^d.
        # From dim 5 on A and D have an invertible core, so P^d != 0 and the
        # a^d = 0 return (series 1 alone) is not the one taken.
        labels = _record_series(monkeypatch)
        for i in range(12):
            lam = LAMBDAS[i % 4]
            case = _case(rule, 5 + i % 4, lam, i)
            labels.clear()
            got = block_drazin(case.blocks, rule, lam=lam)
            assert labels == ["sum formula series 2"], (rule, i)
            m = assemble(case.blocks)
            scale = scale_of(*case.matrices.values())
            assert np.linalg.norm(got - drazin_oracle(m).d) < 1e-8 * scale, (rule, i)

    def test_zero_product_subsumption(self, monkeypatch):
        # an instance of the zero-coupling rule also satisfies the projector
        # variant: with B C = 0 the extra projector factors are identities.
        # Its B C is at noise level, so rule 3.1 reads Q's data as (0, I),
        # and its splitting (Q first) forms series 1 alone
        case = _case("3.2", 6, 0.5, 3)
        _assert_zero_corner(case.blocks)
        assert all(c.holds for c in check_hypothesis(case.blocks, "3.1", lam=0.5))
        labels = _record_series(monkeypatch)
        a31 = block_drazin(case.blocks, "3.1", lam=0.5)
        assert labels == ["sum formula series 1"]
        a32 = block_drazin(case.blocks, "3.2", lam=0.5)
        assert np.allclose(a31, a32, atol=1e-10)

    def test_one_sided_subsumption(self, monkeypatch):
        # D C = 0 cases satisfy the two-sided variant degenerately. Its B C
        # is at noise level, so rule 3.3 reads Q's data as (0, I), and its
        # splitting (Q second, P^d != 0) forms series 2 alone
        case = _case("3.4", 6, 3.0, 5)
        _assert_zero_corner(case.blocks)
        assert all(c.holds for c in check_hypothesis(case.blocks, "3.3", lam=3.0))
        labels = _record_series(monkeypatch)
        a33 = block_drazin(case.blocks, "3.3", lam=3.0)
        assert labels == ["sum formula series 2"]
        a34 = block_drazin(case.blocks, "3.4", lam=3.0)
        assert np.allclose(a33, a34, atol=1e-10)

    def test_exchange_symmetry(self):
        # the reciprocal-pair rules are exchange images of each other at the
        # same scalar; inverses transfer by the swap permutation
        case = _case("4.1", 6, 0.5, 7)
        ex = exchange(case.blocks)
        checks = check_hypothesis(ex, "4.2", lam=0.5)
        assert all(c.holds for c in checks)
        m, n = case.blocks.dims
        perm = _swap_permutation(n, m)
        lhs = block_drazin(ex, "4.2", lam=0.5)
        rhs = perm @ block_drazin(case.blocks, "4.1", lam=0.5) @ perm.T
        assert np.array_equal(lhs, rhs)

    def test_corner_part_cube_vanishes_under_zero_coupling(self):
        # B C = 0 alone forces Q^3 = 0 for Q = [[0, B], [C, 0]]: both corners
        # of the cube carry a B C factor
        case = _case("4.3", 6, 1j, 4)
        b, c = case.blocks.b, case.blocks.c
        m, n = case.blocks.dims
        q = np.block([[np.zeros((m, m)), b], [c, np.zeros((n, n))]])
        assert np.linalg.norm(np.linalg.matrix_power(q, 3)) < 1e-12

    def test_left_column_block_triangular_case(self):
        # M = [[A, 0], [C, 0]]: hypothesis degenerate, series genuinely
        # nonzero, inverse known in closed form [[A^d, 0], [C (A^d)^2, 0]]
        rng = np.random.default_rng(12)
        a = np.diag(rng.uniform(0.8, 1.3, 3)).astype(complex)
        c = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
        blocks = Block2x2(a=a, b=np.zeros((3, 2)), c=c, d=np.zeros((2, 2)))
        got = block_drazin(blocks, "3.4", lam=1.0)
        ad = np.linalg.inv(a)
        want = np.block([
            [ad, np.zeros((3, 2))],
            [c @ ad @ ad, np.zeros((2, 2))],
        ])
        assert np.allclose(got, want, atol=1e-10)
        assert np.allclose(drazin_oracle(assemble(blocks)).d, want, atol=1e-10)


class TestClosedForm:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_reconciles_with_engine_and_oracle(self, lam):
        case = _case("4.1", 6, lam, 11)
        closed = closed_form_drazin(case.blocks, lam=lam)
        want = drazin_oracle(assemble(case.blocks)).d
        scale = scale_of(*case.matrices.values())
        assert np.linalg.norm(closed - want) < 1e-8 * scale

    def test_refuses_negated_instance(self):
        case = generate(CaseSpec(target="4.1", dim=5, lam=0.5, seed=1, negate=True))
        with pytest.raises(PreconditionViolated):
            closed_form_drazin(case.blocks, lam=0.5)

    def test_canonical_preset_regression(self):
        case = preset("example-4.4")
        blocks = case.blocks
        checks = check_hypothesis(blocks, "4.3", lam=3.0)
        assert all(c.holds for c in checks)
        rejected = check_hypothesis(blocks, "4.3", lam=1.0)
        assert not rejected[0].holds  # A B = lambda A^pi B D fails at 1
        got = block_drazin(blocks, "4.3", lam=3.0)
        want = drazin_oracle(assemble(blocks)).d
        assert np.linalg.norm(got - want) < 1e-10


# The two maps between catalog rules, on labels: each sends a factor to its
# image, and transposition also reverses every product. A parenthesized
# factor is a product too: transposed, (B C)^pi reverses to (C B)^pi and
# the swap of B and C brings it back. Scalars ("lambda", "(1/lambda)", "0")
# stay where they are.
_SCALAR_TOKENS = ("lambda", "(1/lambda)", "0")
_SYMMETRIES = {
    # (Aᵀ, Cᵀ, Bᵀ, Dᵀ): M' = Mᵀ, so M'^d = (M^d)ᵀ
    "transpose": (
        {"B": "C", "C": "B"},
        True,
        lambda m: {"a": m["a"].T, "b": m["c"].T, "c": m["b"].T, "d": m["d"].T},
        lambda x, k: x.T,
    ),
    # (D, C, B, A): M' = [[D, C], [B, A]], whose inverse has swapped quadrants
    "exchange": (
        {"A": "D", "D": "A", "B": "C", "C": "B", "A^pi": "D^pi", "D^pi": "A^pi",
         "(B C)^pi": "(C B)^pi", "(C B)^pi": "(B C)^pi"},
        False,
        lambda m: {"a": m["d"], "b": m["c"], "c": m["b"], "d": m["a"]},
        lambda x, k: _quad(x[k:, k:], x[k:, :k], x[:k, k:], x[:k, :k]),
    ),
}


def _mapped_label(label: str, swap: dict, reverse: bool) -> str:
    sides = []
    for side in label.split(" = "):
        tokens = _FACTOR.findall(side)
        scalars = [t for t in tokens if t in _SCALAR_TOKENS]
        factors = [swap.get(t, t) for t in tokens if t not in _SCALAR_TOKENS]
        sides.append(" ".join(scalars + (factors[::-1] if reverse else factors)))
    return " = ".join(sides)


class TestCatalogSymmetry:
    """Rule 3.3 is rule 3.1 transposed, 4.3 is 3.2 transposed, and 4.2 is
    4.1 exchanged: on generated instances of the source rule, the mapped
    blocks give the image rule the same verdict on every mapped row, and on
    valid ones the image's formula is the mapped formula."""

    @pytest.mark.parametrize(
        "source,image,symmetry",
        [("3.1", "3.3", "transpose"), ("3.2", "4.3", "transpose"), ("4.1", "4.2", "exchange")],
    )
    def test_image_rule_agrees_with_the_mapped_source(self, source, image, symmetry):
        swap, reverse, map_blocks, map_inverse = _SYMMETRIES[symmetry]
        # labels compare as sets: transposition changes their order
        assert {_mapped_label(label, swap, reverse) for label in RULES[source]} == set(RULES[image])
        worst = 0.0
        for dim, lam, seed, negate in itertools.product(range(2, 9), LAMBDAS, range(3), (False, True)):
            mats = generate(CaseSpec(source, dim, lam, seed, negate)).matrices
            mapped = map_blocks(mats)
            holds = {c.condition: c.holds for c in certify(image, mapped, lam)}
            for c in certify(source, mats, lam):
                assert holds[_mapped_label(c.condition, swap, reverse)] == c.holds, (dim, lam, seed, negate)
            if not negate:
                formula = evaluate(source, mats, lam).formula
                gap = np.linalg.norm(evaluate(image, mapped, lam).formula - map_inverse(formula, dim))
                # a nilpotent M has a zero formula: the floor of 1 keeps the
                # band finite
                worst = max(worst, gap / max(1.0, np.linalg.norm(formula)))
        assert worst <= 1e-12
