"""Scalar-fit checks, condition labels and the additive sum formulas."""

import itertools
import re

import numpy as np
import pytest

from gdrazin import (
    PAIR_TARGETS,
    CaseSpec,
    ConvergenceError,
    DrazinResult,
    PreconditionViolated,
    block_drazin,
    certify,
    check_drazin_axioms,
    check_factor_condition,
    closed_form_drazin,
    drazin_oracle,
    drazin_sum,
    drazin_sum_nilpotent,
    fro_norm,
    generate,
    nilpotent_sum_closure,
    preset,
)
from gdrazin.additive import (
    _PAIR_CONDITIONS,
    _PAIR_FACTORS,
    PAIR_RULES,
    _pair_factors,
    check_condition_rows,
    condition_rows,
    pair_oracles,
    parse_condition,
    sum_formula,
)
from gdrazin.blockmat import _BLOCK_FACTORS, RULES, _diag_dr, _quad, block_oracles
from gdrazin.evaluation import _NAMED
from gdrazin.linalg import scale_of
from gdrazin.series import PowerCache, series_cap, summed
from helpers import LAMBDAS, is_unformed_nilpotent

NON_FINITE = (float("nan"), complex("inf"), complex(0, float("-inf")))

# The public entry point that refuses on each pair target's hypothesis.
PAIR_FORMULAS = {"2.2": nilpotent_sum_closure, "2.3": drazin_sum_nilpotent, "2.4": drazin_sum}


# Every formula route, called on a valid instance of its hypothesis.
FORMULA_ROUTES = {
    "drazin_sum": lambda **kw: drazin_sum(*preset("example-2.5").pair, **kw),
    "drazin_sum_nilpotent": lambda **kw: drazin_sum_nilpotent(*preset("example-2.5").pair, **kw),
    "block_drazin": lambda **kw: block_drazin(preset("example-4.4").blocks, "4.3", **kw),
    "closed_form_drazin": lambda **kw: closed_form_drazin(preset("example-4.4").blocks, **kw),
}


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("lam", [0, float("nan"), complex("inf")])
@pytest.mark.parametrize("route", FORMULA_ROUTES)
def test_every_formula_route_refuses_a_bad_lambda(route, lam, force):
    # require_lambda's rule holds whether or not the hypothesis is checked
    with pytest.raises(ValueError, match="lambda must be"):
        FORMULA_ROUTES[route](lam=lam, force=force)


class TestFactorCheck:
    def test_recovers_planted_scalar(self):
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lam = 0.75 - 2.25j
        chk = check_factor_condition(lam * rhs, rhs)
        assert chk.holds
        assert abs(chk.lam - lam) < 1e-10
        assert chk.residual < 1e-10

    def test_given_lambda_pass_and_fail(self):
        rhs = np.eye(3, dtype=complex)
        assert check_factor_condition(2 * rhs, rhs, given_lambda=2.0).holds
        bad = check_factor_condition(2 * rhs, rhs, given_lambda=1.0)
        assert not bad.holds
        assert bad.lam == 1.0
        assert bad.residual == pytest.approx(np.sqrt(3))

    def test_degenerate_both_sides_zero(self):
        z = np.zeros((2, 2))
        chk = check_factor_condition(z, z)
        assert chk.holds and chk.degenerate and chk.lam is None

    def test_zero_base_cannot_reach_nonzero_lhs(self):
        chk = check_factor_condition(np.eye(2), np.zeros((2, 2)))
        assert not chk.holds and chk.lam is None and not chk.degenerate

    def test_orthogonal_fit_is_rejected(self):
        # lhs has no component along rhs: fitted scalar is 0, which the
        # nonzero-lambda convention rejects
        lhs = np.zeros((2, 2)); lhs[0, 1] = 1.0
        rhs = np.zeros((2, 2)); rhs[0, 0] = 1.0
        chk = check_factor_condition(lhs, rhs)
        assert not chk.holds and chk.lam is None

    def test_zero_given_lambda_is_an_error(self):
        with pytest.raises(ValueError):
            check_factor_condition(np.eye(2), np.eye(2), given_lambda=0)

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_non_finite_given_lambda_is_an_error(self, lam):
        # the degenerate zero pair would otherwise hold at any scalar
        z = np.zeros((2, 2))
        with pytest.raises(ValueError, match="lambda must be finite"):
            check_factor_condition(z, z, given_lambda=lam)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_factor_condition(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_non_finite_operand_is_an_error(self, bad, side):
        # finiteness is read off each operand's norm; a non-finite norm gets
        # the full scan and its error
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        args = (m, np.eye(2)) if side == "lhs" else (np.eye(2), m)
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            check_factor_condition(*args)

    def test_overflowing_norm_of_finite_operands_is_not_an_error(self):
        # the full scan behind an infinite norm finds every entry finite, and
        # the norms and the fitted lambda are taken at a power-of-two scale
        big = np.full((2, 2), 1e200, dtype=complex)
        with np.errstate(over="ignore"):
            chk = check_factor_condition(big, big)
        assert chk.holds and chk.lam == 1 and chk.residual == 0

    @pytest.mark.parametrize("lam", [0.5, 3.0, 1j, -2.0, 3 + 4j, 1e5, -7.25, None])
    def test_residual_has_the_bits_of_the_unscaled_form(self, lam):
        # the residual is formed at a power-of-two scale, which is exact
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            lhs, rhs = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
            chk = check_factor_condition(lhs, rhs, given_lambda=lam)
            assert chk.residual == fro_norm(lhs - complex(chk.lam) * rhs)

    @pytest.mark.parametrize("lam", [1e300, -1e300j, 1e307])
    def test_huge_lambda_gives_a_finite_residual(self, lam):
        # lam * rhs alone would overflow; a residual beyond the float range is inf
        chk = check_factor_condition(np.zeros((2, 2)), np.eye(2), given_lambda=lam)
        assert chk.residual == pytest.approx(abs(lam) * np.sqrt(2)) and not chk.holds
        chk = check_factor_condition(np.eye(2), 1e10 * np.eye(2), given_lambda=lam)
        assert chk.residual == np.inf and not chk.holds

    def test_scaled_commutator_example(self):
        # canonical 3x3 pair: a b equals half of a^pi b a b^pi but not all of it
        case = preset("example-2.5")
        a, b = case.pair
        api = drazin_oracle(a).pi
        bpi = drazin_oracle(b).pi
        rhs = api @ b @ a @ bpi
        assert check_factor_condition(a @ b, rhs, given_lambda=0.5).holds
        assert not check_factor_condition(a @ b, rhs, given_lambda=1.0).holds


class TestPairHypothesisTable:
    @pytest.mark.parametrize(
        "target,labels",
        [
            ("2.2", ["a is quasinilpotent", "b is quasinilpotent", "a b = lambda b a"]),
            ("2.3", ["a is quasinilpotent", "a b = lambda b a b^pi"]),
            ("2.4", ["a b = lambda a^pi b a b^pi"]),
        ],
    )
    def test_labels_in_catalog_order(self, target, labels):
        case = generate(CaseSpec(target=target, dim=5, lam=3.0, seed=0))
        checks = certify(target, case.matrices, 3.0)
        assert [c.condition for c in checks] == labels
        assert all(c.holds for c in checks)

    @pytest.mark.parametrize("target", PAIR_TARGETS)
    def test_oracle_data_is_reused_and_changes_nothing(self, target, monkeypatch):
        case = generate(CaseSpec(target=target, dim=5, lam=1j, seed=1, negate=True))
        a, b = case.pair
        ran = []

        def recording_oracle(m):
            ran.append(m)
            return drazin_oracle(m)

        monkeypatch.setattr("gdrazin.additive.drazin_oracle", recording_oracle)
        oracles = pair_oracles(target, a, b)
        monkeypatch.undo()
        assert set(oracles) == {"2.2": set(), "2.3": {"a_dr", "b_dr"}, "2.4": {"a_dr", "b_dr"}}[target]
        # the a of 2.3 is quasinilpotent: a^d = 0 and a^pi = I, with no oracle
        # run and no data formed
        want = {"2.2": [], "2.3": [b], "2.4": [a, b]}[target]
        assert len(ran) == len(want) and all(map(np.array_equal, ran, want))
        if target == "2.3":
            assert is_unformed_nilpotent(oracles["a_dr"], 5)
        factors = _pair_factors(a, b, _NAMED[target], **oracles)
        given = check_condition_rows(condition_rows(_PAIR_CONDITIONS[target], factors), 1j)
        assert tuple(given) == certify(target, case.matrices, 1j)

    @pytest.mark.parametrize("target", PAIR_TARGETS)
    def test_factor_map_binds_only_the_named_idempotents(self, target):
        # 2.3's labels do not name a^pi, so its (0, I) stays unformed; 2.2's
        # name no idempotent, and 2.4's both
        a, b = generate(CaseSpec(target=target, dim=4, lam=0.5, seed=0)).pair
        oracles = pair_oracles(target, a, b)
        factors = _pair_factors(a, b, _NAMED[target], **oracles)
        want = {"2.2": {"a", "b"}, "2.3": {"a", "b", "b^pi"}, "2.4": {"a", "b", "a^pi", "b^pi"}}
        assert set(factors) == want[target]
        if target == "2.3":
            assert is_unformed_nilpotent(oracles["a_dr"], 4)

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown pair target"):
            pair_oracles("3.1", np.eye(2), np.eye(2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("target", PAIR_TARGETS)
    def test_negated_instance_is_refused_with_named_condition(self, target, lam, seed):
        case = generate(CaseSpec(target=target, dim=5, lam=lam, seed=seed, negate=True))
        with pytest.raises(PreconditionViolated) as err:
            PAIR_FORMULAS[target](*case.pair, lam=lam)
        assert case.broken in str(err.value)


class TestConditionLabels:
    def test_every_label_parses(self):
        for rules, names in ((PAIR_RULES, _PAIR_FACTORS), (RULES, _BLOCK_FACTORS)):
            for labels in rules.values():
                for label in labels:
                    parsed = parse_condition(label, names)
                    assert parsed[0] == label
                    # a scalar row has factors on both sides, a zero row none on the right
                    assert (parsed[2] is None or parsed[2] == ()) == (parsed[3] is None)

    @pytest.mark.parametrize(
        "label,names,parsed",
        [
            ("a is quasinilpotent", _PAIR_FACTORS, (("a",), None, None)),
            ("a b = lambda a^pi b a b^pi", _PAIR_FACTORS, (("a", "b"), ("a^pi", "b", "a", "b^pi"), 1)),
            ("B C = 0", _BLOCK_FACTORS, (("B", "C"), (), None)),
            ("B D = lambda (B C)^pi A B D^pi", _BLOCK_FACTORS,
             (("B", "D"), ("(B C)^pi", "A", "B", "D^pi"), 1)),
            ("D C = (1/lambda) D^pi C A A^pi", _BLOCK_FACTORS,
             (("D", "C"), ("D^pi", "C", "A", "A^pi"), -1)),
        ],
    )
    def test_grammar(self, label, names, parsed):
        assert parse_condition(label, names) == (label, *parsed)

    @pytest.mark.parametrize(
        "label",
        [
            "B E = 0",  # unknown factor
            "a b = lambda b a",  # pair factors in a block label
            "B C == 0",  # no " = "
            "B C is zero",  # no " = "
            "B D = mu A B D^pi",  # unknown scalar word
            "B D = lambda",  # empty right-hand side
            "B C = 0 D",  # a zero row with factors
            " = lambda A B",  # empty left-hand side
        ],
    )
    def test_malformed_label_is_refused_by_name(self, label):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            parse_condition(label, _BLOCK_FACTORS)


class TestNilpotentClosure:
    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_closure_on_generated_pairs(self, lam, dim):
        case = generate(CaseSpec(target="2.2", dim=dim, lam=lam, seed=3))
        a, b = case.pair
        assert nilpotent_sum_closure(a, b, lam=lam)
        assert nilpotent_sum_closure(a, b)  # fitted mode

    def test_plain_commuting_shifts(self):
        n = np.diag(np.ones(3), k=1).astype(complex)
        assert nilpotent_sum_closure(n, n @ n)

    def test_rejects_non_nilpotent_operand(self):
        n = np.diag(np.ones(2), k=1).astype(complex)
        with pytest.raises(PreconditionViolated, match="quasinilpotent"):
            nilpotent_sum_closure(np.eye(3), n)
        with pytest.raises(PreconditionViolated, match="quasinilpotent"):
            nilpotent_sum_closure(n, np.eye(3))

    def test_rejects_small_invertible_operands(self):
        # a small norm must not pass for nilpotency: a + b here is invertible
        with pytest.raises(PreconditionViolated, match="quasinilpotent"):
            nilpotent_sum_closure(1e-3 * np.eye(4), 1e-3 * np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_rejects_non_commuting_pair(self):
        a = np.zeros((2, 2), dtype=complex); a[0, 1] = 1.0
        b = np.zeros((2, 2), dtype=complex); b[1, 0] = 1.0
        with pytest.raises(PreconditionViolated, match="scalar multiple"):
            nilpotent_sum_closure(a, b)

    def test_negated_pair_is_refused(self):
        case = generate(CaseSpec(target="2.2", dim=5, lam=2.0, seed=1, negate=True))
        a, b = case.pair
        with pytest.raises(PreconditionViolated):
            nilpotent_sum_closure(a, b, lam=2.0)


class TestSumNilpotent:
    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_matches_oracle(self, lam, dim):
        case = generate(CaseSpec(target="2.3", dim=dim, lam=lam, seed=2))
        a, b = case.pair
        got = drazin_sum_nilpotent(a, b, lam=lam)
        want = drazin_oracle(a + b).d
        scale = max(1.0, np.linalg.norm(a), np.linalg.norm(b))
        assert np.linalg.norm(got - want) < 1e-8 * scale
        assert check_drazin_axioms(a + b, got).ok

    def test_refuses_when_a_not_nilpotent(self):
        b = np.diag([1.0, 2.0]).astype(complex)
        with pytest.raises(PreconditionViolated, match="quasinilpotent"):
            drazin_sum_nilpotent(np.eye(2), b)

    def test_negated_instance_is_refused(self):
        case = generate(CaseSpec(target="2.3", dim=4, lam=0.5, seed=0, negate=True))
        a, b = case.pair
        with pytest.raises(PreconditionViolated):
            drazin_sum_nilpotent(a, b, lam=0.5)


class TestSumGeneral:
    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_matches_oracle(self, lam, dim):
        case = generate(CaseSpec(target="2.4", dim=dim, lam=lam, seed=4))
        a, b = case.pair
        got = drazin_sum(a, b, lam=lam)
        want = drazin_oracle(a + b).d
        scale = max(1.0, np.linalg.norm(a), np.linalg.norm(b))
        assert np.linalg.norm(got - want) < 1e-8 * scale

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_non_finite_lambda_is_an_error(self, lam):
        a, b = preset("example-2.5").pair
        with pytest.raises(ValueError, match="lambda must be finite"):
            drazin_sum(a, b, lam=lam)

    def test_canonical_pair_sums_to_zero(self):
        case = preset("example-2.5")
        a, b = case.pair
        got = drazin_sum(a, b, lam=0.5)
        assert np.array_equal(got, np.zeros((3, 3)))
        assert np.array_equal(drazin_oracle(a + b).d, np.zeros((3, 3)))

    def test_series_degenerate_on_valid_instances(self):
        # under the hypothesis the coupling series all vanish and the sum
        # formula collapses to its two projection terms
        case = generate(CaseSpec(target="2.4", dim=6, lam=3.0, seed=9))
        a, b = case.pair
        a_dr = drazin_oracle(a)
        b_dr = drazin_oracle(b)
        collapsed = b_dr.pi @ a_dr.d + b_dr.d @ a_dr.pi
        full = drazin_sum(a, b, lam=3.0)
        assert np.linalg.norm(full - collapsed) < 1e-10

    def test_nilpotent_hypothesis_implies_general(self):
        # the sharper hypothesis (a nilpotent) is a special case: both
        # formulas agree there
        case = generate(CaseSpec(target="2.3", dim=5, lam=1j, seed=6))
        a, b = case.pair
        assert np.allclose(
            drazin_sum(a, b, lam=1j), drazin_sum_nilpotent(a, b, lam=1j), atol=1e-12
        )

    def test_negated_instance_is_refused(self):
        case = generate(CaseSpec(target="2.4", dim=5, lam=-2.0, seed=0, negate=True))
        a, b = case.pair
        with pytest.raises(PreconditionViolated):
            drazin_sum(a, b, lam=-2.0)

    def test_force_runs_divergent_series_into_error(self):
        # forcing the formula far outside its hypothesis must fail loudly,
        # not return apparently-plausible numbers
        with pytest.raises(ConvergenceError):
            drazin_sum(np.eye(3), np.eye(3), force=True)

    def test_force_runs_divergent_double_series_into_error(self):
        # b^pi = 0, a^pi = 0 and (b^d)^2 = 0 silence series 1, 2 and 4; each
        # inner sum of series 3 is n / 4, so its outer terms grow as 2^n n
        eye = np.eye(3, dtype=complex)
        n = np.zeros((3, 3), dtype=complex)
        n[0, 2] = 1.0
        a_dr = DrazinResult(2 * eye, np.zeros_like(eye), None)
        b_dr = DrazinResult(n, np.zeros_like(eye), None)
        with pytest.raises(ConvergenceError, match="sum formula series 3"):
            sum_formula(eye / 2, eye / 2, a_dr, b_dr)

    def test_both_sides_quasinilpotent_sum_to_zero(self):
        # a^d = b^d = 0, given as formed zeros or as DrazinResult.nilpotent
        # (not formed): nothing is raised, and the sum is zero
        rng = np.random.default_rng(0)
        a, b = (np.triu(rng.standard_normal((5, 5)), 1) for _ in range(2))
        eye = np.eye(5, dtype=complex)
        formed = DrazinResult(np.zeros_like(eye), eye, None)
        for a_dr, b_dr in itertools.product((formed, DrazinResult.nilpotent(5)), repeat=2):
            got = sum_formula(a, b, a_dr, b_dr)
            assert got.shape == (5, 5) and not got.any()

    def test_both_zero_route_forms_no_series(self, monkeypatch):
        # at a^d = b^d = 0 every term of every series is zero: the result is
        # the zero matrix, all +0.0, with no summed call and no idempotent
        rng = np.random.default_rng(1)
        a, b = (np.triu(rng.standard_normal((6, 6)) - 1j, 1) for _ in range(2))
        calls = []
        monkeypatch.setattr("gdrazin.additive.summed", lambda *args: calls.append(args))
        a_dr, b_dr = DrazinResult.nilpotent(6), DrazinResult.nilpotent(6)
        got = sum_formula(a, b, a_dr, b_dr)
        assert calls == []
        assert got.dtype == complex and got.shape == (6, 6)
        assert got.tobytes() == np.zeros((6, 6), dtype=complex).tobytes()
        assert is_unformed_nilpotent(a_dr, 6) and is_unformed_nilpotent(b_dr, 6)

    @pytest.mark.parametrize("rule", ["3.2", "3.4"])
    def test_forced_single_series_raises_as_the_full_display(self, rule):
        # Q^d = 0 for these splittings, so one series is formed, without the
        # factor Q^pi = I that the full display multiplies in; on the negated
        # seed-2 instance it runs to its cap, and its terms with that factor
        # multiplied back in end on the same bits and the same error
        blocks = generate(CaseSpec(rule, 8, 0.5, 2, negate=True)).blocks
        (m, n), eye = blocks.dims, np.eye(16, dtype=complex)
        oracles = block_oracles(blocks, rule)
        q_dr = oracles["q_dr"]
        assert is_unformed_nilpotent(q_dr, 16)
        p = _quad(blocks.a, np.zeros((m, n)), np.zeros((n, m)), blocks.d)
        q = _quad(np.zeros((m, m)), blocks.b, blocks.c, np.zeros((n, n)))
        p_dr = _diag_dr(oracles["a_dr"], oracles["d_dr"])
        d_pow = PowerCache(p_dr.d)
        if rule == "3.2":  # Q = a: sum_n (b^d)^(n+2) a m^n a^pi, a^pi = I
            args, label = (q, p, q_dr, p_dr), "sum formula series 1"
            am = PowerCache(q + p, start=q)
            terms = (d_pow(k + 2) @ am(k) @ eye for k in itertools.count())
        else:  # Q = b: sum_n b^pi m^n b (a^d)^(n+2), b^pi = I
            args, label = (p, q, p_dr, q_dr), "sum formula series 2"
            mb = itertools.accumulate(itertools.repeat(p + q), lambda x, y: y @ x, initial=q)
            terms = (eye @ x @ d_pow(k + 2) for k, x in enumerate(mb))
        with pytest.raises(ConvergenceError) as want:
            summed(terms, series_cap(16), scale_of(p, q), label)
        with pytest.raises(ConvergenceError) as got:
            sum_formula(*args)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(label) and str(got.value).endswith("after 34 terms")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            drazin_sum(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_operand_is_an_error(self, bad):
        a, b = preset("example-2.5").pair
        b = b.copy()
        b[0, 0] = bad
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            drazin_sum(a, b, lam=0.5)

    @pytest.mark.xfail(
        strict=True,
        raises=ConvergenceError,
        reason="known refusal, ROADMAP item 1: the series tail band EPS_TAIL * max(1, ||a||, ||b||) "
        "does not scale with the inputs, so at s = 1e-5 the terms of series 1, which grow as 1/s, "
        "never fall below it ('sum formula series 1'); remove this marker with the fix",
    )
    def test_scaled_valid_pair_is_accepted(self):
        a, b = generate(CaseSpec(target="2.4", dim=4, lam=3.0, seed=0)).pair
        sa, sb = 1e-5 * a, 1e-5 * b
        got = drazin_sum(sa, sb, lam=3.0)
        want = drazin_oracle(sa + sb).d
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
