"""Generator contracts: determinism, certificates, negation, presets."""

import re

import numpy as np
import pytest

import gdrazin.casegen as casegen
from gdrazin import (
    PAIR_TARGETS,
    PRESET_SPECS,
    TARGETS,
    CaseSpec,
    GenerationFailed,
    certify,
    generate,
    is_quasinilpotent,
    preset,
)
from helpers import LAMBDAS


class TestCaseSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown target"):
            CaseSpec(target="5.1", dim=4)
        with pytest.raises(ValueError, match="dim"):
            CaseSpec(target="2.4", dim=1)
        with pytest.raises(ValueError, match="nonzero"):
            CaseSpec(target="2.4", dim=4, lam=0)
        for lam in (float("nan"), complex(0, float("inf"))):
            with pytest.raises(ValueError, match="finite"):
                CaseSpec(target="2.4", dim=4, lam=lam)
        with pytest.raises(ValueError, match="seed"):
            CaseSpec(target="2.4", dim=4, seed=-1)
        # dim and seed are integers: a float or a bool is refused, anything
        # operator.index takes is kept
        for bad in (4.0, True, "4"):
            with pytest.raises(ValueError, match="dim must be an integer"):
                CaseSpec(target="2.4", dim=bad)
        for bad in (1.0, True, "1"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                CaseSpec(target="2.4", dim=4, seed=bad)
        # negate is a bool: an integer or any other value is refused, not
        # read as a count of failing conditions
        for bad in (2, 1, "yes", None):
            with pytest.raises(ValueError, match="negate must be a bool"):
                CaseSpec("2.4", 4, 0.5, 0, negate=bad)
        plain_ints = generate(CaseSpec(target="2.4", dim=4, seed=1))
        for dim, seed in [(np.int64(4), np.uint8(1)), (np.array(4), np.array(1))]:
            numpy_ints = generate(CaseSpec(target="2.4", dim=dim, seed=seed))
            for name in plain_ints.matrices:
                assert np.array_equal(numpy_ints.matrices[name], plain_ints.matrices[name])

    def test_defaults(self):
        s = CaseSpec(target="3.1", dim=4)
        assert s.lam == 1.0 and s.seed == 0 and s.negate is False


class TestDeterminism:
    @pytest.mark.parametrize("target", TARGETS)
    def test_same_spec_same_matrices(self, target):
        spec = CaseSpec(target=target, dim=5, lam=1j, seed=13)
        first = generate(spec)
        second = generate(spec)
        assert set(first.matrices) == set(second.matrices)
        for name in first.matrices:
            assert np.array_equal(first.matrices[name], second.matrices[name])

    def test_different_seed_different_matrices(self):
        a0 = generate(CaseSpec(target="2.4", dim=5, lam=0.5, seed=0)).matrices["a"]
        a1 = generate(CaseSpec(target="2.4", dim=5, lam=0.5, seed=1)).matrices["a"]
        assert not np.allclose(a0, a1)


class TestValidInstances:
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_certificate_holds(self, target, dim):
        case = generate(CaseSpec(target=target, dim=dim, lam=3.0, seed=1))
        assert case.kind == ("pair" if target in PAIR_TARGETS else "block")
        assert case.broken is None
        assert all(c.holds for c in case.certificate)

    def test_pair_shapes_and_nilpotency(self):
        case = generate(CaseSpec(target="2.3", dim=6, lam=0.5, seed=0))
        a, b = case.pair
        assert a.shape == b.shape == (6, 6)
        assert is_quasinilpotent(a)  # the enabled operand in this target

    def test_block_dims(self):
        case = generate(CaseSpec(target="4.1", dim=5, lam=2.0, seed=0))
        assert case.blocks.dims == (5, 5)
        with pytest.raises(ValueError, match="not a pair"):
            case.pair

    def test_certify_is_reusable(self):
        case = generate(CaseSpec(target="4.3", dim=5, lam=-2.0, seed=2))
        again = certify("4.3", case.matrices, -2.0)
        assert [c.condition for c in again] == [c.condition for c in case.certificate]
        assert all(c.holds for c in again)


class TestNegatedInstances:
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_exactly_one_condition_fails(self, target, lam):
        case = generate(CaseSpec(target=target, dim=6, lam=lam, seed=1, negate=True))
        failing = [c for c in case.certificate if not c.holds]
        assert len(failing) == 1
        assert case.broken == failing[0].condition

    def test_negation_rotates_with_seed(self):
        broken = {
            generate(CaseSpec(target="2.2", dim=6, lam=0.5, seed=s, negate=True)).broken
            for s in range(4)
        }
        assert len(broken) > 1  # different seeds exercise different recipes

    @pytest.mark.parametrize("target, dim", [("3.1", 6), ("4.2", 8), ("3.4", 32)])
    def test_only_tried_candidates_are_conjugated(self, monkeypatch, target, dim):
        spec = CaseSpec(target=target, dim=dim, lam=0.5, seed=0, negate=True)
        assert len(casegen._block_cases(target, dim, 0.5, casegen._rng_for(spec, 0), True)) == 4
        calls = {"_conjugate_block": 0, "certify": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(casegen, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(casegen, name, counting)
        generate(spec)
        # the first of the four candidates is certified, so one pair of
        # unitaries is drawn and applied, not four
        assert calls == {"_conjugate_block": 1, "certify": 1}

    def test_retry_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(casegen, "_RETRIES", 0)
        with pytest.raises(GenerationFailed):
            generate(CaseSpec(target="3.1", dim=5, lam=0.5, seed=99))

    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize(
        "target, dim, lam",
        [(t, d, lam) for lam in (1e300, -1e300) for t, d in
         (("2.2", 4), ("2.2", 8), ("2.3", 8), ("2.4", 8), ("3.3", 8))]
        + [(t, 8, 1e150j) for t in ("2.2", "2.3", "2.4")]
        + [("3.1", 8, 1e-300)],
    )
    def test_a_window_that_leaves_the_float_range_is_refused(self, target, dim, lam, negate):
        # each of these windows leaves the float range at seed 0: a refusal
        # that names the spec, with no RuntimeWarning (an error in tier-1)
        spec = f"the window of {target} (dim {dim}, lambda {complex(lam)}, negate {negate})"
        with pytest.raises(GenerationFailed, match=re.escape(spec) + " leaves the float range"):
            generate(CaseSpec(target, dim, lam, 0, negate))

    @pytest.mark.parametrize("lam", [1e300, -1e300])
    def test_a_window_inside_the_float_range_still_builds(self, lam):
        # 2.4's window at dim 4 takes one step of its recurrence
        for negate in (False, True):
            case = generate(CaseSpec("2.4", 4, lam, 0, negate))
            assert all(np.isfinite(m).all() for m in case.matrices.values())


class TestPresets:
    def test_names(self):
        assert sorted(PRESET_SPECS) == ["example-2.5", "example-4.4"]
        with pytest.raises(ValueError, match="unknown preset"):
            preset("example-9.9")

    def test_canonical_pair_matrices(self):
        case = preset("example-2.5")
        a, b = case.pair
        assert np.array_equal(a, np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex))
        assert np.array_equal(b, np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0]], dtype=complex))
        assert all(c.holds for c in case.certificate)

    def test_canonical_block_matrices(self):
        case = preset("example-4.4")
        shift = np.diag(np.ones(3), k=1).astype(complex)
        coupling = np.zeros((4, 4), dtype=complex)
        coupling[0, 2] = 1.0
        coupling[1, 3] = 3.0
        assert np.array_equal(case.blocks.a, shift)
        assert np.array_equal(case.blocks.d, shift)
        assert np.array_equal(case.blocks.b, coupling)
        assert np.array_equal(case.blocks.c, coupling)

    def test_preset_specs_regenerate_canonically(self):
        # generating from the underlying spec gives the same matrices as the
        # named preset
        case = preset("example-2.5")
        regen = generate(PRESET_SPECS["example-2.5"])
        for name in case.matrices:
            assert np.array_equal(case.matrices[name], regen.matrices[name])

    @pytest.mark.parametrize("name", ["example-2.5", "example-4.4"])
    def test_preset_is_looked_up_by_value(self, name):
        spec = PRESET_SPECS[name]
        want = preset(name)
        for dim, lam, seed in [
            (np.int64(spec.dim), complex(spec.lam), np.int64(0)),
            (spec.dim, np.float64(spec.lam), 0),
            (np.array(spec.dim), np.array(spec.lam), np.array(0)),
        ]:
            case = generate(CaseSpec(spec.target, dim, lam, seed))
            assert list(case.matrices) == list(want.matrices)
            assert all(case.matrices[k].tobytes() == v.tobytes() for k, v in want.matrices.items())
            case.matrices["a"][0, 0] = 99.0  # a copy: the preset stays as it is
        assert generate(spec).matrices["a"][0, 0] == 0


# Which recipe each spec takes, recorded before the builders were merged into
# one zone layout: one character per spec, in the order lambda in LAMBDAS,
# then valid / negated, then seed 0 / 1. "." is an instance with no broken
# condition, "x" a GenerationFailed, and a digit the index of the broken row
# in the target's certificate (its catalog order). Every 2.3 spec of dim 12
# with |lambda| != 1 is unrealizable (ROADMAP item 3).
RECIPES = {
    ("2.2", 2): "..11 ..11 ..11 ..11",
    ("2.2", 3): "..21 ..21 ..21 ..21",
    ("2.2", 4): "..21 ..21 ..21 ..21",
    ("2.2", 5): "..21 ..21 ..21 ..21",
    ("2.2", 8): "..21 ..21 ..21 ..21",
    ("2.2", 12): "..21 ..21 ..21 ..21",
    ("2.3", 2): "..11 ..11 ..11 ..11",
    ("2.3", 3): "..11 ..11 ..11 ..11",
    ("2.3", 4): "..11 ..11 ..11 ..11",
    ("2.3", 5): "..11 ..11 ..11 ..11",
    ("2.3", 8): "..11 ..11 ..11 ..11",
    ("2.3", 12): "xxxx xxxx ..11 xxxx",
    ("2.4", 2): "..00 ..00 ..00 ..00",
    ("2.4", 3): "..00 ..00 ..00 ..00",
    ("2.4", 4): "..00 ..00 ..00 ..00",
    ("2.4", 5): "..00 ..00 ..00 ..00",
    ("2.4", 8): "..00 ..00 ..00 ..00",
    ("2.4", 12): "..00 ..00 ..00 ..00",
    ("3.1", 2): "..01 ..01 ..01 ..01",
    ("3.1", 3): "..01 ..01 ..01 ..01",
    ("3.1", 4): "..01 ..01 ..01 ..01",
    ("3.1", 5): "..01 ..01 ..01 ..01",
    ("3.1", 8): "..01 ..01 ..01 ..01",
    ("3.1", 12): "..01 ..01 ..01 ..01",
    ("3.2", 2): "..01 ..01 ..01 ..01",
    ("3.2", 3): "..01 ..01 ..01 ..01",
    ("3.2", 4): "..01 ..01 ..01 ..01",
    ("3.2", 5): "..01 ..01 ..01 ..01",
    ("3.2", 8): "..01 ..01 ..01 ..01",
    ("3.2", 12): "..01 ..01 ..01 ..01",
    ("3.3", 2): "..01 ..01 ..01 ..01",
    ("3.3", 3): "..01 ..01 ..01 ..01",
    ("3.3", 4): "..01 ..01 ..01 ..01",
    ("3.3", 5): "..01 ..01 ..01 ..01",
    ("3.3", 8): "..01 ..01 ..01 ..01",
    ("3.3", 12): "..01 ..01 ..01 ..01",
    ("3.4", 2): "..01 ..01 ..01 ..01",
    ("3.4", 3): "..01 ..01 ..01 ..01",
    ("3.4", 4): "..00 ..00 ..00 ..00",
    ("3.4", 5): "..00 ..00 ..00 ..00",
    ("3.4", 8): "..00 ..00 ..00 ..00",
    ("3.4", 12): "..00 ..00 ..00 ..00",
    ("4.1", 2): "..01 ..01 ..01 ..01",
    ("4.1", 3): "..01 ..01 ..01 ..01",
    ("4.1", 4): "..01 ..01 ..01 ..01",
    ("4.1", 5): "..01 ..01 ..01 ..01",
    ("4.1", 8): "..01 ..01 ..01 ..01",
    ("4.1", 12): "..01 ..01 ..01 ..01",
    ("4.2", 2): "..01 ..01 ..01 ..01",
    ("4.2", 3): "..01 ..01 ..01 ..01",
    ("4.2", 4): "..01 ..01 ..01 ..01",
    ("4.2", 5): "..01 ..01 ..01 ..01",
    ("4.2", 8): "..01 ..01 ..01 ..01",
    ("4.2", 12): "..01 ..01 ..01 ..01",
    ("4.3", 2): "..01 ..01 ..01 ..01",
    ("4.3", 3): "..01 ..01 ..01 ..01",
    ("4.3", 4): "..01 ..01 ..01 ..01",
    ("4.3", 5): "..01 ..01 ..01 ..01",
    ("4.3", 8): "..01 ..01 ..01 ..01",
    ("4.3", 12): "..01 ..01 ..01 ..01",
}


@pytest.mark.parametrize("target, dim", sorted(RECIPES))
def test_recipe_of_each_spec(target, dim):
    chunks = []
    for lam in LAMBDAS:
        chunk = ""
        for negate in (False, True):
            for seed in (0, 1):
                try:
                    case = generate(CaseSpec(target, dim, lam, seed, negate))
                except GenerationFailed:
                    chunk += "x"
                    continue
                rows = [c.condition for c in case.certificate]
                chunk += "." if case.broken is None else str(rows.index(case.broken))
        chunks.append(chunk)
    assert " ".join(chunks) == RECIPES[target, dim]
