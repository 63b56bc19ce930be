"""Potential models, the concave transformation g, tangents, and the gap formula."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracbound.channels import DEFAULT_CONSTANTS
from diracbound.potentials import (
    SCREENING_PREFACTOR,
    PureCoulomb,
    ScreenedCoulomb,
    ShiftedCoulomb,
    TangentPotential,
    g_transform,
    g_transform_derivative,
    ordering_gap,
    tangent_at,
)

# log-uniform radii/contact points spanning the physically active range
radii = st.floats(min_value=1e-4, max_value=1e4).map(lambda x: x)
log_radii = st.floats(min_value=math.log(1e-4), max_value=math.log(1e4)).map(math.exp)
charges = st.integers(min_value=2, max_value=100)


class TestEvaluate:
    def test_pure_coulomb(self):
        assert PureCoulomb(u=0.5).evaluate(2.0) == pytest.approx(-0.25, rel=1e-15)

    def test_shifted_coulomb(self):
        pot = ShiftedCoulomb(shift=0.1, coupling=0.5)
        assert pot.evaluate(1.0) == pytest.approx(-0.4, rel=1e-15)

    def test_screened_z1_is_pure_coulomb(self):
        pot = ScreenedCoulomb.from_charge(1)
        v = pot.coupling
        for r in (1e-3, 0.1, 1.0, 50.0):
            assert pot.evaluate(r) == pytest.approx(-v / r, rel=1e-14)

    def test_screened_strictly_negative(self):
        pot = ScreenedCoulomb.from_charge(60)
        r = np.geomspace(1e-8, 1e6, 300)
        assert np.all(pot.evaluate(r) < 0.0)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_radius_rejected(self, r):
        with pytest.raises(ValueError):
            PureCoulomb(u=0.5).evaluate(r)

    def test_vectorized_evaluation(self):
        pot = ScreenedCoulomb.from_charge(40)
        r = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(
            pot.evaluate(r), [pot.evaluate(x) for x in r], rtol=1e-15
        )

    def test_small_r_dominance(self):
        # r*V(r) -> -v at the origin (Coulombic there)
        pot = ScreenedCoulomb.from_charge(70)
        assert 1e-8 * pot.evaluate(1e-8) == pytest.approx(-pot.coupling, rel=1e-6)


class TestModelValidation:
    def test_pure_coulomb_needs_positive_coupling(self):
        with pytest.raises(ValueError):
            PureCoulomb(u=0.0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.2])
    def test_shifted_coupling_in_unit_interval(self, bad):
        with pytest.raises(ValueError):
            ShiftedCoulomb(shift=0.0, coupling=bad)

    def test_screened_coupling_subcritical(self):
        with pytest.raises(ValueError, match="coupling"):
            ScreenedCoulomb.from_charge(138)
        with pytest.raises(ValueError):
            ScreenedCoulomb(Z=0, coupling=0.5, screening=0.1)
        with pytest.raises(ValueError):
            ScreenedCoulomb(Z=20, coupling=0.5, screening=0.0)

    def test_from_charge_wiring(self):
        pot = ScreenedCoulomb.from_charge(50)
        assert pot.coupling == pytest.approx(DEFAULT_CONSTANTS.coupling(50), rel=1e-15)
        assert pot.screening == pytest.approx(
            SCREENING_PREFACTOR * DEFAULT_CONSTANTS.alpha * 50 ** (1 / 3), rel=1e-15
        )

    def test_describe_round_trips_parameters(self):
        pot = ScreenedCoulomb.from_charge(30)
        d = pot.describe()
        assert d["type"] == "screened-coulomb"
        assert d["Z"] == 30
        tangent = tangent_at(pot, 2.0)
        td = tangent.describe()
        assert td["parent"] == d
        assert td["contact_radius"] == 2.0


class TestGTransform:
    def test_composition_identity_at_unit_radius(self):
        pot = ScreenedCoulomb.from_charge(40)
        assert g_transform(pot, -1.0) == pytest.approx(pot.evaluate(1.0), rel=1e-14)

    def test_composition_identity_dense(self):
        pot = ScreenedCoulomb.from_charge(80)
        r = np.geomspace(1e-4, 1e3, 200)
        np.testing.assert_allclose(
            g_transform(pot, -1.0 / r), pot.evaluate(r), rtol=1e-13
        )

    def test_z1_transform_is_linear(self):
        pot = ScreenedCoulomb.from_charge(1)
        for h in (-10.0, -1.0, -0.1):
            assert g_transform(pot, h) == pytest.approx(pot.coupling * h, rel=1e-14)

    def test_monotone_increasing_and_concave(self):
        pot = ScreenedCoulomb.from_charge(50)
        for h in (-10.0, -1.0, -0.1):
            # second difference needs a coarse step to beat cancellation noise
            eps = 1e-3 * max(1.0, abs(h))
            gp = (g_transform(pot, h + eps) - g_transform(pot, h - eps)) / (2 * eps)
            gpp = (
                g_transform(pot, h + eps)
                - 2 * g_transform(pot, h)
                + g_transform(pot, h - eps)
            ) / eps**2
            assert gp > 0.0
            assert gpp < 0.0

    def test_analytic_derivative_matches_central_difference(self):
        pot = ScreenedCoulomb.from_charge(50)
        for h in (-100.0, -3.0, -0.5, -0.02):
            eps = 1e-6 * max(1.0, abs(h))
            fd = (g_transform(pot, h + eps) - g_transform(pot, h - eps)) / (2 * eps)
            assert g_transform_derivative(pot, h) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("h", [0.0, 0.5])
    def test_nonnegative_h_rejected(self, h):
        pot = ScreenedCoulomb.from_charge(20)
        with pytest.raises(ValueError):
            g_transform(pot, h)
        with pytest.raises(ValueError):
            g_transform_derivative(pot, h)

    @given(charges, log_radii)
    def test_composition_property(self, z, r):
        pot = ScreenedCoulomb.from_charge(z)
        assert g_transform(pot, -1.0 / r) == pytest.approx(
            pot.evaluate(r), rel=1e-12, abs=1e-300
        )


class TestTangent:
    def test_z1_tangent_is_the_line_itself(self):
        pot = ScreenedCoulomb.from_charge(1)
        tangent = tangent_at(pot, 3.7)
        assert tangent.shift == pytest.approx(0.0, abs=1e-18)
        assert tangent.coupling == pytest.approx(pot.coupling, rel=1e-14)

    def test_tangency_touches_parent(self):
        pot = ScreenedCoulomb.from_charge(50)
        for t in (0.01, 1.0, 100.0):
            tangent = tangent_at(pot, t)
            assert tangent.evaluate(t) == pytest.approx(pot.evaluate(t), rel=1e-12)

    def test_coupling_matches_finite_difference_slope(self):
        pot = ScreenedCoulomb.from_charge(50)
        t = 0.01
        h = -1.0 / t
        eps = 1e-6 * abs(h)
        fd = (g_transform(pot, h + eps) - g_transform(pot, h - eps)) / (2 * eps)
        assert tangent_at(pot, t).coupling == pytest.approx(fd, rel=1e-8)

    def test_tangent_lies_above_parent_everywhere(self):
        pot = ScreenedCoulomb.from_charge(80)
        tangent = tangent_at(pot, 2.0)
        r = np.geomspace(1e-6, 1e5, 400)
        assert np.all(tangent.evaluate(r) >= pot.evaluate(r))

    def test_coupling_range_and_limits(self):
        # B(t) climbs from v/Z (far tangents) to v (near-origin tangents)
        pot = ScreenedCoulomb.from_charge(40)
        v = pot.coupling
        b_near = tangent_at(pot, 1e-8).coupling
        b_far = tangent_at(pot, 1e8).coupling
        assert b_near == pytest.approx(v, rel=1e-6)
        assert b_far == pytest.approx(v / pot.Z, rel=1e-4)
        ts = np.geomspace(1e-4, 1e4, 50)
        bs = np.array([tangent_at(pot, t).coupling for t in ts])
        assert np.all(np.diff(bs) < 0.0)
        assert np.all((0.0 < bs) & (bs <= v))

    def test_nonpositive_contact_rejected(self):
        with pytest.raises(ValueError):
            tangent_at(ScreenedCoulomb.from_charge(20), 0.0)

    def test_solver_facing_fields(self):
        tangent = tangent_at(ScreenedCoulomb.from_charge(30), 1.5)
        assert tangent.origin_strength == tangent.coupling
        assert tangent.origin_offset == tangent.shift
        assert tangent.value_at_infinity == tangent.shift
        shifted = tangent.as_shifted()
        assert isinstance(shifted, ShiftedCoulomb)
        assert shifted.evaluate(0.3) == pytest.approx(tangent.evaluate(0.3), rel=1e-15)


class TestOrderingGap:
    def test_zero_at_contact(self):
        pot = ScreenedCoulomb.from_charge(40)
        assert ordering_gap(pot, 2.0, 2.0) == 0.0

    def test_zero_for_z1(self):
        pot = ScreenedCoulomb.from_charge(1)
        for t, r in ((0.5, 3.0), (2.0, 0.1)):
            assert ordering_gap(pot, t, r) == pytest.approx(0.0, abs=1e-18)

    def test_closed_form_matches_subtraction(self):
        pot = ScreenedCoulomb.from_charge(40)
        t, r = 2.0, 1.0
        direct = tangent_at(pot, t).evaluate(r) - pot.evaluate(r)
        assert ordering_gap(pot, t, r) == pytest.approx(direct, rel=1e-12)

    def test_vectorized_in_r(self):
        pot = ScreenedCoulomb.from_charge(60)
        r = np.geomspace(1e-3, 1e3, 50)
        gaps = ordering_gap(pot, 1.3, r)
        tangent = tangent_at(pot, 1.3)
        np.testing.assert_allclose(
            gaps, tangent.evaluate(r) - pot.evaluate(r), rtol=1e-10, atol=1e-300
        )

    def test_rejects_nonpositive_arguments(self):
        pot = ScreenedCoulomb.from_charge(20)
        with pytest.raises(ValueError):
            ordering_gap(pot, 0.0, 1.0)
        with pytest.raises(ValueError):
            ordering_gap(pot, 1.0, -2.0)

    @given(charges, log_radii, log_radii)
    def test_gap_property(self, z, t, r):
        """Closed-form gap is nonnegative and equals the direct subtraction.

        The direct subtraction cancels catastrophically near r = t, so the
        absolute floor scales with the size of the values being subtracted.
        """
        pot = ScreenedCoulomb.from_charge(z)
        gap = ordering_gap(pot, t, r)
        assert gap >= 0.0
        direct = tangent_at(pot, t).evaluate(r) - pot.evaluate(r)
        floor = 1e-13 * abs(pot.evaluate(r))
        assert abs(gap - direct) <= 1e-9 * gap + floor


class TestPotentialPurity:
    def test_frozen_models(self):
        pot = ScreenedCoulomb.from_charge(20)
        with pytest.raises(AttributeError):
            pot.coupling = 0.3
        tangent = tangent_at(pot, 1.0)
        with pytest.raises(AttributeError):
            tangent.shift = 0.0

    def test_tangent_type(self):
        assert isinstance(tangent_at(ScreenedCoulomb.from_charge(20), 1.0),
                          TangentPotential)
