"""Quantum-number bookkeeping: channels, labels, parity, constants."""

import math

import numpy as np
import pytest

from diracbound.channels import (
    DEFAULT_CONSTANTS,
    Channel,
    PhysicalConstants,
    parity,
    parse_state_label,
    principal_quantum_number,
    spectroscopic_label,
)
from diracbound.errors import HypothesisViolationError


class TestChannelValidation:
    def test_valid_construction(self):
        ch = Channel(tau=-1, two_j=3, n=2)
        assert ch.j == 1.5
        assert ch.k == 2
        assert ch.n == 2
        # numpy integers are integers
        assert Channel(tau=np.int64(-1), two_j=np.int64(3), n=np.int64(2)) == ch

    @pytest.mark.parametrize("bad", [0, 2, -2, 5])
    def test_tau_must_be_sign(self, bad):
        with pytest.raises(ValueError):
            Channel(tau=bad, two_j=1)

    @pytest.mark.parametrize("bad", [0, -1, 2, 4])
    def test_two_j_must_be_positive_odd(self, bad):
        with pytest.raises(ValueError):
            Channel(tau=-1, two_j=bad)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            Channel(tau=-1, two_j=1, n=0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"tau": -1.0, "two_j": 1}, "tau"),
            ({"tau": -1, "two_j": 3.0}, "two_j"),
            ({"tau": -1, "two_j": 1, "n": 1.5}, "n"),
        ],
        ids=["tau", "two_j", "n"],
    )
    def test_quantum_numbers_must_be_integers(self, kwargs, field):
        # a float n used to solve as another state and print as "1.5s_1/2"
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            Channel(**kwargs)

    def test_frozen(self):
        ch = Channel(tau=-1, two_j=1)
        with pytest.raises(AttributeError):
            ch.n = 3

    def test_k_is_j_plus_half(self):
        for two_j in (1, 3, 5, 7):
            for tau in (-1, 1):
                ch = Channel(tau=tau, two_j=two_j)
                assert ch.k == (two_j + 1) // 2

    @pytest.mark.parametrize(
        "label, nodeless",
        [
            ("1s_1/2", True),
            ("2p_3/2", True),
            ("4f_7/2", True),
            ("2s_1/2", False),
            ("2p_1/2", False),
        ],
    )
    def test_nodeless_is_tau_minus_bottom_state(self, label, nodeless):
        ch = parse_state_label(label)
        assert ch.nodeless is nodeless
        # the one guard of the comparison theorem refuses exactly the others
        if nodeless:
            ch.require_nodeless()
            return
        with pytest.raises(HypothesisViolationError, match="comparison theorem") as exc:
            ch.require_nodeless()
        assert str(exc.value).startswith(f"channel {label} (tau={ch.tau}, n={ch.n}) has noded")


class TestPrincipalQuantumNumber:
    @pytest.mark.parametrize(
        "tau,two_j,n,nu",
        [(-1, 1, 1, 1), (-1, 3, 1, 2), (1, 1, 1, 2)],
    )
    def test_examples(self, tau, two_j, n, nu):
        assert principal_quantum_number(Channel(tau=tau, two_j=two_j, n=n)) == nu

    def test_nu_equals_k_for_bottom_minus_channels(self):
        for k in range(1, 11):
            ch = Channel(tau=-1, two_j=2 * k - 1, n=1)
            assert principal_quantum_number(ch) == ch.k


class TestParity:
    @pytest.mark.parametrize(
        "tau,two_j,expect",
        [(-1, 1, 1), (-1, 3, -1), (1, 1, -1)],
    )
    def test_examples(self, tau, two_j, expect):
        assert parity(Channel(tau=tau, two_j=two_j)) == expect

    def test_parity_is_sign_and_flips_with_tau(self):
        for two_j in (1, 3, 5, 7, 9):
            p_minus = parity(Channel(tau=-1, two_j=two_j))
            p_plus = parity(Channel(tau=1, two_j=two_j))
            assert p_minus in (-1, 1) and p_plus in (-1, 1)
            assert p_minus == -p_plus


class TestSpectroscopicLabel:
    @pytest.mark.parametrize(
        "tau,two_j,n,label",
        [
            (-1, 1, 1, "1s_1/2"),
            (-1, 3, 1, "2p_3/2"),
            (-1, 5, 1, "3d_5/2"),
            (1, 1, 1, "2p_1/2"),
            (-1, 1, 2, "2s_1/2"),
        ],
    )
    def test_examples(self, tau, two_j, n, label):
        assert spectroscopic_label(Channel(tau=tau, two_j=two_j, n=n)) == label

    def test_letter_table_exhausted(self):
        # l = j - 1/2 = 6 needs a letter beyond "h"
        with pytest.raises(ValueError, match="spdfgh"):
            spectroscopic_label(Channel(tau=-1, two_j=13))


class TestParseStateLabel:
    @pytest.mark.parametrize("text", ["1s_1/2", "1s1/2"])
    def test_both_spellings(self, text):
        ch = parse_state_label(text)
        assert (ch.tau, ch.two_j, ch.n) == (-1, 1, 1)

    def test_round_trip(self):
        for tau in (-1, 1):
            for two_j in (1, 3, 5):
                for n in (1, 2, 3):
                    ch = Channel(tau=tau, two_j=two_j, n=n)
                    assert parse_state_label(spectroscopic_label(ch)) == ch

    def test_plus_tau_label(self):
        ch = parse_state_label("2p_1/2")
        assert ch.tau == 1 and ch.two_j == 1 and ch.n == 1

    @pytest.mark.parametrize("bad", ["", "s_1/2", "1x_1/2", "1s_2/2", "0s_1/2", "1s_1/3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_state_label(bad)


class TestPhysicalConstants:
    def test_defaults(self):
        assert DEFAULT_CONSTANTS.alpha == pytest.approx(1.0 / 137.036, rel=1e-15)
        assert DEFAULT_CONSTANTS.electron_rest_energy_kev == 510.999

    def test_coupling(self):
        assert DEFAULT_CONSTANTS.coupling(20) == pytest.approx(20.0 / 137.036, rel=1e-15)

    def test_binding_conversion(self):
        assert DEFAULT_CONSTANTS.binding_kev(1.0) == 0.0
        assert DEFAULT_CONSTANTS.binding_kev(0.8) == pytest.approx(-0.2 * 510.999)

    def test_override(self):
        c = PhysicalConstants(alpha=0.01, electron_rest_energy_kev=500.0)
        assert c.coupling(10) == pytest.approx(0.1)
        assert c.binding_kev(0.9) == pytest.approx(-50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalConstants(alpha=0.0)
        with pytest.raises(ValueError):
            PhysicalConstants(electron_rest_energy_kev=-1.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"alpha": math.nan}, "alpha"),
            ({"electron_rest_energy_kev": math.nan}, "electron rest energy"),
            ({"electron_rest_energy_kev": math.inf}, "electron rest energy"),
        ],
        ids=["alpha-nan", "mc2-nan", "mc2-inf"],
    )
    def test_non_finite_constant_is_a_named_value_error(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            PhysicalConstants(**kwargs)

    def test_subcritical_coupling_guard(self):
        # alpha*Z reaches 1 near Z=137: the screened model must refuse there,
        # checked in the potentials tests; the constants helper stays total
        assert DEFAULT_CONSTANTS.coupling(137) < 1.0
        assert DEFAULT_CONSTANTS.coupling(138) > 1.0


def test_channel_str_mentions_label():
    assert "1s_1/2" in str(Channel(tau=-1, two_j=1))


def test_math_consistency_nu_definition():
    # nu = n + k - (1 - tau)/2 for arbitrary channels
    for tau in (-1, 1):
        for k in (1, 2, 3):
            for n in (1, 2):
                ch = Channel(tau=tau, two_j=2 * k - 1, n=n)
                assert principal_quantum_number(ch) == n + k - (1 - tau) // 2
