"""The package surface: diracbound.__all__ lists exactly what resolves."""

import diracbound

# names that were public once and were removed from the package
REMOVED = (
    "TangentPotential",
    "PotentialModel",
    "CoulombSpectrumPoint",
    "coulomb_spectrum_point",
    "ode_residual",
)


def test_every_listed_name_resolves():
    missing = [name for name in diracbound.__all__ if not hasattr(diracbound, name)]
    assert missing == []


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in diracbound.__all__
        assert not hasattr(diracbound, name)
