"""The package's records: named tuples and one plain class, read-only, and no ``dataclasses`` on import.

Every record but ``FiberPath`` is a named tuple, so it unpacks, indexes and
supports ``_replace``; ``GyrotropicMedium`` and ``FockLadder`` check their
values however they are built.
"""
import os
import subprocess
import sys

import numpy as np
import pytest

from fiberphase import evolution, scenario
from fiberphase.fock import FockLadder, Ordering
from fiberphase.geometry import FiberPath, helix_path, spherical_angles
from fiberphase.media import GyrotropicMedium
from fiberphase.spin import helicity_eigenstates, spin1_matrices


def test_importing_the_cli_imports_neither_dataclasses_nor_copy():
    # measured against numpy alone, so that a numpy which imports them itself passes
    code = ("import sys, numpy; before = set(sys.modules); import fiberphase.cli; "
            "print(sorted({'dataclasses', 'copy'} & (set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out == "[]\n"


def _records():
    """One instance of each record, by name."""
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 64)
    return {
        "FiberPath": path,
        "SphericalAngles": spherical_angles(path),
        "_HelixRows": path._rows,
        "Scenario": scenario.Scenario((1,), 0, 0, Ordering.SYMMETRIC, None, 1.0, None),
        "SpinTriple": spin1_matrices(),
        "HelicityBasis": helicity_eigenstates([0.0, 0.0, 1.0]),
        "GyrotropicMedium": GyrotropicMedium(2.0, 3.0),
        "FockLadder": FockLadder(),
        "SpinorTrajectory": evolution.evolve(path, +1),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_no_field_of_a_record_can_be_assigned_or_deleted(name):
    record = _records()[name]
    assert type(record).__name__ == name
    fields = getattr(record, "_fields", None) or ("n_samples", "k_mag", "dt", "_rows")
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_fiber_path_is_a_plain_read_only_object():
    path = FiberPath(np.arange(3.0), np.eye(3)[[2, 2, 2]], 2.0)
    assert repr(path) == "FiberPath(n_samples=3, k_mag=2.0, dt=1.0)"
    with pytest.raises(AttributeError):
        path.h = np.zeros(3)
    assert path == path and path != FiberPath(np.arange(3.0), np.eye(3)[[2, 2, 2]], 2.0)


def test_spinor_trajectory_unpacks_and_replaces():
    traj = evolution.evolve(helix_path(np.pi / 3, 1.0, 1.0, 1.0, 64), -1)
    path, polarization, *series = traj
    assert polarization == -1 and series[0] is traj.total
    drifted = traj._replace(norms=traj.norms + 1.0)
    assert type(drifted) is evolution.SpinorTrajectory and drifted.total is traj.total


@pytest.mark.parametrize("build", [
    lambda *values: GyrotropicMedium(*values),
    lambda *values: GyrotropicMedium(**dict(zip(GyrotropicMedium._fields, values))),
    lambda *values: GyrotropicMedium(1.0, 0.0)._replace(**dict(zip(GyrotropicMedium._fields, values))),
    lambda *values: GyrotropicMedium._make(values),
], ids=["position", "keyword", "_replace", "_make"])
@pytest.mark.parametrize("field", range(4))
def test_gyrotropic_medium_rejects_a_non_finite_field_however_built(build, field):
    values = [2.0, 3.0, 1.0, 0.0]
    assert build(*values) == GyrotropicMedium(2.0, 3.0)
    for bad in (np.nan, np.inf, -np.inf):
        values[field] = bad
        with pytest.raises(ValueError, match=f"^{GyrotropicMedium._fields[field]} must be finite$"):
            build(*values)


@pytest.mark.parametrize("build", [
    lambda n_max, ordering: FockLadder(n_max, ordering),
    lambda n_max, ordering: FockLadder(n_max=n_max, ordering=ordering),
    lambda n_max, ordering: FockLadder()._replace(n_max=n_max, ordering=ordering),
    lambda n_max, ordering: FockLadder._make((n_max, ordering)),
], ids=["position", "keyword", "_replace", "_make"])
def test_fock_ladder_checks_and_coerces_however_built(build):
    assert build(3, "NORMAL") == FockLadder(n_max=3, ordering=Ordering.NORMAL)
    for n_max in (0, -1, 2.0, True, "3"):
        with pytest.raises(ValueError, match="^n_max must be an integer of at least 1, got "):
            build(n_max, "normal")
    with pytest.raises(ValueError, match="^ordering must be 'normal' or 'symmetric', got 'weyl'$"):
        build(3, "weyl")


def test_defaults_and_coercion():
    assert GyrotropicMedium(2.0, 3.0) == (2.0, 3.0, 1.0, 0.0)
    assert FockLadder() == (8, Ordering.SYMMETRIC) and FockLadder().dim == 81
    assert FockLadder(3, "normal").ordering is Ordering.NORMAL
    assert repr(GyrotropicMedium(2.0, 3.0)) == "GyrotropicMedium(eps1=2.0, eps2=3.0, mu1=1.0, mu2=0.0)"
    assert repr(FockLadder(2)) == "FockLadder(n_max=2, ordering=<Ordering.SYMMETRIC: 'symmetric'>)"
