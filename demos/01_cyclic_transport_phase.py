# Cyclic transport phase of circularly polarized light on a helical path.
#
# The wave-vector direction traces a cone of half-angle c once around the
# z axis; after the loop each circular polarization returns with a geometric
# phase sigma * 2 pi (1 - cos c), the swept solid angle.  The dynamical part
# vanishes because the generator's coefficient vector is orthogonal to the
# propagation direction at every instant.

import numpy as np

from fiberphase import (
    analytic_noncyclic_phase,
    evolve,
    helix_path,
    phase_decomposition,
    spherical_angles,
)

cone = np.pi / 3
path = helix_path(cone_angle=cone, omega=1.0, k_mag=1.0, n_cycles=1.0, n_steps=4096)
angles = spherical_angles(path)
closed_form = 2.0 * np.pi * (1.0 - np.cos(cone))

print(f"cone half-angle {np.degrees(cone):.1f} deg, swept solid angle {closed_form:.6f} rad\n")
print("sigma   total(T)      dynamical(T)  geometric(T)  closed form")
for polarization in (+1, -1):
    traj = evolve(path, polarization)
    dec = phase_decomposition(traj, path)
    target = analytic_noncyclic_phase(angles, polarization)[-1]
    print(
        f"  {polarization:+d}   {dec.total[-1]:+.6f}    {dec.dynamical[-1]:+.2e}     "
        f"{dec.geometric[-1]:+.6f}     {target:+.6f}"
    )
    assert abs(dec.geometric[-1] - polarization * closed_form) < 1e-3

print("\nThe sign convention is the receiver's: sigma = +1 (right-handed) light")
print("carries spin projection -1 along the propagation direction, and it is")
print("the polarization label that sets the sign of the transported phase.")
