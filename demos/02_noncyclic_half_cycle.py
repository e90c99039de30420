# Open-path (noncyclic) transport phase, checked at the half turn.
#
# The overlap-based geometric phase and the closed-form integral
# sigma * Int azimuth_rate (1 - cos polar) dt agree whenever the azimuth has
# advanced by a multiple of pi; in between they follow different but equally
# valid splits of the same physical phase (the overlap split is measurable
# by interference, the integral is the transport gauge).

import numpy as np

from fiberphase import (
    analytic_noncyclic_phase,
    evolve,
    helix_path,
    phase_decomposition,
    spherical_angles,
)

cone = np.pi / 3
path = helix_path(cone_angle=cone, omega=1.0, k_mag=1.0, n_cycles=0.5, n_steps=2048)
angles = spherical_angles(path)

print("half turn of the cone (azimuth 0 -> pi), cone half-angle 60 deg\n")
print("sigma   overlap geometric   transport integral   |difference|")
for polarization in (+1, -1):
    dec = phase_decomposition(evolve(path, polarization), path)
    target = analytic_noncyclic_phase(angles, polarization)[-1]
    diff = abs(dec.geometric[-1] - target)
    print(f"  {polarization:+d}      {dec.geometric[-1]:+.6f}           {target:+.6f}          {diff:.2e}")
    assert diff < 5e-3

# quarter-turn checkpoint: the two splits legitimately part ways mid-path
quarter = path.n_samples // 2
dec = phase_decomposition(evolve(path, +1), path)
print(
    f"\nat the quarter turn the overlap split gives {dec.geometric[quarter]:+.4f} rad while"
    f"\nthe transport integral gives {analytic_noncyclic_phase(angles, +1)[quarter]:+.4f} rad;"
    "\nthey rejoin at every half turn, where the overlap is purely real."
)
