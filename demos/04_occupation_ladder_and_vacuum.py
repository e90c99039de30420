# Occupation-number phases and the zero-point halves that normally cancel.
#
# Over a full cone cycle each mode's phase is proportional to its ordering
# weight: n under normal ordering (zero-point deleted), n + 1/2 under
# symmetric ordering (zero-point kept).  The +-1/2 pieces are equal and
# opposite between the two circular modes, so the total for the bare vacuum
# is exactly zero -- visible only when the per-mode phases are kept apart.

import numpy as np

from fiberphase import (
    FockLadder,
    Ordering,
    cyclic_phases,
    helix_path,
    phase_spectrum,
    quantal_geometric_phase,
    spherical_angles,
    vacuum_phase,
)

cone = np.pi / 3
cycle = 2.0 * np.pi * (1.0 - np.cos(cone))
print(f"cone 60 deg: phase unit per cycle = 2 pi (1 - cos) = {cycle:.6f} rad\n")

print("phase spectrum, symmetric ordering, n_max = 2 (phases in units of pi):")
print("  n_L  n_R   phi_L/pi   phi_R/pi   total/pi")
for row in phase_spectrum(FockLadder(n_max=2, ordering=Ordering.SYMMETRIC), cone):
    print(
        f"  {row['n_left']:3d}  {row['n_right']:3d}   {row['phi_left'] / np.pi:+7.3f}"
        f"    {row['phi_right'] / np.pi:+7.3f}    {row['phi_total'] / np.pi:+7.3f}"
    )

vac_sym = cyclic_phases(0, 0, cone, Ordering.SYMMETRIC)
vac_norm = cyclic_phases(0, 0, cone, Ordering.NORMAL)
print(f"\nbare vacuum, symmetric ordering: per-mode ({vac_sym[0]:+.4f}, {vac_sym[1]:+.4f}), sum {sum(vac_sym):+.1f}")
print(f"bare vacuum, normal ordering:    per-mode ({vac_norm[0]:+.4f}, {vac_norm[1]:+.4f})")
print("the ordering difference is exactly the -+ half-weights: the zero-point share")

# time-resolved version along the trajectory
path = helix_path(cone, 1.0, 1.0, 1.0, 1024)
angles = spherical_angles(path)
last = path.n_samples - 1
print(f"\ntime-resolved on the sampled helix (final values):")
print(f"  vacuum R: {vacuum_phase(+1, angles)[last]:+.6f}   vacuum L: {vacuum_phase(-1, angles)[last]:+.6f}")
print(f"  sum:      {vacuum_phase(+1, angles)[last] + vacuum_phase(-1, angles)[last]:+.6f}  (cancels identically)")
print(f"  one right photon, quantal phase: {quantal_geometric_phase(0, 1, angles)[last]:+.6f}")
assert vacuum_phase(+1, angles)[last] + vacuum_phase(-1, angles)[last] == 0.0
