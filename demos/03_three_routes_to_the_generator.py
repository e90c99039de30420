# Three independent constructions of the same transport generator.
#
#   (i)   finite rotation between successive samples:  (theta/dt) . S
#   (ii)  the constant-|k| equation of motion  k_dot + k x ((k x k_dot)/k^2) = 0
#   (iii) the conserved projection k_hat . S solving  dI/dt + (1/i)[I, H] = 0
#
# Route (i) should approach the direct cross-product generator linearly in
# dt; routes (ii) and (iii) leave residuals that vanish at the stencil order
# (and sit at the rounding floor on constant-speed circles, where the
# leading error term cancels).  Feeding a wrong generator into (iii) leaves
# an O(1) residual, which pins the sign and scale of H.

import numpy as np

from fiberphase import (
    hamiltonian_coefficients,
    helix_path,
    invariant_residual_series,
    motion_residual,
    rotation_vectors,
)
from fiberphase.geometry import FiberPath


def rotation_gap(path):
    # largest Frobenius gap between (theta/dt) . S and h . S over the steps;
    # ||v . S||_F = sqrt(2) |v| for any 3-vector v
    step_gap = np.linalg.norm(rotation_vectors(path) / path.dt - hamiltonian_coefficients(path)[:-1], axis=1)
    return np.sqrt(2.0) * step_gap.max()


def wobble_path(n_steps):
    # varying cone angle: the generic case, no special cancellations
    t = np.linspace(0.0, 2.0 * np.pi, n_steps + 1)
    lam = np.pi / 3 + 0.3 * np.sin(t)
    kh = np.stack([np.sin(lam) * np.cos(t), np.sin(lam) * np.sin(t), np.cos(lam)], axis=1)
    return FiberPath(times=t, k_hat=kh, k_mag=1.0)


print("constant-speed helix, cone 60 deg:")
print("  n_steps   rotation gap   motion residual   invariant residual")
for n in (512, 1024, 2048):
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n)
    print(
        f"  {n:7d}   {rotation_gap(p):.3e}      {motion_residual(p).max():.3e}"
        f"         {invariant_residual_series(p).max():.3e}"
    )
print("  (gap halves per refinement; the circle residuals superconverge /")
print("   sit at rounding because the second-order error term cancels)")

print("\nvarying cone angle (generic path):")
print("  n_steps   motion residual   invariant residual")
previous = None
for n in (512, 1024, 2048):
    p = wobble_path(n)
    m, i = motion_residual(p).max(), invariant_residual_series(p).max()
    note = "" if previous is None else f"   (ratios {previous[0] / m:.2f}, {previous[1] / i:.2f})"
    print(f"  {n:7d}   {m:.3e}         {i:.3e}{note}")
    previous = (m, i)
print("  (both quarter per refinement: genuine second order)")

p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 512)
wrong = invariant_residual_series(p, scale=2.0).max()
print(f"\nnegative control: doubling the generator leaves residual {wrong:.3f} = O(1)")
assert wrong > 0.1
