"""Stationary-phase imaging map under a uniform force.

For a linear potential the stationary-phase action is quadratic, so the
mapped density agrees with the split-operator reference (exact for a field
alone) to the level set by the packet's momentum-space curvature. A wide
packet in momentum (narrow in position) makes that residual tiny.
"""

import numpy as np

from itkit import (
    GaussianPacketSpec,
    MOMENTUM,
    POSITION,
    UniformField,
    centered_grid_1d,
    sample_gaussian,
)
from itkit.propagate import EvolutionSpec, evolve_split_operator, it_field_uniform


def main() -> None:
    m, force, t, sigma_p = 1.0, 1e-3, 200.0, 3.0
    spec = GaussianPacketSpec(p0=[0.0], sigma_p=[sigma_p], r0=[0.0])
    drift = force * t * t / 2.0

    xgrid = centered_grid_1d(9000.0, 65536, drift)
    # reference on a twice-wider box with the same spacing, so the periodic
    # images of the packet stay off its edges; keep the central 65536 points
    padded = centered_grid_1d(18000.0, 131072, drift)
    psi0 = sample_gaussian(spec, padded, POSITION)
    evo = EvolutionSpec(mass=m, t_start=0.0, t_end=t, n_steps=9100,
                        field=UniformField([force]))
    d_ref = evolve_split_operator(psi0, evo).density()[32768:32768 + 65536]

    pgrid = centered_grid_1d(32.0 * sigma_p, 8192, 0.0)
    phi = sample_gaussian(spec, pgrid, MOMENTUM)
    d_it = it_field_uniform(phi, xgrid, t, 0.0, m, [force]).density()

    order = np.argsort(d_ref)[::-1]
    csum = np.cumsum(d_ref[order])
    k = int(np.searchsorted(csum, 0.99 * csum[-1])) + 1
    mask = np.zeros(d_ref.size, dtype=bool)
    mask[order[:k]] = True

    err = np.max(np.abs(d_it[mask] - d_ref[mask]) / d_ref[mask])
    x = xgrid.axis(0)
    print(f"packet center drifted to x = {x[np.argmax(d_ref)]:.1f}"
          f" (ballistic Ft^2/2 = {drift:.1f})")
    print(f"max relative density error over the 99% region: {err:.3e}")


if __name__ == "__main__":
    main()
