"""First-order elastic scattering from a repulsive Gaussian bump.

The forward amplitude for V(r) = V0 exp(-r^2/a^2) has the closed form
f(0) = -(m / 2 pi) V0 pi^(3/2) a^3, which checks the quadrature, and the
differential cross section |f(theta)|^2 falls off with momentum transfer.
"""

import math

import numpy as np

from itkit.scatter import born_amplitude, cross_section


def main() -> None:
    v0, a, m = 0.01, 1.0, 1.0
    energy = 0.5
    p = math.sqrt(2.0 * m * energy)

    def potential(x, y, z):
        return v0 * np.exp(-(x * x + y * y + z * z) / (a * a))

    f0 = born_amplitude(potential, [p, 0.0, 0.0], [p, 0.0, 0.0], m)
    analytic = -(m / (2.0 * math.pi)) * v0 * math.pi ** 1.5 * a ** 3
    print(f"forward amplitude  quadrature {f0.real:.12e}")
    print(f"                   closed form {analytic:.12e}")
    print(f"                   relative gap {abs(f0.real - analytic) / abs(analytic):.2e}")

    # one call samples V once for every outgoing direction
    degrees = np.arange(0, 181, 30)
    th = np.radians(degrees)
    p_out = p * np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=-1)
    sigma = cross_section(born_amplitude(potential, [p, 0.0, 0.0], p_out, m))
    print("theta (deg)   dsigma/dOmega (au)")
    for deg, s in zip(degrees, sigma):
        print(f"{deg:11d}   {s:.6e}")


if __name__ == "__main__":
    main()
