"""Quadrature reference for the kappa non-planar closed form (tests only).

`kappa_nonplanar_quad` is the non-planar value by quadrature, as the kappa
mixing classifier first computed it: the Wick-rotated k0 integrand, with the
spatial momentum k^*(k0) that the non-planar delta fixes, integrated by
QUADPACK over [-Lambda, Lambda].  `loop.kappa_nonplanar_closed` serves the
temporal probe p = (p0, 0) only; this quadrature accepts a spatial p too.
The integrand oscillates with period 2 pi kappa / d, so QUADPACK's
subdivision limit is reached once Lambda is far beyond 100 kappa; the
tests compare with it for Lambda <= 100 kappa, where it converges, and
assert that it does.
"""

import math

import numpy as np
from scipy import integrate


def kappa_nonplanar_quad(p, m, kappa, d, Lambda):
    """(value, converged) of the rotated k0 quadrature at external momentum p."""
    p = np.asarray(p, float)
    p0 = p[0]
    denom = 1.0 - math.exp(-p0 / kappa)
    jac = abs(denom) ** (-d)
    dq = math.exp(-d * p0 / kappa)  # Delta(q) at q = (-)p
    psq = float(np.dot(p[1:], p[1:]))

    def integrand(k0):
        z = np.exp(1j * k0 / kappa)
        kstar2 = psq * (1.0 - 1.0 / z) ** 2 / denom ** 2
        K = k0 * k0 + z * kstar2 + m * m
        w = z ** d * (1.0 + z ** (-d)) * (1.0 + dq * z ** (-2 * d))
        return (w / K).real

    res = integrate.quad(integrand, -Lambda, Lambda, limit=400, full_output=1)
    return jac * res[0], len(res) == 3
