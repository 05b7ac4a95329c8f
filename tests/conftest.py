import os

# Pin the BLAS and OpenMP pools before numpy loads: on 4x4 problems a second
# thread only burns CPU. An explicit setting in the environment still wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from entopt import CanonicalCoupling


def random_hermitian(rng, n=4, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2.0


def random_density_matrix(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.real(np.trace(rho))


def random_canonical(rng, lo=0.05, hi=1.0):
    """Random coupling in canonical diagonal form, either sign class."""
    mag = np.sort(rng.uniform(lo, hi, size=3))[::-1]
    sign = rng.choice([-1.0, 1.0])
    return CanonicalCoupling(sign * mag[0], sign * mag[1], sign * mag[2])


def expm_taylor(m, terms=30):
    """Scaled-and-squared Taylor series for exp(M); independent of eigensolvers."""
    m = np.asarray(m, dtype=complex)
    norm = np.linalg.norm(m, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.5))))
    small = m / (2.0**squarings)
    result = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ small / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result
