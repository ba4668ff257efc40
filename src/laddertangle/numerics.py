"""Small dense linear-algebra kernels.

Everything here operates on matrices of dimension <= 16; the physics
modules only ever need 3x3, 8x8 and 4x4 systems.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import ContractError, ResonanceError

MAX_DIM = 16
# Largest eigenvector condition number check_shifts accepts.  Its
# factored inverses lose about log10(cond) digits against a direct solve;
# the shipped scenarios stay below 100.
MAX_EIGENVECTOR_CONDITION = 1e6


def _as_square(a, dtype=complex) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {a.shape}")
    return a


def matrix_exponential(a) -> np.ndarray:
    """exp(A) for a small dense complex matrix, or for each of a stack of
    them (one scipy.linalg.expm call, which takes each matrix alone)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ContractError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.shape[-1] > MAX_DIM:
        raise ContractError(f"dimension {a.shape[-1]} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(a.view(float))):
        raise ContractError("non-finite entries in matrix exponential input")
    return sla.expm(a)


def _as_stack(a, dtype) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ContractError(f"expected a stack of square matrices, got shape {a.shape}")
    return a


def factor_pencil(a, b):
    """Factor (A_r - s B)^-1 for every row r of a stack of matrices A and
    every shift s at once.

    QZ (Moler & Stewart, SIAM J. Numer. Anal. 10, 241, 1973) gives beta A V =
    alpha B V without forming A^-1 B, which loses digits when its
    eigenvalues theta = beta / alpha span decades.  Then

        (A - s B)^-1 = V diag(1 / (1 - s theta)) (A V)^-1

    for every shift.  A real pencil goes to real QZ (LAPACK dggev), and the
    second member of each conjugate pair it marks gets the exact conjugate
    theta and V column of the first (their computed beta differ by
    rounding); a complex pencil goes to zggev.  The columns at theta = 0,
    LAPACK's arbitrary basis of ker B, are orthonormalized so that cond(V)
    does not depend on it.  QZ and that QR run row by row (LAPACK has no
    batched QZ), the rest on the whole stack, and every stacked step acts
    on each row alone, so a row's factors do not depend on the others.
    Returns the stacks of V (unit columns), (A V)^-1, theta and cond(V);
    the factors 1 / (1 - s theta) are left to the caller, and so are the
    checks of check_shifts.  Raises LinAlgError when A is singular or
    non-finite on any row.
    """
    real = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    a, b = _as_stack(a, float if real else complex), _as_square(b, float if real else complex)
    rows, n = a.shape[:2]
    alpha, alphai = np.empty((rows, n), dtype=complex), np.zeros((rows, n))
    beta, info = np.empty((rows, n), dtype=a.dtype), np.zeros(rows, dtype=int)
    # each V column-major, as LAPACK returns it: numpy then sums its column
    # norms pairwise, for any number of rows
    v = np.empty((rows, n, n), dtype=complex).transpose(0, 2, 1)
    # LAPACK's QZ drivers themselves: scipy.linalg.eig wraps them in ~0.1 ms of Python
    for r, a_r in enumerate(a):
        if real:
            alphar, alphai[r], beta[r], _, v[r], _, info[r] = sla.lapack.dggev(
                a_r, b, compute_vl=False)
            alpha[r] = alphar + 1j * alphai[r]
        else:
            alpha[r], beta[r], _, v[r], _, info[r] = sla.lapack.zggev(a_r, b, compute_vl=False)
    # checked before dividing: alpha = 0 is a singular A, and LAPACK passes NaN on
    if info.any() or (alpha == 0.0).any() or not np.isfinite(a + b).all():
        raise np.linalg.LinAlgError(f"singular or non-finite matrix, or QZ failed "
                                    f"({info[np.argmax(info != 0)]})")
    theta = beta / alpha
    if real:
        # pair j, j + 1 (alphai[j] > 0): columns j, j + 1 hold the first eigenvector's Re, Im
        r, j = np.nonzero(alphai > 0.0)
        v[r, :, j] += 1j * v[r, :, j + 1]
        v[r, :, j + 1] = v[r, :, j].conj()
        theta[r, j + 1] = theta[r, j].conj()
    v /= np.linalg.norm(v, axis=1)[:, None, :]
    kernel = theta == 0.0     # QR through LAPACK itself: numpy's wrapper costs 3x as much
    for r in np.flatnonzero(kernel.any(axis=1)):
        v[r][:, kernel[r]] = sla.lapack.zungqr(*sla.lapack.zgeqrf(v[r][:, kernel[r]])[:2])[0]
    sigma = np.linalg.svd(v, compute_uv=False)     # cond(V) = sigma_max / sigma_min
    return v, np.linalg.inv(a @ v), theta, sigma[:, 0] / sigma[:, -1]


def check_shifts(factors, shifts):
    """Refuse a stack of factor_pencil factorizations for the given shifts:
    raise ResonanceError when a row's cond(V) exceeds
    MAX_EIGENVECTOR_CONDITION, and LinAlgError when a shift lies on a pole
    of a row's pencil.  A caller that scales a row's theta (divide_rows)
    checks the scaled theta, whose poles are the ones its classes meet."""
    _, _, theta, cond = factors
    shifts = np.asarray(shifts, dtype=float)
    accepted = cond <= MAX_EIGENVECTOR_CONDITION
    if not accepted.all():
        raise ResonanceError(f"eigenvector condition number {cond[np.argmin(accepted)]:.3g} of "
                             f"the shifted inverse exceeds {MAX_EIGENVECTOR_CONDITION:.0e}")
    # 1 - s theta vanishes only for a real, nonzero theta; only the rows
    # that have one build a (shifts, poles) product
    poles = (theta.imag == 0.0) & (theta != 0.0)
    for r in np.flatnonzero(poles.any(axis=1)):
        if np.any(np.multiply.outer(shifts, theta[r].real[poles[r]]) == 1.0):
            raise np.linalg.LinAlgError("a shift lies on a pole of the pencil")


def divide_rows(z: np.ndarray, scales) -> np.ndarray:
    """Each row of a stack of complex rows z divided by its real scale (a
    scalar, or one per row), the real and imaginary parts apart: complex
    division by a real rounds through its reciprocal and can flip the sign
    of a zero part, so a scale of 1 would not leave every bit."""
    return (z.view(float) / np.reshape(scales, (-1, 1))).view(complex)


def propagation_integral(m, s, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrix T = exp(M L) and accumulated noise
    I = int_0^L exp(M u) S exp(M^H u) du, for one pair of matrices M, S or
    for each pair of two stacks of them.

    One Van Loan block exponential (Van Loan, IEEE TAC 23(3), 1978)
    over a step h = L / 2^k gives both on [0, h]:

        exp([[M, S], [0, -M^H]] h) = [[T(h), G], [0, exp(-M^H h)]],

    with I(h) = G T(h)^H.  k doubling steps I <- I + T I T^H, T <- T T
    then reach L.  k is the smallest integer with ||M||_1 h <= 1/2.  A
    single block exponential over the whole cell would carry
    exp(-M^H L), which grows as fast as an optically thick cell
    attenuates, and would lose I to rounding at that scale.  The pairs of
    a stack run together in groups of equal k, so each pair takes the
    steps it takes alone.
    """
    m, s = np.asarray(m, dtype=complex), np.asarray(s, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or s.shape != m.shape:
        raise ContractError(f"expected square M and S of one shape, got {m.shape} and {s.shape}")
    n = m.shape[-1]
    ms, ss = m.reshape(-1, n, n), s.reshape(-1, n, n)
    steps = []
    for norm in np.abs(ms).sum(axis=1).max(axis=1).tolist():     # ||M||_1
        k, h = 0, float(length)
        while norm * abs(h) > 0.5:
            k += 1
            h *= 0.5
        steps.append((k, h))
    groups = _groups(steps)
    if len(groups) == 1:
        t, integral = _doubled(ms, ss, *steps[0])
    else:
        t, integral = np.empty_like(ms), np.empty_like(ms)
        for (k, h), rows in groups.items():
            t[rows], integral[rows] = _doubled(ms[rows], ss[rows], k, h)
    return t.reshape(m.shape), integral.reshape(m.shape)


def _doubled(m: np.ndarray, s: np.ndarray, steps: int, h: float):
    """propagation_integral of a stack of pairs M, S that take the same
    number of doubling steps from the same step h."""
    n = m.shape[-1]
    block = np.zeros((len(m), 2 * n, 2 * n), dtype=complex)
    block[:, :n, :n] = m
    block[:, :n, n:] = s
    block[:, n:, n:] = -m.conj().transpose(0, 2, 1)
    f = matrix_exponential(block * h)
    t = f[:, :n, :n]
    integral = f[:, :n, n:] @ t.conj().transpose(0, 2, 1)
    for _ in range(steps):
        integral = integral + t @ integral @ t.conj().transpose(0, 2, 1)
        t = t @ t
    return t, integral


def _groups(keys) -> dict:
    """The indices of each distinct key of a sequence, in first-seen order."""
    out = {}
    for index, key in enumerate(keys):
        out.setdefault(key, []).append(index)
    return out


def _quadrature_propagation_integral(m, s, length: float, panels: int = 8, order: int = 16) -> np.ndarray:
    """Composite Gauss-Legendre quadrature of the propagation integral.

    Test oracle for propagation_integral; no program path calls it.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    out = np.zeros_like(np.asarray(s, dtype=complex))
    h = length / panels
    for k in range(panels):
        lo = k * h
        u = lo + 0.5 * h * (x + 1.0)
        for ui, wi in zip(u, w):
            t = matrix_exponential(m * ui)
            out += (0.5 * h * wi) * (t @ s @ t.conj().T)
    return out
