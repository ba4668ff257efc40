"""Small dense linear-algebra kernels, in numpy alone.

Everything here operates on matrices of dimension <= 16; the physics
modules only ever need 3x3, 8x8 and 4x4 systems.  The drift pencils are
factored by a stacked standard eigenproblem and one Newton step
(factor_pencil), and the exponentials are Pade scaling and squaring
(matrix_exponential), so the package needs no scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

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


# Degrees of the diagonal Pade approximants of exp, each with the largest
# ||A||_1 at which it meets double precision unscaled (Higham, SIAM J. Matrix
# Anal. Appl. 26, 1179, 2005, Table 2.3), and the approximants' coefficients
_PADE_REACH = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0), (13, 5.371920351148152e0))
_PADE_COEFFICIENTS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0)}
# each degree's coefficients of (U / A, V) on the powers I, A^2, A^4, ...; at
# degree 13 on I, ..., A^6 only, and apart the higher ones, which multiply
# A^6 (A^2, A^4, A^6)
_PADE_TERMS = {m: np.array([b[1:8:2], b[0:8:2]] if m == 13 else [b[1::2], b[::2]])
               for m, b in _PADE_COEFFICIENTS.items()}
_PADE_13_HIGH = np.array([_PADE_COEFFICIENTS[13][9::2], _PADE_COEFFICIENTS[13][8::2]])


def matrix_exponential(a) -> np.ndarray:
    """exp(A) for a small dense complex matrix, or for each of a stack of
    them, by Pade scaling and squaring (Higham 2005): each matrix takes the
    lowest degree whose reach covers its 1-norm, and degree 13 over A / 2^k
    with the fewest k squarings beyond that.  The matrices run together in
    groups of equal (degree, k), so each one's bytes are those it has alone."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ContractError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    if n > MAX_DIM:
        raise ContractError(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    stack = a.reshape(-1, n, n)
    norms = np.abs(stack).sum(axis=1).max(axis=1)     # ||A||_1, NaN or inf when A is
    if not np.isfinite(norms).all():
        raise ContractError("non-finite entries in matrix exponential input")
    steps = []
    for norm in norms.tolist():
        degree = next((m for m, reach in _PADE_REACH if norm <= reach), 13)
        steps.append((degree, max(0, math.ceil(math.log2(norm / _PADE_REACH[-1][1])))
                      if degree == 13 else 0))
    groups = _groups(steps)
    if len(groups) == 1:
        out = _pade_squared(stack, *steps[0])
    else:
        out = np.empty_like(stack)
        for (degree, squarings), rows in groups.items():
            out[rows] = _pade_squared(stack[rows], degree, squarings)
    return out.reshape(a.shape)


def _pade_squared(a: np.ndarray, degree: int, squarings: int) -> np.ndarray:
    """exp of each of a stack of matrices: the degree-m Pade approximant
    r = (V - U)^-1 (V + U) at A / 2^k, squared k times; U holds the odd
    terms of its numerator and V the even ones."""
    if squarings:
        a = a * 0.5 ** squarings
    powers = np.empty((degree // 2 + 1 if degree < 13 else 4, *a.shape), dtype=complex)
    powers[0] = np.eye(a.shape[-1])         # I, A^2, A^4, ..., at degree 13 up to A^6
    np.matmul(a, a, out=powers[1])
    for k in range(2, len(powers)):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    odd, even = np.einsum("jk,k...->j...", _PADE_TERMS[degree], powers)
    if degree == 13:
        high = np.einsum("jk,k...->j...", _PADE_13_HIGH, powers[1:])
        odd += powers[3] @ high[0]
        even += powers[3] @ high[1]
    u = a @ odd
    r = np.linalg.solve(even - u, even + u)
    for _ in range(squarings):
        r = r @ r
    return r


def _as_stack(a, dtype) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ContractError(f"expected a stack of square matrices, got shape {a.shape}")
    return a


def factor_pencil(a, b):
    """Factor (A_r - s B)^-1 for every row r of a stack of matrices A that
    share B, and for every shift s at once.

    With theta the eigenvalues of A^-1 B and V its eigenvectors,

        (A - s B)^-1 = V diag(1 / (1 - s theta)) (A V)^-1

    for every shift.  B vanishes off its support P, the indices of its
    nonzero rows and columns, and so do the columns of A^-1 B.  Off P,
    theta = 0 and the columns of V are unit vectors.  On P, theta are the
    eigenvalues of (A^-1)_PP B_PP, one stacked LAPACK geev, and the column
    of eigenvector w is (A^-1)_{:,P} B_PP w / theta.

    geev resolves each theta only to the rounding of the largest, so a
    narrow pole far inside the largest |theta| would lose digits of its
    width.  One Newton step on the pencil itself restores them: the
    residual (theta A - B) v is taken at the scale of A and B, and the step
    solved in the computed eigenbasis, where its Jacobian is diagonal.
    Against 40-digit inverses of the drift pencils this is more accurate
    than QZ (Moler & Stewart, SIAM J. Numer. Anal. 10, 241, 1973) with the
    same reconstruction on every row checked (tests/test_pencil_oracle.py).
    On a real pencil geev gives exact conjugate pairs of theta and columns,
    and the second member of each pair takes the exact conjugate of the
    first's Newton step.  Every stacked step acts on each row alone, so a
    row's factors do not depend on the others.  Returns the stacks of V
    (unit columns), (A V)^-1, theta and cond(V); the factors
    1 / (1 - s theta) are left to the caller, and so are the checks of
    check_shifts.  Raises LinAlgError when A is singular on any row, B_PP
    is singular, or an input is not finite.
    """
    real = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    a, b = _as_stack(a, float if real else complex), _as_square(b, float if real else complex)
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("non-finite matrix in the pencil")
    rows, n = a.shape[:2]
    p, q, b_p = _support(b.tobytes(), n, b.dtype.char)
    try:
        coupled = np.linalg.solve(a, b_p)              # the columns P of A^-1 B
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("singular matrix A on a row of the stack") from exc
    theta_p, w = np.linalg.eig(coupled[:, p])
    if (theta_p == 0.0).any():
        raise np.linalg.LinAlgError("singular matrix B on its support")
    theta = np.zeros((rows, n), dtype=complex)
    theta[:, p] = theta_p
    # each V column-major, as LAPACK lays out eigenvectors: numpy then sums
    # its column norms pairwise, for any number of rows
    v = np.zeros((rows, n, n), dtype=complex).transpose(0, 2, 1)
    v[:, q, q] = 1.0
    v[:, :, p] = x = coupled @ w / theta_p[:, None, :]
    # Newton on (theta A - B) x = 0: with c = V^-1 dx and g = (A V)^-1 times
    # the residual of x_i, (theta_i - theta_j) c_j = -g_j for j != i (none
    # across an exactly repeated theta), c_i = 0 and d theta_i = -g_i
    av = a @ v
    g = np.linalg.solve(av, av[:, :, p] * theta_p[:, None, :] - b_p @ x[:, p])
    gap = theta_p[:, None, :] - theta[:, :, None]
    x = x - v @ np.divide(g, gap, out=np.zeros_like(g), where=gap != 0.0)
    refined = theta_p - g[:, p, np.arange(len(p))]
    if real:
        # geev lists each conjugate pair together, the member above the axis
        # first; the step keeps the partner the exact conjugate of that member
        r, j = np.nonzero(theta_p.imag > 0.0)
        x[r, :, j + 1] = x[r, :, j].conj()
        refined[r, j + 1] = refined[r, j].conj()
    v[:, :, p], theta[:, p] = x, refined
    v /= np.sqrt(np.add.reduce((v.conj() * v).real, axis=1, keepdims=True))
    sigma = np.linalg.svd(v, compute_uv=False)     # cond(V) = sigma_max / sigma_min
    return v, np.linalg.inv(a @ v), theta, sigma[:, 0] / sigma[:, -1]


@lru_cache(maxsize=16)
def _support(data: bytes, n: int, dtype: str):
    """factor_pencil's support P of an n x n matrix B given by its bytes,
    the indices Q off it, and the columns P of B, read-only: a sweep
    shares one B, so they are worked out once for it.  Raises LinAlgError
    when B is not finite or singular on P."""
    b = np.frombuffer(data, dtype=dtype).reshape(n, n)
    if not np.isfinite(b).all():
        raise np.linalg.LinAlgError("non-finite matrix in the pencil")
    support = b.any(axis=0) | b.any(axis=1)
    p, q = np.flatnonzero(support), np.flatnonzero(~support)
    b_p = b[:, p]
    if np.linalg.slogdet(b_p[p])[0] == 0.0:
        raise np.linalg.LinAlgError("singular matrix B on its support")
    for x in (p, q, b_p):
        x.flags.writeable = False
    return p, q, b_p


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
    attenuates, and would lose I to rounding at that scale.  The block
    exponentials of a stack are one matrix_exponential call, whose matrices
    each take the approximant they take alone, and the pairs then double in
    groups of equal k, so each pair takes the steps it takes alone.
    """
    m, s = np.asarray(m, dtype=complex), np.asarray(s, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or s.shape != m.shape:
        raise ContractError(f"expected square M and S of one shape, got {m.shape} and {s.shape}")
    n = m.shape[-1]
    ms, ss = m.reshape(-1, n, n), s.reshape(-1, n, n)
    steps, hs = [], []
    for norm in np.abs(ms).sum(axis=1).max(axis=1).tolist():     # ||M||_1
        k, h = 0, float(length)
        while norm * abs(h) > 0.5:
            k += 1
            h *= 0.5
        steps.append(k)
        hs.append(h)
    block = np.zeros((len(ms), 2 * n, 2 * n), dtype=complex)
    block[:, :n, :n] = ms
    block[:, :n, n:] = ss
    block[:, n:, n:] = -ms.conj().transpose(0, 2, 1)
    f = matrix_exponential(block * np.array(hs)[:, None, None])
    groups = _groups(steps)
    if len(groups) == 1:
        t, integral = _doubled(f, steps[0])
    else:
        t, integral = np.empty_like(ms), np.empty_like(ms)
        for k, rows in groups.items():
            t[rows], integral[rows] = _doubled(f[rows], k)
    return t.reshape(m.shape), integral.reshape(m.shape)


def _doubled(f: np.ndarray, steps: int):
    """T and I of a stack of pairs from their block exponentials f over a
    step h (propagation_integral), doubled steps times."""
    n = f.shape[-1] // 2
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
