"""Closed-form probe response and its pole structure.

Under the rotating-wave approximation, at two-photon resonance
(Delta_1 = Delta_2 = omega_m), the normalized cavity-1 output field is the
nested continued fraction

    E_L(x) = 2i*kappa1 / ( (x + i*kappa1)
                           - s1 / ( (x + i*gamma_m/2)
                                    - s2 / (x + i*kappa2) ) )

with x the probe detuning from the shifted cavity resonance, and the
radiation-pressure weights s_i = g_i^2 |a_i0|^2 / 2.  Clearing denominators
gives the cubic

    p(x) = (x + i*kappa1)(x + i*gamma_m/2)(x + i*kappa2)
           - s1 (x + i*kappa2) - s2 (x + i*kappa1),

whose roots are the response poles: all purely imaginary below the critical
drive (overdamped interference regime -- the transparency window and, with
s2 > 0, the narrow absorption peak inside it), acquiring real parts above it
(normal-mode splitting).
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InvalidParameterError, SingularResponseError
from .params import Checked, _require_non_negative, _require_positive

EIT_REGIME = "EIT_regime"
NMS_REGIME = "NMS_regime"

# "purely imaginary" classification: |Re| <= tol * max(|Im|, gamma_m).
# An exact-zero test is meaningless after companion-matrix eigensolves.
PURE_IMAG_TOL = 1e-6


class _RwaCoefficients(NamedTuple):
    kappa1: float
    kappa2: float
    gamma_m: float
    s1: float
    s2: float


class RwaCoefficients(Checked, _RwaCoefficients):
    """Rates and drive weights entering the closed-form response.

    s1 = g1^2 |a10|^2 / 2 and s2 = g2^2 |a20|^2 / 2, in rad^2/s^2.
    """

    __slots__ = ()

    def _check(self):
        _require_positive(self.kappa1, "kappa1")
        _require_positive(self.kappa2, "kappa2")
        _require_positive(self.gamma_m, "gamma_m")
        _require_non_negative(self.s1, "s1")
        _require_non_negative(self.s2, "s2")

    @classmethod
    def from_working_point(cls, wp, params) -> "RwaCoefficients":
        return cls(
            kappa1=params.kappa1,
            kappa2=params.kappa2,
            gamma_m=params.gamma_m,
            s1=params.g1**2 * wp.n1 / 2.0,
            s2=params.g2**2 * wp.n2 / 2.0,
        )


class PoleSet(NamedTuple):
    """The three response poles, ordered by ascending |Im|.

    classification is EIT_regime when every root is purely imaginary within
    tolerance, NMS_regime when a pair has acquired real parts.  The widths
    property returns the decay rates -Im(root) (half-widths at half maximum
    of the corresponding Lorentzian factors).
    """

    roots: tuple[complex, complex, complex]
    classification: str

    @property
    def widths(self) -> tuple[float, float, float]:
        return tuple(-r.imag for r in self.roots)


def response_rwa(x, c: RwaCoefficients):
    """Evaluate the nested-fraction response E_L(x); accepts scalar or array x.

    Raises SingularResponseError if x sits exactly on a pole (only possible
    for complex x; the response is pole-free on the real axis since every
    level of the fraction keeps a positive imaginary part).
    """
    x_arr = np.asarray(x, dtype=complex)
    inner = x_arr + 1j * c.kappa2
    if np.any(inner == 0):
        raise SingularResponseError("x + i*kappa2 vanished", delta=None)
    mid = (x_arr + 0.5j * c.gamma_m) - c.s2 / inner
    if np.any(mid == 0):
        raise SingularResponseError("middle level of the response fraction vanished")
    outer = (x_arr + 1j * c.kappa1) - c.s1 / mid
    if np.any(outer == 0):
        raise SingularResponseError("response evaluated exactly on a pole")
    result = 2j * c.kappa1 / outer
    if np.isscalar(x) or np.ndim(x) == 0:
        return complex(result)
    return result


def _poles(kappa1, kappa2, gamma_m, s1, s2) -> tuple[np.ndarray, np.ndarray]:
    """Poles of every row's cubic, from one stacked companion-matrix eigensolve.

    The rates kappa1, kappa2, gamma_m are scalars; the weights s1, s2 broadcast to (n,).
    The cubic is solved in y = i*x/gamma_m with every rate normalized by gamma_m:
    q(y) = (y - k1)(y - 1/2)(y - k2) + s1 (y - k2) + s2 (y - k1) has real O(1)-O(1e4)
    coefficients, so purely imaginary x-roots come out with exactly real y.  The
    companion matrices are those np.roots builds and each eigenvalue gets one Newton
    step, so each row equals the scalar np.roots solve bit for bit.  A step that
    overflows is taken divided through by y (the eigenvalue alone would put -a1/2 into
    both widths of a huge pair), and the eigenvalue is kept where that fails too.
    Returns the (n, 3) roots in x, rows in ascending |Im|, and the (n,) normalized
    constant terms a3 = q(0).  Raises InvalidParameterError for a rate not finite and > 0
    or a weight not finite and >= 0, and SingularResponseError naming the first row whose
    coefficients overflow.
    """
    for name, rate in (("kappa1", kappa1), ("kappa2", kappa2), ("gamma_m", gamma_m)):
        _require_positive(rate, name)
    s1, s2 = np.broadcast_arrays(*np.atleast_1d(s1, s2))
    for name, s in (("s1", s1), ("s2", s2)):
        bad = np.flatnonzero(~np.isfinite(s) | (s < 0.0))
        if bad.size:
            raise InvalidParameterError(f"row {bad[0]}: {name} must be finite and >= 0, "
                                        f"got {s[bad[0]]}")
    # gamma_m stays a scalar: gamma_m**2 is libm pow, which numpy's g*g can miss by an ulp
    k1, k2, s1, s2 = kappa1 / gamma_m, kappa2 / gamma_m, s1 / gamma_m**2, s2 / gamma_m**2
    with np.errstate(over="ignore"):  # checked below
        a1 = np.full_like(s1, -(k1 + k2 + 0.5))
        a2 = k1 * 0.5 + k1 * k2 + 0.5 * k2 + s1 + s2
        a3 = -(k1 * 0.5 * k2 + s1 * k2 + s2 * k1)
    bad = np.flatnonzero(~np.isfinite(np.column_stack([a1, a2, a3])).all(axis=1))
    if bad.size:
        raise SingularResponseError(f"row {bad[0]}: the pole cubic's coefficients overflow")
    companion = np.zeros((len(a1), 3, 3))
    companion[:, 0] = -np.column_stack([a1, a2, a3])
    companion[:, 1, 0] = 1.0
    companion[:, 2, 1] = a3 != 0  # an underflowed a3 deflates to the 2x2 np.roots builds
    y = np.linalg.eigvals(companion)
    a1, a2, a3 = (v[:, None] for v in (a1, a2, a3))
    with np.errstate(all="ignore"):  # a pair |y| ~ 1e125 (C2/C1 ~ 1e250) overflows y**3
        p = ((y + a1) * y + a2) * y + a3
        dp = (3.0 * y + 2.0 * a1) * y + a2
        step = np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)
        step = np.where(np.isfinite(step), step,
                        ((y + a1) * y + a2 + a3 / y) / (3.0 * y + 2.0 * a1 + a2 / y))
    y = np.where(np.isfinite(step), y - step, y)
    x = -1j * y * gamma_m
    x = np.take_along_axis(x, np.lexsort((x.real, np.abs(x.imag)), axis=-1), axis=-1)
    return x, a3[:, 0]


def denominator_roots(c: RwaCoefficients) -> PoleSet:
    """Poles of the closed-form response, ordered by ascending |Im|: one row of ``_poles``."""
    roots = _poles(c.kappa1, c.kappa2, c.gamma_m, c.s1, c.s2)[0][0]
    eit = np.all(np.abs(roots.real) <= PURE_IMAG_TOL * np.maximum(np.abs(roots.imag), c.gamma_m))
    return PoleSet(
        roots=tuple(complex(r) for r in roots),
        classification=EIT_REGIME if eit else NMS_REGIME,
    )


def root_trajectories(kappa1, kappa2, gamma_m, s1, s2) -> np.ndarray:
    """Track the three poles along a sweep of the drive weights s1, s2 (broadcast to (n,))
    at the fixed rates kappa1, kappa2, gamma_m.

    Returns an (n, 3) complex array.  Column identity is fixed by
    nearest-neighbor matching in the complex plane to the previous sweep
    point, starting from ascending-|Im| order, so each column is one
    continuous trajectory.

    Raises as ``_poles`` does, and SingularResponseError naming the first row
    whose normalized constant term is below the smallest normal float: with
    every rate > 0 it is then a subnormal or underflowed product, and the
    narrowest pole, which scales with it, has lost digits.
    """
    out, a3 = _poles(kappa1, kappa2, gamma_m, s1, s2)
    lost = np.flatnonzero(np.abs(a3) < np.finfo(float).tiny)
    if lost.size:
        raise SingularResponseError(
            f"row {lost[0]}: the pole cubic's constant term {a3[lost[0]]:.3e} (in gamma_m "
            "units) is below the smallest normal float, so its narrow pole has lost digits")
    perms = np.array(list(permutations(range(3))))  # itertools order: ties keep the first
    with np.errstate(over="ignore"):  # poles ~1e154 rad/s: an overflowed distance loses
        for i in range(1, len(out)):
            candidates = out[i][perms]
            d = np.abs(candidates - out[i - 1]) ** 2
            out[i] = candidates[np.argmin(d[:, 0] + d[:, 1] + d[:, 2])]
    return out


class EiaSplitting(NamedTuple):
    """Splitting of the transparency-window pole by the second coupling tone.

    gamma_plus/gamma_minus are the two descendants of Gamma_EIT (complex when
    the discriminant goes negative); gamma_eia_approx = kappa2 + s2/Gamma_EIT
    is the small-coupling estimate of the absorption-peak half-width, valid
    when 4*s2/Gamma_EIT^2 << 1 (narrow_coupling flag, threshold 0.1).
    """

    gamma_plus: complex
    gamma_minus: complex
    gamma_eia_approx: float
    narrow_coupling: bool


def eia_splitting(gamma_eit: float, s2: float, kappa2: float) -> EiaSplitting:
    """Split Gamma_EIT into Gamma_+/- = Gamma_EIT/2 +/- sqrt(Gamma_EIT^2 - 4 s2)/2.

    All Gamma quantities are half-widths (pole decay rates).  s2 is the
    cavity-2 drive weight g2^2 |a20|^2 / 2, so the discriminant reads
    Gamma_EIT^2 - 2 g2^2 |a20|^2.  A Gamma_EIT whose square overflows or
    underflows to 0 raises ConvergenceError.
    """
    _require_positive(gamma_eit, "gamma_eit")
    _require_non_negative(s2, "s2")
    _require_positive(kappa2, "kappa2")
    try:
        gamma_sq = gamma_eit**2
    except OverflowError:
        raise ConvergenceError(
            f"EIA splitting: Gamma_EIT^2 overflows at Gamma_EIT = {gamma_eit:.6e} rad/s") from None
    if gamma_sq == 0.0:
        raise ConvergenceError(
            f"EIA splitting: Gamma_EIT^2 underflows at Gamma_EIT = {gamma_eit:.6e} rad/s")
    disc = complex(gamma_sq - 4.0 * s2)
    root = np.sqrt(disc)
    gamma_plus = 0.5 * (gamma_eit + root)
    gamma_minus = 0.5 * (gamma_eit - root)
    if abs(gamma_plus.imag) < 1e-12 * gamma_eit:
        gamma_plus = complex(gamma_plus.real)
        gamma_minus = complex(gamma_minus.real)
    return EiaSplitting(
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        gamma_eia_approx=kappa2 + s2 / gamma_eit,
        narrow_coupling=4.0 * s2 / gamma_sq <= 0.1,
    )


class PeakHeight(NamedTuple):
    """Line-center response height: exact x=0 value and its large-C estimate."""

    exact: float
    large_c_approx: float | None


def peak_height(c1: float, c2: float) -> PeakHeight:
    """Height of the line-center feature, E_L(0).

    exact = 2 (1 + C2) / (1 + C1 + C2); for C2 = 0 this is the transparency
    dip depth 2/(1 + C1).  large_c_approx = 2 / (1 + C1/C2) (undefined at
    C2 = 0, returned as None) is 1 at C1 = C2.  exact is 1, so the
    line-center reflection |1 - E_L(0)|^2 vanishes, at C2 = C1 - 1, where the
    transmission 4 C1 C2 / (1 + C1 + C2)^2 is C2/C1; the transmission peaks
    at C2 = C1 + 1, at C1/(C1 + 1), and C2 = C1 reflects (1/(1 + 2 C1))^2.
    """
    _require_non_negative(c1, "c1")
    _require_non_negative(c2, "c2")
    exact = 2.0 * (1.0 + c2) / (1.0 + c1 + c2)
    approx = None if c2 == 0.0 else 2.0 / (1.0 + c1 / c2)
    return PeakHeight(exact=exact, large_c_approx=approx)
