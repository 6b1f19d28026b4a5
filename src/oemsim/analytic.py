"""Closed-form probe response and its pole structure.

Under the rotating-wave approximation, at two-photon resonance
(Delta_1 = Delta_2 = omega_m), the normalized cavity-1 output field is the
nested continued fraction

    E_L(x) = 2i*kappa1 / ( (x + i*kappa1)
                           - s1 / ( (x + i*gamma_m/2)
                                    - s2 / (x + i*kappa2) ) )

with x the probe detuning from the shifted cavity resonance, and the
radiation-pressure weights s_i = g_i^2 |a_i0|^2 / 2.  Off resonance each cavity
level shifts by its offset eps_i = Delta_i - omega_m (``_levels``, which the
"analytic" model of ``linear_response.response_grid`` evaluates); every other
function here assumes eps_i = 0.  Clearing denominators
gives the cubic

    p(x) = (x + i*kappa1)(x + i*gamma_m/2)(x + i*kappa2)
           - s1 (x + i*kappa2) - s2 (x + i*kappa1),

whose roots are the response poles: all purely imaginary below the critical
drive (overdamped interference regime -- the transparency window and, with
s2 > 0, the narrow absorption peak inside it), acquiring real parts above it
(normal-mode splitting).  The regime is read off the poles: a real root of the
real cubic that ``_poles`` solves comes back exactly real, so a pole set is
EIT_regime exactly when every pole's real part is exactly 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import permutations

import numpy as np

from .errors import InvalidParameterError, SingularResponseError
from .params import Checked, _require_non_negative, _require_positive

EIT_REGIME = "EIT_regime"
NMS_REGIME = "NMS_regime"


class RwaCoefficients(Checked, namedtuple("RwaCoefficients", "kappa1 kappa2 gamma_m s1 s2")):
    """Rates [rad/s] and drive weights entering the closed-form response.

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


class PoleSet(namedtuple("PoleSet", "roots classification")):
    """The three response poles ``roots``, a tuple of three complex numbers ordered by
    ascending |Im|.

    classification is EIT_regime when every root's real part is exactly 0 (how
    ``_poles`` returns a real root of its cubic), NMS_regime when a pair has
    acquired real parts.  The widths property returns the decay rates -Im(root)
    (half-widths at half maximum of the corresponding Lorentzian factors).
    """

    __slots__ = ()

    @property
    def widths(self) -> tuple[float, float, float]:
        return tuple(-r.imag for r in self.roots)


def _levels(x, kappa1, kappa2, gamma_m, s1, s2, eps1=0.0, eps2=0.0):
    """The levels of the nested fraction, innermost first: inner = x - eps2 + i kappa2,
    mid = (x + i gamma_m/2) - s2/inner and outer = (x - eps1 + i kappa1) - s1/mid, so that
    E_L = 2i kappa1/outer.

    eps_i = Delta_i - omega_m is cavity i's offset from two-photon resonance (Agarwal &
    Huang, Phys. Rev. A 81, 041803(R) (2010)); every argument broadcasts.
    """
    inner = x - eps2 + 1j * kappa2
    mid = (x + 0.5j * gamma_m) - s2 / inner
    return inner, mid, (x - eps1 + 1j * kappa1) - s1 / mid


def response_rwa(x, c: RwaCoefficients):
    """Evaluate the nested-fraction response E_L(x) (``_levels``); accepts scalar or array x.

    Raises SingularResponseError if x sits exactly on a pole (only possible
    for complex x; the response is pole-free on the real axis since every
    level of the fraction keeps a positive imaginary part).
    """
    with np.errstate(all="ignore"):  # a vanishing level is refused below, innermost first
        inner, mid, outer = _levels(np.asarray(x, dtype=complex), c.kappa1, c.kappa2,
                                    c.gamma_m, c.s1, c.s2)
    if np.any(inner == 0):
        raise SingularResponseError("x + i*kappa2 vanished", delta=None)
    if np.any(mid == 0):
        raise SingularResponseError("middle level of the response fraction vanished")
    if np.any(outer == 0):
        raise SingularResponseError("response evaluated exactly on a pole")
    result = 2j * c.kappa1 / outer
    if np.isscalar(x) or np.ndim(x) == 0:
        return complex(result)
    return result


def _poles(kappa1, kappa2, gamma_m, s1, s2) -> np.ndarray:
    """Poles of every row's cubic, from one stacked companion-matrix eigensolve.

    The rates kappa1, kappa2, gamma_m are scalars; the weights s1, s2 broadcast to (n,).
    The cubic is solved in y = i*x/gamma_m with every rate normalized by gamma_m:
    q(y) = (y - k1)(y - 1/2)(y - k2) + s1 (y - k2) + s2 (y - k1) has real O(1)-O(1e4)
    coefficients, so purely imaginary x-roots come out with exactly real y.  The
    companion matrices are those np.roots builds and each eigenvalue gets one Newton
    step, so each row equals the scalar np.roots solve bit for bit.  Returns the (n, 3)
    roots in x, rows in ascending |Im|.  Raises InvalidParameterError for a rate not
    finite and > 0 or a weight not finite and >= 0.
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
    a1 = np.full_like(s1, -(k1 + k2 + 0.5))
    a2 = k1 * 0.5 + k1 * k2 + 0.5 * k2 + s1 + s2
    a3 = -(k1 * 0.5 * k2 + s1 * k2 + s2 * k1)
    companion = np.zeros((len(a1), 3, 3))
    companion[:, 0] = -np.column_stack([a1, a2, a3])
    companion[:, 1, 0] = 1.0
    companion[:, 2, 1] = a3 != 0  # an underflowed a3 deflates to the 2x2 np.roots builds
    y = np.linalg.eigvals(companion)
    a1, a2, a3 = (v[:, None] for v in (a1, a2, a3))
    p = ((y + a1) * y + a2) * y + a3
    dp = (3.0 * y + 2.0 * a1) * y + a2
    y = y - np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)
    x = -1j * y * gamma_m
    return np.take_along_axis(x, np.lexsort((x.real, np.abs(x.imag)), axis=-1), axis=-1)


def denominator_roots(c: RwaCoefficients) -> PoleSet:
    """Poles of the closed-form response, ordered by ascending |Im|: one row of ``_poles``."""
    roots = _poles(c.kappa1, c.kappa2, c.gamma_m, c.s1, c.s2)[0]
    return PoleSet(
        roots=tuple(complex(r) for r in roots),
        classification=EIT_REGIME if np.all(roots.real == 0.0) else NMS_REGIME,
    )


def root_trajectories(kappa1, kappa2, gamma_m, s1, s2) -> np.ndarray:
    """Track the three poles along a sweep of the drive weights s1, s2 (broadcast to (n,))
    at the fixed rates kappa1, kappa2, gamma_m.

    Returns an (n, 3) complex array.  Column identity is fixed by
    nearest-neighbor matching in the complex plane to the previous sweep
    point, starting from ascending-|Im| order, so each column is one
    continuous trajectory.

    Raises as ``_poles`` does.
    """
    out = _poles(kappa1, kappa2, gamma_m, s1, s2)
    perms = np.array(list(permutations(range(3))))  # itertools order: ties keep the first
    for i in range(1, len(out)):
        candidates = out[i][perms]
        d = np.abs(candidates - out[i - 1]) ** 2
        out[i] = candidates[np.argmin(d[:, 0] + d[:, 1] + d[:, 2])]
    return out


class EiaSplitting(namedtuple("EiaSplitting",
                              "gamma_plus gamma_minus gamma_eia_approx narrow_coupling")):
    """Splitting of the transparency-window pole by the second coupling tone.

    gamma_plus/gamma_minus are the two descendants of Gamma_EIT, as Python
    complex numbers (a conjugate pair when the discriminant goes negative, each
    imaginary part then at least 5e-9 Gamma_EIT); gamma_eia_approx =
    kappa2 + s2/Gamma_EIT is the small-coupling estimate of the absorption-peak
    half-width, valid when 4*s2/Gamma_EIT^2 << 1 (narrow_coupling flag,
    threshold 0.1).
    """

    __slots__ = ()


def eia_splitting(gamma_eit: float, s2: float, kappa2: float) -> EiaSplitting:
    """Split Gamma_EIT into Gamma_+/- = Gamma_EIT/2 +/- sqrt(Gamma_EIT^2 - 4 s2)/2.

    All Gamma quantities are half-widths (pole decay rates).  s2 is the
    cavity-2 drive weight g2^2 |a20|^2 / 2, so the discriminant reads
    Gamma_EIT^2 - 2 g2^2 |a20|^2.  A Gamma_EIT whose square leaves the float range
    raises InvalidParameterError; inside the envelope (``params.ENVELOPE``) none does.
    """
    _require_positive(gamma_eit, "gamma_eit")
    _require_non_negative(s2, "s2")
    _require_positive(kappa2, "kappa2")
    try:
        gamma_sq = gamma_eit**2
    except OverflowError:
        gamma_sq = math.inf
    if not 0.0 < gamma_sq < math.inf:
        raise InvalidParameterError(f"EIA splitting: Gamma_EIT^2 leaves the float range at "
                               f"Gamma_EIT = {gamma_eit:.6e} rad/s")
    disc = complex(gamma_sq - 4.0 * s2)
    root = np.sqrt(disc)
    gamma_plus = 0.5 * (gamma_eit + root)
    gamma_minus = 0.5 * (gamma_eit - root)
    return EiaSplitting(
        gamma_plus=complex(gamma_plus),
        gamma_minus=complex(gamma_minus),
        gamma_eia_approx=kappa2 + s2 / gamma_eit,
        narrow_coupling=4.0 * s2 / gamma_sq <= 0.1,
    )


class PeakHeight(namedtuple("PeakHeight", "exact large_c_approx")):
    """Line-center response height: exact x=0 value and its large-C estimate (a float, or
    None where it is undefined)."""

    __slots__ = ()


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
