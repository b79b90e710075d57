r"""Nuclear (trace-class) machinery for small dense blocks.

In the l2 geometry used throughout, the nuclear norm of a finite matrix
— the infimum of sum_i ||a_i|| ||y_i|| over rank-one decompositions
A = sum_i a_i (x) y_i — equals the sum of its singular values, so it is
computable by SVD.  The operator (2-)norm never exceeds it, and it is an
ideal norm: multiplying by a bounded factor on either side costs at most
that factor's operator norm.

The inversion algorithm implemented here continues (1 - z J)^{-1} along
a path of complex multipliers z from an easy starting point mu (where a
plain Neumann series in z J converges) to the requested nu.  Each step
re-expands around the previous inverse:

    1 - z_k J = (1 - z_{k-1} J) - (z_k - z_{k-1}) J = A - B,
    (A - B)^{-1} = A^{-1} + A^{-1} B A^{-1} + A^{-1} B A^{-1} B A^{-1} + ...

which converges as long as |z_k - z_{k-1}| times the trace norm of J
stays below 1/M, with M a bound on the resolvent norms along the path.
Paths are straight segments by default and must keep clear of the
reciprocals of J's eigenvalues, where the resolvent blows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cd_operator import block_norms

__all__ = [
    "HomotopyPath",
    "HomotopyResult",
    "NotContractive",
    "Diverged",
    "StepTooLarge",
    "PathHitsSpectrum",
    "trace_norm",
    "operator_norm",
    "neumann_inverse",
    "build_path",
    "homotopy_inverse",
]


class NotContractive(ArithmeticError):
    """The Neumann correction term has trace norm >= 1; the series cannot converge."""


class Diverged(ArithmeticError):
    """The Neumann series failed to reach the tolerance within max_terms."""


class StepTooLarge(ArithmeticError):
    """A path step violates the contraction certificate |dz| * ||J||_1 < 1/M."""


class PathHitsSpectrum(ArithmeticError):
    """The continuation path passes through a reciprocal eigenvalue of J."""


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def trace_norm(a) -> float:
    """Sum of singular values (the nuclear norm in l2 geometry): block_norms of one block."""
    return float(block_norms(_as_matrix(a)[None], "nuclear")[0])


def operator_norm(a, p) -> float:
    """Induced p -> p norm for p in {1, 2, inf}: block_norms of one block."""
    if p in (np.inf, float("inf"), "inf"):
        kind = "operator_inf"
    elif p in (1, 2):
        kind = f"operator_{int(p)}"
    else:
        raise ValueError(f"unsupported exponent {p!r}")
    return float(block_norms(_as_matrix(a)[None], kind)[0])


def neumann_inverse(a_inv, b, tol: float = 1e-12, max_terms: int = 200) -> np.ndarray:
    """Sum the series (A - B)^{-1} = A^{-1} + A^{-1} B A^{-1} + ...

    given A^{-1} (not A) and the perturbation B.  Converges when
    ||A^{-1} B|| < 1 in trace norm; terms are appended until the latest
    one drops below tol in trace norm.
    """
    ainv = _as_matrix(a_inv)
    bm = _as_matrix(b)
    if ainv.shape != bm.shape:
        raise ValueError("shape mismatch between A^{-1} and B")
    ratio = trace_norm(ainv @ bm)
    if ratio >= 1.0:
        raise NotContractive(
            f"||A^-1 B|| = {ratio:.6f} >= 1; Neumann series cannot converge"
        )
    step = bm @ ainv
    total = ainv.copy()
    term = ainv
    for _ in range(max_terms):
        term = term @ step
        total += term
        if trace_norm(term) < tol:
            return total
    raise Diverged(f"series did not reach tol={tol} within {max_terms} terms")


@dataclass
class HomotopyPath:
    """A sampled continuation path for multipliers z, with its certificate.

    resolvent_bound is the max of ||(1 - z J)^{-1}||_2 over the samples
    (for the J the path was built against); margin is the distance kept
    from the reciprocal spectrum.  The step certificate
    |z_k - z_{k-1}| * ||J||_1 < 1/resolvent_bound is re-checked at the
    point of use.
    """

    samples: list
    resolvent_bound: float
    margin: float = float("inf")

    def __post_init__(self):
        self.samples = [complex(z) for z in self.samples]
        if not self.samples:
            raise ValueError("path needs at least one sample")
        if any(z == 0 for z in self.samples):
            raise ValueError("path samples must be nonzero")

    def max_step(self) -> float:
        return max(
            (abs(b - a) for a, b in zip(self.samples, self.samples[1:])),
            default=0.0,
        )


def _segment_distance(p: complex, q: complex, w: complex) -> float:
    """Distance from point w to the segment [p, q]."""
    d = q - p
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(w - p)
    t = ((w - p) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(w - (p + t * d))


def _resolvent_norm(J: np.ndarray, z: complex) -> float:
    eye = np.eye(J.shape[0], dtype=np.complex128)
    return operator_norm(np.linalg.inv(eye - z * J), 2)


def build_path(J, mu: Optional[complex], nu: complex) -> HomotopyPath:
    """Construct a certified straight path of multipliers from mu to nu.

    With mu=None a starting point is chosen on the ray toward nu such
    that the bootstrap series in mu*J converges outright.  The segment
    must avoid the reciprocals of J's eigenvalues by at least 1e-8; the
    resolvent bound M is estimated on 33 probe points and then re-taken
    over the final samples, and steps are subdivided until
    max_step * ||J||_1 < 0.5 / M.
    """
    Jm = _as_matrix(J)
    nu = complex(nu)
    if nu == 0:
        raise ValueError("target multiplier nu must be nonzero")
    tn = trace_norm(Jm)
    if mu is None:
        if tn * abs(nu) <= 0.4 or tn == 0.0:
            mu = nu
        else:
            mu = (0.4 / tn) * (nu / abs(nu))
    mu = complex(mu)
    if mu == 0:
        raise ValueError("starting multiplier mu must be nonzero")

    # margin to the reciprocal spectrum (exact for a straight segment)
    eigs = np.linalg.eigvals(Jm)
    scale = max(1.0, float(np.abs(eigs).max(initial=0.0)))
    margin = float("inf")
    for lam in eigs:
        if abs(lam) > 1e-14 * scale:
            margin = min(margin, _segment_distance(mu, nu, 1.0 / lam))
    if margin < 1e-8:
        raise PathHitsSpectrum(
            f"segment [{mu}, {nu}] passes within {margin:.3e} of a reciprocal eigenvalue"
        )

    ts = np.linspace(0.0, 1.0, 33)
    M = max(_resolvent_norm(Jm, mu + (nu - mu) * t) for t in ts)

    if mu == nu:
        return HomotopyPath(samples=[nu], resolvent_bound=M, margin=margin)

    length = abs(nu - mu)
    steps = max(1, int(np.ceil(length * tn * M / 0.5)))
    while True:
        zs = [mu + (nu - mu) * t for t in np.linspace(0.0, 1.0, steps + 1)]
        M = max(M, max(_resolvent_norm(Jm, z) for z in zs))
        if (length / steps) * tn < 0.5 / M:
            return HomotopyPath(samples=zs, resolvent_bound=M, margin=margin)
        steps *= 2
        if steps > (1 << 22):
            raise PathHitsSpectrum(
                "subdivision did not stabilize; the path is too close to the spectrum"
            )


@dataclass
class HomotopyResult:
    """(1 - nu J)^{-1} together with its unit + nuclear decomposition."""

    inverse: np.ndarray
    scalar_part: complex
    nuclear_part: np.ndarray
    nuclear_trace_norm: float
    resolvent_bound: float
    max_condition: float


def homotopy_inverse(J, nu: complex, path: HomotopyPath, tol: float = 1e-12,
                     max_terms: int = 200) -> HomotopyResult:
    """Invert 1 - nu J by chained Neumann re-expansions along the path.

    The path must end at nu; the step certificate is re-verified against
    the resolvent norms recomputed at the path samples before any series
    is summed (StepTooLarge on failure).  The result splits as
    1 * identity + nuclear_part, whose trace norm is reported.
    """
    Jm = _as_matrix(J)
    nu = complex(nu)
    zs = path.samples
    if abs(zs[-1] - nu) > 1e-12 * max(1.0, abs(nu)):
        raise ValueError(f"path ends at {zs[-1]}, not at nu={nu}")
    eye = np.eye(Jm.shape[0], dtype=np.complex128)

    # recompute the certificate ingredients at the use site
    conds = []
    M = 0.0
    for z in zs:
        Az = eye - z * Jm
        conds.append(float(np.linalg.cond(Az)))
        M = max(M, operator_norm(np.linalg.inv(Az), 2))
    tn = trace_norm(Jm)
    for z_prev, z_next in zip(zs, zs[1:]):
        if abs(z_next - z_prev) * tn >= 1.0 / M:
            raise StepTooLarge(
                f"step {abs(z_next - z_prev):.3e} * ||J||={tn:.3e} "
                f"exceeds 1/M = {1.0 / M:.3e}"
            )

    # bootstrap at the first sample: plain Neumann series in z0 * J
    inv = neumann_inverse(eye, zs[0] * Jm, tol=tol, max_terms=max_terms)
    # continue along the path, re-expanding around the previous inverse
    for z_prev, z_next in zip(zs, zs[1:]):
        inv = neumann_inverse(inv, (z_next - z_prev) * Jm, tol=tol,
                              max_terms=max_terms)

    nuclear_part = inv - eye
    return HomotopyResult(
        inverse=inv,
        scalar_part=1.0 + 0.0j,
        nuclear_part=nuclear_part,
        nuclear_trace_norm=trace_norm(nuclear_part),
        resolvent_bound=M,
        max_condition=max(conds),
    )
