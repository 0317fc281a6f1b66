"""Discrete wavelet analysis built on the Daubechies-3 filter bank.

db3() returns one shared, read-only bank, built and checked once at import.
Analysis mirrors both edges (edge sample repeated), convolves with the
decomposition filters and keeps the odd-indexed outputs: any n >= 2 samples
give coefficient arrays floor((n + L - 1) / 2) long.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_TOL = 1e-10


@dataclass(frozen=True)
class WaveletFilterBank:
    """Orthogonal two-channel filter bank built from its scaling filter.

    rec_lo is the scaling filter; the other three are derived from it by the
    quadrature-mirror construction (time reversal for the analysis pair,
    alternating signs for the highpass pair). Construction checks the
    scaling filter alone: even length, taps summing to sqrt(2), unit norm
    and orthogonality to its even shifts. The highpass and cross-orthogonality
    identities follow from the derivation, so a bank that constructs is
    guaranteed to reconstruct. All four filters are read-only.
    """

    name: str
    rec_lo: np.ndarray
    rec_hi: np.ndarray = field(init=False)
    dec_lo: np.ndarray = field(init=False)
    dec_hi: np.ndarray = field(init=False)

    def __post_init__(self):
        rec_lo = np.array(self.rec_lo, dtype=np.float64)
        L = len(rec_lo)
        if L < 2 or L % 2 != 0:
            raise ValueError("filter length must be even and >= 2")
        if abs(rec_lo.sum() - np.sqrt(2.0)) > _TOL:
            raise ValueError("lowpass taps must sum to sqrt(2)")
        if abs(rec_lo @ rec_lo - 1.0) > _TOL:
            raise ValueError("lowpass taps must have unit L2 norm")
        for k in range(1, L // 2):
            if abs(rec_lo[: L - 2 * k] @ rec_lo[2 * k:]) > _TOL:
                raise ValueError("filter not orthogonal to its even shifts")
        dec_hi = rec_lo * np.where(np.arange(L) % 2 == 0, 1.0, -1.0)
        for attr, arr in (("rec_lo", rec_lo), ("rec_hi", dec_hi[::-1]),
                          ("dec_lo", rec_lo[::-1]), ("dec_hi", dec_hi)):
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)

    @property
    def length(self) -> int:
        return len(self.rec_lo)


# Daubechies-3 scaling taps: 6 coefficients, 3 vanishing moments.
_DB3 = WaveletFilterBank("db3", (
    0.3326705529509569,
    0.8068915093133388,
    0.4598775021193313,
    -0.13501102001039084,
    -0.08544127388224149,
    0.035226291882100656,
))


def db3() -> WaveletFilterBank:
    """The Daubechies-3 bank: one shared, read-only instance."""
    return _DB3


def dwt_single(x, bank: WaveletFilterBank):
    """One analysis level; returns (approx, detail)."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 2:
        raise ValueError("need at least two samples")
    # edge-repeating reflection; np.pad cycles it for very short inputs
    ext = np.pad(x, bank.length - 1, mode="symmetric")
    ca = np.convolve(ext, bank.dec_lo, mode="valid")[1::2]
    cd = np.convolve(ext, bank.dec_hi, mode="valid")[1::2]
    return ca, cd


@dataclass(frozen=True)
class DwtDecomposition:
    """Multilevel DWT coefficients: details[0] is the finest (first-level)
    detail band, approx the coarsest approximation."""

    approx: np.ndarray
    details: list[np.ndarray] = field(default_factory=list)


def wavedec(x, bank: WaveletFilterBank, levels: int = 3) -> DwtDecomposition:
    """Multilevel analysis: repeatedly split the approximation band."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    details = []
    approx = np.asarray(x, dtype=np.float64)
    for _ in range(levels):
        approx, det = dwt_single(approx, bank)
        details.append(det)
    return DwtDecomposition(approx=approx, details=details)
