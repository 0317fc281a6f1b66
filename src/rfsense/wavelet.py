"""Discrete wavelet transform built on the Daubechies-3 filter bank.

db3() returns one shared, read-only bank, built and checked once at import.
Analysis convolves a boundary-extended signal with the decomposition
filters and keeps the odd-indexed outputs; synthesis upsamples, convolves
with the reconstruction filters and crops the transform delay. Two
boundary modes:

  symmetric  edge samples mirrored (edge repeated); works for any length,
             coefficient arrays are floor((n + L - 1) / 2) long
  periodic   circular wrap; requires even length at every level and yields
             critically sampled n/2 coefficients with exact energy
             conservation

Reconstruction is exact to rounding in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_TOL = 1e-10

MODES = ("symmetric", "periodic")


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


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def dwt_single(x, bank: WaveletFilterBank, mode: str = "symmetric"):
    """One analysis level; returns (approx, detail)."""
    _check_mode(mode)
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    L = bank.length
    if n < 2:
        raise ValueError("need at least two samples")
    if mode == "symmetric":
        # edge-repeating reflection; np.pad cycles it for very short inputs
        ext = np.pad(x, L - 1, mode="symmetric")
        ca = np.convolve(ext, bank.dec_lo, mode="valid")[1::2]
        cd = np.convolve(ext, bank.dec_hi, mode="valid")[1::2]
        return ca, cd
    if n % 2 != 0:
        raise ValueError("periodic mode requires an even number of samples")
    ks = np.arange(n // 2)
    idx = (2 * ks[:, None] + 1 - np.arange(L)[None, :]) % n
    win = x[idx]
    return win @ bank.dec_lo, win @ bank.dec_hi


def _upsample(c: np.ndarray) -> np.ndarray:
    u = np.zeros(2 * len(c))
    u[::2] = c
    return u


def idwt_single(approx, detail, bank: WaveletFilterBank, out_len: int,
                mode: str = "symmetric") -> np.ndarray:
    """Inverse of one analysis level; out_len disambiguates parity."""
    _check_mode(mode)
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if len(approx) != len(detail):
        raise ValueError("approx and detail lengths differ")
    L = bank.length
    s = (np.convolve(_upsample(approx), bank.rec_lo)
         + np.convolve(_upsample(detail), bank.rec_hi))
    if mode == "symmetric":
        if out_len + L - 2 > len(s):
            raise ValueError(f"out_len {out_len} too large for {len(approx)} coefficients")
        return s[L - 2: L - 2 + out_len]
    if out_len != 2 * len(approx):
        raise ValueError("periodic mode output length must be twice the coefficient count")
    y = np.zeros(out_len)
    np.add.at(y, np.arange(len(s)) % out_len, s)
    return np.roll(y, -(L - 2))


@dataclass(frozen=True)
class DwtDecomposition:
    """Multilevel DWT coefficients.

    details[0] is the finest (first-level) detail band; approx is the
    coarsest approximation. original_length is kept so reconstruction can
    undo the one-sample ambiguity of odd-length levels.
    """

    approx: np.ndarray
    details: list[np.ndarray] = field(default_factory=list)
    original_length: int = 0
    levels: int = 0
    mode: str = "symmetric"

    def __post_init__(self):
        if self.levels != len(self.details):
            raise ValueError("levels must equal the number of detail bands")


def wavedec(x, bank: WaveletFilterBank, levels: int = 3,
            mode: str = "symmetric") -> DwtDecomposition:
    """Multilevel analysis: repeatedly split the approximation band."""
    _check_mode(mode)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    details = []
    approx = x
    for _ in range(levels):
        approx, det = dwt_single(approx, bank, mode)
        details.append(det)
    return DwtDecomposition(approx=approx, details=details,
                            original_length=len(x), levels=levels, mode=mode)


def waverec(dec: DwtDecomposition, bank: WaveletFilterBank) -> np.ndarray:
    """Invert wavedec; exact to rounding."""
    lengths = [dec.original_length]
    for det in dec.details[:-1]:
        lengths.append(len(det))
    approx = dec.approx
    for det, out_len in zip(reversed(dec.details), reversed(lengths)):
        approx = idwt_single(approx, det, bank, out_len, dec.mode)
    return approx
