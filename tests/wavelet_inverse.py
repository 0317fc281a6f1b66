"""Test-side inverse of rfsense.wavelet's symmetric analysis.

The package only analyses; reconstruction exists here as the oracle the
wavelet tests and acceptance criterion 2 check the analysis against:
upsample each band, convolve with the reconstruction filters, add, and crop
the L - 2 samples of transform delay.
"""

import numpy as np


def idwt(approx, detail, bank, out_len: int) -> np.ndarray:
    """Invert one analysis level; out_len resolves odd-length parity."""
    up = np.zeros((2, 2 * len(approx)))
    up[0, ::2] = approx
    up[1, ::2] = detail
    s = np.convolve(up[0], bank.rec_lo) + np.convolve(up[1], bank.rec_hi)
    return s[bank.length - 2: bank.length - 2 + out_len]


def waverec(dec, bank, n: int) -> np.ndarray:
    """Invert a wavedec decomposition of an n-sample signal."""
    lengths = [n] + [len(d) for d in dec.details[:-1]]
    approx = dec.approx
    for det, out_len in zip(reversed(dec.details), reversed(lengths)):
        approx = idwt(approx, det, bank, out_len)
    return approx
