"""Signal-processing kernels shared by the sensing pipelines.

Everything here operates on finite float64 series; callers pull series and
sample rates out of traces. Filtering is strictly causal (direct-form-II
transposed, zero initial state) because the downstream estimators are meant
to run on live streams; there is deliberately no zero-phase (forward-backward)
path in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import rank_filter
from scipy.signal import sosfilt

# Consistency constant relating MAD to the standard deviation of a Gaussian.
MAD_SCALE = 1.4826

# Float64 elements per working block (8 MiB). It bounds, for any input
# size, the windows hampel_filter's interior and edge paths take at once,
# the temporaries of one span of its interior screen (a quarter block), the
# padded windows of one spectrogram block and their power, and the padded
# samples of the heart-rate rows in flight on all workers at once.
# _psd_rows transforms a block one row at a time, so no block-sized complex
# spectrum is held. classifiers.knn_predict's difference slab is an eighth
# of a block (1 MiB), which is also faster than a whole one. The passes
# that walk a series in order (see _walk_block) take 1/128 of a block.
_BLOCK = 1 << 20


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> bool:
    """True for a number, not a bool, that is a finite float; a string or an
    int no float holds is not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _require(need: str, ok, **values) -> None:
    """Raise ValueError "<name> must be <need>, not <value!r>" for the first
    of `values` that is not finite or +inf, or fails `ok` (which decides +inf)."""
    for name, value in values.items():
        if not ((_finite(value) or value == math.inf) and ok(value)):
            raise ValueError(f"{name} must be {need}, not {value!r}")


def _positive(**values) -> None:
    _require("finite and positive", lambda v: 0 < v < math.inf, **values)


def _non_negative(**values) -> None:
    _require("finite and >= 0", lambda v: 0 <= v < math.inf, **values)


def _sample_count(what: str, value: float, least: int = 0) -> int:
    """int(round(value)) for `what`, a duration times a rate. NaN, a negative
    value, one above 2**62 (whose power-of-two transform length no signed
    64-bit size holds) or a count below `least` raises ValueError naming it."""
    if not 0 <= value <= 2.0 ** 62:
        raise ValueError(f"{what} is {value!r}, not a sample count up to 2**62")
    if (n := int(round(value))) < least:
        raise ValueError(f"{what} is {value!r}, which rounds to {n} samples")
    return n


@dataclass(frozen=True)
class HampelConfig:
    n_sigmas: float = 3.0
    half_window: int = 100  # window is 2*half_window + 1 samples

    def __post_init__(self):
        _positive(n_sigmas=self.n_sigmas)
        _require(">= 1", lambda v: 1 <= v < math.inf, half_window=self.half_window)
        _require("an integer", _is_int, half_window=self.half_window)


def _middle(lo: np.ndarray, hi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """np.median of windows of m samples from sorted entries (m-1)//2 and m//2.

    Even counts take the mean of the two middle entries, as np.median does.
    Like np.median's mean, the sum starts from +0.0, so a -0.0 median is +0.0.
    """
    lo = lo + 0.0
    return np.where(m % 2 == 1, lo, (lo + hi) / 2.0)


def _screen_ranks(p):
    """Ranks a <= p <= b around rank p with at most p ranks strictly between.

    Let y be a window of m samples sorted ascending, med its median and
    p = (m - 1) // 2. Every y[i] with i <= a or i >= b deviates from med by
    at least LB = min(med - y[a], y[b] - med), and at most p ranks lie
    strictly between a and b. Yet at least p + 1 deviations are not above
    the MAD, which is the p-th smallest deviation (0-based) or, for even m,
    the mean of it and the next. So the MAD is not below LB.
    """
    h = (p + 1) // 2
    return p - h, p + h


def _kept(xc: np.ndarray, med: np.ndarray, y_a: np.ndarray, y_b: np.ndarray,
          cfg: HampelConfig) -> np.ndarray:
    """True where xc is certainly kept: |xc - med| <= threshold at LB <= MAD.

    Rounded subtraction and the product with the positive constant are
    monotone, so LB also bounds the MAD as the exact path rounds it, and
    _exact keeps every sample this passes.
    """
    lb = np.minimum(med - y_a, y_b - med)
    return np.abs(xc - med) <= cfg.n_sigmas * MAD_SCALE * lb


def _exact(rows: np.ndarray, m, xc: np.ndarray, cfg: HampelConfig) -> np.ndarray:
    """Hampel decision for centre samples xc against the exact median and MAD
    of their windows; overwrites rows. Row j holds its window's m[j] entries
    (or m, for every row) padded with +inf, so a row sort puts the entries,
    and then their deviations, ahead of the padding."""
    j = np.arange(len(rows))
    rows.sort(axis=1)
    med = _middle(rows[j, (m - 1) // 2], rows[j, m // 2], m)
    np.subtract(rows, med[:, None], out=rows)
    np.abs(rows, out=rows)
    rows.sort(axis=1)
    mad = _middle(rows[j, (m - 1) // 2], rows[j, m // 2], m)
    return np.where(np.abs(xc - med) > cfg.n_sigmas * MAD_SCALE * mad, med, xc)


def _left_edge_hampel(heads: np.ndarray, cfg: HampelConfig) -> np.ndarray:
    """Hampel output for h[:k] of each row h of heads, whose windows h[:i + k + 1]
    are shrunken.

    heads has 2k columns. All k windows of a row are prefixes of it, so one
    stable sort of each row lists each window's sorted entries: those whose
    index lies inside it. That gives each window's exact median and the MAD
    bound of _kept. Windows the bound cannot certify go to _exact, each
    padded with +inf beyond its entries. The windows of all rows, taken in
    row-major order, go in blocks to bound the memory.
    """
    k = cfg.half_window
    # the narrowest integer type holding the indices keeps the masks cheap
    order = np.argsort(heads, axis=1, kind="stable").astype(np.min_scalar_type(2 * k))
    ordered = np.take_along_axis(heads, order, axis=1)
    out = heads[:, :k].copy()
    step = max(1, _BLOCK // (2 * k))
    for lo in range(0, out.size, step):
        r, i = np.divmod(np.arange(lo, min(lo + step, out.size)), k)
        m = i + k + 1  # window lengths
        # flat positions of each window's entries, window by window, in sorted order
        pos = np.flatnonzero(order[r] < m.astype(order.dtype)[:, None])
        first = np.cumsum(m) - m  # where each window's entries start in pos
        p = (m - 1) // 2
        ranks = np.stack((p, m // 2, *_screen_ranks(p)))
        y_lo, y_hi, y_a, y_b = ordered[r, pos[first + ranks] % (2 * k)]
        med = _middle(y_lo, y_hi, m)
        exact = ~_kept(out[r, i], med, y_a, y_b, cfg)
        if exact.any():
            r, i, m = r[exact], i[exact], m[exact]
            rows = np.where(np.arange(m.max()) < m[:, None], heads[r, :m.max()], np.inf)
            out[r, i] = _exact(rows, m, out[r, i], cfg)
    return out


def _shrunken_edges(x: np.ndarray, starts: np.ndarray, length: int,
                    cfg: HampelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Hampel output of the first and last half_window samples of each slice
    x[s:s + length], s in starts, as two arrays of one row per slice.

    The window median and MAD do not depend on sample order, so a right edge
    is the left edge of the reversed slice: the left heads and the reversed
    right heads go through one _left_edge_hampel pass.
    """
    k = cfg.half_window
    heads = np.lib.stride_tricks.sliding_window_view(x, 2 * k)
    both = np.concatenate((heads[starts], heads[starts + length - 2 * k, ::-1]))
    edges = _left_edge_hampel(both, cfg)
    return edges[:len(starts)], edges[len(starts):, ::-1]


def _walk_block(window: int = 1) -> int:
    """Positions per block of a pass that walks a series in order and
    re-reads the window - 1 samples before each block: _BLOCK // 128 (64
    KiB of float64), or window when that is longer, so that the re-read
    samples never outnumber a block's own."""
    return max(_BLOCK // 128, window, 1)


def _cumsum0(x, start=None) -> np.ndarray:
    """Running sums c of x in one fresh array, c[i + 1] = c[i] + x[i] added in
    order from c[0] = start. With no start, c[0] is 0 and c[1:] is
    np.cumsum(x), so c[1] is x[0] itself, -0.0 included. A series summed
    piece by piece, each piece starting from the last sum of the one
    before, therefore gets the bits of one np.cumsum over it."""
    c = np.empty(len(x) + 1)
    if start is None:
        c[0] = 0
        np.cumsum(x, out=c[1:])
    else:
        c[0] = start
        c[1:] = x
        np.cumsum(c, out=c)
    return c


def _uncertified(s: np.ndarray, cfg: HampelConfig) -> np.ndarray:
    """Starts in s of the full windows whose centre the screen cannot keep.

    The rank filters' windows centred in s[k:len(s) - k] never reach the
    reflected ends of s, so they are those of any longer series s is a
    slice of.
    """
    k = cfg.half_window
    a, b = _screen_ranks(k)
    y_a, med, y_b = (rank_filter(s, r, size=2 * k + 1)[k:len(s) - k] for r in (a, k, b))
    return np.flatnonzero(~_kept(s[k:len(s) - k], med, y_a, y_b, cfg))


def _require_finite(x: np.ndarray, what: str) -> None:
    """Raise ValueError naming how many samples of x are NaN or +-inf and
    where the first is."""
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise ValueError(f"{what} holds {len(bad)} non-finite (NaN/+-inf) "
                         f"sample(s); the first is at index {bad[0]}")


def hampel_filter(x, cfg: HampelConfig = HampelConfig()) -> np.ndarray:
    """Median/MAD outlier rejection over a sliding window.

    x[i] is replaced by the window median m iff |x[i] - m| exceeds
    n_sigmas * 1.4826 * MAD, where MAD is the median absolute deviation
    within the window. With MAD == 0 any deviation from the median is
    replaced. Windows shrink one-sidedly at the edges. Replacement is
    non-recursive: every decision is made against the original samples.
    A NaN or +-inf sample raises ValueError, as it does in RssTrace.

    The output equals that of computing every window's median and MAD, but
    most samples skip the MAD. Rank filters give each window's median and
    two order statistics y[a] <= med <= y[b] around it, and
    LB = min(med - y[a], y[b] - med) is a lower bound on the MAD (see
    _screen_ranks). A sample with |x[i] - med| <= n_sigmas * 1.4826 * LB is
    kept without its MAD. The rest take the exact median/MAD path.
    """
    x = np.asarray(x, dtype=np.float64)
    _require_finite(x, "series")
    k = cfg.half_window
    win = 2 * k + 1
    n = len(x)
    if n < win:
        raise ValueError(f"series of {n} samples is shorter than the {win}-sample window")
    out = x.copy()

    # Interior: full windows, screened in spans of centres. A span's screen
    # holds fewer than 16 span-length float64 arrays at once, a quarter of
    # one _BLOCK, so the heap a screen leaves to the calling thread stays
    # small beside the heaps of stream_heart_rate's worker threads. Four
    # windows at least keep a small _BLOCK from calling the rank filters
    # once per sample. Uncertified windows go to _exact in chunks of rows
    # to bound the memory.
    windows = np.lib.stride_tricks.sliding_window_view(x, win)
    span = max(_BLOCK // 64, 4 * win)
    step = max(1, _BLOCK // win)
    for c0 in range(k, n - k, span):
        exact = _uncertified(x[c0 - k:min(c0 + span, n - k) + k], cfg)
        exact += c0 - k  # window starts in x
        for lo in range(0, len(exact), step):
            j = exact[lo:lo + step]  # window starts; centres are j + k
            out[j + k] = _exact(windows[j], win, x[j + k], cfg)
    left, right = _shrunken_edges(x, np.zeros(1, dtype=np.intp), n, cfg)
    out[:k], out[n - k:] = left[0], right[0]
    return out


def hampel_refresh_edges(x: np.ndarray, full: np.ndarray, starts, length: int,
                         cfg: HampelConfig) -> np.ndarray:
    """Hampel output for the slices x[s:s + length], s in starts, given
    `full` = hampel_filter(x, cfg); one row per slice.

    Interior samples of a slice see exactly the same window either way, so
    only the first/last half_window samples of each slice need recomputing
    with shrunken windows, all slices in one pass. Row j equals
    hampel_filter(x[starts[j]:starts[j] + length], cfg), cheaper when slices
    overlap heavily. The edges are computed before the slices are copied,
    so the edge pass's temporaries and the copy are not held at once. x
    needs no finiteness check here: computing `full` has already refused a
    non-finite x.
    """
    k = cfg.half_window
    starts = np.asarray(starts, dtype=np.intp)
    if length < 2 * k + 1:
        raise ValueError("slice shorter than the filter window")
    if len(starts) and (starts.min() < 0 or starts.max() > len(x) - length):
        raise ValueError("slice outside the series")
    left, right = _shrunken_edges(x, starts, length, cfg)
    out = np.lib.stride_tricks.sliding_window_view(full, length)[starts]
    out[:, :k], out[:, length - k:] = left, right
    return out


# ---------------------------------------------------------------------------
# IIR Butterworth design (analog prototype -> bilinear transform -> biquads)
# ---------------------------------------------------------------------------

STABILITY_MARGIN = 1e-9


@dataclass
class IirFilter:
    """Second-order-section cascade.

    sos rows are (b0, b1, b2, a1, a2) with a0 normalized to 1; every section
    must be stable.
    """

    sos: np.ndarray

    def __post_init__(self):
        self.sos = np.asarray(self.sos, dtype=np.float64)
        if self.sos.ndim != 2 or self.sos.shape[1] != 6:
            raise ValueError("sos must have shape (n_sections, 6)")
        if not np.allclose(self.sos[:, 3], 1.0, rtol=0, atol=0):
            raise ValueError("sections must be normalized to a0 == 1")
        for a1, a2 in self.sos[:, 4:6]:
            poles = np.roots([1.0, a1, a2])
            if np.any(np.abs(poles) >= 1.0 - STABILITY_MARGIN):
                raise ValueError(f"unstable section: pole magnitudes {np.abs(poles)}")


def filter_forward(filt: IirFilter, x) -> np.ndarray:
    """Causal cascade of `filt` over x, starting at rest; a 2-D x is filtered
    row by row."""
    return sosfilt(filt.sos, np.asarray(x, dtype=np.float64))


def sos_response(sos: np.ndarray, freqs_hz, fs: float) -> np.ndarray:
    """Complex frequency response of an SOS cascade at the given frequencies."""
    w = 2.0 * np.pi * np.asarray(freqs_hz, dtype=np.float64) / fs
    z1 = np.exp(-1j * w)
    z2 = z1 * z1
    h = np.ones_like(z1, dtype=np.complex128)
    for b0, b1, b2, _, a1, a2 in np.atleast_2d(sos):
        h *= (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2)
    return h


def _prototype_poles(n: int) -> np.ndarray:
    # Left-half-plane poles of the unit-cutoff analog Butterworth prototype.
    k = np.arange(n)
    return np.exp(1j * np.pi * (2 * k + n + 1) / (2 * n))


def _butterworth(pairs, zeros: tuple, f_unit_hz: float, fs: float) -> IirFilter:
    """One biquad with the two `zeros` per conjugate pair of analog poles,
    mapped by the bilinear transform, in the order of each pair's least
    (real, |imag|) digital pole, and scaled to unit gain at f_unit_hz."""
    c = 2.0 * fs
    analog = np.asarray(list(pairs))
    digital = sorted((c + analog) / (c - analog),
                     key=lambda pair: min((p.real, abs(p.imag)) for p in pair))
    b = np.real(np.poly(zeros))
    sos = np.asarray([np.concatenate([b, np.real(np.poly(pair))]) for pair in digital])
    sos[0, :3] *= 1.0 / abs(sos_response(sos, [f_unit_hz], fs)[0])
    return IirFilter(sos)


def _check_order(**orders) -> None:
    _require("2, 4, 6 or 8", lambda v: v in (2, 4, 6, 8) and _is_int(v), **orders)


def butterworth_lowpass(order: int, cutoff_hz: float, fs: float) -> IirFilter:
    """Digital Butterworth lowpass; `order` is the total pole count.

    Designed as an analog prototype scaled to the prewarped cutoff and mapped
    by the bilinear transform, so the -3 dB point lands exactly on cutoff_hz.
    """
    _check_order(order=order)
    if not 0 < cutoff_hz < fs / 2:
        raise ValueError(f"cutoff {cutoff_hz} Hz outside (0, fs/2)")
    wc = 2.0 * fs * np.tan(np.pi * cutoff_hz / fs)
    poles = wc * _prototype_poles(order)  # poles k and order - 1 - k are conjugates
    return _butterworth(zip(poles[:order // 2], poles[::-1]), (-1.0, -1.0), 0.0, fs)


def butterworth_bandpass(order: int, low_hz: float, high_hz: float, fs: float) -> IirFilter:
    """Digital Butterworth bandpass; `order` is the total pole count.

    The lowpass prototype of order/2 is frequency-transformed to a bandpass
    and mapped by the bilinear transform with prewarped edges, so both band
    edges sit exactly at -3 dB.
    """
    _check_order(order=order)
    if not 0 < low_hz < high_hz < fs / 2:
        raise ValueError(f"band ({low_hz}, {high_hz}) Hz invalid for fs={fs}")
    n = order // 2
    w1 = 2.0 * fs * np.tan(np.pi * low_hz / fs)
    w2 = 2.0 * fs * np.tan(np.pi * high_hz / fs)
    bw, w0sq = w2 - w1, w1 * w2
    plus, minus = [], []
    for p in _prototype_poles(n):
        bp = bw * p
        disc = np.sqrt(bp * bp - 4.0 * w0sq)
        plus.append((bp + disc) / 2.0)
        minus.append((bp - disc) / 2.0)
    # The images of conjugate prototype poles k and n - 1 - k with the same
    # sign of disc are conjugates; those of a real prototype pole (odd n),
    # conjugate or both real, pair with each other.
    h = n // 2
    pairs = [*zip(plus[:h], plus[::-1]), *zip(minus[:h], minus[::-1]),
             *zip(plus[h:n - h], minus[h:n - h])]
    f_center = fs / np.pi * np.arctan(np.sqrt(w0sq) / (2.0 * fs))
    # n zeros at z=+1 (from the n analog zeros at s=0) and n at z=-1 (from
    # the implicit zeros at infinity): one of each per biquad.
    return _butterworth(pairs, (1.0, -1.0), f_center, fs)


# ---------------------------------------------------------------------------
# Spectral estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Psd:
    """One-sided power spectral density.

    frequencies run uniformly from 0 to Nyquist; `power` is a density scaled
    so that sum(power) times the bin spacing equals the mean square of the
    mean-removed, Hann-windowed signal (Parseval).
    """

    frequencies: np.ndarray
    power: np.ndarray


def next_pow2(n: int) -> int:
    return 1 << max(0, (int(n) - 1)).bit_length()


def _psd_rows(rows: np.ndarray, fs: float, nfft: int, hann: np.ndarray,
              bins=slice(None)) -> np.ndarray:
    """One-sided periodogram power of each row of a 2-D block, at `bins`;
    overwrites `rows`.

    Each row is mean-removed and multiplied by `hann` in place, then
    zero-padded to nfft and transformed on its own, so one row's complex
    spectrum is held at a time and only its `bins` are kept. Every step is
    row-wise and the fold and scale are elementwise, so a row's power at a
    bin depends neither on the rest of the block nor on which other bins
    are read.
    """
    n = rows.shape[1]
    rows -= rows.mean(axis=1, keepdims=True)
    rows *= hann
    # One-sided fold: interior bins carry the conjugate half too.
    weights = np.full(nfft // 2 + 1, 2.0)
    weights[0] = 1.0
    if nfft % 2 == 0:
        weights[-1] = 1.0
    power = np.empty((len(rows),) + weights[bins].shape)
    for row, out in zip(rows, power):
        np.abs(np.fft.rfft(row, nfft)[bins], out=out)
    np.multiply(power, power, out=power)
    power *= weights[bins] / (n * fs)
    return power


def _frequencies(nfft: int, fs: float) -> np.ndarray:
    return np.arange(nfft // 2 + 1) * (fs / nfft)


def periodogram(x, fs: float, nfft: int | None = None) -> Psd:
    """Hann-windowed, mean-removed, zero-padded one-sided periodogram."""
    x = np.array(x, dtype=np.float64)  # a copy: _psd_rows overwrites it
    n = len(x)
    if n < 2:
        raise ValueError("periodogram needs at least two samples")
    if nfft is None:
        nfft = next_pow2(n)
    if nfft < n:
        raise ValueError(f"nfft={nfft} shorter than the signal ({n})")
    power = _psd_rows(x[None, :], fs, nfft, np.hanning(n))[0]
    return Psd(frequencies=_frequencies(nfft, fs), power=power)


@dataclass(frozen=True)
class Spectrogram:
    """Per-window periodograms; power columns are time steps.

    Each window has its local mean removed before the transform, so columns
    carry only in-window fluctuation. times are window centers in seconds
    relative to the start of the series.
    """

    times: np.ndarray
    frequencies: np.ndarray
    power: np.ndarray  # shape (n_freqs, n_times)


def spectrogram(x, fs: float, window_s: float, hop_s: float,
                nfft: int | None = None) -> Spectrogram:
    """Column j is periodogram(x[s_j : s_j + win], fs, nfft).power.

    Windows are gathered in blocks whose padded samples and power take at
    most _BLOCK elements, so the memory stays bounded for a long series;
    each gathered block is a copy, which _psd_rows tapers in place and
    transforms one window at a time. Besides the output, a block holds its
    windows, their power and one window's complex spectrum.
    """
    x = np.asarray(x, dtype=np.float64)
    win_n = _sample_count("window_s * fs", window_s * fs, least=2)
    hop_n = _sample_count("hop_s * fs", hop_s * fs, least=1)
    if len(x) < win_n:
        raise ValueError("series shorter than one window")
    if nfft is None:
        nfft = next_pow2(win_n)
    if nfft < win_n:
        raise ValueError(f"nfft={nfft} shorter than the window ({win_n})")
    starts = np.arange(0, len(x) - win_n + 1, hop_n)
    windows = np.lib.stride_tricks.sliding_window_view(x, win_n)
    hann = np.hanning(win_n)
    try:
        power = np.empty((nfft // 2 + 1, len(starts)))
    except (ValueError, OverflowError, MemoryError):  # "array is too big" or no memory
        raise MemoryError(f"nfft {nfft!r} is too large: a spectrogram of {nfft // 2 + 1} "
                          f"bins by {len(starts)} windows does not fit in memory") from None
    step = max(1, _BLOCK // (nfft + len(power)))
    for lo in range(0, len(starts), step):
        cols = starts[lo:lo + step]
        power[:, lo:lo + len(cols)] = _psd_rows(windows[cols], fs, nfft, hann).T
    times = (starts + win_n / 2.0) / fs
    return Spectrogram(times=times, frequencies=_frequencies(nfft, fs), power=power)


# ---------------------------------------------------------------------------
# Moving statistics
# ---------------------------------------------------------------------------


def moving_variance(x, window: int) -> np.ndarray:
    """Sample variance (ddof=1) over each full window; length n - window + 1.

    Element j covers x[j : j + window]; callers attribute it to the window
    end when aligning against the original series.

    The cumulative sums of the centred series and of its squares are taken
    in blocks of _walk_block(window) windows, each block's from the last
    sums of the block before (see _cumsum0), so they have the bits of one
    pass over the series. Besides the output, a block holds a few arrays
    of its length plus window.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if window < 2:
        raise ValueError("window must be >= 2")
    if n < window:
        raise ValueError("series shorter than window")
    mean = x.mean()  # centred for numerical stability; variance is shift-invariant
    out = np.empty(n - window + 1)
    step = _walk_block(window)
    start1 = start2 = None
    for j0 in range(0, len(out), step):
        j1 = min(j0 + step, len(out))
        xc = x[j0:j1 + window - 1] - mean
        c1 = _cumsum0(xc, start1)  # the sums from index j0 on
        np.multiply(xc, xc, out=xc)
        c2 = _cumsum0(xc, start2)
        start1, start2 = c1[j1 - j0], c2[j1 - j0]
        s1 = c1[window:] - c1[:j1 - j0]
        s2 = np.subtract(c2[window:], c2[:j1 - j0], out=out[j0:j1])
        s1 *= s1
        s1 /= window
        s2 -= s1
        s2 /= window - 1
        np.maximum(s2, 0.0, out=s2)
    return out


def moving_average(x, window: int) -> np.ndarray:
    """Centered moving mean with shrunken edge windows; length preserved.

    Whole windows come from differences of the cumulative sum, taken in
    blocks of _walk_block(window) windows as in moving_variance; only the
    window - 1 edge samples (all of them when window > n) take their
    window's bounds from index arrays, reading the sums of the first and
    the last block.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if window < 1:
        raise ValueError("window must be >= 1")
    left = (window - 1) // 2
    right = window - 1 - left
    out = np.empty(n)
    whole = max(0, n + 1 - window)  # windows inside the series, centred at left + i
    step = _walk_block(window)
    start = None
    for i0 in range(0, max(whole, 1), step):
        i1 = min(i0 + step, whole)
        c = _cumsum0(x[i0:min(i1 + window - 1, n)], start)  # the sums from index i0 on
        start = c[i1 - i0]
        np.subtract(c[window:], c[:i1 - i0], out=out[left + i0:left + i1])
        out[left + i0:left + i1] /= window
        if i0 == 0:
            head = c

    def edges(idx, c, c0):  # c holds the sums from index c0 on
        lo = np.maximum(idx - left, 0)
        hi = np.minimum(idx + right + 1, n)
        out[idx] = (c[hi - c0] - c[lo - c0]) / (hi - lo)

    edges(np.arange(min(left, n)), head, 0)
    edges(np.arange(left + whole, n), c, i0)
    return out
