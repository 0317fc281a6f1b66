"""Wavelet transform tests.

The Daubechies-3 taps are re-derived here from first principles (spectral
factorization of the halfband polynomial with three zeros at z = -1) and
compared against the constants shipped in the package, so the pinned numbers
are cross-checked by an independent construction. Round trips reconstruct
through the test-side inverse in wavelet_inverse.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfsense.wavelet import WaveletFilterBank, db3, dwt_single, wavedec
from wavelet_inverse import idwt, waverec


def derive_db3_taps():
    """Spectral factorization: P(y) = 1 + 3y + 6y^2, y = (2 - z - 1/z)/4.

    Expanding P over z gives (3z^4 - 18z^3 + 38z^2 - 18z + 3) / (8z^2); the
    minimum-phase square root keeps the roots inside the unit circle. The
    scaling filter is sqrt(2) * ((1+1/z)/2)^3 * Q(1/z) with Q(1) = 1.
    """
    roots = np.roots([3.0, -18.0, 38.0, -18.0, 3.0])
    inside = roots[np.abs(roots) < 1.0]
    assert len(inside) == 2
    q = np.real(np.poly(inside))
    q /= q.sum()
    spline = np.array([1.0, 3.0, 3.0, 1.0]) / 8.0
    return np.sqrt(2.0) * np.convolve(spline, q)


class TestFilterBank:
    def test_db3_matches_spectral_factorization(self):
        derived = derive_db3_taps()
        bank = db3()
        direct = np.max(np.abs(bank.rec_lo - derived))
        flipped = np.max(np.abs(bank.rec_lo - derived[::-1]))
        assert min(direct, flipped) < 1e-10

    def test_db3_identities(self):
        bank = db3()
        assert bank.length == 6
        assert bank.rec_lo.sum() == pytest.approx(np.sqrt(2.0), abs=1e-11)
        assert bank.rec_hi.sum() == pytest.approx(0.0, abs=1e-11)
        assert bank.rec_lo @ bank.rec_lo == pytest.approx(1.0, abs=1e-11)
        np.testing.assert_array_equal(bank.dec_lo, bank.rec_lo[::-1])
        np.testing.assert_array_equal(bank.dec_hi, bank.rec_hi[::-1])

    def test_corrupted_bank_rejected(self):
        bank = db3()
        bad_lo = bank.rec_lo.copy()
        bad_lo[2] += 1e-6
        with pytest.raises(ValueError):
            WaveletFilterBank("bad", bad_lo)
        with pytest.raises(ValueError):
            WaveletFilterBank("bad", bank.rec_lo[:4])
        with pytest.raises(ValueError):
            WaveletFilterBank("bad", bank.rec_lo[:5])

    def test_taps_are_read_only(self):
        bank = db3()
        for attr in ("rec_lo", "rec_hi", "dec_lo", "dec_hi"):
            with pytest.raises(ValueError):
                getattr(bank, attr)[0] = 0.0

    def test_db3_is_one_shared_bank(self):
        assert db3() is db3()


class TestSingleLevel:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 65, 101, 1023, 4096])
    def test_symmetric_perfect_reconstruction(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        bank = db3()
        ca, cd = dwt_single(x, bank)
        assert len(ca) == len(cd) == (n + bank.length - 1) // 2
        xr = idwt(ca, cd, bank, n)
        np.testing.assert_allclose(xr, x, rtol=0, atol=1e-10)

    def test_constant_input_scales_by_sqrt2(self):
        x = np.full(128, 3.0)
        ca, cd = dwt_single(x, db3())
        np.testing.assert_allclose(ca, 3.0 * np.sqrt(2.0), atol=1e-12)
        np.testing.assert_allclose(cd, 0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 17, 64, 255])
    def test_matches_direct_symmetric_sum(self, n):
        # the textbook definition, one coefficient at a time: c[k] is the sum
        # over taps j of h[j] * x[2k + 1 - j], with x mirrored at both edges
        # (edge sample repeated) and the mirror taken period 2n when n is
        # shorter than the filter
        def mirrored(i):
            i %= 2 * n
            return i if i < n else 2 * n - 1 - i

        rng = np.random.default_rng(n + 100)
        x = rng.normal(size=n)
        bank = db3()
        count = (n + bank.length - 1) // 2
        want = [[sum(h[j] * x[mirrored(2 * k + 1 - j)] for j in range(bank.length))
                 for k in range(count)] for h in (bank.dec_lo, bank.dec_hi)]
        ca, cd = dwt_single(x, bank)
        np.testing.assert_allclose(ca, want[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(cd, want[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_polynomials_below_degree_three_leave_no_interior_detail(self, degree):
        # db3 has three vanishing moments; coefficients whose taps stay
        # inside the signal (k = 2 .. (n - 2) // 2) see no mirrored edge; the
        # residue is the rounding of the pinned taps, about 6e-12 here
        n = 200
        t = np.arange(n) / n
        x = 1.0 + t ** degree
        _, cd = dwt_single(x, db3())
        assert np.max(np.abs(cd[2:(n - 2) // 2 + 1])) < 1e-10

    def test_cubic_leaves_interior_detail(self):
        # the moment of order three does not vanish: the bound above is not vacuous
        n = 200
        t = np.arange(n) / n
        _, cd = dwt_single(1.0 + t ** 3, db3())
        assert np.min(np.abs(cd[2:(n - 2) // 2 + 1])) > 1e-8

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_rejected(self, n):
        with pytest.raises(ValueError, match="at least two samples"):
            dwt_single(np.zeros(n), db3())


class TestMultiLevel:
    @pytest.mark.parametrize("n,levels", [(64, 3), (100, 3), (101, 4), (1024, 5), (4096, 3)])
    def test_symmetric_roundtrip(self, n, levels):
        rng = np.random.default_rng(n * levels)
        x = rng.normal(size=n)
        dec = wavedec(x, db3(), levels=levels)
        assert len(dec.details) == levels
        xr = waverec(dec, db3(), n)
        np.testing.assert_allclose(xr, x, rtol=0, atol=1e-9)

    def test_detail_order_is_fine_to_coarse(self):
        # a pure high-frequency alternation lands in the level-1 detail band;
        # 1024 samples keep the mirrored edges' share of the coarser bands
        # small (the ratio is about 210 here, 53 at 256 samples)
        x = np.cos(np.pi * np.arange(1024))
        dec = wavedec(x, db3(), levels=3)
        energies = [d @ d for d in dec.details]
        assert energies[0] > 100 * (energies[1] + energies[2] + dec.approx @ dec.approx)

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            wavedec(np.zeros(64), db3(), levels=0)

    @given(
        samples=st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=200),
        levels=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetric_roundtrip_hypothesis(self, samples, levels):
        x = np.asarray(samples)
        dec = wavedec(x, db3(), levels=levels)
        xr = waverec(dec, db3(), len(x))
        np.testing.assert_allclose(xr, x, rtol=0, atol=1e-8 * max(1.0, np.max(np.abs(x))))

    def test_linearity(self):
        rng = np.random.default_rng(21)
        x, y = rng.normal(size=300), rng.normal(size=300)
        bank = db3()
        dx = wavedec(x, bank, 3)
        dy = wavedec(y, bank, 3)
        dxy = wavedec(2.0 * x - 0.5 * y, bank, 3)
        np.testing.assert_allclose(dxy.approx, 2.0 * dx.approx - 0.5 * dy.approx,
                                   rtol=0, atol=1e-9)
        for a, b, c in zip(dxy.details, dx.details, dy.details):
            np.testing.assert_allclose(a, 2.0 * b - 0.5 * c, rtol=0, atol=1e-9)
