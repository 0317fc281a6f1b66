"""Wavelet transform tests.

The Daubechies-3 taps are re-derived here from first principles (spectral
factorization of the halfband polynomial with three zeros at z = -1) and
compared against the constants shipped in the package, so the pinned numbers
are cross-checked by an independent construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfsense.wavelet import (
    DwtDecomposition,
    WaveletFilterBank,
    db3,
    dwt_single,
    idwt_single,
    wavedec,
    waverec,
)


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
        ca, cd = dwt_single(x, bank, "symmetric")
        assert len(ca) == len(cd) == (n + bank.length - 1) // 2
        xr = idwt_single(ca, cd, bank, n, "symmetric")
        np.testing.assert_allclose(xr, x, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256, 1024, 4096])
    def test_periodic_perfect_reconstruction(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.normal(size=n)
        bank = db3()
        ca, cd = dwt_single(x, bank, "periodic")
        assert len(ca) == len(cd) == n // 2
        xr = idwt_single(ca, cd, bank, n, "periodic")
        np.testing.assert_allclose(xr, x, rtol=0, atol=1e-10)

    def test_periodic_energy_conservation(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=512)
        ca, cd = dwt_single(x, db3(), "periodic")
        assert ca @ ca + cd @ cd == pytest.approx(x @ x, rel=1e-9)

    def test_periodic_odd_length_rejected(self):
        with pytest.raises(ValueError):
            dwt_single(np.zeros(11), db3(), "periodic")

    def test_constant_input_scales_by_sqrt2(self):
        x = np.full(128, 3.0)
        for mode in ("symmetric", "periodic"):
            ca, cd = dwt_single(x, db3(), mode)
            np.testing.assert_allclose(ca, 3.0 * np.sqrt(2.0), atol=1e-12)
            np.testing.assert_allclose(cd, 0.0, atol=1e-10)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            dwt_single(np.zeros(16), db3(), "zero")

    def test_mismatched_coefficient_lengths_rejected(self):
        with pytest.raises(ValueError):
            idwt_single(np.zeros(4), np.zeros(5), db3(), 8)


class TestMultiLevel:
    @pytest.mark.parametrize("n,levels", [(64, 3), (100, 3), (101, 4), (1024, 5), (4096, 3)])
    def test_symmetric_roundtrip(self, n, levels):
        rng = np.random.default_rng(n * levels)
        x = rng.normal(size=n)
        dec = wavedec(x, db3(), levels=levels, mode="symmetric")
        assert dec.levels == levels and len(dec.details) == levels
        assert dec.original_length == n
        xr = waverec(dec, db3())
        np.testing.assert_allclose(xr, x, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n,levels", [(64, 3), (256, 5), (4096, 3)])
    def test_periodic_roundtrip(self, n, levels):
        rng = np.random.default_rng(n + levels)
        x = rng.normal(size=n)
        dec = wavedec(x, db3(), levels=levels, mode="periodic")
        xr = waverec(dec, db3())
        np.testing.assert_allclose(xr, x, rtol=0, atol=1e-9)

    def test_periodic_multilevel_energy(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=1024)
        dec = wavedec(x, db3(), levels=4, mode="periodic")
        total = dec.approx @ dec.approx + sum(d @ d for d in dec.details)
        assert total == pytest.approx(x @ x, rel=1e-9)

    def test_periodic_odd_intermediate_rejected(self):
        # 6 -> 3 after one level; the second level must refuse
        with pytest.raises(ValueError):
            wavedec(np.zeros(6), db3(), levels=2, mode="periodic")

    def test_detail_order_is_fine_to_coarse(self):
        # a pure high-frequency alternation lands in the level-1 detail band
        x = np.cos(np.pi * np.arange(256))
        dec = wavedec(x, db3(), levels=3, mode="periodic")
        energies = [d @ d for d in dec.details]
        assert energies[0] > 100 * (energies[1] + energies[2] + dec.approx @ dec.approx)

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            wavedec(np.zeros(64), db3(), levels=0)
        with pytest.raises(ValueError):
            DwtDecomposition(approx=np.zeros(4), details=[np.zeros(8)], levels=2)

    @given(
        samples=st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=200),
        levels=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetric_roundtrip_hypothesis(self, samples, levels):
        x = np.asarray(samples)
        dec = wavedec(x, db3(), levels=levels, mode="symmetric")
        xr = waverec(dec, db3())
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
