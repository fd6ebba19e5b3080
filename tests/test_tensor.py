import hashlib

import numpy as np
import pytest

from faultfusion.errors import NumericError, ShapeError
from faultfusion.tensor import Rng, check_finite, glorot_uniform


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).uniform(100)
        b = Rng(42).uniform(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(1).uniform(100)
        b = Rng(2).uniform(100)
        assert (a != b).any()

    def test_uniform_range(self):
        u = Rng(7).uniform(10_000)
        assert (u >= 0.0).all() and (u < 1.0).all()

    def test_splitmix64_reference_vector(self):
        # first outputs of SplitMix64 with seed 0, from the reference
        # implementation: mix64(k * 0x9E3779B97F4A7C15) for k = 1, 2, 3
        expected_raw = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        expected = [(v >> 11) * 2.0**-53 for v in expected_raw]
        assert np.allclose(Rng(0).uniform(3), expected, rtol=0, atol=0)

    def test_stream_is_stateful(self):
        rng = Rng(3)
        first = rng.uniform(5)
        second = rng.uniform(5)
        assert (first != second).any()

    def test_scalar_uniform(self):
        assert 0.0 <= Rng(11).uniform() < 1.0

    def test_normal_moments(self):
        z = Rng(5).normal(50_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_normal_deterministic(self):
        assert np.array_equal(Rng(9).normal((3, 4)), Rng(9).normal((3, 4)))

    def test_normal_golden_digest(self):
        # computed with the out-of-place Box-Muller (concatenated r cos, r sin)
        # that the in-place form must reproduce bit for bit
        rng = Rng(17)
        h = hashlib.sha256()
        for shape in [None, 0, 1, 2, 3, 7, (2, 3), (3, 1, 5), (4, 0), 1001]:
            z = rng.normal(shape)
            h.update(np.asarray(z, dtype=np.float64).tobytes() + repr(np.shape(z)).encode())
        h.update(np.float64(rng.uniform()).tobytes())
        assert h.hexdigest() == "9ab7e5fbfac4cff383a0c823a93493304290ad820ecf09865b6f8c0b4b94d3ca"

    def test_unread_gives_a_block_tail_back(self):
        one_at_a_time = Rng(5)
        scalars = [one_at_a_time.uniform() for _ in range(3)]
        blocked = Rng(5)
        block = blocked.uniform(10)
        blocked.unread(7)
        assert block[:3].tolist() == scalars
        assert blocked.uniform(4).tolist() == one_at_a_time.uniform(4).tolist()

    @pytest.mark.parametrize("count", [-1, 3])
    def test_unread_stays_inside_the_drawn_stream(self, count):
        rng = Rng(5)
        rng.uniform(2)
        with pytest.raises(ValueError, match=f"cannot unread {count} of 2 draws"):
            rng.unread(count)
        rng.unread(2)
        assert rng.uniform() == Rng(5).uniform()

    def test_permutation_is_permutation(self):
        p = Rng(13).permutation(257)
        assert sorted(p.tolist()) == list(range(257))
        assert np.array_equal(p, Rng(13).permutation(257))

    def test_derive_gives_independent_streams(self):
        root = Rng(21)
        a = root.derive(0)
        b = root.derive(1)
        assert (a.uniform(50) != b.uniform(50)).any()
        assert np.array_equal(Rng(21).derive(0).uniform(50), Rng(21).derive(0).uniform(50))


class TestGlorot:
    def test_bound_fan_3_3(self):
        v = glorot_uniform(3, 3, Rng(0))
        assert v.shape == (3, 3)
        assert np.abs(v).max() <= 1.0  # L = sqrt(6/6)

    def test_bound_fan_6_6(self):
        v = glorot_uniform(6, 6, Rng(1))
        assert np.abs(v).max() <= np.sqrt(0.5) + 1e-15

    def test_generic_bound(self):
        for fan_in, fan_out, seed in [(2, 17, 3), (40, 3, 4), (128, 128, 5)]:
            v = glorot_uniform(fan_in, fan_out, Rng(seed))
            assert np.abs(v).max() <= np.sqrt(6.0 / (fan_in + fan_out)) + 1e-15

    def test_deterministic(self):
        assert np.array_equal(glorot_uniform(4, 4, Rng(42)), glorot_uniform(4, 4, Rng(42)))

    def test_degenerate_fan(self):
        with pytest.raises(ShapeError, match="degenerate fan"):
            glorot_uniform(0, 4, Rng(0))
        with pytest.raises(ShapeError, match="degenerate fan"):
            glorot_uniform(4, 0, Rng(0))


def test_check_finite():
    check_finite(np.ones(4), "ok")
    with pytest.raises(NumericError, match="weights"):
        check_finite(np.array([1.0, np.nan]), "weights")
    with pytest.raises(NumericError):
        check_finite(np.array([np.inf]), "x")
