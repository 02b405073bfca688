"""The counter-based SplitMix64 generator behind every sampled draw, and the
typed errors of the entry points that take a seed."""

import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stosub as ss
from stosub import multilinear
from stosub.multilinear import _GAMMA, _MASK, _draw, _key, _mix, _sample_masks

SRC = Path(__file__).resolve().parents[1] / "src"


def array_draws(key: int, count: int) -> np.ndarray:
    """Draws 1 to ``count`` of ``key`` through the array form of ``_mix``,
    the states ``_sample_masks`` mixes."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += key
    return _mix(z) >> 11


def fresh_python(code: str, **env) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this stosub."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


class TestKernel:
    def test_known_answers(self):
        """Outputs 1 to 3 of SplitMix64 started at state 0."""
        assert [_mix(i * _GAMMA & _MASK) for i in (1, 2, 3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_array_draws_match_the_int_form(self):
        key = _key(7, (3,))
        expected = [_mix((key + i * _GAMMA) & _MASK) >> 11 for i in range(1, 65)]
        assert [_draw(key, i) for i in range(1, 65)] == expected
        assert array_draws(key, 64).tolist() == expected
        uniforms = array_draws(key, 64) * 2.0**-53
        assert uniforms.tolist() == [_draw(key, i) * 2.0**-53 for i in range(1, 65)]

    def test_block_size_is_invisible(self, monkeypatch):
        xv = [0.1, 0.5, 0.9, 0.3, 0.7]
        n = 14_000  # 70,000 uniforms: several default blocks
        assert n * len(xv) > 2 * multilinear._BLOCK
        default = _sample_masks(xv, n, 3, (1, 2))
        for block in (7, 12, 1000, 1 << 22):
            monkeypatch.setattr(multilinear, "_BLOCK", block)
            assert (_sample_masks(xv, n, 3, (1, 2)) == default).all()

    def test_integer_test_is_the_float_comparison(self):
        """j < ceil(x * 2**53) includes exactly when u = j * 2**-53 < x, also
        at coordinates equal to a drawn uniform and one ulp above it."""
        n, m, seed = 4096, 7, 5
        key = _key(seed, ())
        j = np.array([_draw(key, i) for i in range(1, n * m + 1)], dtype=np.uint64)
        u = j.astype(np.float64) * 2.0**-53  # exact: j < 2**53
        xv = [0.0, 2.0**-53, 0.5, 1 - 2.0**-53, 1.0, u[5], u[6] + 2.0**-53]
        masks = _sample_masks(xv, n, seed, ())
        expected = (u.reshape(n, m) < np.array(xv)) @ (1 << np.arange(m))
        assert (masks == expected).all()
        assert masks[0] >> 5 & 1 == 0 and masks[0] >> 6 & 1 == 1
        assert (masks & 1 == 0).all() and (masks >> 4 & 1 == 1).all()

    def test_distinct_keys(self):
        assert len({_key(0, s) for s in [(), (0,), (0, 0), (1,)]}) == 4
        for seed in (0, 1, 12345, 2**64 - 1):
            assert _key(seed, ()) != _key(seed + 2**64, ())
        # Limb counts keep a long seed apart from a short seed plus a stream.
        wide = {
            _key(seed, s)
            for seed in (0, 1, 2**64, 2**64 + 1)
            for s in [(), (0,), (1,), (0, 0), (2**64,), (1, 0)]
        }
        assert len(wide) == 24
        streams =[(), *((k,) for k in range(20)), *((k, 0) for k in range(20))]
        keys = {_key(seed, s) for seed in range(50) for s in streams}
        assert len(keys) == 50 * len(streams)

    def test_same_draws_in_two_interpreters(self):
        code = """
            import hashlib
            from stosub.multilinear import _draw, _key, _sample_masks
            masks = _sample_masks([0.2, 0.5, 0.7], 5000, 11, (4,))
            print(hashlib.sha256(masks.tobytes()).hexdigest())
            print([_draw(_key(11, ()), i) for i in (1, 2, 3)])
        """
        first = fresh_python(code, PYTHONHASHSEED="1")
        assert fresh_python(code, PYTHONHASHSEED="2") == first
        masks = _sample_masks([0.2, 0.5, 0.7], 5000, 11, (4,))
        assert first.split("\n")[:2] == [
            hashlib.sha256(masks.tobytes()).hexdigest(),
            repr([_draw(_key(11, ()), i) for i in (1, 2, 3)]),
        ]

    def test_chi_square_over_sixteen_bins(self):
        n = 1 << 20
        top = array_draws(_key(2024, ()), n) >> 49
        bins = np.bincount(top.astype(np.intp), minlength=16)
        assert len(bins) == 16
        chi2 = float((((bins - n / 16) ** 2) / (n / 16)).sum())
        assert chi2 < 37.70  # the 0.999 quantile at 15 degrees of freedom

    @pytest.mark.parametrize("m", [1, 12])
    def test_draw_peaks_below_ten_bytes_per_uniform(self, m):
        uniforms = 1 << 22
        tracemalloc.start()
        try:
            _sample_masks([0.5] * m, uniforms // m, 0, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * uniforms


def test_a_sampled_step_and_a_rounding_leave_numpy_random_unloaded():
    code = """
        import sys
        import stosub as ss
        from stosub import greedy
        inst = ss.generate_common_cause(4, 2, 4, seed=0)
        constraint = ss.UniformMatroid(rank=2)
        y = ss.FractionalPoint(inst.items, (0.1, 0.2, 0.3, 0.0))
        config = ss.GreedyConfig(
            delta=0.25, weight_mode="sampled", sample_count=64, seed=1
        )
        greedy.step(inst, constraint, y, 0.0, config)
        half = ss.FractionalPoint(inst.items, (0.5,) * 4)
        print(len(ss.pipage_round(inst, constraint, half, 3)))
        print("numpy.random" in sys.modules)
    """
    assert fresh_python(code).split() == ["2", "False"]


class TestInputErrors:
    @pytest.fixture
    def half(self, cc2):
        return ss.FractionalPoint(cc2.items, (0.5, 0.5))

    @pytest.mark.parametrize("count", [2.5, True])
    def test_sample_count_must_be_an_integer(self, cc2, half, count):
        with pytest.raises(ss.InputError, match="sample_count"):
            ss.optimistic_weight_estimates(cc2, half, count, 0)

    @pytest.mark.parametrize(
        "seed, stream", [(1.5, ()), (-1, ()), (0, (-1,)), (0, ("a",))]
    )
    def test_seed_and_stream_must_be_nonnegative_integers(
        self, cc2, half, seed, stream
    ):
        with pytest.raises(ss.InputError, match="seed|stream"):
            ss.multilinear_estimate(cc2, half, 10, seed=seed, stream=stream)

    @pytest.mark.parametrize("delta, m", [(True, 3), (0.5, 2.5)])
    def test_schedule_takes_a_real_step_and_an_integer_m(self, delta, m):
        with pytest.raises(ss.InputError):
            ss.estimation_sample_count(delta, m)

    @pytest.mark.parametrize("seed", [True, 1.5, -1])
    def test_rounding_seed_must_be_a_nonnegative_integer(self, cc2, half, seed):
        with pytest.raises(ss.InputError, match="seed"):
            ss.pipage_round(cc2, ss.UniformMatroid(rank=1), half, seed)
