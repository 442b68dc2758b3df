"""Golden-model layer tests (repro.nn.layers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import run_conv_grid, run_fc_grid
from repro.nn import layers as F


class TestConvOutputSize:
    def test_paper_formula(self):
        # O = (I - F)/S + 1 from Section III-A.
        assert F.conv_output_size(3, 2, 1, 0) == 2  # the Fig. 2 example
        assert F.conv_output_size(227, 11, 4, 0) == 55  # alex conv1
        assert F.conv_output_size(224, 3, 1, 1) == 224  # vgg same-pad

    def test_rejects_nonpositive_output(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestPadInput:
    def test_zero_pad_shape_and_values(self):
        a = np.ones((2, 3, 3))
        padded = F.pad_input(a, 1)
        assert padded.shape == (2, 5, 5)
        assert padded[:, 0, :].sum() == 0
        assert padded[:, 1:4, 1:4].sum() == a.sum()

    def test_pad_zero_is_identity(self):
        a = np.ones((2, 3, 3))
        assert F.pad_input(a, 0) is a

    def test_negative_pad_rejected(self):
        with pytest.raises(ValueError):
            F.pad_input(np.ones((1, 2, 2)), -1)

    @pytest.mark.parametrize("shape", [(3, 5, 4), (2, 3, 5, 4)])
    @pytest.mark.parametrize("pad", [0, 1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_np_pad(self, shape, pad, dtype):
        a = np.random.default_rng(4).normal(size=shape).astype(dtype)
        a.flat[0] = -0.0
        a.flat[1] = np.nan
        a.flat[-1] = -np.inf
        width = [(0, 0)] * (a.ndim - 2) + [(pad, pad), (pad, pad)]
        expected = np.pad(a, width)
        padded = F.pad_input(a, pad)
        assert padded.dtype == expected.dtype
        assert padded.shape == expected.shape
        assert padded.tobytes() == expected.tobytes()


conv_cases = st.tuples(
    st.integers(1, 6),  # depth
    st.integers(3, 8),  # in_y
    st.integers(3, 8),  # in_x
    st.integers(1, 4),  # filters
    st.integers(1, 3),  # kernel
    st.integers(1, 2),  # stride
    st.integers(0, 1),  # pad
)


class TestConv2d:
    @settings(max_examples=30, deadline=None)
    @given(conv_cases, st.integers(0, 2**32 - 1))
    def test_matches_naive_reference(self, case, seed):
        depth, in_y, in_x, filters, kernel, stride, pad = case
        if in_y - kernel + 2 * pad < 0 or in_x - kernel + 2 * pad < 0:
            return
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(depth, in_y, in_x))
        w = rng.normal(size=(filters, depth, kernel, kernel))
        b = rng.normal(size=filters)
        fast = F.conv2d(a, w, b, stride=stride, pad=pad)
        slow = F.conv2d_naive(a, w, b, stride=stride, pad=pad)
        assert np.allclose(fast, slow)

    def test_grouped_matches_naive(self, rng):
        a = rng.normal(size=(6, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        fast = F.conv2d(a, w, stride=1, pad=1, groups=2)
        slow = F.conv2d_naive(a, w, stride=1, pad=1, groups=2)
        assert np.allclose(fast, slow)

    def test_identity_kernel(self):
        a = np.arange(9, dtype=float).reshape(1, 3, 3)
        w = np.ones((1, 1, 1, 1))
        assert np.allclose(F.conv2d(a, w), a)

    def test_figure2_example_geometry(self, rng):
        """The paper's Fig. 2: 3x3x2 input, one 2x2x2 filter -> 2x2x1."""
        a = rng.normal(size=(2, 3, 3))
        w = rng.normal(size=(1, 2, 2, 2))
        out = F.conv2d(a, w)
        assert out.shape == (1, 2, 2)
        # o(0,0,0) is the inner product over the window at origin.
        expected = (a[:, 0:2, 0:2] * w[0]).sum()
        assert out[0, 0, 0] == pytest.approx(expected)

    def test_depth_group_mismatch_rejected(self, rng):
        a = rng.normal(size=(6, 5, 5))
        w = rng.normal(size=(4, 2, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d(a, w, groups=1)

    def test_zero_neurons_contribute_nothing(self, rng):
        """The motivating identity: zeroing a zero-product operand changes
        nothing (Section II)."""
        a = rng.normal(size=(4, 5, 5))
        a[a < 0] = 0.0
        w = rng.normal(size=(2, 4, 3, 3))
        dense = F.conv2d(a, w)
        # Recompute with the zeros explicitly removed from the sum: same.
        assert np.allclose(dense, F.conv2d_naive(a, w))


class TestRelu:
    def test_positive_pass_negative_zero(self):
        a = np.array([-2.0, 0.0, 3.5])
        assert list(F.relu(a)) == [0.0, 0.0, 3.5]

    def test_threshold_relu_prunes_near_zero(self):
        a = np.array([-2.0, 0.05, 0.2, 1.0])
        out = F.threshold_relu(a, 0.1)
        assert list(out) == [0.0, 0.0, 0.2, 1.0]

    def test_threshold_zero_is_plain_relu(self, rng):
        a = rng.normal(size=100)
        assert np.array_equal(F.threshold_relu(a, 0.0), F.relu(a))


class TestPooling:
    def test_max_pool_basic(self):
        a = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = F.max_pool2d(a, kernel=2, stride=2)
        assert out.shape == (1, 2, 2)
        assert list(out.reshape(-1)) == [5, 7, 13, 15]

    def test_max_pool_overlapping(self):
        a = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = F.max_pool2d(a, kernel=3, stride=1)
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == 10

    def test_avg_pool(self):
        a = np.ones((2, 4, 4))
        out = F.avg_pool2d(a, kernel=2, stride=2)
        assert np.allclose(out, 1.0)

    def test_max_pool_preserves_all_zero_windows(self):
        a = np.zeros((1, 4, 4))
        assert F.max_pool2d(a, 2, 2).sum() == 0.0


def _pool_reference(a, kernel, stride, pad, reducer):
    """The pre-vectorization per-output-pixel pooling loop."""
    padded = F.pad_input(a, pad)
    out_y = F.conv_output_size(a.shape[1], kernel, stride, pad)
    out_x = F.conv_output_size(a.shape[2], kernel, stride, pad)
    out = np.empty((a.shape[0], out_y, out_x), dtype=a.dtype)
    for oy in range(out_y):
        y0 = oy * stride
        y1 = min(y0 + kernel, padded.shape[1])
        for ox in range(out_x):
            x0 = ox * stride
            x1 = min(x0 + kernel, padded.shape[2])
            out[:, oy, ox] = reducer(padded[:, y0:y1, x0:x1])
    return out


def _lrn_reference(a, local_size=5, alpha=1e-4, beta=0.75, k=1.0):
    """The pre-vectorization per-channel LRN loop."""
    depth = a.shape[0]
    half = local_size // 2
    squared = a**2
    sums = np.empty_like(a)
    for z in range(depth):
        lo = max(0, z - half)
        hi = min(depth, z + half + 1)
        sums[z] = squared[lo:hi].sum(axis=0)
    return a / (k + (alpha / local_size) * sums) ** beta


def _max_over_copied_windows(a, kernel, stride, pad):
    """``np.max`` over every window copied out in ``(y, x)`` order: the
    pooling that copied its windows before reducing them."""
    padded = F.pad_input(a, pad)
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel, kernel), axis=(-2, -1)
    )[..., ::stride, ::stride, :, :]
    flat = np.ascontiguousarray(windows).reshape(
        *windows.shape[:-2], kernel * kernel
    )
    return np.max(flat, axis=-1)


#: Values sprinkled into max-pooling inputs.  numpy leaves which of
#: ``±0`` (and which NaN) a maximum returns to its SIMD path; "+0.0"
#: holds neither, so it exercises the running maximum itself.
POOL_SPECIALS = {
    "-0.0": [-0.0],
    "nan": [np.nan],
    "-nan": [-np.nan],
    "mixed": [-0.0, np.nan, -np.nan, np.inf, -np.inf],
    "+0.0": [0.0, np.inf, -np.inf],
}


pool_cases = st.tuples(
    st.integers(1, 5),  # depth
    st.integers(3, 9),  # in_y
    st.integers(3, 9),  # in_x
    st.integers(1, 3),  # kernel
    st.integers(1, 3),  # stride
    st.integers(0, 1),  # pad
)


class TestPoolingVectorization:
    """The stride-tricks pooling path is bit-identical to the old loop."""

    @settings(max_examples=30, deadline=None)
    @given(pool_cases, st.integers(0, 2**32 - 1))
    def test_max_pool_matches_loop_reference(self, case, seed):
        depth, in_y, in_x, kernel, stride, pad = case
        if in_y - kernel + 2 * pad < 0 or in_x - kernel + 2 * pad < 0:
            return
        a = np.random.default_rng(seed).normal(size=(depth, in_y, in_x))
        expected = _pool_reference(
            a, kernel, stride, pad, lambda w: w.reshape(w.shape[0], -1).max(axis=1)
        )
        assert np.array_equal(F.max_pool2d(a, kernel, stride, pad), expected)

    @settings(max_examples=30, deadline=None)
    @given(pool_cases, st.integers(0, 2**32 - 1))
    def test_avg_pool_matches_loop_reference(self, case, seed):
        depth, in_y, in_x, kernel, stride, pad = case
        if in_y - kernel + 2 * pad < 0 or in_x - kernel + 2 * pad < 0:
            return
        a = np.random.default_rng(seed).normal(size=(depth, in_y, in_x))
        expected = _pool_reference(
            a, kernel, stride, pad, lambda w: w.reshape(w.shape[0], -1).mean(axis=1)
        )
        assert np.array_equal(F.avg_pool2d(a, kernel, stride, pad), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        pool_cases,
        st.integers(0, 2**32 - 1),
        st.sampled_from(sorted(POOL_SPECIALS)),
        st.sampled_from(["float32", "float64"]),
    )
    def test_max_pool_special_values_keep_copied_window_bytes(
        self, case, seed, special, dtype
    ):
        """-0.0 and NaN (either sign) among ReLU-like zeros: the bytes of
        ``np.max`` over the copied windows, byte for byte."""
        depth, in_y, in_x, kernel, stride, pad = case
        if in_y - kernel + 2 * pad < 0 or in_x - kernel + 2 * pad < 0:
            return
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, depth, in_y, in_x)).astype(dtype)
        a[rng.random(a.shape) < 0.4] = 0.0
        picks = rng.random(a.shape) < 0.3
        values = np.array(POOL_SPECIALS[special], dtype=dtype)
        a[picks] = rng.choice(values, size=int(picks.sum()))
        got = F.max_pool2d(a, kernel, stride, pad)
        want = _max_over_copied_windows(a, kernel, stride, pad)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    def test_batched_pool_matches_per_image(self, rng):
        a = rng.normal(size=(3, 4, 6, 6))
        batched = F.max_pool2d(a, 3, 2, pad=1)
        for b in range(3):
            assert np.array_equal(batched[b], F.max_pool2d(a[b], 3, 2, pad=1))

    def test_float32_pool_keeps_dtype(self, rng):
        a = rng.normal(size=(2, 4, 4)).astype(np.float32)
        assert F.max_pool2d(a, 2, 2).dtype == np.float32
        assert F.avg_pool2d(a, 2, 2).dtype == np.float32


class TestLrn:
    def test_shape_preserved(self, rng):
        a = np.abs(rng.normal(size=(8, 3, 3)))
        out = F.lrn(a)
        assert out.shape == a.shape

    def test_zeros_stay_zero(self):
        a = np.zeros((8, 3, 3))
        a[0] = 1.0
        out = F.lrn(a)
        assert np.all(out[1:] == 0.0)

    def test_normalizes_downward(self, rng):
        a = np.abs(rng.normal(size=(8, 3, 3))) * 10
        assert np.all(F.lrn(a) <= a + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 12), st.sampled_from([3, 5]), st.integers(0, 2**32 - 1))
    def test_matches_per_channel_loop_reference(self, depth, local_size, seed):
        a = np.random.default_rng(seed).normal(size=(depth, 4, 4))
        expected = _lrn_reference(a, local_size=local_size)
        assert np.array_equal(F.lrn(a, local_size=local_size), expected)

    def test_batched_matches_per_image(self, rng):
        a = rng.normal(size=(3, 8, 4, 4))
        batched = F.lrn(a, local_size=5)
        for b in range(3):
            assert np.array_equal(batched[b], F.lrn(a[b], local_size=5))


class TestFullyConnected:
    def test_matches_matmul(self, rng):
        a = rng.normal(size=(4, 2, 2))
        w = rng.normal(size=(5, 16))
        b = rng.normal(size=5)
        assert np.allclose(F.fully_connected(a, w, b), w @ a.reshape(-1) + b)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            F.fully_connected(rng.normal(size=(4, 2, 2)), rng.normal(size=(5, 10)))


class TestBatchedGrid:
    """Batched conv/FC outputs equal per-image calls byte for byte over
    the differential grid of ``tests/differential.py``."""

    def test_conv_full_grid(self, rng):
        assert run_conv_grid(rng) == 216  # 2 x 3 x 3 x 2 x 2 x 3

    def test_fc_full_grid(self, rng):
        assert run_fc_grid(rng) == 12  # 2 dtypes x 2 batches x 3 thresholds


class TestSoftmax:
    def test_sums_to_one(self, rng):
        p = F.softmax(rng.normal(size=10))
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)

    def test_stable_for_large_logits(self):
        p = F.softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(p, [0.5, 0.5])


class TestIm2col:
    def test_column_content(self):
        a = np.arange(18, dtype=float).reshape(2, 3, 3)
        cols = F.im2col(a, 2, 2, 1)
        assert cols.shape == (4, 8)
        window = a[:, 0:2, 0:2].reshape(-1)
        assert np.allclose(cols[0], window)
