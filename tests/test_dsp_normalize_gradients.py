"""Normalisation and gradient transform tests (Section IV/V-B)."""

import numpy as np
import pytest

from repro.core.frontend import GradientFrontEnd
from repro.dsp.gradients import (
    resample_rows_to_length,
    signal_gradients,
    split_directions_batch,
)
from repro.dsp.normalize import concat_axes, min_max_normalize, z_score_normalize
from repro.errors import ShapeError


class TestMinMaxNormalize:
    def test_maps_to_unit_interval(self, rng):
        segment = rng.normal(50.0, 10.0, size=(6, 60))
        out = min_max_normalize(segment)
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_eq7_formula(self):
        segment = np.array([2.0, 4.0, 6.0])
        np.testing.assert_allclose(min_max_normalize(segment), [0.0, 0.5, 1.0])

    def test_per_axis_independence(self):
        """Each axis normalises with its own min/max (the Eq. 7 point)."""
        segment = np.stack([np.linspace(0, 1, 10), np.linspace(0, 1000, 10)])
        out = min_max_normalize(segment, axis=-1)
        np.testing.assert_allclose(out[0], out[1])

    def test_constant_axis_maps_to_zero(self):
        out = min_max_normalize(np.full((2, 5), 7.0))
        assert np.all(out == 0.0)

    def test_scale_invariance(self, rng):
        segment = rng.normal(size=30)
        np.testing.assert_allclose(
            min_max_normalize(segment), min_max_normalize(segment * 100 + 5)
        )


class TestZScore:
    def test_zero_mean_unit_std(self, rng):
        out = z_score_normalize(rng.normal(5.0, 3.0, size=1000))
        assert abs(out.mean()) < 1e-12
        assert out.std() == pytest.approx(1.0)

    def test_constant_maps_to_zero(self):
        assert np.all(z_score_normalize(np.full(10, 3.0)) == 0.0)


class TestConcatAxes:
    def test_stacks_segments(self):
        out = concat_axes([np.zeros(5), np.ones(5)])
        assert out.shape == (2, 5)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ShapeError):
            concat_axes([np.zeros(5), np.zeros(6)])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            concat_axes([])


class TestSignalGradients:
    def test_diff_semantics(self):
        signal = np.tile(np.array([1.0, 3.0, 2.0, 5.0]), (6, 1))
        grads = signal_gradients(signal)
        np.testing.assert_allclose(grads[0], [2.0, -1.0, 3.0])

    def test_shape(self):
        assert signal_gradients(np.zeros((6, 60))).shape == (6, 59)


def resample_one(values: np.ndarray, length: int) -> np.ndarray:
    """``resample_rows_to_length`` on a single row."""
    values = np.asarray(values, dtype=np.float64)
    return resample_rows_to_length(values[None], [values.size], length)[0]


def split_one(gradients: np.ndarray, width: int) -> np.ndarray:
    """``split_directions_batch`` on a single row: ``(2, width)``."""
    return split_directions_batch(np.asarray(gradients)[None], width)[0]


class TestResample:
    def test_identity_when_same_length(self):
        values = np.array([1.0, 5.0, 2.0])
        np.testing.assert_allclose(resample_one(values, 3), values)

    def test_endpoint_preserving(self):
        values = np.array([1.0, 2.0, 3.0, 10.0])
        out = resample_one(values, 7)
        assert out[0] == 1.0 and out[-1] == 10.0

    def test_empty_yields_zeros(self):
        np.testing.assert_array_equal(resample_one(np.array([]), 4), np.zeros(4))

    def test_single_value_repeats(self):
        np.testing.assert_array_equal(
            resample_one(np.array([3.0]), 4), np.full(4, 3.0)
        )

    def test_rejects_bad_length(self):
        with pytest.raises(ShapeError):
            resample_one(np.zeros(3), 0)


class TestSplitDirections:
    def test_sign_partition(self):
        grads = np.array([1.0, -2.0, 3.0, -4.0, 0.0])
        out = split_one(grads, 3)
        assert np.all(out[0] >= 0.0)
        assert np.all(out[1] < 0.0)

    def test_zero_counts_as_positive(self):
        out = split_one(np.array([0.0, -1.0]), 2)
        assert np.all(out[0] == 0.0)

    def test_all_positive_gives_zero_negative_row(self):
        out = split_one(np.array([1.0, 2.0, 3.0]), 4)
        assert np.all(out[1] == 0.0)


class TestGradientArray:
    def test_output_shape_matches_paper(self):
        """(6, 60) signal array -> (2, 6, 30) gradient array."""
        out = GradientFrontEnd().transform(
            np.random.default_rng(0).normal(size=(6, 60))
        )
        assert out.shape == (2, 6, 30)

    def test_custom_width(self):
        out = split_directions_batch(signal_gradients(np.zeros((6, 60))), 10)
        assert out.shape == (6, 2, 10)

    def test_batch_matches_single(self, rng):
        arrays = rng.normal(size=(3, 6, 60))
        frontend = GradientFrontEnd()
        batch = frontend.transform_batch(arrays)
        for idx in range(3):
            np.testing.assert_array_equal(batch[idx], frontend.transform(arrays[idx]))

    def test_batch_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            GradientFrontEnd().transform_batch(np.zeros((6, 60)))
