import numpy as np
import pytest

from alexkit import models
from alexkit.errors import KitError
from alexkit.io import (from_lower_triangle, load_space, lower_triangle,
                        save_space)


@pytest.fixture(scope="module")
def polygon():
    space, _ = models.gen_convex_polygon([(0, 0), (1, 0), (0.4, 0.8)], 0.1)
    return space


@pytest.mark.parametrize("metric_type", ["matrix", "euclidean"])
def test_round_trip_is_bit_identical(polygon, metric_type, tmp_path):
    path = tmp_path / "space.json"
    save_space(polygon, path, metric_type)
    back = load_space(path)
    assert back.dist.tobytes() == polygon.dist.tobytes()
    assert back.coords.tobytes() == polygon.coords.tobytes()
    assert (back.name, back.kappa, back.resolution) == (
        polygon.name, polygon.kappa, polygon.resolution)
    assert back.annotations == polygon.annotations
    assert list(back.subsets) == list(polygon.subsets)
    for name, sub in polygon.subsets.items():
        assert np.array_equal(back.subsets[name].indices, sub.indices)
        assert back.subsets[name].extremal_claim == sub.extremal_claim
    save_space(back, tmp_path / "again.json", metric_type)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_lower_triangle_is_row_major():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    assert lower_triangle(d) == [1.0, 2.0, 3.0]
    assert np.array_equal(from_lower_triangle([1.0, 2.0, 3.0], 3), d)


def test_wrong_triangle_length_refused():
    with pytest.raises(KitError, match="needs 3 entries, got 2"):
        from_lower_triangle([1.0, 2.0], 3)
