"""Lazy-numpy behaviour of repro.distance.fast and the quality
experiment's pure-Python fallback."""

import pytest

from repro.datagen import generate_trucks
from repro.distance import fast
from repro.distance.dtw import dtw_distance
from repro.distance.edr import edr_distance
from repro.distance.lcss import lcss_distance
from repro.experiments import quality

from conftest import numpy_blocked

MEASURES = ("LCSS", "EDR", "LCSS-I", "EDR-I", "DTW")


@pytest.fixture(scope="module")
def world():
    dataset = generate_trucks(
        5, samples_per_truck=25, seed=29, length_variation=0.5
    ).normalised()
    eps = dataset.max_spatial_std() / 4.0
    return dataset, eps


class TestLazyImport:
    def test_have_numpy_true_in_test_env(self):
        pytest.importorskip("numpy")
        assert fast.have_numpy()

    def test_import_error_is_actionable(self, no_numpy):
        assert not fast.have_numpy()
        with pytest.raises(ImportError, match="pip install numpy"):
            fast._numpy()

    def test_module_functions_raise_without_numpy(self, no_numpy, world):
        dataset, _ = world
        with pytest.raises(ImportError, match="optional"):
            fast.coords(next(iter(dataset)))


class TestQualityFallback:
    def test_fast_equals_reference_values(self, world):
        pytest.importorskip("numpy")
        dataset, eps = world
        trs = list(dataset)[:3]
        for q in trs:
            qa = fast.coords(q)
            for tr in trs:
                ta = fast.coords(tr)
                assert fast.lcss_distance_fast(qa, ta, eps) == pytest.approx(
                    lcss_distance(q, tr, eps), abs=1e-12
                )
                assert fast.edr_distance_fast(qa, ta, eps) == edr_distance(
                    q, tr, eps
                )
                assert fast.dtw_distance_fast(qa, ta) == pytest.approx(
                    dtw_distance(q, tr), abs=1e-9
                )

def test_quality_winners_match_between_paths(world):
    """The experiment picks identical winners with and without numpy."""
    dataset, eps = world
    query = next(iter(dataset))
    fast_winners = {
        m: quality._most_similar_dp(m, query, dataset, eps) for m in MEASURES
    }
    with numpy_blocked():
        slow_winners = {
            m: quality._most_similar_dp(m, query, dataset, eps)
            for m in MEASURES
        }
    assert slow_winners == fast_winners
