"""The numpy LCSS / EDR / DTW of repro.distance.fast, which the quality
experiment runs, against the pure-Python reference metrics."""

import pytest

from repro.datagen import generate_trucks
from repro.distance import fast
from repro.distance.dtw import dtw_distance
from repro.distance.edr import edr_distance
from repro.distance.lcss import lcss_distance
from repro.experiments import quality

MEASURES = ("LCSS", "EDR", "LCSS-I", "EDR-I", "DTW")


@pytest.fixture(scope="module")
def world():
    dataset = generate_trucks(
        5, samples_per_truck=25, seed=29, length_variation=0.5
    ).normalised()
    eps = dataset.max_spatial_std() / 4.0
    return dataset, eps


class TestQualityFallback:
    def test_fast_equals_reference_values(self, world):
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


def _reference_value(measure, query, tr, eps):
    if measure.endswith("-I"):
        query = quality._interpolated(query, tr)
    if measure.startswith("LCSS"):
        return lcss_distance(query, tr, eps)
    if measure.startswith("EDR"):
        return float(edr_distance(query, tr, eps))
    return dtw_distance(query, tr)


def test_quality_winners_match_between_paths(world):
    """The experiment picks the winners the reference metrics pick."""
    dataset, eps = world
    query = next(iter(dataset))
    for measure in MEASURES:
        want = min(
            dataset,
            key=lambda tr: (
                _reference_value(measure, query, tr, eps), tr.object_id
            ),
        ).object_id
        assert quality._most_similar_dp(measure, query, dataset, eps) == want
