"""Property-based tests for link-set and TimeSeries invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pseudonym
from repro.metrics import TimeSeries
from repro.privlink import Address

from .node_state import make_links


@st.composite
def pseudonym_lists(draw):
    values = draw(
        st.lists(st.integers(0, 1 << 40), min_size=0, max_size=12, unique=True)
    )
    return [
        Pseudonym(value=value, address=Address(value + 1), expires_at=100.0)
        for value in values
    ]


class TestLinkSetProperties:
    @given(samples=st.lists(pseudonym_lists(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_links_always_match_last_sample(self, samples):
        links = make_links([1, 2])
        for sample in samples:
            links.update_from_sample(sample)
        final = {p.value for p in links.pseudonym_links()}
        assert final == {p.value for p in samples[-1]}

    @given(samples=st.lists(pseudonym_lists(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_additions_minus_removals_equals_size(self, samples):
        links = make_links([])
        for sample in samples:
            links.update_from_sample(sample)
        assert (
            links.additions_total - links.replacements_total
            == links.pseudonym_degree()
        )

    @given(sample=pseudonym_lists())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_update(self, sample):
        links = make_links([])
        links.update_from_sample(sample)
        added, removed = links.update_from_sample(sample)
        assert (added, removed) == (0, 0)

    @given(sample=pseudonym_lists(), trusted=st.sets(st.integers(0, 50), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_out_degree_decomposition(self, sample, trusted):
        links = make_links(trusted)
        links.update_from_sample(sample)
        assert links.out_degree() == len(trusted) + len(sample)


class TestTimeSeriesProperties:
    @given(
        values=st.lists(
            st.floats(-100.0, 100.0, allow_nan=False), min_size=1, max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_mean_bounded_by_extremes(self, values):
        series = TimeSeries()
        for index, value in enumerate(values):
            series.append(float(index), value)
        tail = series.tail_mean(0.5)
        assert min(values) - 1e-9 <= tail <= max(values) + 1e-9

    @given(
        values=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=30
        ),
        threshold=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_time_to_reach_consistency(self, values, threshold):
        series = TimeSeries()
        for index, value in enumerate(values):
            series.append(float(index), value)
        crossing = series.time_to_reach(threshold, below=True)
        if crossing is None:
            assert all(value > threshold for value in values)
        else:
            index = int(crossing)
            assert values[index] <= threshold
            assert all(value > threshold for value in values[:index])
