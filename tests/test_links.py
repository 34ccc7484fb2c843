"""Tests for the per-node link set."""

import pytest

from repro.core import LinkTarget, Pseudonym
from repro.errors import ProtocolError
from repro.privlink import Address

from .node_state import make_links


def _pseudonym(value, expires_at=100.0):
    return Pseudonym(value=value, address=Address(value), expires_at=expires_at)


class TestLinkTarget:
    def test_exactly_one_field(self):
        with pytest.raises(ProtocolError):
            LinkTarget()
        with pytest.raises(ProtocolError):
            LinkTarget(node_id=1, pseudonym=_pseudonym(2))

    def test_trusted_flag(self):
        assert LinkTarget(node_id=1).is_trusted
        assert not LinkTarget(pseudonym=_pseudonym(1)).is_trusted


class TestLinkSet:
    def test_trusted_links_static(self):
        links = make_links([3, 1, 2])
        assert links.trusted == {1, 2, 3}
        assert links.trusted_degree == 3
        assert links.out_degree() == 3

    def test_update_from_sample_adds(self):
        links = make_links([1])
        added, removed = links.update_from_sample([_pseudonym(10), _pseudonym(11)])
        assert added == 2
        assert removed == 0
        assert links.pseudonym_degree() == 2
        assert links.out_degree() == 3

    def test_update_from_sample_removes(self):
        links = make_links([])
        links.update_from_sample([_pseudonym(10), _pseudonym(11)])
        added, removed = links.update_from_sample([_pseudonym(11)])
        assert added == 0
        assert removed == 1
        assert links.pseudonym_degree() == 1

    def test_unchanged_sample_counts_nothing(self):
        links = make_links([])
        links.update_from_sample([_pseudonym(10)])
        added, removed = links.update_from_sample([_pseudonym(10)])
        assert (added, removed) == (0, 0)

    def test_renewed_pseudonym_counts_as_replacement(self):
        links = make_links([])
        links.update_from_sample([_pseudonym(10, expires_at=5.0)])
        renewed = Pseudonym(value=10, address=Address(99), expires_at=50.0)
        added, removed = links.update_from_sample([renewed])
        assert (added, removed) == (1, 1)
        assert links.pseudonym_links()[0].address == Address(99)

    def test_replacement_counter_accumulates(self):
        links = make_links([])
        links.update_from_sample([_pseudonym(1), _pseudonym(2)])
        links.update_from_sample([_pseudonym(3)])
        assert links.replacements_total == 2  # both 1 and 2 removed
        assert links.additions_total == 3

    def test_has_pseudonym_link(self):
        links = make_links([])
        entry = _pseudonym(5)
        links.update_from_sample([entry])
        assert links.has_pseudonym_link(entry)
        other_expiry = Pseudonym(value=5, address=Address(5), expires_at=1.0)
        assert not links.has_pseudonym_link(other_expiry)

    def test_all_targets(self):
        links = make_links([2, 1])
        links.update_from_sample([_pseudonym(9)])
        targets = links.all_targets()
        assert [t.node_id for t in targets if t.is_trusted] == [1, 2]
        assert len([t for t in targets if not t.is_trusted]) == 1

    def test_pick_random_target_none_when_empty(self, rng):
        assert make_links([]).pick_random_target(rng) is None

    def test_pick_random_target_uniform(self, rng):
        links = make_links([0, 1])
        links.update_from_sample([_pseudonym(10), _pseudonym(11)])
        counts = {"trusted": 0, "pseudonym": 0}
        for _ in range(2000):
            target = links.pick_random_target(rng)
            counts["trusted" if target.is_trusted else "pseudonym"] += 1
        # 2 trusted vs 2 pseudonym links: expect roughly 50/50.
        assert 0.4 < counts["trusted"] / 2000 < 0.6
