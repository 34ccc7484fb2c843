"""Tests for the per-node link set."""

import pytest

from repro.core import LinkTarget, Pseudonym
from repro.errors import ProtocolError
from repro.privlink import Address

from .node_state import make_links, make_node_state


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


class TestSameSampleNoOp:
    """Re-syncing to the list last synced to is free, and only then."""

    def test_same_list_is_a_no_op(self):
        links = make_links([])
        sample = [_pseudonym(10), _pseudonym(11)]
        assert links.update_from_sample(sample) == (2, 0)
        version = links.version
        assert links.update_from_sample(sample) == (0, 0)
        assert links.version == version
        assert (links.additions_total, links.replacements_total) == (2, 0)

    def test_slot_change_hands_over_a_new_list(self, rng):
        slots, links = make_node_state(4, rng)
        slots.offer_batch([_pseudonym(10, expires_at=5.0)])
        first = slots.sample()
        assert links.update_from_sample(first) == (1, 0)
        assert slots.sample() is first
        # offer_batch changes a slot: a new list, a full re-sync.
        assert slots.offer_batch([_pseudonym(10, expires_at=50.0)]) == 4
        second = slots.sample()
        assert second is not first
        assert links.update_from_sample(second) == (1, 1)
        # So does expire().
        assert slots.expire(60.0) == 4
        third = slots.sample()
        assert third is not second and third == []
        assert links.update_from_sample(third) == (0, 1)
        assert links.pseudonym_degree() == 0

    def test_an_offer_that_changes_nothing_keeps_the_list(self, rng):
        slots, links = make_node_state(4, rng)
        slots.offer_batch([_pseudonym(10)])
        sample = slots.sample()
        links.update_from_sample(sample)
        assert slots.offer_batch([_pseudonym(10)]) == 0
        assert slots.expire(1.0) == 0
        assert slots.sample() is sample

    def test_non_list_iterables_always_run_in_full(self):
        links = make_links([])
        entries = (_pseudonym(10), _pseudonym(11))
        assert links.update_from_sample(entries) == (2, 0)
        # The tuple is remembered by nobody: handing it again runs the
        # full comparison (which finds nothing to do) ...
        assert links._synced_sample is None
        assert links.update_from_sample(entries) == (0, 0)
        # ... and a spent generator is an empty sample, not a no-op.
        spent = iter(entries)
        assert links.update_from_sample(spent) == (0, 0)
        assert links.update_from_sample(spent) == (0, 2)
        assert links.pseudonym_degree() == 0
