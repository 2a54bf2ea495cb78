"""The election count (``election.tally``) as a table: which of a
cohort's announcements a round counts, and whom it names."""

from itertools import permutations

import pytest

from repro.core.election import tally

MEMBERS = ("node0", "node1", "node2")     # placement-preference order


def announcement(epoch, n_lst, node, seq):
    return f"c-{epoch}-{n_lst}-{node}-{seq:010d}"


@pytest.mark.parametrize("children, winner", [
    # a restarted node's old znode (its previous incarnation's session
    # has not expired yet) and its new one count once, by the latest:
    # node0 lost its unforced tail, so 2.10 is no longer its n.lst
    ([announcement(3, "2.10", "node0", 1),
      announcement(3, "2.5", "node0", 4),
      announcement(3, "2.7", "node1", 3)], "node1"),
    ([announcement(3, "2.10", "node0", 1),
      announcement(3, "2.5", "node0", 4)], None),
    # flat seed 29's round: node2's only znode is from an earlier
    # election, when its n.lst was 3.96; it holds 4.322 now
    ([announcement(2, "3.96", "node2", 5),
      announcement(3, "4.316", "node0", 9)], None),
    ([announcement(2, "3.96", "node2", 5),
      announcement(3, "4.316", "node0", 9),
      announcement(3, "4.322", "node2", 11)], "node2"),
    # a node that is not a member counts for nothing, however long its log
    ([announcement(3, "9.9", "node5", 2),
      announcement(3, "1.1", "node0", 3)], None),
    ([announcement(3, "9.9", "node5", 2),
      announcement(3, "1.1", "node0", 3),
      announcement(3, "1.0", "node1", 4)], "node0"),
    # the cohort's other children are not announcements
    (["epoch", "leader", announcement(3, "1.1", "node1", 3),
      announcement(3, "1.2", "node2", 7)], "node2"),
])
def test_a_round_counts_each_member_once_by_its_latest_of_this_epoch(
        children, winner):
    assert tally(children, 3, MEMBERS, 2) == winner


def test_a_tie_goes_to_the_earliest_member_whatever_the_order_read():
    tied = [announcement(3, "2.7", "node2", 1),
            announcement(3, "2.7", "node1", 2),
            announcement(3, "2.7", "node0", 3)]
    for children in permutations(tied):
        assert tally(list(children), 3, MEMBERS, 2) == "node0"
    assert tally(tied, 3, ("node1", "node2", "node0"), 2) == "node1"


def test_a_re_announcement_with_its_n_lst_unchanged_keeps_the_winner():
    """Two members that read the round before and after one of them
    announces again name the same winner, so neither waits for the
    other to claim."""
    before = [announcement(3, "2.7", "node1", 1),
              announcement(3, "2.7", "node2", 2)]
    after = before + [announcement(3, "2.7", "node1", 5)]
    assert tally(before, 3, MEMBERS, 2) == tally(after, 3, MEMBERS, 2) \
        == "node1"


def test_node_names_may_contain_the_separator():
    members = ("dc0-a", "dc1-b", "dc2-c")
    children = [announcement(4, "3.2", "dc1-b", 1),
                announcement(4, "3.1", "dc2-c", 2)]
    assert tally(children, 4, members, 2) == "dc1-b"
