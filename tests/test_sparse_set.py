import pytest
from hypothesis import given, strategies as st

from lexenum import SparseStateSet


def test_new_set_is_empty():
    s = SparseStateSet(4)
    assert len(s) == 0
    assert list(s) == []
    assert bytes(s.membership) == bytes(4)


def test_insert_is_idempotent():
    s = SparseStateSet(5)
    s.insert(3)
    s.insert(3)
    assert s.elements == [3]
    assert 3 in s and 2 not in s


def test_iteration_is_insertion_order():
    s = SparseStateSet(6)
    for q in (4, 0, 5, 0, 2):
        s.insert(q)
    assert list(s) == [4, 0, 5, 2]


def test_copy_is_independent():
    s = SparseStateSet(3)
    s.insert(1)
    dup = s.copy()
    dup.insert(2)
    assert list(s) == [1]
    assert list(dup) == [1, 2]


def test_insert_past_capacity_raises():
    s = SparseStateSet(2)
    with pytest.raises(IndexError):
        s.insert(2)


@given(st.lists(st.integers(0, 7), max_size=60))
def test_membership_and_elements_agree(script):
    s = SparseStateSet(8)
    model = []
    for q in script:
        s.insert(q)
        if q not in model:
            model.append(q)
    assert s.elements == model
    assert [bool(b) for b in s.membership] == [q in model for q in range(8)]
