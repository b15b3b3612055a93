import numpy as np
import pytest

from dualfilter.adapted import (
    AdaptedProcess,
    parse_prefix,
    prefix_string,
    prefixes,
)


def test_prefix_enumeration_is_dense_and_ordered():
    got = list(prefixes(1, 2))
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(prefixes(2, 0)) == [()]


def test_lookup_and_missing_prefix():
    proc = AdaptedProcess({(): 1.0, (0,): 2.0, (1,): 3.0})
    assert proc.at([1]) == 3.0
    with pytest.raises(ValueError, match="no value at prefix"):
        proc.at((2,))


def test_lookup_accepts_any_integer_token_sequence():
    proc = AdaptedProcess({(): 1.0, (0,): 2.0, (1, 0): 3.0})
    for key in [(1, 0), [1, 0], np.array([1, 0]), (np.int64(1), np.int64(0)), (1.0, 0.0), iter((1, 0))]:
        assert proc.at(key) == 3.0
    assert proc.at("") == 1.0 and proc.at([]) == 1.0
    for key, shown in [((1,), "(1,)"), ([0, 1], "(0, 1)"), (np.array([2]), "(2,)"), ((1.5,), "(1.5,)")]:
        with pytest.raises(ValueError) as err:
            proc.at(key)
        assert str(err.value) == f"adapted process has no value at prefix {shown}"


def test_levels_and_completeness():
    proc = AdaptedProcess.from_function(1, range(3), lambda _: np.array([1.0, 2.0]))
    assert sorted({len(k) for k in proc.tree}) == [0, 1, 2]
    proc.check_complete(1, range(3))
    with pytest.raises(ValueError, match="incomplete"):
        AdaptedProcess({(0,): 0.0}).check_complete(1, [1])


def test_completeness_names_first_incomplete_level():
    proc = AdaptedProcess.from_function(1, range(4), lambda _: np.array([1.0]))
    tree = dict(proc.tree)
    del tree[(1, 0)]
    del tree[(0, 1, 1)]
    with pytest.raises(ValueError) as err:
        AdaptedProcess(tree).check_complete(1, range(4))
    assert str(err.value) == "adapted process incomplete at level 2: 3 of 4 prefixes present"
    AdaptedProcess(tree).check_complete(1, [0, 1])


def test_constant_process_copies_values():
    value = np.array([1.0])
    proc = AdaptedProcess.from_function(1, [1], lambda _: value.copy())
    a, b = proc.at((0,)), proc.at((1,))
    assert a is not b
    np.testing.assert_array_equal(a, b)


def test_prefix_string_round_trip():
    assert prefix_string(()) == ""
    assert parse_prefix("") == ()
    for w in prefixes(2, 3):
        assert parse_prefix(prefix_string(w)) == w
