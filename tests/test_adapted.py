import numpy as np
import pytest

from dualfilter.adapted import (
    AdaptedProcess,
    prefix_rank,
    prefix_string,
    prefix_strings,
    prefixes,
    random_weight_process,
)

from conftest import scaled


def test_prefix_enumeration_is_dense_and_ordered():
    got = list(prefixes(1, 2))
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(prefixes(2, 0)) == [()]


def test_rank_is_the_row_in_prefix_order():
    for m in (1, 2, 3):
        for t in range(4):
            assert [prefix_rank(w, m) for w in prefixes(m, t)] == list(range((m + 1) ** t))


def test_lookup_and_missing_prefix():
    proc = AdaptedProcess(1, (np.array([1.0]), np.array([2.0, 3.0])))
    assert proc.at([1]) == 3.0
    with pytest.raises(ValueError, match="outside alphabet"):
        proc.at((2,))
    with pytest.raises(ValueError, match="no value at prefix"):
        proc.at((0, 1))


def test_lookup_accepts_any_integer_token_sequence():
    proc = AdaptedProcess(1, (np.array([1.0]), None, np.array([2.0, 2.5, 3.0, 3.5])))
    for key in [(1, 0), [1, 0], np.array([1, 0]), (np.int64(1), np.int64(0)), (1.0, 0.0), iter((1, 0))]:
        assert proc.at(key) == 3.0
    assert proc.at("") == 1.0 and proc.at([]) == 1.0
    assert proc.at([0, 1]) == 2.5
    for key, shown in [((1,), "(1,)"), ((0, 1, 1), "(0, 1, 1)")]:
        with pytest.raises(ValueError) as err:
            proc.at(key)
        assert str(err.value) == f"adapted process has no value at prefix {shown}"
    for key, text in [(np.array([2]), "token z_1 = 2 outside alphabet 0..1"),
                      ((1.5,), "token z_1 = 1.5 is not an integer"),
                      ((0, "1"), "token z_2 = '1' is not an integer"),
                      (7, "observation path must be a sequence of tokens, got 7")]:
        with pytest.raises(ValueError) as err:
            proc.at(key)
        assert str(err.value) == text


def test_level_rows_must_match_the_alphabet():
    AdaptedProcess(2, (None, np.zeros((3, 4))))
    assert AdaptedProcess(1, ([[1.0]], [[0.0], [2.0]])).at([1]).tolist() == [2.0]  # nested lists become arrays
    with pytest.raises(ValueError, match="level 1 must have 3 rows, got shape \\(2, 4\\)"):
        AdaptedProcess(2, (None, np.zeros((2, 4))))
    with pytest.raises(ValueError, match="level 0 must have 1 rows"):
        AdaptedProcess(2, (np.float64(1.0),))


def test_completeness_names_the_first_absent_level():
    proc = AdaptedProcess(1, (np.zeros((1, 2)), np.zeros((2, 2)), None, np.zeros((8, 2))))
    assert proc.check_complete(1, [0, 1, 3]) is proc
    with pytest.raises(ValueError) as err:
        proc.check_complete(1, range(5))
    assert str(err.value) == "adapted process incomplete: level 2 is absent"
    with pytest.raises(ValueError) as err:
        proc.check_complete(1, [4])
    assert str(err.value) == "adapted process incomplete: level 4 is absent"
    with pytest.raises(ValueError) as err:
        proc.check_complete(2, [])
    assert str(err.value) == "adapted process is over the alphabet 0..1, expected 0..2"


def test_tree_view_lists_the_levels_present_in_rank_order():
    proc = AdaptedProcess(1, (None, np.array([[1.0], [2.0]]), np.arange(4.0)))
    tree = proc.tree
    assert list(tree) == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert [float(np.ravel(v)[0]) for v in tree.values()] == [1.0, 2.0, 0.0, 1.0, 2.0, 3.0]
    assert AdaptedProcess(1, ()).tree == {}


def test_random_weights_draw_level_by_level_in_rank_order():
    proc = scaled(random_weight_process(np.random.default_rng(5), 2, 3), 0.5)
    rng = np.random.default_rng(5)
    for t in range(3):
        for w in prefixes(2, t):
            assert proc.at(w).tobytes() == (0.5 * rng.standard_normal(2)).tobytes()


def test_prefix_string_joins_digits():
    assert prefix_string(()) == ""
    assert prefix_string((1, 0, 2)) == "1.0.2"


@pytest.mark.parametrize("m, t", [(1, 0), (1, 3), (2, 4), (11, 2)])
def test_prefix_strings_are_each_prefix_string_in_rank_order(m, t):
    assert list(prefix_strings(m, t)) == [prefix_string(w) for w in prefixes(m, t)]
