from itertools import product

import pytest

from rbfam.errors import InputError
from rbfam.semigroups import builtin, validate_semigroup


def test_trivial_monoid():
    sg = validate_semigroup([[0]])
    assert sg.size == 1 and sg.unit == 0


def test_cyclic_two():
    sg = builtin("cyclic", 2)
    assert sg.unit == 0
    assert sg.table == ((0, 1), (1, 0))
    assert validate_semigroup([list(r) for r in sg.table]).unit == 0


def test_left_zero_has_no_unit():
    table = [[a for _ in range(2)] for a in range(2)]
    # left-zero products are associative: (a b) c = a = a (b c), checked
    # exhaustively before trusting the validator
    for a, b, c in product(range(2), repeat=3):
        assert table[table[a][b]][c] == table[a][table[b][c]]
    sg = validate_semigroup(table)
    assert sg.unit is None


def test_boolean_monoid():
    sg = builtin("boolean_monoid")
    assert sg.size == 2 and sg.unit == 0
    assert sg.mul(1, 1) == 1  # idempotent non-unit element


@pytest.mark.parametrize("name,param", [("trivial", None), ("cyclic", 3), ("left_zero", 3), ("right_zero", 2), ("boolean_monoid", None)])
def test_catalog_revalidates(name, param):
    sg = builtin(name, param)
    again = validate_semigroup([list(r) for r in sg.table])
    assert again.table == sg.table and again.unit == sg.unit


def test_unit_detection_matches_exhaustive_scan():
    for name, param in [("cyclic", 4), ("left_zero", 3), ("right_zero", 3), ("boolean_monoid", None)]:
        sg = builtin(name, param)
        units = [
            e
            for e in range(sg.size)
            if all(sg.mul(e, a) == a and sg.mul(a, e) == a for a in range(sg.size))
        ]
        assert (sg.unit in units) if units else (sg.unit is None)
        assert len(units) <= 1


def test_rejects_non_associative_with_triple():
    # a * b = b except 1 * 1 = 0: (1*1)*1 = 0*1 = 1 but 1*(1*1) = 1*0 = 0
    with pytest.raises(InputError) as err:
        validate_semigroup([[0, 1], [0, 0]])
    assert "(" in str(err.value) and "associative" in str(err.value)


def test_rejects_bad_tables():
    with pytest.raises(InputError):
        validate_semigroup([])
    with pytest.raises(InputError):
        validate_semigroup([[0, 1]])
    with pytest.raises(InputError):
        validate_semigroup([[0, 2], [1, 0]])
    with pytest.raises(InputError):
        builtin("cyclic", 0)
    with pytest.raises(InputError):
        builtin("unknown")


def test_fold_product():
    sg = builtin("cyclic", 3)
    assert sg.product([1, 1, 1]) == 0
    assert sg.product([2]) == 2
