from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envy_census import (
    Instance,
    InstanceFormatError,
    Valuation,
    bundle_of,
    check_monotone,
    complement,
    derive_seed,
    instance_from_dict,
    instance_to_dict,
    iter_items,
    load_instance,
    make_additive,
    random_instance,
    random_monotone,
    save_instance,
    tight_ef1_instance,
    tight_efx_instance,
)

from oracles import additive_map, bundle_items


def test_bundle_helpers():
    assert bundle_of([0, 2]) == 5
    assert list(iter_items(0b1101)) == [0, 2, 3]
    assert complement(complement(6, 4), 4) == 6
    assert complement(0, 3) == 7


def test_value_examples():
    v = make_additive([1, 1, 3])
    assert v.value(bundle_of([0, 1])) == 2
    assert v.value(0) == 0
    assert v.value(bundle_of([0, 1, 2])) == 5


def test_value_rejects_out_of_range_bundles():
    v = make_additive([1, 1])
    with pytest.raises(ValueError):
        v.value(4)
    with pytest.raises(ValueError):
        v.value(-1)
    with pytest.raises(TypeError):
        v.value(1.5)


def test_make_additive_tables():
    assert list(make_additive([1, 1]).table) == [0, 1, 1, 2]
    assert list(make_additive([0]).table) == [0, 0]
    v = make_additive([1, 1, 3])
    assert v.value(bundle_of([2])) == 3
    assert v.value(bundle_of([0, 1])) == 2


def test_make_additive_rejects_bad_input():
    with pytest.raises(ValueError):
        make_additive([1, -1])
    with pytest.raises(ValueError):
        make_additive([])


def test_make_additive_exact_fractions():
    v = make_additive(["1/3", "0.5"])
    assert v.value(0b01) == Fraction(1, 3)
    assert v.value(0b11) == Fraction(5, 6)
    assert v.denom == 6


def test_make_additive_matches_direct_sums():
    values = [3, 0, 7, 2, 5]
    v = make_additive(values)
    u = additive_map(values, 5)
    for bits in range(1 << 5):
        assert v.value(bits) == u[bundle_items(bits, 5)]


@given(st.lists(st.integers(0, 50), min_size=1, max_size=6), st.data())
def test_additive_is_additive_on_disjoint_bundles(values, data):
    v = make_additive(values)
    m = len(values)
    a = data.draw(st.integers(0, (1 << m) - 1))
    rest = complement(a, m)
    b = data.draw(st.integers(0, (1 << m) - 1).map(lambda x: x & rest))
    assert v.value(a | b) == v.value(a) + v.value(b)


def test_check_monotone_examples():
    assert check_monotone(make_additive([1, 1]).table) is None
    violation = check_monotone([0, 2, 0, 1])
    assert violation is not None
    assert (violation.subset, violation.superset) == (1, 3)
    violation = check_monotone([1, 1])
    assert violation is not None
    assert (violation.subset, violation.superset) == (0, 0)
    with pytest.raises(ValueError):
        check_monotone([0, 1, 2])


def test_check_monotone_object_dtype_path():
    table = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    violation = check_monotone(table)
    assert violation is not None
    assert violation.superset == violation.subset | violation.superset
    assert table[violation.subset] > table[violation.superset]
    assert check_monotone([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]) is None


def test_valuation_rejects_non_monotone_tables():
    with pytest.raises(ValueError, match="monotone"):
        Valuation(2, np.array([0, 2, 0, 1]))
    with pytest.raises(ValueError, match="expected 0"):
        Valuation(1, np.array([1, 1]))
    with pytest.raises(ValueError):
        Valuation(2, np.array([0, 1, 1]))
    with pytest.raises(ValueError):
        Valuation(0, np.array([0]))
    with pytest.raises(ValueError, match="item count"):
        Valuation(True, np.array([0, 1]))


def test_valuation_table_is_frozen():
    v = make_additive([1, 1])
    with pytest.raises(ValueError):
        v.table[1] = 7


def test_random_monotone_is_reproducible():
    a = random_monotone(6, 42)
    b = random_monotone(6, 42)
    assert np.array_equal(a.table, b.table)
    assert a.denom == b.denom
    c = random_monotone(6, 43)
    assert not np.array_equal(a.table, c.table)


def test_random_monotone_passes_checks():
    for seed in range(5):
        v = random_monotone(5, seed)
        assert check_monotone(v.table) is None
        assert v.table[0] == 0
        assert v.table[-1] == v.table.max()
    with pytest.raises(ValueError):
        random_monotone(0, 1)
    with pytest.raises(ValueError):
        random_monotone(25, 1)


@given(st.integers(1, 6), st.integers(0, 2**63 - 1))
@settings(max_examples=30, deadline=None)
def test_random_monotone_property(m, seed):
    v = random_monotone(m, seed)
    assert check_monotone(v.table) is None
    assert np.array_equal(v.table, random_monotone(m, seed).table)


def test_tight_ef1_instances():
    inst = tight_ef1_instance(4)
    assert inst.v1.item_values == tuple(Fraction(1) for _ in range(4))
    assert np.array_equal(inst.v1.table, inst.v2.table)
    assert tight_ef1_instance(5).v1.item_values == (1, 1, 1, 1, 0)
    assert tight_ef1_instance(1).v1.item_values == (0,)
    with pytest.raises(ValueError):
        tight_ef1_instance(0)


def test_tight_efx_instances():
    assert tight_efx_instance(3).v1.item_values == (1, 1, 3)
    assert tight_efx_instance(5).v1.item_values == (1, 1, 1, 1, 5)
    assert tight_efx_instance(1).v1.item_values == (1,)


def test_instance_requires_matching_m():
    with pytest.raises(ValueError):
        Instance(make_additive([1]), make_additive([1, 1]))


def test_derive_seed_stability():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert 0 <= derive_seed(-5, 7) < 1 << 64


def test_random_instance_agents_differ():
    inst = random_instance(6, 9)
    assert not np.array_equal(inst.v1.table, inst.v2.table)
    again = random_instance(6, 9)
    assert np.array_equal(inst.v1.table, again.v1.table)
    assert np.array_equal(inst.v2.table, again.v2.table)


def test_instance_json_roundtrip_additive(tmp_path):
    inst = Instance(make_additive([1, 1, 3]), make_additive(["1/3", 2, 0]))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert np.array_equal(loaded.v1.table, inst.v1.table)
    assert loaded.v2.denom == inst.v2.denom
    assert np.array_equal(loaded.v2.table, inst.v2.table)
    assert loaded.v2.item_values == inst.v2.item_values


def test_instance_json_roundtrip_random_table(tmp_path):
    inst = random_instance(5, 31)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    for orig, back in ((inst.v1, loaded.v1), (inst.v2, loaded.v2)):
        for bits in range(1 << 5):
            assert orig.value(bits) == back.value(bits)


def test_instance_dict_roundtrip_float_values():
    data = {
        "m": 2,
        "agents": [
            {"kind": "additive", "values": [0.25, 1]},
            {"kind": "table", "values": [0, 0.5, 0.5, 0.5]},
        ],
    }
    inst = instance_from_dict(data)
    assert inst.v1.value(0b01) == Fraction(1, 4)
    assert inst.v2.value(0b11) == Fraction(1, 2)
    back = instance_to_dict(inst)
    assert back["agents"][0]["values"] == ["1/4", 1]


@pytest.mark.parametrize(
    "data",
    [
        [1, 2],
        {"m": 0, "agents": []},
        {"m": 2, "agents": [{"kind": "additive", "values": [1, 1]}]},
        {"m": 2, "agents": [{"kind": "additive", "values": [1]}, {"kind": "additive", "values": [1, 1]}]},
        {"m": 2, "agents": [{"kind": "table", "values": [0, 1, 1]}, {"kind": "additive", "values": [1, 1]}]},
        {"m": 2, "agents": [{"kind": "weird", "values": [1, 1]}, {"kind": "additive", "values": [1, 1]}]},
        {"m": 2, "agents": [{"values": [1, 1]}, {"kind": "additive", "values": [1, 1]}]},
        {"m": 2, "agents": [{"kind": "additive", "values": [1, -1]}, {"kind": "additive", "values": [1, 1]}]},
        {"m": True, "agents": [{"kind": "additive", "values": [1]}, {"kind": "additive", "values": [1]}]},
        {"m": 2, "agents": [{"kind": "additive", "values": ["inf", 1]}, {"kind": "additive", "values": [1, 1]}]},
    ],
)
def test_instance_from_dict_rejects_bad_schemas(data):
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)


def test_instance_from_dict_names_offending_pair():
    data = {
        "m": 2,
        "agents": [
            {"kind": "table", "values": [0, 2, 0, 1]},
            {"kind": "additive", "values": [1, 1]},
        ],
    }
    with pytest.raises(InstanceFormatError, match="bundle 1 .* superset 3"):
        instance_from_dict(data)
