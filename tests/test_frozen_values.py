"""Every package class that compares by value and hashes refuses to have a
public field assigned: a value changed in place would change its hash under
any set or dict holding it."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import bccover
from bccover import Biclique, clique_tree, gen_copath
from bccover._record import FrozenRecord
from bccover.bounds import BoundEntry, BpBcWindow
from bccover.gen import path_tree
from bccover.oracle import DEFAULT_VALUE_BUDGET

# one sample instance per hashable value class of the package
SAMPLES = {
    "FrozenRecord": FrozenRecord,
    "BpBcWindow": lambda: BpBcWindow(3, 2),
    "BoundEntry": lambda: BoundEntry(2, "exact"),
    "CliqueTree": lambda: clique_tree(gen_copath(5).graph.complement()),
    "Biclique": lambda: Biclique([0, 1], [2]),
    "NamedInstance": lambda: gen_copath(5),
    "Graph": lambda: gen_copath(5).graph,
    "OracleBudget": lambda: DEFAULT_VALUE_BUDGET,
    "Tree": lambda: path_tree(3),
}


def _hashable_value_classes():
    """Name -> class, for each class defined in a package module that has
    its own value ``__eq__`` and a ``__hash__``."""
    found = {}
    for info in pkgutil.iter_modules(bccover.__path__):
        module = importlib.import_module("bccover." + info.name)
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and value.__eq__ is not object.__eq__
                    and value.__hash__ is not None):
                found[value.__name__] = value
    return found


CLASSES = _hashable_value_classes()


def _public_slots(cls):
    return [name for c in cls.__mro__ for name in getattr(c, "__slots__", ())
            if not name.startswith("_")]


def test_every_hashable_value_class_has_a_sample():
    assert len(CLASSES) >= 8
    assert sorted(CLASSES) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_assigning_a_public_field_is_refused(name):
    cls = CLASSES[name]
    value = SAMPLES[name]()
    assert type(value) is cls
    before = copy.deepcopy(value)
    for slot in _public_slots(cls):
        field = getattr(value, slot)
        with pytest.raises(AttributeError):
            setattr(value, slot, 7)
        assert getattr(value, slot) is field
        assert value == before


def test_a_tree_in_a_set_stays_found():
    t = path_tree(3)
    s = {t}
    with pytest.raises(AttributeError):
        t.n = 7
    assert t in s and t.n == 3


@pytest.mark.parametrize("name", ["Graph", "Tree"])
def test_graph_and_tree_are_frozen_records(name):
    # equality, hashing and the refusal come from one base; copy and pickle
    # give back an equal value with the same repr
    cls = CLASSES[name]
    assert issubclass(cls, FrozenRecord)
    assert not {"__eq__", "__hash__", "__setattr__"} & set(vars(cls))
    value = SAMPLES[name]()
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value) and type(twin) is cls
