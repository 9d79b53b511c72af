import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import colorfault
from colorfault.generators import gen_random
from colorfault.schemes import SCHEMES
from colorfault.sketch import DEFAULT_REPETITIONS


def test_every_exported_name_resolves():
    # a name left in __all__ after its object is gone fails only on `import *`
    missing = [name for name in colorfault.__all__ if not hasattr(colorfault, name)]
    assert missing == []
    assert len(set(colorfault.__all__)) == len(colorfault.__all__)


def _dataclasses():
    for info in pkgutil.iter_modules(colorfault.__path__):
        module = importlib.import_module(f"colorfault.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                yield obj


def test_every_record_is_slotted():
    # a record with a per-instance __dict__ costs a pointer chase on every field read
    records = list(_dataclasses())
    assert len(records) >= 36
    for cls in records:
        assert "__slots__" in vars(cls), cls.__qualname__
        assert not hasattr(object.__new__(cls), "__dict__"), cls.__qualname__


@pytest.mark.parametrize("name", list(SCHEMES))
def test_label_set_pickle_round_trip(name):
    # `cfl label -o` writes label sets as pickles
    g = gen_random(24, 40, 4, seed=11, connected=True)
    ls = SCHEMES[name].build(g, f=2, seed=3, repetitions=DEFAULT_REPETITIONS)
    back = pickle.loads(pickle.dumps(ls))
    assert back == ls
    assert back.vertex_bits() == ls.vertex_bits()
    assert [lc.bits for lc in back.color_labels] == [lc.bits for lc in ls.color_labels]
