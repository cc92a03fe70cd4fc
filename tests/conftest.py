import inspect

import pytest

from q8family.characters import assemble_character_table
from q8family.cyclotomic import Cyclotomic
from q8family.groups import build_group, conjugacy_classes


def rebuilt(obj, **changes):
    """A new object of obj's class from obj's constructor fields, with changes applied.

    Every parameter of the constructor is read off obj unless changed; what
    the constructor does not take, such as a cache, starts afresh.
    """
    fields = inspect.signature(type(obj)).parameters
    if not changes.keys() <= fields.keys():
        raise TypeError(f"not constructor fields: {sorted(changes.keys() - fields.keys())}")
    return type(obj)(**{name: changes[name] if name in changes else getattr(obj, name)
                        for name in fields})


@pytest.fixture(scope="session")
def group3():
    return build_group(3)


@pytest.fixture(scope="session")
def classes3(group3):
    return conjugacy_classes(group3)


@pytest.fixture(scope="session")
def table3(classes3):
    return assemble_character_table(classes3)


@pytest.fixture(scope="session")
def table5():
    return assemble_character_table(conjugacy_classes(build_group(5)))


@pytest.fixture(scope="session")
def table7():
    return assemble_character_table(conjugacy_classes(build_group(7)))


@pytest.fixture
def built_cyclotomics(monkeypatch):
    """The prime of every Cyclotomic built while the test runs, in order."""
    built = []
    init = Cyclotomic.__init__

    def counted(self, p, counts):
        built.append(p)
        init(self, p, counts)

    monkeypatch.setattr(Cyclotomic, "__init__", counted)
    return built
