import inspect
import json

import pytest

from q8family import cli
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


def assert_edit_rebuilt(cache_dir, capsys, p, fmt, edit):
    """A cache document for p given edit(doc) is rejected, rebuilt and rewritten.

    The run prints the genuine table in fmt and one `cache rejected` line
    on stderr, which is returned.
    """
    cache = str(cache_dir)
    assert cli.main(["table", "--prime", str(p), "--format", "json", "--cache", cache]) == 0
    stored = capsys.readouterr().out
    assert cli.main(["table", "--prime", str(p), "--format", fmt]) == 0
    genuine = capsys.readouterr().out
    path = cache_dir / f"table_p{p}.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n")

    assert cli.main(["table", "--prime", str(p), "--format", fmt, "--cache", cache]) == 0
    captured = capsys.readouterr()
    assert captured.out == genuine
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"cache rejected: {path}: ")
    assert path.read_text() == stored
    return captured.err
