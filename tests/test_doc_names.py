"""The names the docs cite exist.

Every backticked dotted name in README.md (`sheaves.cover_system`), and
every double-backticked one in the sources of ``kfan`` (``Fan.meet_id``),
whose head is a ``kfan`` module or a class of one, must resolve: each
step an attribute, method, property or slot, a dataclass field, or an
attribute a method of the class assigns on ``self``.  A name whose head
is no ``kfan`` module or class (``functools.lru_cache``, ``fan.max_ids``)
is not checked.  So a retired or renamed function cannot stay cited.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import re

import kfan

HERE = os.path.dirname(__file__)
PACKAGE = os.path.dirname(kfan.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))
MODULES.remove("__init__")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+(?:\(\))?")


def module(name):
    return importlib.import_module(f"kfan.{name}")


CLASSES = {
    name: value
    for m in MODULES
    for name, value in vars(module(m)).items()
    if inspect.isclass(value) and value.__module__ == f"kfan.{m}"
}


def assigned_on_self(cls) -> set:
    """The attributes the methods of cls assign on ``self``, and its
    dataclass fields."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    for klass in cls.__mro__:
        if klass.__module__.startswith("kfan."):
            for node in ast.walk(ast.parse(inspect.getsource(klass).lstrip())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    if isinstance(node.value, ast.Name) and node.value.id == "self":
                        names.add(node.attr)
    return names


def resolves(name: str) -> bool | None:
    """Does the dotted name resolve?  None if its head is no ``kfan``
    module or class."""
    parts = name.removesuffix("()").split(".")
    if parts[0] == "kfan":
        parts = parts[1:]
        if parts[0] not in MODULES:
            return False
    if parts[0] in MODULES:
        obj = module(parts[0])
    elif parts[0] in CLASSES:
        obj = CLASSES[parts[0]]
    else:
        return None
    for part in parts[1:]:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif inspect.isclass(obj) and part == parts[-1] and part in assigned_on_self(obj):
            return True
        else:
            return False
    return True


def cited(text: str, quote: str) -> list:
    spans = re.findall(rf"(?<!`){quote}([^`\n]+?){quote}(?!`)", text)
    return [span for span in spans if DOTTED.fullmatch(span)]


def citations() -> list:
    """(where, name) of every dotted name the docs cite."""
    with open(os.path.join(HERE, os.pardir, "README.md")) as f:
        out = [("README.md", name) for name in cited(f.read(), "`")]
    for m in MODULES + ["__init__"]:
        with open(os.path.join(PACKAGE, f"{m}.py")) as f:
            out += [(f"kfan/{m}.py", name) for name in cited(f.read(), "``")]
    return out


def test_the_docs_cite_kfan_names():
    checked = [(where, name) for where, name in citations() if resolves(name) is not None]
    assert len(checked) > 80
    assert ("README.md", "sheaves.cover_system") in checked


def test_every_cited_kfan_name_resolves():
    unresolved = [(where, name) for where, name in citations() if resolves(name) is False]
    assert not unresolved, f"the docs cite names that do not exist: {unresolved}"


def test_a_retired_name_is_caught():
    assert resolves("sheaves._projected") and resolves("kfan.sheaves.RayStalk.chart")
    assert resolves("CechComplex.tuples") and resolves("JobReport.inputs")
    assert resolves("sheaves.split_rays") is False
    assert resolves("Subfan.assemble") is False
    assert resolves("functools.lru_cache") is None
