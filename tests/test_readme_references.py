"""The README names code that exists and states its constants as they are.

Four checks on the README's backticked spans:
- every `module.attr` (a `sheafsep` module and a dotted path in it, a
  call's arguments aside) resolves;
- every bare private name (`_name`) is an attribute of a `sheafsep`
  module or a member of one of its classes;
- every ALL-CAPS constant it names, bare or as `module.NAME`, is
  defined in some `sheafsep` module;
- every `` `NAME` = value `` it states (an integer, with thousands
  separators, or a power `a^b`) is the constant's value in the code.
So a README that still names a removed cache, helper or constant, or a
bound at its old value, fails here."""

import importlib
import inspect
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
MODULES = ("cli", "day", "errors", "fincat", "pred", "presheaf", "psl", "report", "seplogic",
           "site")
SPANS = re.findall(r"`([^`\n]+)`", README)
CONSTANT = r"_?[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+"


def _resolve(dotted):
    """The object a dotted path names in `sheafsep`; a bare name is looked
    up in every module.  Raises AttributeError when it names nothing."""
    *path, name = dotted.split(".")
    if not path:
        modules = [importlib.import_module(f"sheafsep.{m}") for m in MODULES]
        for module in modules:
            if hasattr(module, name):
                return getattr(module, name)
        raise AttributeError(name)
    obj = importlib.import_module(f"sheafsep.{path[0]}")
    for attr in path[1:] + [name]:
        obj = getattr(obj, attr)
    return obj


def _missing(names):
    out = []
    for name in sorted(names):
        try:
            _resolve(name)
        except AttributeError:
            out.append(name)
    return out


def test_every_named_module_attribute_resolves():
    pattern = re.compile(r"(?:sheafsep\.)?((?:%s)(?:\.\w+)+)" % "|".join(MODULES))
    named = {m[1] for span in SPANS if (m := pattern.match(span))}
    assert len(named) >= 20
    assert _missing(named) == []


def _member(name):
    """Whether some `sheafsep` module has this attribute, or some class
    defined in one has it as a class attribute or dataclass field, or
    as an attribute its methods set on `self`."""
    for module in (importlib.import_module(f"sheafsep.{m}") for m in MODULES):
        if hasattr(module, name):
            return True
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and (
                    hasattr(cls, name) or name in getattr(cls, "__dataclass_fields__", ())
                    or re.search(rf"\bself\.{name}\b", inspect.getsource(cls))):
                return True
    return False


def test_every_named_private_name_resolves():
    named = {span for span in SPANS if re.fullmatch(r"_\w+", span)}
    assert {"_close", "_star_bits", "_tables"} <= named
    assert [name for name in sorted(named) if not _member(name)] == []


def test_every_named_constant_exists():
    pattern = re.compile(r"(?:(?:%s)\.)?%s" % ("|".join(MODULES), CONSTANT))
    named = {span for span in SPANS if pattern.fullmatch(span)}
    assert {"MODELS_KEPT", "day.CELL_TABLE_BOUND"} <= named
    assert _missing(named) == []


def _value(text):
    base, _, power = text.replace(",", "").partition("^")
    return int(base) ** int(power) if power else int(base)


def test_every_stated_constant_has_its_value():
    stated = re.findall(r"`((?:\w+\.)?%s)` = (\d[\d,]*\d(?:\^\d+)?|\d(?:\^\d+)?)" % CONSTANT,
                        README)
    assert {"MODELS_KEPT", "day.CELL_TABLE_BOUND", "pred._SCAN_BITS"} <= {n for n, _ in stated}
    assert [(name, text) for name, text in stated if _resolve(name) != _value(text)] == []
