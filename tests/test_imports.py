"""Nine source gates over the package's modules.

* Every name a module imports is used in that module.  ``__init__.py`` is
  left out: its imports are the package's public API.
* Permutation composition has one primitive, ``perm.gather``: no module but
  ``perm.py`` composes by ``map(<x>.__getitem__, ...)`` or by
  ``operator.itemgetter``.
* d(H) and Unknown ranks have one owner, ``rank.py``: no other module
  names a rung of the d ladder (``_bracket``, ``_abelianization_d``,
  ``_prune``, ``_frattini``) or constructs ``UnknownRank(...)``, and
  ``statements.py`` does not import ``table.py``, so it reaches d and its
  bracket only through rank's public functions.
* One memo entry per result: each ``.memo(`` key literal (``"center"``,
  ``("sylow", p)``, ...) appears at exactly one call site in the package.
* No stranded code: every module-level private function or class, and
  every method of the element protocols ``_Table`` and ``_Perms``, is named
  somewhere in the package besides its definition.
* One commute test, on points: only ``perm.py`` defines a module-level
  ``commute``, and every call of it (``commute(...)`` or
  ``perm.commute(...)``) passes the points to decide on.  The element
  protocols' ``world.commute(a, b)`` methods are not calls of it.
* Proven orders have one owner, ``group.py``: no other module assigns an
  ``._order`` attribute.  A known order enters a group through the
  ``order`` argument of ``Group`` and ``Subgroup``, because the stabilizer
  chain stops verifying once it reaches that order.
* Parsers take ASCII digits only: no module calls ``str.isdigit`` (or
  ``isdecimal``, ``isnumeric``) or writes the regex class ``\\d``, which
  accept every Unicode digit that ``int()`` then reads.
* d(H) is a function of H alone: ``rank.py`` draws from one
  ``random.Random``, keyed by a string literal, and reads no ``.seed``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "centerbound"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names in string annotations such as "int | UnknownRank"
    annotations = [a for node in ast.walk(tree) for a in (
        getattr(node, "annotation", None), getattr(node, "returns", None))
        if a is not None]
    for node in (n for a in annotations for n in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            expr = ast.parse(node.value, mode="eval")
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_gate_sees_an_unused_import():
    assert _unused_imports(
        "import os\nfrom a import b, c as d, e\nx: 'e' = b('os')\n") == \
        ["d (line 2)", "os (line 1)"]


def _compositions(source: str) -> list[str]:
    """Lines that compose outside gather: map over a __getitem__, or any
    use of itemgetter."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "map" and node.args
                and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr == "__getitem__"):
            found.append(f"map(...__getitem__) (line {node.lineno})")
        elif ((isinstance(node, ast.Name) and node.id == "itemgetter")
              or (isinstance(node, ast.Attribute)
                  and node.attr == "itemgetter")
              or (isinstance(node, ast.alias)
                  and node.name == "itemgetter")):
            found.append(f"itemgetter (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "perm.py"],
                         ids=lambda p: p.name)
def test_one_composition_primitive(path):
    assert _compositions(path.read_text()) == []


def test_gate_sees_a_second_composition():
    assert _compositions(
        "from operator import itemgetter\n"
        "def f(p, q):\n"
        "    a = tuple(map(q.__getitem__, p))\n"
        "    b = itemgetter(*p)(q)\n"
        "    c = list(map(str, p))\n"
        "    return a, b, c\n") == [
        "itemgetter (line 1)", "itemgetter (line 4)",
        "map(...__getitem__) (line 3)"]
    assert _compositions((SRC / "perm.py").read_text()) != []


LADDER = ("_bracket", "_abelianization_d", "_prune", "_frattini")


def _rank_owned(source: str) -> list[str]:
    """Lines that name a rung of the d ladder or construct an UnknownRank."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in LADDER:
            found.append(f"{name} (line {node.lineno})")
        elif isinstance(node, ast.Call) and "UnknownRank" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            found.append(f"UnknownRank(...) (line {node.lineno})")
    return sorted(found)


def _table_imports(source: str) -> list[str]:
    """Lines that import the module table.py or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = ([node.module] if node.module
                     else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "table" for name in names):
            found.append(f"table (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rank.py"],
                         ids=lambda p: p.name)
def test_rank_owns_d_and_unknown(path):
    assert _rank_owned(path.read_text()) == []


def test_statements_reach_d_through_rank():
    assert _table_imports((SRC / "statements.py").read_text()) == []


def test_gate_sees_a_second_owner():
    assert _rank_owned(
        "from .rank import UnknownRank, _bracket, _prune as p\n"
        "from . import rank\n"
        "def f(w, h, gs):\n"
        "    if isinstance(h, UnknownRank):\n"
        "        return rank.UnknownRank('x', 1, 2)\n"
        "    return _bracket(w, h, gs), rank._frattini(w, gs, 2)\n"
        "def g(w, h):\n"
        "    return rank._abelianization_d(w, h, h.generators)\n") == [
        "UnknownRank(...) (line 5)", "_abelianization_d (line 8)",
        "_bracket (line 1)", "_bracket (line 6)", "_frattini (line 6)",
        "_prune (line 1)"]
    assert _rank_owned((SRC / "rank.py").read_text()) != []
    assert _table_imports(
        "from .table import _Perms\n"
        "from . import rank, table\n"
        "import centerbound.table as t\n"
        "from .rank import d_bracket\n") == [
        "table (line 1)", "table (line 2)", "table (line 3)"]
    assert _table_imports((SRC / "rank.py").read_text()) != []


def _memo_keys(source: str, where: str) -> list[tuple[str, str]]:
    """(key, place) for each .memo( call: the key's string literal, or the
    first one of a tuple key."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "memo" and node.args):
            key = node.args[0]
            if isinstance(key, ast.Tuple) and key.elts:
                key = key.elts[0]
            name = (key.value if isinstance(key, ast.Constant)
                    else ast.unparse(key))
            found.append((name, f"{where}:{node.lineno}"))
    return found


def _shared_memo_keys(sources: dict[str, str]) -> dict[str, list[str]]:
    places: dict[str, list[str]] = {}
    for where, source in sources.items():
        for name, place in _memo_keys(source, where):
            places.setdefault(name, []).append(place)
    return {name: at for name, at in places.items() if len(at) > 1}


def test_one_memo_entry_per_result():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _shared_memo_keys(sources) == {}
    assert sum(len(_memo_keys(source, where))
               for where, source in sources.items()) >= 15


def test_gate_sees_a_shared_memo_key():
    assert _shared_memo_keys({
        "a.py": "G.memo('center', f)\nG.memo(('sylow', p), g, elements=c)\n",
        "b.py": "def h(G):\n    return G.memo(('sylow', 2), k)\n"
                "H.memo('d', f)\n",
    }) == {"sylow": ["a.py:2", "b.py:2"]}


PROTOCOLS = ("_Table", "_Perms")


def _definitions(source: str, where: str) -> list[tuple[str, str]]:
    """(name, place) for each module-level private function or class, and
    each method or class attribute of a protocol class."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") and not node.name.startswith("__"):
            found.append((node.name, f"{where}:{node.lineno}"))
        if isinstance(node, ast.ClassDef) and node.name in PROTOCOLS:
            for item in node.body:
                names = ([item.name] if isinstance(item, ast.FunctionDef)
                         else [t.id for t in getattr(item, "targets", ())
                               if isinstance(t, ast.Name)])
                found += [(f"{node.name}.{name}", f"{where}:{item.lineno}")
                          for name in names if not name.startswith("__")]
    return found


def _stranded(sources: dict[str, str]) -> list[str]:
    """Definitions that no source reads by name (a load of a bare name or
    of an attribute).  It matches by name only, so a method with a generic
    name such as ``elements`` or ``size`` counts as used wherever any
    object's attribute of that name is read: for those the gate is weak."""
    loaded = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
    return sorted(f"{name} ({place})"
                  for where, source in sources.items()
                  for name, place in _definitions(source, where)
                  if name.rpartition(".")[2] not in loaded)


def test_no_stranded_code():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _stranded(sources) == []
    definitions = [d for where, source in sources.items()
                   for d in _definitions(source, where)]
    assert sum("." in name for name, _ in definitions) >= 16


def test_gate_sees_stranded_code():
    assert _stranded({
        "a.py": "def _used():\n    pass\n"
                "def _stranded():\n    pass\n"
                "class _Perms:\n"
                "    size = staticmethod(len)\n"
                "    order_of = staticmethod(len)\n"
                "    def kept(self):\n        return self.size([])\n"
                "    def dropped(self):\n        self.dropped_too = 1\n",
        "b.py": "from .a import _used, _stranded\n"
                "def f(w):\n    return _used(), w.kept()\n",
    }) == ["_Perms (a.py:5)", "_Perms.dropped (a.py:10)",
           "_Perms.order_of (a.py:7)", "_stranded (a.py:3)"]


def _commute_uses(source: str, owner: bool) -> list[str]:
    """A module-level commute defined outside its owner, and calls of
    commute, bare or as perm.commute, with fewer than three arguments."""
    tree = ast.parse(source)
    found = [f"def commute (line {node.lineno})" for node in tree.body
             if not owner and isinstance(node, ast.FunctionDef)
             and node.name == "commute"]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if ((isinstance(func, ast.Name) and func.id == "commute")
                or (isinstance(func, ast.Attribute) and func.attr == "commute"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "perm")):
            if len(node.args) + len(node.keywords) < 3:
                found.append(f"commute without points (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_commute_is_decided_on_points(path):
    assert _commute_uses(path.read_text(), path.name == "perm.py") == []


def test_gate_sees_a_second_commute_and_a_call_without_points():
    assert _commute_uses(
        "from . import perm\n"
        "def commute(a, b):\n"
        "    return a * b == b * a\n"
        "def f(a, b, w, pts):\n"
        "    return (commute(a, b), perm.commute(a, b), commute(a, b, pts),\n"
        "            w.commute(a, b), perm.commute(a, b, points=pts))\n",
        owner=False) == [
        "commute without points (line 5)", "commute without points (line 5)",
        "def commute (line 2)"]
    assert _commute_uses((SRC / "perm.py").read_text(), owner=False) != []


def _order_assignments(source: str) -> list[str]:
    """Lines that assign an ._order attribute, plainly, augmented, annotated
    or inside a tuple or list target."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for part in ast.walk(target):
                if isinstance(part, ast.Attribute) and part.attr == "_order":
                    found.append(f"._order = (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "group.py"],
                         ids=lambda p: p.name)
def test_group_owns_proven_orders(path):
    assert _order_assignments(path.read_text()) == []


def test_gate_sees_a_second_order_owner():
    assert _order_assignments(
        "def f(G, H, n):\n"
        "    G._order = n\n"
        "    H._order += 1\n"
        "    G._levels, H._order = None, n\n"
        "    K: int = H._order\n"
        "    G.order_ = H._order_bound()\n"
        "    G.x._order: int = 2\n") == [
        "._order = (line 2)", "._order = (line 3)", "._order = (line 4)",
        "._order = (line 7)"]
    assert _order_assignments((SRC / "group.py").read_text()) != []


def _unicode_digits(source: str) -> list[str]:
    """Lines that accept any Unicode digit as a decimal one: a call of
    str.isdigit, isdecimal or isnumeric, or a string literal holding the
    regex class \\d (which matches every Unicode digit unless re.ASCII)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("isdigit", "isdecimal", "isnumeric")):
            found.append(f"{node.func.attr}() (line {node.lineno})")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "\\d" in node.value):
            found.append(f"\\d (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parsers_take_ascii_digits_only(path):
    assert _unicode_digits(path.read_text()) == []


def test_gate_sees_a_unicode_digit():
    assert _unicode_digits(
        "import re\n"
        "def f(text, token):\n"
        "    m = re.match(r'\\d+', text)\n"
        "    n = re.fullmatch('[0-9]+', token)\n"
        "    return token.isdigit() or text[:1].isdecimal(), m, n\n"
        "DEGREE = re.compile(r'degree\\s+(\\d+)')\n") == [
        "\\d (line 3)", "\\d (line 6)", "isdecimal() (line 5)",
        "isdigit() (line 5)"]


def _unseeded_streams(source: str) -> list[str]:
    """In rank.py: every random stream but one keyed by a string literal,
    and every read of a .seed attribute (Config.seed and the like), so that
    d(H) depends on H alone."""
    found = []
    streams = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "Random" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            streams += 1
            args = node.args + [k.value for k in node.keywords]
            if not (len(args) == 1 and isinstance(args[0], ast.Constant)
                    and isinstance(args[0].value, str)):
                found.append(f"Random without a literal key "
                             f"(line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "seed":
            found.append(f".seed (line {node.lineno})")
    if streams != 1:
        found.append(f"{streams} random streams")
    return sorted(found)


def test_d_draws_from_one_fixed_stream():
    assert _unseeded_streams((SRC / "rank.py").read_text()) == []


def test_gate_sees_a_seeded_stream():
    assert _unseeded_streams(
        "import random\n"
        "from random import Random\n"
        "def f(config, H):\n"
        "    a = random.Random(config.seed)\n"
        "    b = Random(f'{H}:d')\n"
        "    c = random.Random('d-certificate')\n"
        "    return a, b, c, random.Random(x='fixed')\n") == [
        ".seed (line 4)", "4 random streams",
        "Random without a literal key (line 4)",
        "Random without a literal key (line 5)"]
    assert _unseeded_streams("import random\n") == ["0 random streams"]
