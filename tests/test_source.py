"""Static checks on the package source."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import seeded
from hypothesis import given
from hypothesis import strategies as st

from heisenberg_ncg.algebra import GroupElement, group_product

SOURCES = sorted((Path(__file__).parents[1] / "src" / "heisenberg_ncg").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []


def _imported(nodes) -> set[str]:
    """Modules that these statements import; one of this package as '.name'."""
    modules = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "." if node.level else ""
            names = [node.module] if node.module else [alias.name for alias in node.names]
            modules.update(prefix + name for name in names)
    return modules


def test_fredholm_imports_no_float_library():
    # both odd pairings are exact: no import of numpy or scipy, at any depth
    tree = ast.parse((SOURCES[0].parent / "fredholm.py").read_text())
    assert {m.split(".")[0] for m in _imported(ast.walk(tree))} & {"numpy", "scipy"} == set()


def test_no_module_imports_dataclasses():
    # records are NamedTuples or __slots__ classes: `dataclasses` pulls in
    # inspect, ast and dis, and execs generated methods, at every start
    users = [path.name for path in SOURCES
             if "dataclasses" in _imported(ast.walk(ast.parse(path.read_text())))]
    assert users == []


def test_cli_imports_at_top_level_only_the_standard_library_and_algebra():
    # every other package module is imported by the handlers that run it
    top = _imported(ast.parse((SOURCES[0].parent / "cli.py").read_text()).body)
    assert {m for m in top if m.startswith(".")} == {".algebra"}
    assert sorted(m for m in top if not m.startswith(".")
                  and m.split(".")[0] not in sys.stdlib_module_names) == []


def test_cli_prints_only_where_a_whole_document_is_ready():
    # `_emit` prints a document only once all of it has rendered, and
    # `cmd_report` its own table; `_print_timings` and `run` write stderr
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text())
    printers = {
        getattr(top, "name", None)  # None for a print outside any function
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    }
    assert printers == {"_emit", "_print_timings", "cmd_report", "run"}


def test_cli_catches_only_in_its_plumbing():
    # `run` maps exceptions to exit codes and words their lines; elsewhere
    # cli.py catches only what it parses
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text())
    catchers = {
        getattr(top, "name", None)  # None for a try outside any function
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Try)
    }
    assert catchers == {"_is_file", "_load_json", "_parse", "_integer", "_angle", "run", "main"}


def test_only_the_cli_words_the_int_string_limit():
    # the library and the parsers let Python's digit-limit error propagate;
    # `cli.run` drops its advice, held once, in `_INT_LIMIT_ADVICE`
    getters = [path.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "get_int_max_str_digits"]
    assert getters == []
    mentions = [(path.name, line.split(" = ")[0]) for path in SOURCES
                for line in path.read_text().splitlines() if "set_int_max_str_digits" in line]
    assert mentions == [("cli.py", "_INT_LIMIT_ADVICE")]


def test_cli_holds_no_integer_rule():
    # exponents are checked by `algebra._exponents`, through `GroupElement`
    # and `element_from_dict`; the cli checks only the JSON shape
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text())
    classes = {name.id for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
               for name in ast.walk(node.args[1]) if isinstance(name, ast.Name)}
    assert classes & {"int", "bool"} == set()


def test_the_dirac_engine_transforms_only_through_the_traced_entry_points():
    # bench/spans.py counts `chern.fft` by wrapping scipy.fft's fft2 and
    # ifft2; the probe path's transforms are 1-D, so they name one axis
    tree = ast.parse((SOURCES[0].parent / "chern.py").read_text())
    engine = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_DiracEngine")
    calls = [(method.name, node) for method in engine.body if isinstance(method, ast.FunctionDef)
             for node in ast.walk(method) if isinstance(node, ast.Call)
             and "fft" in getattr(node.func, "attr", getattr(node.func, "id", ""))]
    assert {ast.unparse(node.func) for _, node in calls} == {"sfft.fft2", "sfft.ifft2"}
    for name, node in calls:
        if name != "__init__":  # which builds the symbol by one 2-D transform
            (axes,) = [k.value for k in node.keywords if k.arg == "axes"]
            assert isinstance(axes, ast.Tuple) and len(axes.elts) == 1


# Exponents whose products stay far inside int64.
EXPONENT_PAIRS = st.lists(st.lists(st.integers(-2**20, 2**20), min_size=6, max_size=6),
                          min_size=1, max_size=20)


@seeded()
@given(EXPONENT_PAIRS)
def test_group_product_on_arrays_is_the_group_element_product(pairs):
    # one group law: a batch of int64 triples gives, pair by pair, the
    # product of two GroupElements, whose fields are ints
    g, h = np.array(pairs, dtype=np.int64).reshape(-1, 2, 3).transpose(1, 2, 0)
    products = [GroupElement(*a[:3]) * GroupElement(*a[3:]) for a in pairs]
    assert all(type(e) is int for x in products for e in x.as_tuple())
    assert np.stack(group_product(g, h), axis=-1).tolist() == [list(x.as_tuple()) for x in products]


def test_cli_defines_no_bound():
    # every work bound lives in the library function it guards
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text())
    assert [name for s in tree.body for name in _defined(s) if name.startswith("MAX_")] == []


# Private names of `algebra` that each other module imports, and the
# private attributes of its elements that each reads, with their counts.
# ROADMAP's "Carried over" plans a public view for these reads; until then
# the list may only shrink, on purpose.
PRIVATE_RING_ATTRIBUTES = {"_terms", "_of_clean"}
PRIVATE_RING_READS = {
    "derivations.py": {"_add": 1, "_neg": 1, "_raw": 1, "_terms": 2, "_of_clean": 4},
    "fredholm.py": {"_terms": 2},
}


def test_private_reads_of_the_ring_are_pinned():
    reads = {}
    for path in SOURCES:
        if path.name == "algebra.py":
            continue
        names = [alias.name for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.level and node.module == "algebra"
                 for alias in node.names if alias.name.startswith("_")]
        names += [node.attr for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in PRIVATE_RING_ATTRIBUTES]
        if names:
            reads[path.name] = {name: names.count(name) for name in names}
    assert reads == PRIVATE_RING_READS


CLOCKS = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "time", "time_ns"}


def test_only_the_acceptance_runner_reads_a_clock():
    # results are deterministic; the seconds a criterion took travel beside
    # its result, read twice by `acceptance.run_criterion` and nowhere else
    readers = sorted(
        f"{path.stem}.{getattr(top, 'name', None)}"
        for path in SOURCES
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in CLOCKS and getattr(node.func.value, "id", None) == "time"
    )
    assert readers == ["acceptance.run_criterion"] * 2


# Public names that only tests call today, kept for the work that ROADMAP
# items 6 (canonical_derivation) and 8 (apply_automorphism) plan for them.
UNREAD_BY_PLAN = {"apply_automorphism", "canonical_derivation"}


def _defined(statement) -> list[str]:
    """Names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _read(statement) -> set[str]:
    """Names and attributes a statement reads."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


# Public methods that only the ring-axiom tests call (test_algebra.py, test_properties.py).
UNREAD_METHODS = {"AlgebraElement.coeff", "AlgebraElement.scale", "GroupElement.inverse"}


def test_every_public_name_has_a_reader():
    # a reader of a module-level name is any module-level statement of src/
    # or bench/ other than the one that defines it; a reader of a public
    # method, any statement other than its own definition that reads it as
    # an attribute, a statement of a class body counting on its own
    bench = sorted((SOURCES[0].parents[2] / "bench").glob("*.py"))
    trees = [(path, ast.parse(path.read_text())) for path in SOURCES + bench]
    statements = [(path, s) for path, tree in trees for s in tree.body]
    reads = [_read(s) for _, s in statements]
    unread = sorted(
        f"{path.name}: {name}"
        for i, (path, s) in enumerate(statements) if path in SOURCES
        for name in _defined(s)
        if not name.startswith("_") and name not in UNREAD_BY_PLAN
        and not any(name in r for j, r in enumerate(reads) if j != i)
    )
    assert unread == []

    units = [(path, s.name if isinstance(s, ast.ClassDef) else None, u)
             for path, s in statements for u in (s.body if isinstance(s, ast.ClassDef) else [s])]
    attributes = [{node.attr for node in ast.walk(u) if isinstance(node, ast.Attribute)}
                  for _, _, u in units]
    unread_methods = sorted(
        f"{owner}.{u.name}"
        for i, (path, owner, u) in enumerate(units)
        if path in SOURCES and owner and isinstance(u, ast.FunctionDef)
        and not u.name.startswith("_")
        and not any(u.name in a for j, a in enumerate(attributes) if j != i)
    )
    assert unread_methods == sorted(UNREAD_METHODS)
