"""Every top-level function and class of the package, public or private, is
reached by other program code, or is a named test oracle; every config key
sets a field that the program reads, and so does every dataclass field.

A name counts as reached when it occurs as a name token in the code of
``src/groundflow`` (outside ``__init__.py``) or ``bench/*.py`` other than
its own definition. Strings and comments do not count, so a docstring that
mentions a name does not reach it. Code that only its tests call should be
deleted, or, when tests use it as a reference implementation, listed in
TEST_ORACLES. An oracle that no test reads is dead code too.
"""
import ast
import io
import re
import subprocess
import sys
import tokenize
from collections import Counter
from functools import reduce
from pathlib import Path

from groundflow.cli import KEYS, ExperimentConfig
from groundflow.pipeline import TRACK_MODES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groundflow"

# Reference implementations that only tests call: scalar or dense versions
# of what the program computes in batches, and reports that tests read.
TEST_ORACLES = ("nearest_detection_report",)


def code_names(source: str) -> Counter:
    """How often each name occurs in the code of `source`, the replacement
    fields of f-strings included."""
    names = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            names[tok.string] += 1
        elif tok.type == tokenize.STRING and "f" in re.match(r"\w*", tok.string).group().lower():
            # before Python 3.12 an f-string is a single STRING token
            fields = ast.walk(ast.parse(tok.string, mode="eval"))
            names.update(n.id if isinstance(n, ast.Name) else n.attr for n in fields
                         if isinstance(n, (ast.Name, ast.Attribute)))
    return names


def _definitions(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def unreached(package: list[str], others: list[str]) -> list[str]:
    """The names defined at the top level of the `package` sources that
    no code of `package` or `others` uses beyond their definitions."""
    uses = sum((code_names(s) for s in package + others), Counter())
    defined = Counter(name for s in package for name in _definitions(s))
    return sorted(name for name, n in defined.items() if uses[name] <= n)


def test_every_public_name_is_reached_or_a_named_oracle():
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    bench = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    assert unreached(package, bench) == sorted(TEST_ORACLES)


def test_a_name_that_only_a_docstring_or_comment_mentions_is_unreached():
    source = ('def helper():\n'
              '    return 1\n\n\n'
              'def main():\n'
              '    """Unlike helper(), returns 2."""\n'
              '    return 2  # not helper()\n')
    assert unreached([source], ["main()", "'helper()'"]) == ["helper"]
    assert unreached([source], ["main()", "f'{helper()}'"]) == []


def test_only_io_reads_files():
    # every input goes through io.py, so every input keeps its one decode rule
    readers = {"read_text", "read_bytes", "open"}
    found = {p.name: sorted(readers & set(code_names(p.read_text())))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "io.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_only_io_formats_floats():
    # every table goes through io.write_csv, so every float keeps its one rule
    found = [p.name for p in sorted(PACKAGE.glob("*.py")) if code_names(p.read_text())["repr"]]
    assert found == ["io.py"]


def test_only_track_solves_assignments():
    # the scorer, the fit and the trackers share one sparse solver, which
    # only track.py calls; the dense one of scipy.optimize has no caller
    names = {p.name: code_names(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert [f for f, n in names.items() if n["min_weight_full_bipartite_matching"]] == ["track.py"]
    assert [f for f, n in names.items() if n["linear_sum_assignment"]] == []


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 17 MB of memory and a fifth of a second of
    # start-up, and no assignment needs it; a fresh interpreter shows what
    # importing every module, cli included, loads
    modules = ", ".join(f"groundflow.{p.stem}" for p in sorted(PACKAGE.glob("*.py"))
                        if p.name != "__init__.py")
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import {modules}; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_readme_names_exactly_the_tracking_modes():
    # the first sentence of README's "Tracking modes" paragraph lists the
    # modes, so a retired mode cannot linger there
    paragraph = (ROOT / "README.md").read_text().split("Tracking modes:", 1)[1].split("\n\n")[0]
    listed = re.findall(r"`([^`]+)`", re.split(r"\.\s", paragraph, maxsplit=1)[0])
    assert sorted(listed) == sorted(TRACK_MODES)


def test_every_named_oracle_is_read_by_a_test():
    tests = "\n".join(p.read_text() for p in sorted(Path(__file__).parent.rglob("*.py"))
                      if p.name != Path(__file__).name)
    unread = [name for name in TEST_ORACLES if not re.search(rf"\b{name}\b", tests)]
    assert unread == []


def attribute_reads(source: str) -> set[tuple[str, str | None]]:
    """(name, owner) for each attribute read in `source`: owner is the class
    whose __post_init__ the read is in, or None."""
    tree = ast.parse(source)
    owner = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                    owner.update((id(node), cls.name) for node in ast.walk(fn))
    return {(node.attr, owner.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_config_key_sets_a_field_that_the_program_reads():
    # a field that only its own class's validation reads sets nothing
    reads = set().union(*(attribute_reads(p.read_text()) for p in PACKAGE.glob("*.py")))
    unread = []
    for key, path in KEYS.items():
        *parents, name = [step for step in path if isinstance(step, str)]
        cls = type(reduce(getattr, parents, ExperimentConfig())).__name__
        if not any(attr == name and where != cls for attr, where in reads):
            unread.append(key)
    assert unread == []


def dataclass_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for each field of each dataclass defined in `source`."""
    return [(cls.name, node.target.id)
            for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
            and any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def test_every_dataclass_field_is_read_by_the_program():
    # a field that only its own class's validation reads holds nothing
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    bench = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    reads = set().union(*map(attribute_reads, sources + bench))
    unread = [f"{cls}.{name}" for s in sources for cls, name in dataclass_fields(s)
              if not any(attr == name and where != cls for attr, where in reads)]
    assert unread == []
