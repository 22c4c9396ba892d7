"""Every public top-level name of the package is reached by other program
code, or is a named test oracle.

A name counts as reached when it occurs, as a whole word, anywhere in
``src/groundflow`` (outside ``__init__.py``) or ``bench/*.py`` other than
its own definition. Code that only its tests call should be deleted, or,
when tests use it as a reference implementation, listed in TEST_ORACLES.
An oracle that no test reads is dead code too.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groundflow"

# Reference implementations that only tests call: scalar or dense versions
# of what the program computes in batches, and reports that tests read.
TEST_ORACLES = (
    "load_trajectories",
    "loss_mot",
    "loss_fb",
    "loss_se",
    "nearest_detection_report",
    "sample_offset",
    "reconstruct_backward",
)


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_definitions():
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.name, node.name


def test_every_public_name_is_reached_or_a_named_oracle():
    corpus = "\n".join(p.read_text() for p in _modules() + sorted((ROOT / "bench").glob("*.py")))
    unreached = {
        (module, name) for module, name in _public_definitions()
        if len(re.findall(rf"\b{name}\b", corpus)) <= 1  # the definition itself
    }
    assert sorted(name for _, name in unreached) == sorted(TEST_ORACLES), sorted(unreached)


def test_every_named_oracle_is_read_by_a_test():
    tests = "\n".join(p.read_text() for p in sorted(Path(__file__).parent.rglob("*.py"))
                      if p.name != Path(__file__).name)
    unread = [name for name in TEST_ORACLES if not re.search(rf"\b{name}\b", tests)]
    assert unread == []
