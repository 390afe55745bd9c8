"""Every degenlab name the benchmark scripts read must exist.

The benchmark runs the committed ``bench/*.py`` against the package, so a
package name they read that is renamed or deleted ends its runs as failed.
The scripts are parsed, not imported: each ``module.attr`` chain rooted at a
name imported from ``degenlab`` is looked up in the package.
"""

import ast
import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _imported(tree):
    """{local name: object} for every name a script imports from degenlab."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "degenlab" or node.module.startswith("degenlab.")):
            for alias in node.names:
                try:    # a submodule: from degenlab import cli
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(importlib.import_module(node.module),
                                  alias.name)
                out[alias.asname or alias.name] = obj
    return out


def _chain(node):
    """``["root", "a", "b"]`` for the attribute chain root.a.b, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id] + parts[::-1]
    return None


def test_bench_reads_only_existing_names():
    read = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _imported(tree)
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if not chain or chain[0] not in names:
                continue
            obj = names[chain[0]]
            for depth, attr in enumerate(chain[1:], 2):
                assert hasattr(obj, attr), (path.name, ".".join(chain[:depth]))
                obj = getattr(obj, attr)
            read.add(".".join(chain))
    # the worker's checks call these outside the tracer's targets
    assert {"carleman.fursikov_eta_bar", "experiments.data_bump_a2r7r",
            "spaces.hardy_ratio"} <= read
