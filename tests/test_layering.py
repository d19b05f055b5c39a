"""Module layering: every intra-package import sits at module level, the
modules of ``revrel`` import each other without a cycle, nothing in the
package loads scipy, which is a test-time reference only, and numpy loads
only with the first array: importing the CLI, the default ``verify``,
``table`` on a closed-form scalar quantile and ``identify`` on a sample
file leave it unloaded."""

import ast
import io
import os
import subprocess
import sys
from pathlib import Path

from revrel.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "revrel"
DATA = Path(__file__).resolve().parent / "data"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _package_imports(node):
    """Names of the revrel modules one import statement pulls in."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 and node.module is None:
            return [alias.name for alias in node.names]       # from . import x
        if node.level == 1:
            return [node.module.split(".")[0]]                # from .x import y
        if node.level == 0 and node.module and node.module.split(".")[0] == "revrel":
            parts = node.module.split(".")
            return [parts[1] if len(parts) > 1 else "__init__"]
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] if "." in alias.name else "__init__"
                for alias in node.names if alias.name.split(".")[0] == "revrel"]
    return []


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def _import_graph():
    graph = {}
    for name in MODULES:
        edges = set()
        for node in ast.walk(_tree(name)):
            edges.update(_package_imports(node))
        graph[name] = edges - {name}
    return graph


def test_the_package_has_modules_to_check():
    assert {"distributions", "functionals", "quadrature", "empirics"} <= set(MODULES)


def test_no_package_import_inside_a_function_body():
    nested = []
    for name in MODULES:
        for fn in ast.walk(_tree(name)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested.extend(f"{name}.{getattr(fn, 'name', '<lambda>')}: line {node.lineno}"
                              for node in ast.walk(fn) if _package_imports(node))
    assert nested == []


def test_package_import_graph_has_no_cycle():
    graph = _import_graph()
    assert set().union(*graph.values()) <= set(MODULES)
    done, on_path = set(), []

    def visit(name):
        if name in on_path:
            raise AssertionError("import cycle: " + " -> ".join(
                on_path[on_path.index(name):] + [name]))
        if name in done:
            return
        on_path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        on_path.pop()
        done.add(name)

    for name in MODULES:
        visit(name)


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)


def test_import_loads_no_scipy_module():
    # scipy.special alone cost 0.25-0.29 s of a 0.45-0.5 s cold start
    out = _run_python("import sys, revrel, revrel.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


_REFUSE = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == {package!r}:
            raise ImportError({package!r} + " refused: " + name)
        return None

sys.meta_path.insert(0, Refuse())
from revrel.cli import main
sys.exit(main({argv!r}))
"""


def test_default_verify_runs_with_scipy_imports_refused():
    out = _run_python(_REFUSE.format(package="scipy", argv=["verify"]))
    assert out.returncode == 0, out.stderr
    here = io.StringIO()
    assert main(["verify"], stdout=here, stderr=io.StringIO()) == 0
    assert out.stdout == here.getvalue()


def test_identify_on_a_sample_file_runs_with_numpy_imports_refused():
    argv = ["identify", str(DATA / "power_sample_400.txt")]
    out = _run_python(_REFUSE.format(package="numpy", argv=argv))
    assert out.returncode == 0, out.stderr
    assert out.stdout == (DATA / "power_sample_400_identify.json").read_text(encoding="utf-8")


_NUMPY_FREE = """
import io, sys
import revrel, revrel.cli
from revrel.cli import main

def run(*args):
    code = main(list(args), stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0, args

run("verify")
for family in ("power:b=1,c=2", "uniform:b=1", "linearmit:xi=0.8,alpha=1,beta=0.5,b=0"):
    run("table", "--family", family)
print("numpy" in sys.modules)
"""


def test_verify_and_closed_form_tables_load_no_numpy():
    # numpy was about half of a cold `import revrel.cli`
    out = _run_python(_NUMPY_FREE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_identify_loads_no_numpy_and_keeps_its_output():
    sample = DATA / "power_sample_400.txt"
    out = _run_python("import sys\n"
                      "from revrel.cli import main\n"
                      f"code = main(['identify', {str(sample)!r}])\n"
                      "sys.stderr.write(str('numpy' in sys.modules))\n"
                      "sys.exit(code)")
    assert out.returncode == 0, out.stderr
    assert out.stderr == "False"
    assert out.stdout == (DATA / "power_sample_400_identify.json").read_text(encoding="utf-8")
