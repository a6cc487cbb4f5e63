"""What the package imports, and when.

Every module may import only the standard library, ``repro`` itself and
the dependencies ``pyproject.toml`` declares.  Package ``__init__``
files re-export lazily (``repro._exports``), so an entry point loads
only the modules it runs: the serving tier answers ``/decide`` without
the week generator, the cloud replay, the analysis toolkit, durable
runs or process pools it never uses.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
ROOT = SRC.parent
PACKAGE = SRC / "repro"

#: Packages whose ``__init__`` imports eagerly on purpose: importing an
#: experiment driver registers it, and the runner relies on that.
EAGER_PACKAGES = {"repro.experiments"}


def _declared_dependencies() -> set[str]:
    """Top-level module names of ``[project] dependencies`` (numpy,
    scipy), read without a TOML parser."""
    text = (ROOT / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text,
                       re.MULTILINE | re.DOTALL)
    assert listed is not None, "pyproject.toml declares no dependencies"
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
            .replace("-", "_")
            for spec in re.findall(r"\"([^\"]+)\"", listed.group(1))}


def _imported_top_levels(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_import_is_stdlib_repro_or_declared():
    assert _declared_dependencies() == {"numpy", "scipy"}
    allowed = set(sys.stdlib_module_names) | {"repro"} \
        | _declared_dependencies()
    undeclared = {
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _imported_top_levels(path) if name not in allowed}
    assert not undeclared, sorted(undeclared)


def _fresh(script: str) -> object:
    """Run ``script`` in a new interpreter; returns the JSON it prints
    last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    completed = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, env=env,
                               check=True, timeout=120)
    return json.loads(completed.stdout.splitlines()[-1])


#: Loaded by the simulation and the harness, never by a ``/decide``:
#: numpy lives in the functions that draw, and the fault layer loads
#: only with a ``--faults`` plan.
NOT_ON_THE_SERVE_PATH = (
    "multiprocessing", "numpy", "scipy", "repro.cloud.system",
    "repro.workload.generator", "repro.analysis.cdf",
    "repro.recovery.durable", "repro.experiments",
    "repro.backends.replay", "repro.ap.benchrig", "repro.perf.golden",
    "repro.faults.injector", "repro.faults.plan", "repro.sim.engine",
    "repro.sim.randomness", "repro.backends.faultgate")


def test_a_decide_worker_loads_no_simulation_or_harness_module():
    statuses, loaded = _fresh(
        "import json, sys\n"
        "import repro.serve.server, repro.serve.__main__\n"
        "from repro.backends.registry import strategy_names\n"
        "from repro.core.webapp import OdrWebApp\n"
        "app = OdrWebApp()\n"
        "statuses = [app.handle('/decide?link=http%3A%2F%2Forigin%2Ff'\n"
        "                       f'&popularity=3&policy={name}')[0]\n"
        "            for name in strategy_names()]\n"
        f"print(json.dumps([statuses, [name for name in "
        f"{NOT_ON_THE_SERVE_PATH!r} if name in sys.modules]]))\n")
    assert statuses == [200] * 6
    assert loaded == []


def test_the_lazily_loaded_chaos_gates_still_work():
    answers = _fresh(
        "import json, time\n"
        "from repro.serve.chaos import load_serve_chaos, "
        "load_worker_chaos\n"
        f"serve_plan = {str(ROOT / 'examples' / 'serve_chaos_plan.json')!r}\n"
        f"wedge_plan = {str(ROOT / 'examples' / 'serve_wedge_plan.json')!r}\n"
        "gate = load_serve_chaos(serve_plan)\n"
        "injector = gate.injector\n"
        "worker = load_worker_chaos(wedge_plan, 0, epoch=time.monotonic())\n"
        "print(json.dumps([\n"
        "    gate.verdict().clean, gate.unready(),\n"
        "    injector.factor('isp_degrade', gate.entity, 12.0),\n"
        "    injector.active('server_crash', gate.entity, 21.0).kind,\n"
        "    injector.active('vm_stall', gate.entity, 31.0).severity,\n"
        "    load_worker_chaos(serve_plan, 0) is None, worker.wedge(),\n"
        "    worker.injector.wedged(worker.entity, 0.0, 7.0).kind]))\n")
    assert answers == [True, False, 0.25, "server_crash", 1.0, True, None,
                       "probe_blackhole"]


def test_importing_the_package_imports_no_subpackage():
    loaded = _fresh(
        "import json, sys\n"
        "import repro\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.startswith('repro'))))\n")
    assert loaded == ["repro", "repro._exports"]


def _export_table(init: Path) -> dict[str, str]:
    """The ``{name: defining module}`` table an ``__init__`` passes to
    ``lazy_exports``."""
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "lazy_exports":
            return ast.literal_eval(node.args[1])
    return {}


PACKAGES = sorted(
    ".".join(("repro",) + init.parent.relative_to(PACKAGE).parts)
    for init in PACKAGE.rglob("__init__.py"))
LAZY_PACKAGES = [name for name in PACKAGES if _export_table(
    PACKAGE.joinpath(*name.split(".")[1:], "__init__.py"))]


def test_every_package_with_exports_is_lazy_except_the_eager_ones():
    exporting = {name for name in PACKAGES
                 if importlib.import_module(name).__dict__.get("__all__")}
    assert exporting - set(LAZY_PACKAGES) == EAGER_PACKAGES


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_defining_objects(name):
    package = importlib.import_module(name)
    table = _export_table(PACKAGE.joinpath(*name.split(".")[1:],
                                           "__init__.py"))
    assert [export for export in package.__all__
            if export != "__version__"] == list(table)
    listed = dir(package)
    for export, module in table.items():
        assert getattr(package, export) \
            is getattr(importlib.import_module(module), export), export
        assert export in listed
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(package, "no_such_export")


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["XuanfengCloud"] is \
        importlib.import_module("repro.cloud.system").XuanfengCloud
    assert namespace["__version__"] == "1.0.0"
