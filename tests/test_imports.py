"""Cold-start contract: what importing the package costs, and what it needs.

Every CLI call and every ``repro dist`` queue worker starts from a fresh
interpreter, so the import graph is paid once per process.  These tests
pin that graph down by *module set*, never by time, so a slow host
cannot flip them:

* with scipy blocked, the package, the CLI, a serial run and a queue
  worker all work — scipy is needed only for
  :meth:`~repro.analysis.seeds.SeededStat.confidence_interval`;
* a queue worker's import path (and a real one-task drain) loads none of
  the heavyweight subsystems a cell does not use;
* the lazy package roots resolve every exported name to the very object
  the defining submodule holds.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.analysis
import repro.oram

SRC_ROOT = Path(repro.__file__).resolve().parent.parent

#: A ``sitecustomize`` that makes scipy unimportable, as on a numpy-only
#: install.  Being a startup hook, it also covers every subprocess the
#: child spawns with the same ``PYTHONPATH`` (queue workers included).
BLOCK_SCIPY = textwrap.dedent(
    """
    import sys

    class _RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"No module named {name!r}", name=name)
            return None

    sys.meta_path.insert(0, _RefuseScipy())
    """
)

#: Modules a queue worker must not load: each is a subsystem no cell
#: uses, or (scipy, asyncio) a costly dependency of one.
WORKER_FORBIDDEN = (
    "scipy",
    "repro.analysis",
    "repro.frontier",
    "repro.service",
    "repro.tenancy",
    "repro.perf",
    "repro.oram.path_oram",
    "asyncio",
)


def run_python(args, tmp_path, *, block_scipy=False, timeout=120):
    """Run ``python ARGS`` from ``tmp_path`` against this checkout's ``src``."""
    path = [str(SRC_ROOT)]
    if block_scipy:
        hook_dir = tmp_path / "block_scipy"
        hook_dir.mkdir(exist_ok=True)
        (hook_dir / "sitecustomize.py").write_text(BLOCK_SCIPY)
        path.insert(0, str(hook_dir))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def run_script(code, tmp_path, **kwargs):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    out = run_python(["-c", textwrap.dedent(code)], tmp_path, **kwargs)
    return json.loads(out.strip().splitlines()[-1])


ONE_CELL = {"benchmarks": ("mcf",), "schemes": ("base_dram",), "n_instructions": 40_000}


class TestNumpyOnly:
    """Without scipy, everything but confidence intervals still works."""

    def test_blocker_is_effective(self, tmp_path):
        result = run_script(
            """
            import json
            try:
                import scipy.stats
                print(json.dumps("imported"))
            except ImportError:
                print(json.dumps("blocked"))
            """,
            tmp_path, block_scipy=True,
        )
        assert result == "blocked"

    def test_package_cli_serial_run_and_worker(self, tmp_path):
        result = run_script(
            f"""
            import json, sys
            import repro
            from repro import *
            import repro.cli
            import repro.dist.worker
            from repro import Engine, ExperimentSpec, SerialBackend
            from repro.analysis.seeds import SeededStat

            digest = Engine(SerialBackend()).run(ExperimentSpec(**{ONE_CELL!r})).digest()
            try:
                SeededStat("x", (0.1, 0.2, 0.3)).confidence_interval()
                error = None
            except ImportError as exc:
                error = str(exc)
            print(json.dumps({{
                "digest": digest,
                "error": error,
                "scipy": any(m.split(".")[0] == "scipy" for m in sys.modules),
            }}))
            """,
            tmp_path, block_scipy=True,
        )
        from repro import Engine, ExperimentSpec, SerialBackend

        expected = Engine(SerialBackend()).run(ExperimentSpec(**ONE_CELL)).digest()
        assert result["digest"] == expected
        assert result["error"] is not None and "'dev' extra" in result["error"]
        assert result["scipy"] is False

    def test_cli_help_and_queue_fleet(self, tmp_path):
        help_text = run_python(["-m", "repro", "--help"], tmp_path, block_scipy=True)
        assert "dist" in help_text
        out = run_python(
            ["-m", "repro", "dist", "--cache", str(tmp_path / "cache"), "run",
             "--benchmarks", "mcf", "--schemes", "base_dram", "-n", "40000",
             "--workers", "1"],
            tmp_path, block_scipy=True,
        )
        assert "1 cells: 0 cached, 1 run" in out


class TestWorkerImportGate:
    """A queue worker boots without any subsystem its cells never touch."""

    @staticmethod
    def loaded_forbidden(code, tmp_path):
        return run_script(
            code + textwrap.dedent(
                f"""
                import json, sys
                print(json.dumps([m for m in {WORKER_FORBIDDEN!r} if m in sys.modules]))
                """
            ),
            tmp_path,
        )

    def test_worker_import_path(self, tmp_path):
        loaded = self.loaded_forbidden(
            "import repro.dist.worker, repro.api.execution\n"
            "from repro.__main__ import main\n",
            tmp_path,
        )
        assert loaded == []

    def test_worker_draining_a_task(self, tmp_path):
        from repro.api.spec import ExperimentSpec
        from repro.dist.queue import WorkQueue

        spec = ExperimentSpec(
            benchmarks=("mcf",), schemes=("base_dram", "dynamic:4x4"),
            n_instructions=40_000,
        )
        cache = tmp_path / "cache"
        queue = WorkQueue.for_cells(cache, list(spec.cells()), name=spec.name)
        loaded = self.loaded_forbidden(
            "from repro.__main__ import main\n"
            f"assert main(['dist', '--cache', {str(cache)!r}, 'worker', "
            f"'--queue', {queue.root.name!r}]) == 0\n",
            tmp_path,
        )
        assert loaded == []
        assert queue.stats()["done"] == queue.stats()["tasks"]

    def test_import_repro_loads_no_subsystem(self, tmp_path):
        result = run_script(
            """
            import json, sys
            import repro
            covered = set(repro.__all__) <= set(dir(repro))
            print(json.dumps({"dir_covers_all": covered, "loaded": sorted(
                m for m in sys.modules if m.startswith(("repro.", "numpy")))}))
            """,
            tmp_path,
        )
        assert result == {"dir_covers_all": True, "loaded": ["repro._lazy"]}


LAZY_ROOTS = (repro, repro.analysis, repro.oram)


class TestLazyRoots:
    @pytest.mark.parametrize("package", LAZY_ROOTS, ids=lambda p: p.__name__)
    def test_every_export_is_the_submodule_object(self, package):
        for name in package.__all__:
            if name == "__version__":
                continue
            defining = importlib.import_module(package._EXPORTS[name])
            assert getattr(package, name) is getattr(defining, name), name

    @pytest.mark.parametrize("package", LAZY_ROOTS, ids=lambda p: p.__name__)
    def test_unknown_name_is_attribute_error(self, package):
        assert not hasattr(package, "nope")
        with pytest.raises(AttributeError, match="nope"):
            getattr(package, "nope")

    def test_resolved_names_are_cached(self):
        engine = repro.Engine
        assert vars(repro)["Engine"] is engine

    def test_star_import_and_attribute_access(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert repro.run_frontier is importlib.import_module(
            "repro.frontier.sweep").run_frontier
