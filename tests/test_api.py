"""The public names: every module's ``__all__`` names what it holds, and
is the only place that declares them. The package binds no names, so a
layer is imported from its own module and loads only the layers below it."""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import perilps

MODULES = {
    info.name: importlib.import_module(f"perilps.{info.name}")
    for info in pkgutil.iter_modules(perilps.__path__)
}


def test_every_module_all_names_exist():
    assert set(MODULES) >= {"analytic", "driver", "model", "quadrature", "solver"}
    for name, module in MODULES.items():
        names = getattr(module, "__all__", None)
        assert names is not None, name
        assert len(set(names)) == len(names), name
        assert [k for k in names if not hasattr(module, k)] == [], name


_LAYER_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import perilps

package = {
    "names": sorted(k for k in vars(perilps) if not k.startswith("_")),
    "submodules": sorted(m for m in sys.modules if m.startswith("perilps.")),
}
import perilps.pointcloud, perilps.quadrature, perilps.model, perilps.analytic

scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"package": package, "scipy": scipy}))
"""


def test_package_binds_nothing_and_layers_load_no_scipy():
    """In a fresh process, ``import perilps`` binds no public name and loads
    no submodule, and the cloud, quadrature, model and analytic layers load
    no scipy module: only the solve needs scipy."""
    src = Path(perilps.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _LAYER_PROBE, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["package"] == {"names": [], "submodules": []}
    assert loaded["scipy"] == []
