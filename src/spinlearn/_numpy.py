"""numpy, executed on first use: the module if already imported, else a LazyLoader module in
sys.modules["numpy"].  Bind it by ``from ._numpy import np`` (``import numpy`` executes it).
Before Python 3.12.3 the LazyLoader's first access is not thread-safe, so there numpy is
imported at once if other threads run; to start threads later, import numpy first."""
import importlib.util
import sys
import threading

np = sys.modules.get("numpy")
if np is None and sys.version_info < (3, 12, 3) and threading.active_count() > 1:
    import numpy as np
if np is None:
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(np)
