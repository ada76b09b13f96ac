"""The names the benchmark's traced mode reaches into still resolve.

``bench/tracer.py`` rebinds package functions by name and reads the
``cache_info()`` of some ``lru_cache``s.  A refactor that renames or
removes one of them would break ``bench/run.py --trace 1``; this test
fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted: str):
    modname, attr = dotted.rsplit(".", 1)
    return getattr(importlib.import_module(modname), attr)


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    assert tracer.SPANNED
    for modname, attr in tracer.SPANNED:
        owner = importlib.import_module(modname)
        if "." in attr:
            # Methods are rebound on the class that defines them.
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(meth)), (modname, attr)
        else:
            assert callable(getattr(owner, attr, None)), (modname, attr)
    spectral = importlib.import_module("tateop.spectral")
    for attr in tracer.DLOG_TABLES:
        assert callable(getattr(spectral, attr, None)), attr
    for dotted in (tracer.KERNEL_CACHE, tracer.CONDUCTOR_CACHE):
        cache = _resolve(dotted)
        assert callable(cache.cache_info) and callable(cache.cache_clear), dotted


def test_the_traced_modules_are_registered_once_the_cli_is_imported(run_python):
    # The tracer looks each spanned module up in sys.modules right after
    # `import tateop.cli`, before any subcommand has run.
    modules = sorted({modname for modname, _ in _load_tracer().SPANNED})
    probe = "import sys, tateop.cli; print(*(name in sys.modules for name in sys.argv[1:]))"
    proc = run_python("-c", probe, *modules)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"True"] * len(modules)
