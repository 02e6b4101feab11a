import importlib
import pkgutil

import gjekit


def test_every_exported_name_resolves():
    # a name left in an __all__ after its definition is gone breaks
    # ``from gjekit.<module> import *``
    modules = [gjekit] + [importlib.import_module(f"gjekit.{info.name}")
                          for info in pkgutil.iter_modules(gjekit.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
