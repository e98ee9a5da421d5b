"""Session set-up shared by every test module.

hypothesis draws some inputs from the constants of the local modules
loaded when a test runs (it skips files under ``tests/``). Running one
file alone loads fewer ``amboost`` submodules than the whole suite does,
so a derandomized property test could draw other examples alone than in
the suite. Importing every submodule here, before collection, gives any
selection of tests the same pool.
"""

import importlib
import pkgutil

import amboost

for _module in pkgutil.iter_modules(amboost.__path__):
    importlib.import_module(f"amboost.{_module.name}")
