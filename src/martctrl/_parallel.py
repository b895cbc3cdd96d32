"""Empty module kept for the benchmark tracer.

Nothing in the package runs here any more.  ``perfbench/spans.py`` imports
``martctrl._parallel`` by name (its ``MODULES["_parallel"]`` entry, which
feeds the ``parallel.*`` metrics), so a traced run fails with
``ModuleNotFoundError`` without this file.  It goes together with that
entry when the benchmark drops its ``parallel.*`` metrics.
"""
