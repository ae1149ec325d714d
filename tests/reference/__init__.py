"""Reference models the tests check the system against; the system
itself never imports them.

- :mod:`tests.reference.worlds` — the paper's Section 3 possible-worlds
  semantics, in which ``tests/core/test_worlds.py`` model-checks every
  inference rule of :mod:`repro.core.rules`.
"""
