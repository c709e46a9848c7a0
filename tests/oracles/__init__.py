"""Reference implementations kept as test-only ground truth.

Each module here is the plain, paper-shaped version of an operation whose
production kernel under ``src/`` is optimized.  The differential suites
score both and require agreement: bit-identical for the solver and the
min-hash sketches, within 1e-9 for the keyphrase scorers.  Nothing under
``src/`` imports this package.

* :mod:`tests.oracles.solver` — Algorithm 1's full-rescan main loop;
* :mod:`tests.oracles.cover` — string/dict cover matching (Eq. 3.4/3.6);
* :mod:`tests.oracles.kore` — dict-based KORE (Eq. 4.3/4.4);
* :mod:`tests.oracles.minhash` — min-hash sketches as one Python loop per
  hash function, and KORE_LSH's sketch table built one phrase and one
  entity at a time (§4.4.2).
"""
