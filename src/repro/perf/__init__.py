"""``repro.perf`` — the golden determinism digests.

:mod:`repro.perf.golden` pins every output surface of the simulator by
a SHA-256 digest (``tests/data/golden_digests.json``).  Speed is
measured end to end and per layer by ``bench/run.py``; a change is
judged against its parent commit with ``bench/compare.py --pairs``.
"""
