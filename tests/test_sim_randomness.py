"""Tests for deterministic random-stream management."""

import numpy as np

from repro.sim.randomness import RngFactory, derive_seed, substream


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "alpha") == derive_seed(42, "alpha")

    def test_label_changes_seed(self):
        assert derive_seed(42, "alpha") != derive_seed(42, "beta")

    def test_master_changes_seed(self):
        assert derive_seed(1, "alpha") != derive_seed(2, "alpha")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(123456789, "stream") < 2 ** 64


class TestSubstream:
    def test_same_inputs_same_draws(self):
        a = substream(7, "x").random(5)
        b = substream(7, "x").random(5)
        assert np.allclose(a, b)

    def test_different_labels_different_draws(self):
        a = substream(7, "x").random(5)
        b = substream(7, "y").random(5)
        assert not np.allclose(a, b)


class TestRngFactory:
    def test_stream_is_memoised(self):
        factory = RngFactory(3)
        assert factory.stream("a") is factory.stream("a")

    def test_streams_are_independent_of_creation_order(self):
        first = RngFactory(3)
        _ = first.stream("noise").random(100)
        a1 = first.stream("target").random(5)

        second = RngFactory(3)
        a2 = second.stream("target").random(5)
        assert np.allclose(a1, a2)

    def test_fork_produces_independent_child(self):
        parent = RngFactory(3)
        child = parent.fork("child")
        assert child.master_seed != parent.master_seed
        assert not np.allclose(parent.stream("s").random(4),
                               child.stream("s").random(4))

    def test_fork_is_deterministic(self):
        a = RngFactory(3).fork("c").stream("s").random(4)
        b = RngFactory(3).fork("c").stream("s").random(4)
        assert np.allclose(a, b)


class TestShardDeterminism:
    """Regression guards for the properties the fan-outs over
    ``recovery.durable_map`` build on: forked children must be
    insensitive to the parent's draw history, and a factory shipped to
    another process (the spawn pool pickles its payloads) must produce
    the same streams there as here."""

    def test_fork_ignores_parent_draw_order(self):
        quiet = RngFactory(11)
        noisy = RngFactory(11)
        _ = noisy.stream("warmup").random(1000)
        _ = noisy.fork("other-child").stream("s").random(10)
        a = quiet.fork("child").stream("s").random(8)
        b = noisy.fork("child").stream("s").random(8)
        assert np.allclose(a, b)

    def test_nested_forks_are_path_addressed(self):
        a = RngFactory(5).fork("cloud").fork("file:3")
        b = RngFactory(5).fork("cloud").fork("file:3")
        c = RngFactory(5).fork("cloud").fork("file:4")
        assert np.allclose(a.stream("fetch").random(4),
                           b.stream("fetch").random(4))
        assert not np.allclose(a.stream("fetch").random(4),
                               c.stream("fetch").random(4))

    def test_pickled_factory_reproduces_streams_in_a_subprocess(
            self, tmp_path):
        import json
        import os
        import pickle
        import subprocess
        import sys

        factory = RngFactory(20150222).fork("scale-cloud")
        expected = factory.fork("file:42").stream("session").random(6)

        payload = tmp_path / "factory.pkl"
        payload.write_bytes(pickle.dumps(factory))
        script = (
            "import json, pickle, sys\n"
            "factory = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "draws = factory.fork('file:42').stream('session')"
            ".random(6)\n"
            "print(json.dumps(list(draws)))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, str(payload)],
            capture_output=True, text=True, env=os.environ.copy(),
            check=True)
        assert np.allclose(json.loads(completed.stdout), expected)
