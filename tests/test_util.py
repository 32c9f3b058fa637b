import numpy as np

from bayespd._util import as_generator, atomic_write, derived_rng


def test_as_generator_accepts_seed_and_generator():
    a = as_generator(42)
    b = as_generator(42)
    assert a.random() == b.random()
    gen = np.random.default_rng(7)
    assert as_generator(gen) is gen


def test_derived_rng_is_deterministic_and_path_sensitive():
    assert derived_rng(3, 1, 2).random() == derived_rng(3, 1, 2).random()
    assert derived_rng(3, 1, 2).random() != derived_rng(3, 2, 1).random()
    assert derived_rng(3).random() != derived_rng(4).random()


def test_atomic_write_text(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(path, [b"hel", b"lo\n"])
    assert path.read_text() == "hello\n"
    atomic_write(path, [b"replaced\n"])
    assert path.read_text() == "replaced\n"
    assert list(tmp_path.iterdir()) == [path]  # no temp files left behind
