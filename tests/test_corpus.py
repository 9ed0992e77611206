"""Seeded example generators: determinism and guaranteed properties."""

import pytest

from freebycyclic.corpus import corpus, random_expanding_map, rose_map
from freebycyclic.errors import InvariantViolation
from freebycyclic.folding import decompose
from freebycyclic.graphs import check_path, compose
from freebycyclic.traintrack import (eigen_metric, is_expanding,
                                     is_irreducible, is_train_track,
                                     transition_matrix)
from freebycyclic.words import letters

from dense_oracle import matmul
from helpers import random_pair, random_path


def test_deterministic_in_the_seed():
    assert corpus(8, seed=1) == corpus(8, seed=1)
    assert corpus(8, seed=1) != corpus(8, seed=2)
    first = random_expanding_map(seed=5)
    assert first == random_expanding_map(seed=5)


def test_samples_are_positive_expanding_irreducible():
    for f in corpus(30, seed=11):
        assert all(sign > 0 for word in f.edge_images.values()
                   for _n, sign in letters(word))
        matrix = transition_matrix(f)
        assert is_irreducible(matrix) and is_expanding(matrix)
        ok, witness = is_train_track(f)
        assert ok and witness is None


def test_samples_fold_and_have_tight_eigenmetrics():
    for f in corpus(20, seed=23):
        decompose(f).verify()
        assert eigen_metric(f).residual <= 1e-10


def test_rank_parameter():
    for rank in (2, 3):
        f = random_expanding_map(seed=9, rank=rank)
        assert len(f.domain.edge_names) == rank
    with pytest.raises(InvariantViolation):
        random_expanding_map(seed=9, rank=1)


def test_pairs_share_a_rose_and_satisfy_the_composition_law():
    for seed in range(10):
        f, g = random_pair(seed)
        assert f.domain == g.domain
        product = transition_matrix(compose(f, g))
        assert product.rows == \
            matmul(transition_matrix(g), transition_matrix(f)).rows


def test_random_path_is_a_path():
    f = rose_map({"a": "ab", "b": "a"})
    path = random_path(f.domain, 50, seed=3)
    assert len(path) == 50
    check_path(f.domain, path)
    assert path == random_path(f.domain, 50, seed=3)
    assert random_path(f.domain, 0, seed=3) == ""
