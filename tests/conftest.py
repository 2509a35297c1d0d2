"""Shared helpers for the test suite.

Random objects are always drawn from a Philox generator with a fixed seed so
every run sees the same instances.
"""

import numpy as np

def rng(seed: int = 7) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_unitary(g: np.random.Generator, dim: int) -> np.ndarray:
    a = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(g: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    r = rank or dim
    a = g.normal(size=(dim, r)) + 1j * g.normal(size=(dim, r))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_probability(g: np.random.Generator, k: int) -> np.ndarray:
    p = g.dirichlet(np.ones(k))
    return p / p.sum()


def discard_dirichlet_draws(g: np.random.Generator, k: int, count: int) -> None:
    """Draw and discard ``count`` Dirichlet samples over ``k`` weights.

    Some tests fixed their random instances while an optimizer still drew
    that many random starts from their generator; making the same draws
    here keeps every later instance unchanged.
    """
    for _ in range(count):
        g.dirichlet(np.ones(k))


def random_cq_channel(g: np.random.Generator, n_inputs: int, dim: int):
    from cqwiretap.channels import CqChannel

    outputs = {x: random_density(g, dim) for x in range(n_inputs)}
    return CqChannel(tuple(range(n_inputs)), dim, outputs)
