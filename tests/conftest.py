import os
from fractions import Fraction

import pytest
from hypothesis import seed, settings

from heisenberg_ncg import acceptance as acc
from heisenberg_ncg import integer_lattices, kk
from heisenberg_ncg.algebra import AlgebraElement, GaussianRational

# Every hypothesis suite draws its examples from HNC_SEED when it is set,
# else from the package default, and keeps no example database, so a failure
# replays from the seed alone.  HNC_SEED seeds only these suites: `hnc`
# reads no environment variable.
SEED = int(os.environ.get("HNC_SEED", acc.DEFAULT_SEED))


def per_draw_element(rng, box: int, n_terms: int) -> AlgebraElement:
    """``algebra.random_element`` with one rng call for each key and for each
    numerator and denominator: the reference for its seed contract."""
    terms = {}
    for _ in range(n_terms):
        key = tuple(int(v) for v in rng.integers(-box, box + 1, size=3))
        num_re = int(rng.integers(-6, 7))
        num_im = int(rng.integers(-6, 7))
        den = int(rng.integers(1, 4))
        terms[key] = terms.get(key, GaussianRational()) + GaussianRational(
            Fraction(num_re, den), Fraction(num_im, den))
    return AlgebraElement(terms)


def same_terms(x: AlgebraElement, y: AlgebraElement) -> bool:
    """Equal elements whose terms also come in the same order, which fixes
    the order of float sums such as ``eval_at_angle``'s."""
    return list(x.terms.items()) == list(y.terms.items())


def smith_calls(monkeypatch) -> list:
    """The matrices passed to ``smith_diagonalize`` from here on, wherever
    it was imported."""
    calls = []
    smith_diagonalize = integer_lattices.smith_diagonalize

    def counting(A):
        calls.append(A)
        return smith_diagonalize(A)

    for module in (integer_lattices, kk):
        monkeypatch.setattr(module, "smith_diagonalize", counting)
    return calls


def no_work(*args, **kwargs):
    """A stand-in for a step that a refused input must never reach."""
    raise AssertionError("the input must be refused before any work")


class Tracked(int):
    """An integer that appends to ``log`` the labels of the tracked
    operands of each sum, difference, product or floor division it takes
    part in; its negation keeps the label and is not logged."""

    def __new__(cls, value: int, label, log: list):
        x = super().__new__(cls, value)
        x.label, x.log = label, log
        return x

    def __neg__(self):
        return Tracked(-int(self), self.label, self.log)


def _logged(name: str):
    op = getattr(int, name)

    def logged(self, other):
        self.log.append(frozenset(x.label for x in (self, other) if isinstance(x, Tracked)))
        return op(int(self), int(other))
    return logged


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__floordiv__", "__rfloordiv__"):
    setattr(Tracked, _name, _logged(_name))


def tracked(x, name: str, log: list):
    """x with each coefficient triple made of Tracked integers labelled
    (name, key), so ``log`` shows which coefficients took part in the
    arithmetic of a ring operation."""
    return AlgebraElement._of_clean({
        k: tuple(Tracked(v, (name, k), log) for v in t) for k, t in x._terms.items()})


def seeded(max_examples: int = 100):
    """Hypothesis settings for a property test, under the seed rule above."""
    def decorate(test):
        test = settings(database=None, max_examples=max_examples, deadline=None)(test)
        return seed(SEED)(test)
    return decorate


@pytest.fixture(scope="session")
def acceptance_run():
    """(report, elapsed) of all ten criteria at the default seed, computed
    once per session.

    Criterion 3 is the slow one (the truncation-48 Dirac pairing), so tests
    that need that pairing or its time read it from here instead of running
    it again.
    """
    return acc.run_all(seed=acc.DEFAULT_SEED)


@pytest.fixture(scope="session")
def acceptance_report(acceptance_run):
    return acceptance_run[0]
