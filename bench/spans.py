"""Wrapper-based span recorder for the traced benchmark run.

The benchmark never edits the program: it replaces public entry points of
each ``heisenberg_ncg`` module (and the numpy/scipy kernels the numeric
layers call) with timing wrappers while a traced operation runs, and puts
the originals back afterwards.  Each call records a span (name, start, end,
parent); spans live in flat arrays in memory and are written out once, when
the run ends.  A span's self time is its duration minus the time covered by
its child spans.

Private helpers (``_DiracEngine``, ``_power_image``, ...) are not wrapped, so
their time shows up as self time of the public caller.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter


def _mul_count(args, out):
    # ``_terms`` is read directly: the public ``terms`` property copies the
    # dict, which would add work inside the parent span.
    a, b = args[0], args[1]
    return {"term_products": len(a._terms) * len(getattr(b, "_terms", ()))}


def _fft_count(args, out):
    x = args[0]
    return {"points": x.size, "bytes": x.nbytes + out.nbytes}


def _svd_count(args, out):
    return {"cols": args[0].shape[-1]}


def _decompose_count(args, out):
    return {"x_terms": len(out.x._terms)}


# (module, attribute, span name, counter).  A package function is replaced
# in every heisenberg_ncg module that bound it, so ``from .algebra import
# eval_at_angle`` call sites are traced too.
PACKAGE_FUNCTIONS = [
    ("heisenberg_ncg.algebra", "eval_at_angle", "algebra.eval_at_angle", None),
    ("heisenberg_ncg.derivations", "apply", "derivations.apply", None),
    ("heisenberg_ncg.derivations", "decompose", "derivations.decompose", _decompose_count),
    ("heisenberg_ncg.derivations", "inner_coefficient", "derivations.inner_coefficient", None),
    ("heisenberg_ncg.derivations", "check_consistency", "derivations.check_consistency", None),
    ("heisenberg_ncg.derivations", "compose_from_parts", "derivations.compose_from_parts", None),
    ("heisenberg_ncg.group_structure", "brute_force_centralizer",
     "group_structure.brute_force_centralizer", None),
    ("heisenberg_ncg.group_structure", "centralizer_membership",
     "group_structure.centralizer_membership", None),
    ("heisenberg_ncg.fredholm", "odd_pairing", "fredholm.odd_pairing", None),
    ("heisenberg_ncg.fredholm", "build_representation", "fredholm.build_representation", None),
    ("heisenberg_ncg.chern", "bott_projector", "chern.bott_projector", None),
    ("heisenberg_ncg.chern", "lattice_chern", "chern.lattice_chern", None),
    ("heisenberg_ncg.chern", "fourier_coefficients", "chern.fourier_coefficients", None),
    ("heisenberg_ncg.chern", "dirac_even_pairing", "chern.dirac_even_pairing", None),
    ("heisenberg_ncg.kk", "check_exactness", "kk.check_exactness", None),
    ("heisenberg_ncg.kk", "check_duality", "kk.check_duality", None),
    ("heisenberg_ncg.integer_lattices", "smith_diagonalize",
     "integer_lattices.smith_diagonalize", None),
]
CRITERIA = (1, 2, 4, 5, 6, 7, 8, 9, 10)

# Kernel boundary: replaced only on the numpy/scipy module object, which is
# where the package looks them up (``np.einsum``, ``sfft.fft2``, ...).
KERNELS = [
    ("scipy.fft", "fft2", "chern.fft", _fft_count),
    ("scipy.fft", "ifft2", "chern.fft", _fft_count),
    ("numpy.fft", "fft2", "chern.fft", _fft_count),
    ("numpy.fft", "ifft2", "chern.fft", _fft_count),
    ("numpy", "einsum", "chern.einsum", None),
    ("numpy.linalg", "svd", "fredholm.svd", _svd_count),
]

# AlgebraElement operators; ``__sub__`` is counted with ``__add__``.
METHODS = [
    ("__mul__", "algebra.mul", _mul_count),
    ("__add__", "algebra.add", None),
    ("__sub__", "algebra.add", None),
]


class Tracer:
    """Collects spans from wrapped entry points between ``install`` and
    ``uninstall``.  Single-threaded: the benchmark is a closed loop."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, dict[str, int]] = {}
        self._patches = self._plan()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        nid = self._id(name)
        counters = self.counters.setdefault(name, {})
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                for key, v in count(args, out).items():
                    counters[key] = counters.get(key, 0) + v
            return out

        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every replacement."""
        import heisenberg_ncg.acceptance as acc
        from heisenberg_ncg.algebra import AlgebraElement

        plan = []
        for attr, name, count in METHODS:
            orig = AlgebraElement.__dict__[attr]
            plan.append((AlgebraElement, attr, orig, self.wrap(name, orig, count)))
        funcs = list(PACKAGE_FUNCTIONS)
        for fn in acc.ALL_CRITERIA:
            n = int(fn.__name__.split("_")[1])
            if n in CRITERIA:
                funcs.append(("heisenberg_ncg.acceptance", fn.__name__,
                              f"acceptance.criterion_{n}", None))
        package = [m for k, m in sys.modules.items()
                   if k == "heisenberg_ncg" or k.startswith("heisenberg_ncg.")]
        for mod_name, attr, name, count in funcs:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(name, orig, count)
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        plan.append((mod, key, orig, wrapper))
        for mod_name, attr, name, count in KERNELS:
            __import__(mod_name)
            mod = sys.modules[mod_name]
            orig = getattr(mod, attr)
            plan.append((mod, attr, orig, self.wrap(name, orig, count)))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def reduce(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and counters.  Also
        ``calls_under`` maps a parent span name to direct-child call counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                        "calls_under": {}, **self.counters[name]}
                 for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name_of[i]]]
            s["calls"] += 1
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            if p >= 0:
                under = s["calls_under"]
                pname = self.names[self.name_of[p]]
                under[pname] = under.get(pname, 0) + 1
        return stats

    def write(self, path: Path) -> None:
        """All spans as TSV: name, parent index (-1 at top), start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("name\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(f"{self.names[self.name_of[i]]}\t{self.parent[i]}\t"
                        f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
