"""The four benchmark workloads.

Every workload is a closed loop with one client: ``op(i)`` is operation i,
and the next one starts when it returns.  ``setup(seed)`` builds all seeded
inputs before timing starts; ``check(i, out)`` is the oracle, run outside
the timed region.  Runs stop only at a multiple of ``cycle`` operations, so
every run covers whole cycles of the input mix.  WORKLOADS.md says why each
workload exists.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from heisenberg_ncg import acceptance as acc
from heisenberg_ncg import chern as ch
from heisenberg_ncg import derivations as dv
from heisenberg_ncg.algebra import AlgebraElement, GaussianRational

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """Environment for child processes: the package from ``src/``, and no
    ``HNC_SEED`` override, so the program sees only the generated inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env.pop("HNC_SEED", None)
    return env


def spread(n: int, box: int) -> list[int]:
    """n distinct nonzero exponents spread evenly over [-box, box] (n even,
    box/(n-1) >= 1/2)."""
    return [round(-box + 2 * box * i / (n - 1)) for i in range(n)]


def seeded_terms(rng, box: int, n: int) -> oracles.Terms:
    """n terms whose p and q exponents are seeded shuffles of ``spread``.

    The multisets of |p| and |q| are fixed, so every seed asks the Leibniz
    extension for the same amount of work; p is never 0, so no term lies on
    the W axis.
    """
    ps = rng.permutation(spread(n, box))
    qs = rng.permutation(spread(n, box))
    rs = rng.integers(-box, box + 1, n)
    out = {}
    for p, q, r in zip(ps, qs, rs):
        den = int(rng.integers(1, 4))
        re = Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 7)), den)
        im = Fraction(int(rng.integers(-6, 7)), den)
        out[(int(p), int(q), int(r))] = (re, im)
    return out


def central_terms(rng, box: int) -> oracles.Terms:
    rs = rng.choice(np.arange(-box, box + 1), size=2, replace=False)
    return {(0, 0, int(r)): (Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 5))),
                             Fraction(0)) for r in rs}


def element(terms: oracles.Terms) -> AlgebraElement:
    return AlgebraElement({k: GaussianRational(re, im) for k, (re, im) in terms.items()})


def derivation_parts(rng, box: int, n: int) -> dict:
    return {"z1": central_terms(rng, box), "z2": central_terms(rng, box),
            "x": seeded_terms(rng, box, n), "y": seeded_terms(rng, box, n)}


class Dirac:
    """Criterion 3's route at a reduced size (see WORKLOADS.md)."""

    name = "dirac"
    cycle = 1
    trace_ops = 1
    in_process = True
    reference = "fft"  # FFT-bound work drifts apart from pure-Python speed
    GRIDS = (16, 32, 64)
    PAIRING = {"truncation": 24, "n_commutators": 4, "tail": 1e-5,
               "probe_spacing": 6}

    def setup(self, seed: int) -> None:
        pass  # no random inputs: the Bott fields are built by each operation

    def op(self, i: int):
        fields = {g: ch.bott_projector(g, 1.0) for g in self.GRIDS}
        cherns = {g: ch.lattice_chern(f) for g, f in fields.items()}
        pairing = ch.dirac_even_pairing(fields[max(self.GRIDS)], **self.PAIRING)
        return cherns, pairing

    def check(self, i: int, out) -> list[str]:
        return oracles.check_dirac(*out)


class Exact:
    """Exact derivation arithmetic on seeded derivations of three sizes."""

    name = "exact"
    reference = "python"
    SIZES = ((5, 8), (10, 16), (20, 32))  # (box, terms)
    POOL = 4  # distinct input sets per size; cycle c uses set c mod POOL
    cycle = len(SIZES)
    trace_ops = len(SIZES)
    in_process = True

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(self.POOL):
            row = []
            for box, n in self.SIZES:
                parts = derivation_parts(rng, box, n)
                z1, z2, x = (element(parts[k]) for k in ("z1", "z2", "x"))
                row.append({"parts": parts, "d": dv.compose_from_parts(z1, z2, x),
                            "x": x, "y": element(parts["y"])})
            self.inputs.append(row)

    def _input(self, i: int) -> dict:
        return self.inputs[(i // self.cycle) % self.POOL][i % self.cycle]

    def op(self, i: int):
        inp = self._input(i)
        d = inp["d"]
        return (dv.check_consistency(d), dv.decompose(d), dv.apply(d, inp["y"]),
                inp["x"] * inp["y"])

    def check(self, i: int, out) -> list[str]:
        report, res, applied, product = out
        return oracles.check_exact(self._input(i)["parts"], {
            "consistent": report.passed,
            "decomposed": {k: oracles.terms_of(getattr(res, k)) for k in ("z1", "z2", "x")},
            "applied": oracles.terms_of(applied),
            "product": oracles.terms_of(product),
        })


class Verify:
    """One pass of acceptance criteria 1, 2 and 4-10 per operation."""

    name = "verify"
    reference = "python"
    cycle = 1
    trace_ops = 2
    in_process = True

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.criteria = [
            (fn.__name__, "seed" in fn.__code__.co_varnames[: fn.__code__.co_argcount])
            for fn in acc.ALL_CRITERIA if fn is not acc.criterion_3_dirac_bott
        ]

    def warm_up(self) -> None:
        # The first SVD-heavy call in a process pays a one-time cost
        # (~0.1-1 s here); a closed loop pays it once, so it stays untimed.
        acc.criterion_1_pairing_tables()

    def op(self, i: int):
        # Looked up through the module on every call, so traced wrappers apply.
        return [getattr(acc, name)(seed=self.seed + i) if seeded else getattr(acc, name)()
                for name, seeded in self.criteria]

    def check(self, i: int, out) -> list[str]:
        return oracles.check_verify(out)


class ColdStart:
    """One ``hnc`` subprocess per operation; each command runs twice in a
    row so that differing stdout bytes can be counted."""

    name = "cold-start"
    # Process start and imports drift apart from in-process references.
    reference = "import"
    COMMANDS = ("group-hc-dim", "group-classify", "sequence-ktheory",
                "sequence-khomology", "pairing-table", "pairing-verify", "index",
                "alg-mul", "alg-eval", "deriv-decompose")
    POOL = 4
    cycle = 2 * len(COMMANDS)
    trace_ops = cycle
    in_process = False

    def setup(self, seed: int) -> None:
        import heisenberg_ncg.cli  # noqa: F401  (compiles the CLI's bytecode)

        rng = np.random.default_rng(seed)
        self.cycles = [self._specs(rng) for _ in range(self.POOL)]
        self.env = child_env()
        self.prev_stdout = b""
        self.nondeterministic: set[str] = set()

    @staticmethod
    def _specs(rng) -> list[dict]:
        def js(terms):
            return json.dumps(oracles.terms_to_dict(terms), separators=(",", ":"))

        n = int(rng.integers(0, 7))
        g = [0, 0, 0]
        while g == [0, 0, 0]:
            g = [int(v) for v in rng.integers(-6, 7, 3)]
        k = int(rng.choice([-2, -1, 1, 2]))
        x, y = seeded_terms(rng, 4, 4), seeded_terms(rng, 4, 4)
        t = int(rng.integers(2, 7))
        s = int(rng.choice([s for s in range(1, t) if np.gcd(s, t) == 1]))
        ex = seeded_terms(rng, 3, 4)
        parts = derivation_parts(rng, 4, 4)
        z1, z2, px = (element(parts[c]) for c in ("z1", "z2", "x"))
        d = dv.compose_from_parts(z1, z2, px)
        d_json = json.dumps(dv.derivation_to_dict(d), separators=(",", ":"))
        v_k = js({(0, k, 0): (Fraction(1), Fraction(0))})
        return [
            {"name": "group-hc-dim", "command": "group hc-dim", "n": n,
             "argv": ["group", "hc-dim", "--n", str(n)]},
            {"name": "group-classify", "command": "group classify", "element": g,
             "argv": ["group", "classify", "--element", json.dumps(g)]},
            {"name": "sequence-ktheory", "command": "sequence ktheory",
             "argv": ["sequence", "ktheory", "--check"]},
            {"name": "sequence-khomology", "command": "sequence khomology",
             "argv": ["sequence", "khomology", "--check"]},
            {"name": "pairing-table", "command": "pairing table",
             "argv": ["pairing", "table"]},
            {"name": "pairing-verify", "command": "pairing verify",
             "argv": ["pairing", "verify"]},
            {"name": "index", "command": "index", "k": k,
             "argv": ["index", "--module", "z1prime", "--unitary", v_k]},
            {"name": "alg-mul", "command": "alg mul", "x": x, "y": y,
             "argv": ["alg", "mul", js(x), js(y)]},
            {"name": "alg-eval", "command": "alg eval", "x": ex, "theta": (s, t),
             "argv": ["alg", "eval", js(ex), "--theta", f"{s}/{t}"]},
            # Through stdin, the README's other input form: inline JSON
            # whose longest '/'-free stretch exceeds 255 bytes makes the CLI
            # die with OSError (see WORKLOADS.md), and a derivation's JSON
            # is that long.
            {"name": "deriv-decompose", "command": "deriv decompose", **{
                c: parts[c] for c in ("z1", "z2", "x")},
             "argv": ["deriv", "decompose", "-"], "stdin": d_json},
        ]

    def spec(self, i: int) -> dict:
        return self.cycles[(i // self.cycle) % self.POOL][(i % self.cycle) // 2]

    def run(self, spec: dict) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "heisenberg_ncg.cli", *spec["argv"]],
            input=spec.get("stdin", "").encode(), capture_output=True,
            env=self.env, cwd=ROOT, timeout=120)

    def op(self, i: int):
        return self.run(self.spec(i))

    def check(self, i: int, out) -> list[str]:
        spec = self.spec(i)
        if i % 2 == 1 and out.stdout != self.prev_stdout:
            self.nondeterministic.add(spec["name"])
        self.prev_stdout = out.stdout
        return oracles.check_cli(spec, out.returncode, out.stdout)


WORKLOADS = {w.name: w for w in (Dirac, Exact, Verify, ColdStart)}
