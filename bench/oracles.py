"""Independent output oracles for the benchmark workloads.

Each ``check_*`` function returns a list of failure messages; an empty list
means the output is correct.  The ring arithmetic here is written from the
defining relation VU = WUV on plain dictionaries of ``Fraction`` pairs, so
it shares no code with ``heisenberg_ncg.algebra``.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from math import gcd

# An element is {(p, q, r): (re, im)} with Fraction parts and no zeros.
Terms = dict

CONVERGENCE_TOL = 0.1  # dirac_even_pairing's default convergence_tol


def _clean(terms: Terms) -> Terms:
    return {k: c for k, c in terms.items() if c != (0, 0)}


def ring_add(a: Terms, b: Terms, sign: int = 1) -> Terms:
    out = dict(a)
    for k, (re, im) in b.items():
        o_re, o_im = out.get(k, (Fraction(0), Fraction(0)))
        out[k] = (o_re + sign * re, o_im + sign * im)
    return _clean(out)


def ring_mul(a: Terms, b: Terms) -> Terms:
    """Product of two elements: V^q U^p = W^{qp} U^p V^q gives
    U^p1 V^q1 W^r1 * U^p2 V^q2 W^r2 = U^(p1+p2) V^(q1+q2) W^(r1+r2+q1 p2)."""
    out: dict = {}
    for (p1, q1, r1), (ar, ai) in a.items():
        for (p2, q2, r2), (br, bi) in b.items():
            k = (p1 + p2, q1 + q2, r1 + r2 + q1 * p2)
            o_re, o_im = out.get(k, (Fraction(0), Fraction(0)))
            out[k] = (o_re + ar * br - ai * bi, o_im + ar * bi + ai * br)
    return _clean(out)


def weighted(y: Terms, axis: int) -> Terms:
    """delta_1 (axis 0) or delta_2 (axis 1): U^p V^q W^r -> p or q times it."""
    return _clean({k: (k[axis] * re, k[axis] * im) for k, (re, im) in y.items()})


def expected_apply(z1: Terms, z2: Terms, x: Terms, y: Terms) -> Terms:
    """d(y) for d = z1*d1 + z2*d2 + [., x] by the decomposition theorem."""
    out = ring_add(ring_mul(z1, weighted(y, 0)), ring_mul(z2, weighted(y, 1)))
    return ring_add(out, ring_add(ring_mul(y, x), ring_mul(x, y), sign=-1))


def terms_of(element) -> Terms:
    """An ``AlgebraElement`` as plain terms (public ``terms`` property)."""
    return {k: (c.re, c.im) for k, c in element.terms.items()}


def terms_from_dict(data: dict) -> Terms:
    """Terms from the ``{"terms": [{p, q, r, re, im}, ...]}`` JSON form."""
    out: dict = {}
    for rec in data["terms"]:
        k = (int(rec["p"]), int(rec["q"]), int(rec["r"]))
        out[k] = (Fraction(rec["re"]), Fraction(rec["im"]))
    return _clean(out)


def terms_to_dict(terms: Terms) -> dict:
    return {
        "terms": [
            {"p": p, "q": q, "r": r, "re": str(re), "im": str(im)}
            for (p, q, r), (re, im) in sorted(terms.items())
        ]
    }


# ---- workload oracles ----


def check_exact(parts: dict, out: dict) -> list[str]:
    """``parts`` holds z1, z2, x, y as Terms; ``out`` the program's results."""
    z1, z2, x, y = parts["z1"], parts["z2"], parts["x"], parts["y"]
    fails = []
    if not out["consistent"]:
        fails.append("check_consistency rejected a derivation built from parts")
    for name in ("z1", "z2", "x"):
        if out["decomposed"][name] != parts[name]:
            fails.append(f"decompose returned a different {name}")
    if out["applied"] != expected_apply(z1, z2, x, y):
        fails.append("apply(d, y) != z1 d1(y) + z2 d2(y) + (y x - x y)")
    if out["product"] != ring_mul(x, y):
        fails.append("x * y differs from the oracle product")
    return fails


def check_dirac(cherns: dict, pairing: dict) -> list[str]:
    fails = [f"lattice Chern number {v} at grid {g}, want 1"
             for g, v in cherns.items() if v != 1]
    if pairing["value"] != 1:
        fails.append(f"Dirac pairing {pairing['value']}, want 1")
    residuals = pairing["certificates"]["residuals"]
    if max(residuals) > CONVERGENCE_TOL:
        fails.append(f"Dirac residuals {residuals} exceed {CONVERGENCE_TOL}")
    return fails


def check_verify(results: list[dict]) -> list[str]:
    return [f"criterion {r['criterion']} ({r['name']}) did not pass"
            for r in results if not r["passed"]]


# ---- cold-start (hnc command) oracles ----

PAIRING_TABLES = {
    "even": [[1, 0, 0], [1, 1, 0], [1, 0, 1]],
    "odd": [[1, 0, 0], [0, 1, 0], [0, 1, 1]],
    "torus_even": [[1, 0], [1, 1]],
    "torus_odd": [[1, 0], [0, 1]],
}


def _classify(p: int, q: int, r: int) -> dict:
    """Centralizer case, k and conjugacy representative of U^p V^q W^r."""
    if p == 0 and q == 0:
        return {"case": "Case4a" if abs(r) == 1 else "Case4b", "k": 0,
                "conjugacy_representative": [p, q, r]}
    k = gcd(p, q)
    case = "Case2" if q == 0 else "Case3" if p == 0 else "Case1"
    return {"case": case, "k": k, "conjugacy_representative": [p, q, r % k]}


def _clock_shift(terms: Terms, s: int, t: int) -> list[list[complex]]:
    """x in the t-dimensional rep: U e_j = e_{j+1}, V e_j = lam^j e_j, W = lam."""
    lam = cmath.exp(2j * cmath.pi * s / t)
    m = [[0j] * t for _ in range(t)]
    for (p, q, r), (re, im) in terms.items():
        c = complex(float(re), float(im)) * lam**r
        for j in range(t):
            m[(j + p) % t][j] += c * lam ** (q * j)
    return m


def check_cli(spec: dict, returncode: int, stdout: bytes) -> list[str]:
    """``spec`` names the command (``name``) and the inputs it was given."""
    if returncode != 0:
        return [f"{spec['name']}: exit code {returncode}"]
    try:
        doc = json.loads(stdout)
        res = doc["result"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"{spec['name']}: unreadable output ({e})"]
    name = spec["name"]
    fails = []
    if doc.get("command") != spec["command"]:
        fails.append(f"{name}: command field {doc.get('command')!r}")
    if name == "group-hc-dim":
        n = spec["n"]
        want = {"degree": n, "finite_rank": [1, 2][n] if n < 2 else 3,
                "countable_factor": n <= 2}
        if res != want:
            fails.append(f"{name}: {res} != {want}")
    elif name == "group-classify":
        want = _classify(*spec["element"])
        got = {k: res.get(k) for k in want}
        if got != want:
            fails.append(f"{name}: {got} != {want}")
    elif name.startswith("sequence-"):
        nodes = res.get("nodes", [])
        if not (res.get("exact") is True and len(nodes) == 6
                and all(n["exact"] for n in nodes)):
            fails.append(f"{name}: sequence not reported exact at six nodes")
    elif name == "pairing-table":
        got = {k: res[k]["entries"] for k in PAIRING_TABLES if k in res}
        if got != PAIRING_TABLES:
            fails.append(f"{name}: tables {got}")
    elif name == "pairing-verify":
        checks = res.get("details", {}).get("checks", [])
        if not (res.get("passed") is True and len(checks) == 12
                and all(c["got"] == c["want"] for c in checks)):
            fails.append(f"{name}: recomputed pairings disagree")
    elif name == "index":
        if res != {"index": spec["k"]}:
            fails.append(f"{name}: {res}, want index {spec['k']}")
    elif name == "alg-mul":
        if terms_from_dict(res) != ring_mul(spec["x"], spec["y"]):
            fails.append(f"{name}: product differs from the oracle")
    elif name == "alg-eval":
        s, t = spec["theta"]
        want = _clock_shift(spec["x"], s, t)
        got = res.get("matrix", [])
        err = max(
            (abs(complex(e["re"], e["im"]) - w)
             for grow, wrow in zip(got, want) for e, w in zip(grow, wrow)),
            default=float("inf"),
        )
        if res.get("dimension") != t or len(got) != t or err > 1e-9:
            fails.append(f"{name}: matrix differs from clock-and-shift by {err}")
    elif name == "deriv-decompose":
        for part in ("z1", "z2", "x"):
            if terms_from_dict(res[part]) != spec[part]:
                fails.append(f"{name}: {part} differs from the input part")
    else:
        fails.append(f"no oracle for command {name}")
    return fails
