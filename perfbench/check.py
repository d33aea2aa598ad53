"""Output checks applied to every op, outside the timed region.

Each claim in a rendered report is recomputed from the JSON the user would
see, with this module's own arithmetic: plain trial division, a
continued-fraction period loop and 3x3 Gram products.  Nothing here imports
gmlattice, so a defect in a timed layer cannot hide itself.  Witness fields
are read with ``.get`` so that a report without, say, a ``bound`` key still
checks.
"""

import json
from copy import deepcopy
from math import isqrt
from types import SimpleNamespace


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _negative_pell_solvable(m: int) -> bool:
    """n^2 - m a^2 = -1 has a solution iff m = 1 or sqrt(m) has odd period."""
    if m == 1:
        return True
    a0 = isqrt(m)
    if a0 * a0 == m:
        return False
    mm, dd, a, period = 0, 1, a0, 0
    while a != 2 * a0:
        mm = dd * a - mm
        dd = (m - mm * mm) // dd
        a = (a0 + mm) // dd
        period += 1
    return period % 2 == 1


def _pair(gram, u, v) -> int:
    return sum(u[i] * gram[i][j] * v[j] for i in range(3) for j in range(3))


def _det3(g) -> int:
    return (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )


def _labelling_gram(d: int):
    """Normal-form labelling lattice of discriminant d = 2 or 4 (mod 8)."""
    k = (d - d % 8) // 8
    b = 0 if d % 8 == 2 else 1
    return [[-2, 0, 1], [0, -2, b], [1, b, 2 * k]]


def _is_vec3(v) -> bool:
    return isinstance(v, list) and len(v) == 3 and all(isinstance(x, int) for x in v)


def _is_gram3(g) -> bool:
    return isinstance(g, list) and len(g) == 3 and all(_is_vec3(r) for r in g)


def check_report(d: int, rep: dict, with_witnesses: bool) -> tuple[list[str], bool]:
    """Problems found in one rendered classify report, and whether the K3
    witness is unresolved (star2 holds but no plane was found).  An
    unresolved witness is reported by the benchmark, not counted as a
    failure."""
    bad: list[str] = []
    if not isinstance(rep, dict):
        return [f"d={d}: report is not a JSON object"], False
    if rep.get("d") != d:
        bad.append(f"d={d}: report is for d={rep.get('d')}")
    if rep.get("admissible") is not True:
        bad.append(f"d={d}: admissible d reported as inadmissible")
    fac = _factor(d)
    star2 = d % 8 != 0 and all(p % 4 != 3 for p in fac)
    twisted = all(e % 2 == 0 for p, e in fac.items() if p % 4 == 3)
    if rep.get("star2") is not star2:
        bad.append(f"d={d}: star2={rep.get('star2')}, trial division says {star2}")
    if rep.get("star2_twisted") is not twisted:
        bad.append(f"d={d}: star2_twisted={rep.get('star2_twisted')}, trial division says {twisted}")

    s3 = rep.get("star3")
    if s3 is None:
        if _negative_pell_solvable(d // 2):
            bad.append(f"d={d}: star3 absent but the period of sqrt(d/2) is odd")
    else:
        n, a = s3.get("n"), s3.get("a")
        if not (isinstance(n, int) and isinstance(a, int) and a * a * d == 2 * n * n + 2):
            bad.append(f"d={d}: star3 (n, a) = ({n}, {a}) breaks a^2 d = 2 n^2 + 2")
    if (rep.get("dm_isomorphic") is None) != (s3 is None):
        bad.append(f"d={d}: dm_isomorphic={rep.get('dm_isomorphic')} with star3={'set' if s3 else None}")

    wit = rep.get("witnesses") or {}
    tw = wit.get("twisted")
    if tw is not None:
        x, y, i = tw.get("x"), tw.get("y"), tw.get("i")
        if not (all(isinstance(t, int) for t in (x, y, i)) and i > 0 and 2 * x * x + 2 * y * y == i * i * d):
            bad.append(f"d={d}: twisted witness {tw} breaks 2x^2 + 2y^2 = i^2 d")
    if with_witnesses and (tw is not None) != twisted:
        bad.append(f"d={d}: twisted witness present={tw is not None} but star2_twisted={twisted}")

    hb = wit.get("hilb2")
    if hb is not None:
        g, w = hb.get("gram"), hb.get("w")
        if not (_is_gram3(g) and _is_vec3(w)):
            bad.append(f"d={d}: hilb2 witness is not a 3x3 Gram and a 3-vector")
        elif _det3(g) != d or _pair(g, w, w) != 0 or _pair(g, (1, 0, 0), w) != 1:
            bad.append(f"d={d}: hilb2 witness fails det = d, w.w = 0 or lambda1.w = 1")
    if with_witnesses and (hb is not None) != (s3 is not None):
        bad.append(f"d={d}: hilb2 witness present={hb is not None} but star3 present={s3 is not None}")

    k3 = wit.get("k3")
    found = k3 is not None and k3.get("status") == "found"
    if found:
        g = k3.get("gram", _labelling_gram(d))
        basis, gen = k3.get("u_basis"), k3.get("complement_gen")
        if not star2:
            bad.append(f"d={d}: K3 witness found but star2 fails")
        if not (_is_gram3(g) and isinstance(basis, list) and len(basis) == 2
                and all(_is_vec3(v) for v in basis) and _is_vec3(gen)):
            bad.append(f"d={d}: K3 witness lacks a U basis or complement generator")
        else:
            v, u = basis
            if _det3(g) != d:
                bad.append(f"d={d}: K3 witness Gram has determinant {_det3(g)}")
            if (_pair(g, v, v), _pair(g, u, u), _pair(g, v, u)) != (0, 0, 1):
                bad.append(f"d={d}: K3 U basis {basis} does not span a hyperbolic plane")
            if _pair(g, gen, v) or _pair(g, gen, u):
                bad.append(f"d={d}: K3 complement generator is not orthogonal to U")
            if k3.get("gen_norm") != -d or _pair(g, gen, gen) != -d:
                bad.append(f"d={d}: K3 gen_norm={k3.get('gen_norm')} is not -d")
    unresolved = with_witnesses and star2 and not found
    return bad, unresolved


def check_rendered(d: int, rendered: str, with_witnesses: bool) -> tuple[list[str], bool]:
    try:
        rep = json.loads(rendered)
    except (TypeError, ValueError) as exc:
        return [f"d={d}: render is not JSON ({exc})"], False
    return check_report(d, rep, with_witnesses)


def check_verify(results) -> list[str]:
    """Problems in one verify-paper pass: every check must pass."""
    if not results:
        return ["verify-paper ran no checks"]
    return [
        f"verify-paper check {getattr(r, 'name', '?')} failed: {getattr(r, 'detail', '')}"
        for r in results
        if getattr(r, "passed", None) is not True
    ]


def _edited(rep: dict, path: tuple, fn) -> dict:
    """A deep copy of rep with the field at path replaced by fn(field)."""
    out = deepcopy(rep)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = fn(node[path[-1]])
    return out


def _corruptions(rep: dict):
    """(field path, corrupted copy) for each field of rep the checker guards."""
    wit = rep.get("witnesses") or {}
    cases = [(("d",), lambda d: d + 8), (("star2",), lambda b: not b), (("star2_twisted",), lambda b: not b)]
    if rep.get("star3"):
        cases += [(("star3", "n"), lambda n: n + 1), (("star3",), lambda _: None), (("dm_isomorphic",), lambda _: None)]
    if wit.get("twisted"):
        cases.append((("witnesses", "twisted", "x"), lambda x: x + 1))
    if wit.get("hilb2"):
        cases.append((("witnesses", "hilb2", "w", 0), lambda x: x + 1))
    if (wit.get("k3") or {}).get("status") == "found":
        cases += [(("witnesses", "k3", "gen_norm"), lambda g: g - 8), (("witnesses", "k3", "u_basis", 0, 2), lambda x: x + 1)]
    for path, fn in cases:
        try:
            yield ".".join(map(str, path)), _edited(rep, path, fn)
        except (KeyError, IndexError, TypeError):
            continue  # the report no longer has this field


def self_test(d: int, rendered: str) -> dict:
    """Corrupt a correct report field by field and confirm each is caught."""
    rep = json.loads(rendered)
    missed = []
    if check_report(d, rep, True)[0]:
        missed.append("pristine report flagged")
    applied = 0
    for label, bad in _corruptions(rep):
        applied += 1
        if not check_report(d, bad, True)[0]:
            missed.append(label)
    failed_check = SimpleNamespace(name="corrupt", passed=False, detail="injected")
    applied += 1
    if not check_verify([failed_check]):
        missed.append("verify-paper failure")
    return {"applied": applied, "missed": missed}
