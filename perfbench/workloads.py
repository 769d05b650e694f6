"""Seeded inputs, reference answers and answer checks for the benchmark.

Import this after putting the checkout's ``src`` on ``sys.path``.  The
program under test only ever sees the files written here.  Reference
answers are computed by a second route (``bareiss_det``, exact rationals,
closed-form spectra) while setting up, never by the request's own route.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from exactdet.huckel import PiSystem, secular_matrix
from exactdet.matrix import Matrix
from exactdet.oracle import bareiss_det
from exactdet.ring import ExactInteger, ExactRational

SPEC_PATH = Path(__file__).with_name("workloads.json")

REAL_REL_TOL = 1e-6
CLOSED_FORM_TOL = 1e-6
PUBLISHED_TOL = 1e-4

_P = (1 << 61) - 1  # prime modulus for the zero tests of the route model


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


# ---------------------------------------------------------------------------
# Route model: the seed's documented mitigation plan order, replayed on
# native values.  It is part of the workload definition, not of the program:
# it only orders candidate matrices by how much mitigation work the seed
# strategy spends on them, so every seed gets the same mix of cheap and
# expensive cases.  A program that mitigates differently sees the same inputs.


def plan_order(n: int):
    """Mitigation plans in the order the condense module documents."""
    yield ("rot", 0, 0)
    for r in range(1, n):
        yield ("rot", r, 0)
    for c in range(1, n):
        yield ("rot", 0, c)
    for r in range(1, n):
        for c in range(1, n):
            yield ("rot", r, c)
    for salt in range(n):
        yield ("add", salt)


class _Unremovable(Exception):
    pass


def _residue(v: Fraction) -> int:
    return v.numerator * pow(v.denominator, -1, _P) % _P


def _interior_clean(m) -> bool:
    n = len(m)
    return all(m[i][j] != 0 for i in range(1, n - 1) for j in range(1, n - 1))


def _additive_repair(rows, salt):
    n = len(rows)
    m = [list(r) for r in rows]
    attempts = {}
    for _ in range(4 * n * n):
        zero_at = next(
            ((i, j) for i in range(1, n - 1) for j in range(1, n - 1) if m[i][j] == 0),
            None,
        )
        if zero_at is None:
            return m
        i, j = zero_at
        attempts[zero_at] = attempts.get(zero_at, 0) + 1
        c = salt + attempts[zero_at]
        src = next((s for s in range(n) if s != i and m[s][j] != 0), None)
        if src is not None:
            m[i] = [(a + c * b) % _P for a, b in zip(m[i], m[src])]
            continue
        src = next((t for t in range(n) if t != j and m[i][t] != 0), None)
        if src is None:
            raise _Unremovable
        for row in m:
            row[j] = (row[j] + c * row[src]) % _P
    raise _Unremovable


def _condenses_cleanly(m) -> bool:
    """True when no interior entry of any stage is zero."""
    prev = None
    cur = m
    while len(cur) > 1:
        if prev is not None and not _interior_clean(prev):
            return False
        k = len(cur) - 1
        nxt = []
        for i in range(k):
            row = []
            for j in range(k):
                d = cur[i][j] * cur[i + 1][j + 1] - cur[i][j + 1] * cur[i + 1][j]
                if prev is not None:
                    d *= pow(prev[i + 1][j + 1], -1, _P)
                row.append(d % _P)
            nxt.append(row)
        prev, cur = cur, nxt
    return True


def mitigation_work(rows) -> int:
    """Modelled mitigation work of the seed strategy on one matrix.

    Work is in units of one matrix entry rebuilt by a rotation plan: a fixed
    9000 per request, the entries rotation plans rebuild, and 4 n^3 per
    condensation attempt.  The weights were fitted to measured CLI request
    times on n = 7..10, where the model explains them to about 15%.  Entries
    are reduced mod a 61-bit prime: the inputs are small, so an entry is zero
    exactly when its residue is, and a nonzero minor has a zero residue with
    probability about 2^-61.
    """
    n = len(rows)
    rows = [[_residue(Fraction(v)) for v in r] for r in rows]
    excluded = set()
    work = 9000
    for _ in range(2 * n + 1):
        accepted = None
        for plan in plan_order(n):
            if plan in excluded:
                continue
            if plan[0] == "rot":
                r, c = plan[1], plan[2]
                work += (r + c) * (n - 1) * n * n
                cand = [row[c:] + row[:c] for row in rows[r:] + rows[:r]]
                if _interior_clean(cand):
                    accepted = (plan, cand)
                    break
            else:
                try:
                    accepted = (plan, _additive_repair(rows, plan[1]))
                except _Unremovable:
                    return work
                break
        if accepted is None:
            return work
        work += 4 * n ** 3
        if _condenses_cleanly(accepted[1]):
            return work
        excluded.add(accepted[0])
    return work


# ---------------------------------------------------------------------------
# Input generation


def _draw(group, n, rng):
    ring = group["ring"]
    if ring == "int":
        lo, hi = group["range"]
        return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    if ring == "rational":
        k = group["max_abs"]
        return [
            [Fraction(rng.randint(-k, k), rng.randint(1, k)) for _ in range(n)]
            for _ in range(n)
        ]
    scale = group["scale"]
    return [[rng.uniform(-1.0, 1.0) * scale for _ in range(n)] for _ in range(n)]


def _token(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(v)


def _matrices(group, rng):
    """(n, rows) pairs of one group.

    A group with ``work_targets`` draws ``match_pool`` candidates per kept
    matrix and, for each target in turn, keeps the unused candidate whose
    modelled mitigation work is closest to it on a log scale.  The targets
    are fixed quantiles of that work (see ``targets``), so every seed gets
    different matrices with the same mix of cheap and expensive cases.
    """
    out = []
    for n_text, count in group["sizes"].items():
        n = int(n_text)
        if "work_targets" not in group:
            out.extend((n, _draw(group, n, rng)) for _ in range(count))
            continue
        cands = [_draw(group, n, rng) for _ in range(group["match_pool"] * count)]
        logs = [math.log(mitigation_work(c)) for c in cands]
        unused = set(range(len(cands)))
        for target in group["work_targets"][n_text]:
            pick = min(unused, key=lambda i: (abs(logs[i] - math.log(target)), i))
            unused.remove(pick)
            out.append((n, cands[pick]))
    return out


def targets(group, draws: int) -> dict:
    """Work targets of a group: evenly spaced quantiles of modelled work.

    Quantile i of k is (i + 1/2) / k times ``match_upto`` (default 1), over
    ``draws`` matrices from a fixed generator.
    """
    rng = random.Random("targets")
    upto = group.get("match_upto", 1.0)
    out = {}
    for n_text, count in group["sizes"].items():
        works = sorted(mitigation_work(_draw(group, int(n_text), rng)) for _ in range(draws))
        out[n_text] = [works[int((2 * i + 1) * draws * upto / (2 * count))] for i in range(count)]
    return out


def _det_requests(spec, rng, workdir: Path):
    requests = []
    for group in spec["input"]["groups"]:
        for k, (n, rows) in enumerate(_matrices(group, rng)):
            label = f"{group['label']}_n{n}_{k}"
            path = workdir / f"{label}.txt"
            path.write_text(
                "\n".join(" ".join(_token(v) for v in row) for row in rows) + "\n",
                encoding="utf-8",
            )
            if group["ring"] == "int":
                ref = bareiss_det(Matrix([[ExactInteger(v) for v in r] for r in rows])).value
            else:
                exact = Matrix([[ExactRational(Fraction(v)) for v in r] for r in rows])
                ref = bareiss_det(exact).value
            requests.append({
                "label": label,
                "path": path,
                "argv": ["det", str(path)],
                "ref": {"ring": group["ring"], "det": ref},
            })
    return requests


def _molecule_edges(mol):
    n = mol["atoms"]
    if mol["graph"] == "chain":
        return [(k, k + 1) for k in range(1, n)]
    if mol["graph"] == "cycle":
        return [(k, k % n + 1) for k in range(1, n + 1)]
    return [tuple(e) for e in mol["edges"]]


def _closed_form(mol):
    """Adjacency eigenvalues and the tolerance the comparison uses."""
    n = mol["atoms"]
    if mol["graph"] == "chain":
        return [2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)], CLOSED_FORM_TOL
    if mol["graph"] == "cycle":
        return [2 * math.cos(2 * math.pi * k / n) for k in range(n)], CLOSED_FORM_TOL
    return mol["published_levels"], PUBLISHED_TOL


def _huckel_requests(spec, rng, workdir: Path):
    inp = spec["input"]
    alpha, beta = inp["alpha"], inp["beta"]
    requests = []
    for mol in inp["molecules"]:
        edges = _molecule_edges(mol)
        lines = [f"edge {i} {j}" if rng.random() < 0.5 else f"edge {j} {i}" for i, j in edges]
        rng.shuffle(lines)
        path = workdir / f"{mol['label']}.edges"
        path.write_text(f"atoms {mol['atoms']}\n" + "\n".join(lines) + "\n", encoding="utf-8")
        system = PiSystem.from_edges(mol["atoms"], [(i - 1, j - 1) for i, j in edges])
        poly = bareiss_det(secular_matrix(system)).coeffs
        eigen, tol = _closed_form(mol)
        requests.append({
            "label": mol["label"],
            "path": path,
            "argv": ["huckel", "--edges", str(path), "--alpha", repr(alpha), "--beta", repr(beta)],
            "ref": {
                "ring": "huckel",
                "coeffs": list(poly),
                "levels": sorted(alpha + beta * x for x in eigen),
                "tol": tol,
            },
        })
    return requests


def build(name: str, spec: dict, seed: int, workdir: Path) -> list:
    """Write the workload's input files and return its requests in pass order."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    make = _huckel_requests if spec["input"]["command"] == "huckel" else _det_requests
    requests = make(spec, rng, workdir)
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# Answer checks


def check(ref: dict, exit_code, stdout: str, error) -> str | None:
    """None when the request's answer agrees with the reference, else a kind.

    Kinds: ``exception:<Type>``, ``exit_<code>``, ``real_zero`` (a real
    determinant printed as 0.0 against a nonzero reference), ``wrong_answer``.
    """
    if error is not None:
        return f"exception:{error}"
    if exit_code != 0:
        return f"exit_{exit_code}"
    lines = stdout.splitlines()
    try:
        if ref["ring"] == "huckel":
            return None if _huckel_ok(ref, lines) else "wrong_answer"
        token = lines[0].strip()
        if ref["ring"] == "int":
            return None if int(token) == ref["det"] else "wrong_answer"
        if ref["ring"] == "rational":
            return None if Fraction(token) == ref["det"] else "wrong_answer"
        value = float(token)
    except (IndexError, ValueError, ZeroDivisionError):
        return "wrong_answer"
    exact = ref["det"]
    if value == 0.0 and exact != 0:
        return "real_zero"
    if abs(Fraction(value) - exact) > REAL_REL_TOL * abs(exact):
        return "wrong_answer"
    return None


def _huckel_ok(ref, lines) -> bool:
    coeff_line = next(line for line in lines if line.startswith("coefficients:"))
    coeffs = [Fraction(t) for t in coeff_line.split()[1:]]
    start = lines.index("energy levels:") + 1
    levels = sorted(float(t) for t in lines[start:])
    want = ref["levels"]
    return (
        coeffs == ref["coeffs"]
        and len(levels) == len(want)
        and all(abs(a - b) <= ref["tol"] for a, b in zip(levels, want))
    )


if __name__ == "__main__":
    # Recompute the work targets after changing a group's sizes or
    # distribution:  PYTHONPATH=src python3 perfbench/workloads.py [DRAWS]
    import sys

    draws = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    for name, spec in load_spec().items():
        for group in spec["input"].get("groups", []):
            if "match_pool" in group:
                print(name, group["label"], json.dumps(targets(group, draws)), flush=True)
