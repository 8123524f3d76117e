"""Seeded inputs and fixed job lists for the altstar benchmark workloads.

A workload is a list of ``altstar`` CLI jobs.  Every job carries the exit
code and the verdict field its report must show; ``oracle.py`` checks the
rest.  All inputs are a pure function of the workload seed: the seed sets
each job's ``--seed`` and every generated algebra and map file.

Workloads:

* ``catalog``: the q_n identity catalog audit on the builtins, with dense
  random coordinates over sparse +-1 structure constants.  Time goes to the
  jordan folds, then to multiply/star, then to scalars.  No maps, almost no
  linalg.
* ``falsify``: the rest of the CLI on the builtins: axiom suites, Peirce
  relations, the spade condition and map falsification.  Products mostly
  see basis vectors with one nonzero coordinate, so per-call overhead
  dominates; this is the partner of ``catalog`` for any multiply change.
* ``dense-basis``: zorn, matrix:3 and cd:-1,-1,-1 transported by a seeded
  unimodular change of basis and loaded from files.  Structure tensors are
  nearly dense and the star is no longer a signed permutation, so a fast
  path keyed to sparse +-1 constants or permutation stars is bypassed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from altstar import linalg
from altstar.constructions import change_of_basis
from altstar.formats import (algebra_to_dict, canonical_json, map_to_dict,
                             resolve_algebra)
from altstar.maps import (matrix_swap_conjugation, patched_map,
                          zorn_rotation_map)
from altstar.peirce import find_symmetric_idempotents
from altstar.scalars import ONE, ZERO, Scalar

# Gaussian-integer entries of the change-of-basis factors: {-1,0,1}+{-1,0,1}i
_UNIT_RANGE = (-1, 0, 1)

# builtin spec -> short tag used in job and file names
DENSE_SPECS = {"zorn": "zorn", "matrix:3": "matrix3", "cd:-1,-1,-1": "cd8"}


@dataclass(frozen=True)
class Job:
    """One CLI call and the verdict its report must carry.

    ``witness`` says whether the report must contain a witness (True),
    must not (False), or may either way (None).
    """
    name: str
    argv: tuple[str, ...]
    exit_code: int
    verdict_field: str
    verdict: bool
    witness: Optional[bool] = None


def _rng(workload: str, seed: int, *tags: object) -> random.Random:
    return random.Random("|".join(["perfbench", workload, str(seed)]
                                  + [str(t) for t in tags]))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _gaussian(rng: random.Random) -> Scalar:
    return Scalar(rng.choice(_UNIT_RANGE), rng.choice(_UNIT_RANGE))


def unimodular_matrix(dim: int, rng: random.Random) -> list[list[Scalar]]:
    """Unit-lower times unit-upper, so the inverse is integral as well."""
    lower = [[ONE if i == j else (_gaussian(rng) if i > j else ZERO)
              for j in range(dim)] for i in range(dim)]
    upper = [[ONE if i == j else (_gaussian(rng) if i < j else ZERO)
              for j in range(dim)] for i in range(dim)]
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = ZERO
            for t in range(dim):
                acc = acc + lower[i][t] * upper[t][j]
            row.append(acc)
        out.append(row)
    return out


def _seed_args(seed: int) -> tuple[str, ...]:
    return ("--seed", str(seed))


def catalog_jobs(seed: int, workdir: str, tick: Callable) -> list[Job]:
    s = _seed_args(seed)
    return [
        Job("lemmas-zorn-n2-5",
            ("lemmas", "zorn", "--n-min", "2", "--n-max", "5",
             "--samples", "15") + s,
            0, "derived_all_ok", True, witness=True),
        Job("lemmas-matrix2-n2-5",
            ("lemmas", "matrix:2", "--n-min", "2", "--n-max", "5",
             "--samples", "15") + s,
            0, "derived_all_ok", True, witness=True),
        Job("lemmas-zorn-n2-12",
            ("lemmas", "zorn", "--n-min", "2", "--n-max", "12",
             "--samples", "6") + s,
            0, "derived_all_ok", True, witness=True),
    ]


def _random_zorn_element(a, rng: random.Random):
    """A seeded element with at least 3 nonzero coordinates, so never the
    unit, e1 or e2, which would make the patched map fail the unital check."""
    while True:
        coords = [Scalar(rng.randint(-2, 2), rng.randint(-2, 2))
                  for _ in range(a.dim)]
        if sum(not c.is_zero() for c in coords) >= 3:
            return a.element(coords)


def falsify_jobs(seed: int, workdir: str, tick: Callable) -> list[Job]:
    zorn, _ = resolve_algebra("zorn")
    rot = zorn_rotation_map(zorn)
    rng = _rng("falsify", seed, "patch")
    p = _random_zorn_element(zorn, rng)
    q = _random_zorn_element(zorn, rng)
    while q == p:
        q = _random_zorn_element(zorn, rng)
    # swapping two points keeps the map a bijection, so only the algebraic
    # checks can refute it
    bad = patched_map(rot, {p: q, q: p}, name="zorn-rotation+swap")
    m2, _ = resolve_algebra("matrix:2")
    swap = matrix_swap_conjugation(m2)
    rot_path = os.path.join(workdir, "zorn-rotation.map.json")
    bad_path = os.path.join(workdir, "zorn-rotation-patched.map.json")
    swap_path = os.path.join(workdir, "matrix2-swap.map.json")
    _write(rot_path, canonical_json(map_to_dict(rot, "zorn", "zorn")))
    _write(bad_path, canonical_json(map_to_dict(bad, "zorn", "zorn")))
    _write(swap_path, canonical_json(map_to_dict(swap, "matrix:2",
                                                 "matrix:2")))
    s = _seed_args(seed)
    mc = ("--n", "3", "--samples", "100") + s
    return [
        Job("check-cd16", ("check", "cd:-1,-1,-1,-1"), 1, "ok", False,
            witness=True),
        Job("check-matrix4", ("check", "matrix:4"), 0, "ok", True,
            witness=False),
        Job("peirce-zorn", ("peirce", "zorn", "--samples", "40") + s,
            0, "ok", True, witness=True),
        Job("peirce-matrix3", ("peirce", "matrix:3", "--samples", "40") + s,
            0, "ok", True, witness=False),
        Job("spade-matrix5", ("spade", "matrix:5"), 0, "ok", True,
            witness=False),
        Job("spade-dsum", ("spade", "dsum:zorn,matrix:3"), 1, "ok", False,
            witness=True),
        Job("mapcheck-zorn-rotation", ("mapcheck", rot_path) + mc,
            0, "refuted", False, witness=False),
        Job("mapcheck-zorn-patched", ("mapcheck", bad_path) + mc,
            1, "refuted", True, witness=True),
        Job("mapcheck-matrix2-swap", ("mapcheck", swap_path) + mc,
            0, "refuted", False, witness=False),
    ]


def transported_algebra(spec: str, seed: int) -> dict:
    """The algebra file of *spec* moved to a seeded unimodular basis.

    Its idempotent table holds the transported e1 and e2 = 1 - e1.
    """
    a, idem = resolve_algebra(spec)
    if "e1" in idem:
        e1 = a.element(idem["e1"])
    else:
        e1 = find_symmetric_idempotents(a)[0]
    m = unimodular_matrix(a.dim, _rng("dense-basis", seed, spec))
    b = change_of_basis(a, m, name=f"{spec}~")
    e1_new = linalg.mat_vec(linalg.inverse(m), e1.coords)
    e2_new = [u - v for u, v in zip(b.unit.coords, e1_new)]
    return algebra_to_dict(b, {"e1": e1_new, "e2": e2_new})


def dense_basis_jobs(seed: int, workdir: str, tick: Callable) -> list[Job]:
    s = _seed_args(seed)
    jobs = []
    for spec, tag in DENSE_SPECS.items():
        path = os.path.join(workdir, f"dense-{tag}.json")
        _write(path, canonical_json(transported_algebra(spec, seed)))
        tick()
        jobs += [
            Job(f"check-dense-{tag}", ("check", path), 0, "ok", True,
                witness=False),
            Job(f"spade-dense-{tag}", ("spade", path), 0, "ok", True,
                witness=False),
            Job(f"peirce-dense-{tag}", ("peirce", path, "--samples", "2") + s,
                0, "ok", True),
            Job(f"lemmas-dense-{tag}",
                ("lemmas", path, "--n-min", "2", "--n-max", "3",
                 "--samples", "1") + s,
                0, "derived_all_ok", True),
        ]
    return jobs


_JOB_LISTS = {"catalog": catalog_jobs, "falsify": falsify_jobs,
              "dense-basis": dense_basis_jobs}


def build(workload: str, seed: int, workdir: str,
          tick: Callable = lambda: None) -> list[Job]:
    """Write the workload's input files under *workdir*; return its jobs.

    *tick* is called after each costly input is written, so that the
    caller can time the pieces separately.
    """
    os.makedirs(workdir, exist_ok=True)
    return _JOB_LISTS[workload](seed, workdir, tick)
