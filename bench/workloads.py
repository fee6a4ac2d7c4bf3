"""Seeded job streams and input documents for the four benchmark workloads.

Each workload is a fixed template of job shapes (sizes, kinds, properties).
The seed draws everything numeric -- matrix entries, momenta, moduli, which
generator a cyclic cover runs along -- and the order of the jobs, but never
the shapes, so the cost mix of a round is the same for every seed and runs
with different seeds are comparable.

This module is pure Python (no numpy, no hyperband): the inputs it writes are
plain JSON documents in the program's own file formats, and the job list is a
JSON manifest that the worker reads.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep", "variety", "covers", "pointwise")

# Job-stream layouts.  A shape tuple is read by the matching _*_jobs function.

# sweep: (cli shape, scan shape) pairs; the stream alternates CLI and scan.
# shape = (genus, dim, counts, region or None, degenerate)
# region = (lo, hi, n_moduli) for an off-torus log-modulus grid.
SWEEP_PAIRS = (
    ((1, 1, 256, None, False), (1, 1, 128, None, False)),
    ((1, 4, 64, None, True), (1, 16, 24, None, True)),
    ((1, 16, 32, None, False), (1, 4, 64, None, False)),
    ((1, 4, 16, (-0.5, 0.5, 3), False), (1, 1, 64, (-0.5, 0.5, 2), False)),
    ((2, 2, 12, None, False), (2, 8, 8, None, True)),
    ((2, 8, 8, None, False), (2, 4, 10, None, False)),
    ((2, 4, 4, (-0.4, 0.4, 2), False), (2, 2, 3, (-0.4, 0.4, 2), True)),
    ((2, 8, 12, None, False), (2, 2, 6, None, False)),
)

# variety: (genus, dim, hop rank).  Every (genus, dim) runs once with
# full-rank hops and once with rank 1 or 2 below dim; one extra low-rank job
# makes the round odd, so the median job falls inside one shape's block.
VARIETY_SHAPES = tuple(
    (g, d, r)
    for g, d in tuple((1, d) for d in range(2, 9)) + ((2, 2), (2, 3), (2, 4), (3, 2))
    for r in (d, 1 if d <= 2 else 1 + d % 2)
) + ((1, 4, 2),)

# covers: (kind, genus, sheets, dim, trials); 25 jobs, 5 of them refused.  kinds: "cyclic" (one genus-2
# generator cycles the sheets), "znzm" (genus-1 Z_n x Z_m, sheets = n*m, the
# shape carries n), "swap" (one generator swaps the two halves of the sheets),
# "refused" (two generators cycle the sheets; the program must refuse it).
COVER_SHAPES = (
    ("cyclic", 2, 4, 1, 20),
    ("cyclic", 2, 4, 4, 10),
    ("cyclic", 2, 8, 2, 20),
    ("cyclic", 2, 8, 4, 5),
    ("cyclic", 2, 16, 1, 10),
    ("cyclic", 2, 16, 4, 3),
    ("cyclic", 2, 32, 2, 2),
    ("cyclic", 2, 64, 4, 1),
    ("znzm", 1, (2, 2), 4, 20),
    ("znzm", 1, (3, 4), 2, 10),
    ("znzm", 1, (4, 4), 1, 5),
    ("znzm", 1, (8, 8), 1, 1),
    ("swap", 1, 8, 2, 20),
    ("swap", 2, 16, 2, 4),
    ("swap", 2, 4, 4, 10),
    ("swap", 1, 32, 1, 3),
    ("refused", 2, 4, 2, 20),
    ("refused", 2, 8, 1, 5),
    ("refused", 2, 16, 4, 10),
    ("refused", 2, 32, 1, 1),
    ("cyclic", 2, 12, 2, 4),
    ("cyclic", 2, 32, 1, 5),
    ("znzm", 1, (2, 8), 2, 3),
    ("swap", 2, 8, 1, 20),
    ("refused", 2, 12, 2, 3),
)

# pointwise: (kind, count) -- count is the number of repetitions inside the
# job (momenta, toy points, lattices or CLI calls).  25 jobs: an odd round.
POINTWISE_SHAPES = (
    ("bloch", 12), ("bloch", 12), ("bloch", 12),
    ("quiver", 10), ("quiver", 10), ("quiver", 10),
    ("toy_curve", 4), ("toy_curve", 4), ("toy_curve", 4),
    ("hitchin", 6), ("hitchin", 6), ("hitchin", 6), ("hitchin", 6),
    ("lattice", 2), ("lattice", 2), ("lattice", 2),
    ("cli_higgs", 2), ("cli_higgs", 2), ("cli_higgs", 2),
    ("cli_curve", 2), ("cli_curve", 2), ("cli_curve", 2),
    ("cli_euclid", 2), ("cli_euclid", 2), ("cli_euclid", 2),
)

# tiny streams: a few small jobs per workload, for warm-up and smoke runs
TINY_SWEEP_PAIRS = (
    ((1, 2, 8, None, False), (2, 2, 3, None, True)),
    ((1, 2, 4, (-0.3, 0.3, 2), True), (2, 1, 3, (-0.3, 0.3, 2), False)),
)
TINY_VARIETY_SHAPES = ((1, 2, 2), (2, 2, 1))
TINY_COVER_SHAPES = (
    ("cyclic", 2, 4, 1, 2),
    ("znzm", 1, (2, 2), 1, 2),
    ("swap", 1, 4, 1, 1),
    ("refused", 2, 4, 1, 1),
)
TINY_POINTWISE_SHAPES = tuple(
    (kind, 1)
    for kind in ("bloch", "quiver", "toy_curve", "hitchin", "lattice",
                 "cli_higgs", "cli_curve", "cli_euclid")
)


# ---------------------------------------------------------------------------
# random documents
# ---------------------------------------------------------------------------


def _cnum(rng: random.Random, scale: float = 1.0) -> list:
    return [rng.gauss(0.0, scale), rng.gauss(0.0, scale)]


def _cmul(a: list, b: list) -> list:
    return [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]


def _hermitian(rng: random.Random, d: int) -> list:
    m = [[[0.0, 0.0] for _ in range(d)] for _ in range(d)]
    for i in range(d):
        m[i][i] = [rng.gauss(0.0, 1.0), 0.0]
        for j in range(i + 1, d):
            z = _cnum(rng, 0.5)
            m[i][j] = z
            m[j][i] = [z[0], -z[1]]
    return m


def _hop(rng: random.Random, d: int, rank: int) -> list:
    """A d x d complex hop of the given rank (full when rank == d), norm ~ 1."""
    scale = 1.0 / math.sqrt(d)
    if rank >= d:
        return [[_cnum(rng, scale) for _ in range(d)] for _ in range(d)]
    u = [[_cnum(rng) for _ in range(rank)] for _ in range(d)]
    v = [[_cnum(rng, scale / math.sqrt(rank)) for _ in range(d)] for _ in range(rank)]
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = [0.0, 0.0]
            for r in range(rank):
                p = _cmul(u[i][r], v[r][j])
                acc = [acc[0] + p[0], acc[1] + p[1]]
            row.append(acc)
        out.append(row)
    return out


def _direct_sum(m: list) -> list:
    """block-diag(m, m): every eigenvalue of the model appears twice."""
    d = len(m)
    zero = [0.0, 0.0]
    top = [row + [zero] * d for row in m]
    bottom = [[zero] * d + row for row in m]
    return top + bottom


def random_model(rng: random.Random, genus: int, dim: int, rank: int = None,
                 degenerate: bool = False) -> dict:
    """A model document; degenerate models are M (+) M of a dim/2 model."""
    d = dim // 2 if degenerate else dim
    rank = d if rank is None else rank
    onsite = _hermitian(rng, d)
    hops = [_hop(rng, d, rank) for _ in range(2 * genus)]
    if degenerate:
        onsite = _direct_sum(onsite)
        hops = [_direct_sum(h) for h in hops]
    return {"hyperband_model": 1, "genus": genus, "dim": dim,
            "onsite": onsite, "hops": hops}


def _shift(n: int, k: int = 1) -> list:
    return [((s + k) % n) + 1 for s in range(n)]


def _identity(n: int) -> list:
    return list(range(1, n + 1))


def cover_document(rng: random.Random, kind: str, genus: int, sheets) -> tuple:
    """(cover document, sheet count, expected genus of the cover or None)."""
    if kind == "znzm":
        n, m = sheets
        a = [((i + 1) % n) * m + j + 1 for i in range(n) for j in range(m)]
        b = [i * m + (j + 1) % m + 1 for i in range(n) for j in range(m)]
        perms, total, g_cover = [a, b], n * m, 1
    elif kind == "cyclic":
        total = sheets
        perms = [_identity(total) for _ in range(2 * genus)]
        perms[rng.randrange(2 * genus)] = _shift(total)
        g_cover = total * (genus - 1) + 1
    elif kind == "swap":
        total = sheets
        perms = [_identity(total) for _ in range(2 * genus)]
        perms[rng.randrange(2 * genus)] = _shift(total, total // 2)
        # total/2 components of two sheets each
        g_cover = (total // 2) * (2 * (genus - 1) + 1)
    elif kind == "refused":
        # two commuting generators of different handles, both cycling the
        # sheets: too many hop directions for a single-hop supercell
        total = sheets
        perms = [_identity(total) for _ in range(2 * genus)]
        first = rng.randrange(2)
        second = 2 + rng.randrange(2)
        perms[first] = _shift(total)
        perms[second] = _shift(total)
        g_cover = None
    else:
        raise ValueError(f"unknown cover kind {kind!r}")
    return {"hyperband_cover": 1, "sheets": total, "perms": perms}, total, g_cover


def random_higgs(rng: random.Random, genus: int, k: int) -> dict:
    """A generic twisted field with every entry at its degree cap."""
    caps = ((genus + 1, 2 * (genus + 1 - k)), (2 * k, genus + 1))
    entries = [[[_cnum(rng) for _ in range(caps[i][j] + 1)] for j in range(2)]
               for i in range(2)]
    return {"hyperband_higgs": 1, "genus": genus, "k": k, "entries": entries}


def _toy_point(rng: random.Random) -> list:
    """(m, u, B) as [re, im] pairs, kept away from the degenerate values."""
    while True:
        m = [rng.uniform(1.5, 4.0), rng.uniform(-1.0, 1.0)]
        u = [rng.uniform(-2.0, 3.0), rng.uniform(0.3, 1.5)]
        B = [rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)]
        zu, zm = complex(*u), complex(*m)
        if min(abs(zu), abs(zu - 1), abs(zu - zm)) > 0.3:
            return [m, u, B]


def _toy_args(m: list, u: list, B: list) -> list:
    # "--opt=value" keeps argparse from reading a leading minus as a flag
    return [f"--{name}={z[0]!r},{z[1]!r}" for name, z in (("u", u), ("m", m), ("B", B))]


def _tau(rng: random.Random, skew: bool) -> list:
    re = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.5) if skew else 0.0
    return [re, rng.uniform(0.8, 2.0)]


def _momenta(rng: random.Random, genus: int, count: int) -> list:
    """count momenta as (log-modulus, phase) rows; every other one off the torus."""
    out = []
    for i in range(count):
        log_mod = [rng.uniform(-0.3, 0.3) if i % 2 else 0.0 for _ in range(2 * genus)]
        phase = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(2 * genus)]
        out.append([log_mod, phase])
    return out


# ---------------------------------------------------------------------------
# job streams
# ---------------------------------------------------------------------------


class _Writer:
    """Writes input documents under one directory and remembers them."""

    def __init__(self, root: Path, directory: Path, prefix: str):
        self.root = root
        self.directory = directory
        self.prefix = prefix
        self.documents = []

    def write(self, name: str, doc: dict, reader: str) -> str:
        path = self.directory / f"{self.prefix}{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        rel = str(path.relative_to(self.root))
        self.documents.append({"reader": reader, "path": rel})
        return rel


def _sweep_jobs(rng, w: _Writer, pairs) -> list:
    order = list(range(len(pairs)))
    rng.shuffle(order)
    jobs = []
    for idx in order:
        for kind, shape in zip(("bands_cli", "scan"), pairs[idx]):
            genus, dim, counts, region, degenerate = shape
            jid = f"{kind}-{idx}"
            model = w.write(jid, random_model(rng, genus, dim, degenerate=degenerate),
                            "read_model")
            n_points = counts ** (2 * genus)
            if region is not None:
                n_points *= region[2] ** (2 * genus)
            job = {
                "id": jid, "kind": kind, "model": model, "genus": genus,
                "dim": dim, "counts": counts, "region": region,
                "units": n_points * dim,
                "props": {"off_torus": region is not None, "degenerate": degenerate},
            }
            if kind == "bands_cli":
                argv = ["bands", "--model", model, "--grid", str(counts)]
                if region is not None:
                    argv.append(f"--region={region[0]}:{region[1]}:{region[2]}")
                job["argv"] = argv + ["--out", "{out}"]
            jobs.append(job)
    return jobs


def _variety_jobs(rng, w: _Writer, shapes) -> list:
    specs = list(shapes)
    rng.shuffle(specs)
    jobs = []
    for i, (genus, dim, rank) in enumerate(specs):
        jid = f"variety-{i}"
        model = w.write(jid, random_model(rng, genus, dim, rank=rank), "read_model")
        jobs.append({
            "id": jid, "kind": "variety_cli", "model": model, "genus": genus,
            "dim": dim, "units": 1,
            "argv": ["bloch-variety", "--model", model,
                     "--seed", str(rng.randrange(1000)), "--out", "{out}"],
            "props": {"rank_deficient": rank < dim, "rank": rank},
        })
    return jobs


def _cover_jobs(rng, w: _Writer, shapes) -> list:
    order = list(range(len(shapes)))
    rng.shuffle(order)
    jobs = []
    for i in order:
        kind, genus, sheets, dim, trials = shapes[i]
        jid = f"cover-{i}"
        doc, total, g_cover = cover_document(rng, kind, genus, sheets)
        model = w.write(jid + "-model", random_model(rng, genus, dim), "read_model")
        cover = w.write(jid + "-cover", doc, "read_cover")
        refused = kind == "refused"
        jobs.append({
            "id": jid, "kind": "cover_cli", "model": model, "cover": cover,
            "genus": genus, "dim": dim, "sheets": total, "trials": trials,
            "genus_cover": g_cover, "units": trials * total * dim,
            "argv": ["cover-check", "--model", model, "--cover", cover,
                     "--trials", str(trials), "--seed", str(rng.randrange(1000)),
                     "--out", "{out}"],
            "expect_exit": 3 if refused else 0,
            "props": {"cover": kind, "refused": refused, "trials": trials, "N": total},
        })
    return jobs


def _pointwise_jobs(rng, w: _Writer, shapes) -> list:
    order = list(range(len(shapes)))
    rng.shuffle(order)
    jobs = []
    for i in order:
        kind, count = shapes[i]
        jid = f"{kind}-{i}"
        job = {"id": jid, "kind": "pointwise", "sub": kind, "count": count}
        if kind in ("bloch", "quiver"):
            genus = 1 + i % 2
            dim = (2, 4, 8)[i % 3]
            job.update(genus=genus, dim=dim,
                       model=w.write(jid, random_model(rng, genus, dim), "read_model"),
                       momenta=_momenta(rng, genus, count))
            if kind == "bloch":
                # AbelianMomentum, bloch_abelian, eigenvalues, adjoint_momentum,
                # bloch_abelian at the adjoint
                job["units"] = 5 * count
            else:
                cut = rng.randrange(1, dim)
                job["nodes"] = [list(range(cut)), list(range(cut, dim))]
                # quiver_from_model, then AbelianMomentum, reassemble, bloch_abelian
                job["units"] = 1 + 3 * count
        elif kind == "toy_curve":
            # ToyModelPoint, toy_to_twisted, curve_info
            job.update(points=[_toy_point(rng) for _ in range(count)], units=3 * count)
        elif kind == "hitchin":
            # ToyModelPoint, hitchin_coordinate
            job.update(points=[_toy_point(rng) for _ in range(count)],
                       seeds=[rng.randrange(1000) for _ in range(count)],
                       units=2 * count)
        elif kind == "lattice":
            # EuclideanLattice, empty_lattice_bands, two_torsion_points, modular_lambda
            job.update(
                lattices=[{"tau": _tau(rng, skew=j % 2 == 1),
                           "k": [rng.uniform(-1, 1), rng.uniform(-1, 1)],
                           "bands": rng.randrange(4, 13)} for j in range(count)],
                units=4 * count)
        elif kind in ("cli_higgs", "cli_curve", "cli_euclid"):
            calls = []
            for j in range(count):
                if kind == "cli_higgs":
                    m, u, B = _toy_point(rng)
                    argv = ["higgs-toy", *_toy_args(m, u, B), "--seed", str(rng.randrange(1000))]
                    check = {"point": [m, u, B]}
                elif kind == "cli_curve" and j % 2 == 0:
                    genus = 1 + rng.randrange(2)
                    k = rng.randrange(genus + 2)
                    path = w.write(f"{jid}-{j}", random_higgs(rng, genus, k),
                                   "higgs_from_json_file")
                    argv = ["spectral-curve", "--higgs", path]
                    check = {"higgs": path}
                elif kind == "cli_curve":
                    m, u, B = _toy_point(rng)
                    argv = ["spectral-curve", *_toy_args(m, u, B)]
                    check = {"point": [m, u, B]}
                else:
                    tau = _tau(rng, skew=j % 2 == 1)
                    k = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
                    n = rng.randrange(4, 13)
                    argv = ["euclidean", f"--tau={tau[0]!r},{tau[1]!r}",
                            f"--k={k[0]!r},{k[1]!r}", "--bands", str(n)]
                    check = {"tau": tau, "k": k, "bands": n}
                calls.append({"argv": argv + ["--out", "{out}"], "check": check})
            job.update(calls=calls, units=count)
        else:
            raise ValueError(f"unknown pointwise kind {kind!r}")
        job["props"] = {"sub": kind}
        jobs.append(job)
    return jobs


_BUILDERS = {
    "sweep": (_sweep_jobs, SWEEP_PAIRS, TINY_SWEEP_PAIRS),
    "variety": (_variety_jobs, VARIETY_SHAPES, TINY_VARIETY_SHAPES),
    "covers": (_cover_jobs, COVER_SHAPES, TINY_COVER_SHAPES),
    "pointwise": (_pointwise_jobs, POINTWISE_SHAPES, TINY_POINTWISE_SHAPES),
}


def generate(workload: str, seed: int, root: Path, directory: Path,
             tiny: bool = False) -> dict:
    """Write one job stream's input documents; return its manifest.

    Paths in the manifest are relative to `root` (the checkout), which is the
    working directory of every process that reads them.
    """
    build, full, small = _BUILDERS[workload]
    directory.mkdir(parents=True, exist_ok=True)
    prefix = "tiny-" if tiny else ""
    rng = random.Random(f"hyperband-bench/{workload}/{seed}/{prefix}")
    writer = _Writer(root, directory, prefix)
    jobs = build(rng, writer, small if tiny else full)
    for job in jobs:
        job["id"] = prefix + job["id"]
    return {"workload": workload, "seed": seed, "tiny": tiny, "jobs": jobs,
            "documents": writer.documents}
