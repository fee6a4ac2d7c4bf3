"""Output checks that do not depend on the code under test.

Every check rebuilds what it needs from the input documents with the
benchmark's own parser and its own numpy calls.  The numpy kernels are bound
here at import time, before the tracer patches `numpy.linalg` and friends,
so checking never shows up in a traced run's spans.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

_eigvalsh = np.linalg.eigvalsh
_eigvals = np.linalg.eigvals
_det = np.linalg.det
_inv = np.linalg.inv

#: relative tolerance for eigenvalues rebuilt from the inputs
EIG_TOL = 1e-9
#: relative tolerance for the Bloch-variety polynomial against a direct det
VARIETY_TOL = 1e-8


class OracleError(AssertionError):
    """An output did not match what the inputs imply."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def _complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _matrix(rows) -> np.ndarray:
    return np.array([[_complex(z) for z in row] for row in rows], dtype=complex)


def load_model(path: str) -> tuple:
    """(genus, onsite, hops) read straight from a model document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    onsite = _matrix(doc["onsite"])
    return int(doc["genus"]), (onsite + onsite.conj().T) / 2.0, [_matrix(h) for h in doc["hops"]]


def bloch_matrix(model: tuple, chi) -> np.ndarray:
    _, onsite, hops = model
    H = onsite.copy()
    for c, J in zip(chi, hops):
        H = H + c * J + (1.0 / c) * J.conj().T
    return H


def spectrum(H: np.ndarray, hermitian: bool) -> np.ndarray:
    vals = _eigvalsh(H) if hermitian else _eigvals(H)
    return np.sort(vals.astype(complex))


def check_spectrum(got, expected: np.ndarray, what: str) -> None:
    got = np.asarray(got, dtype=complex)
    require(got.shape == expected.shape, f"{what}: {got.shape[0]} eigenvalues, expected {expected.shape[0]}")
    tol = EIG_TOL * max(1.0, float(np.max(np.abs(expected))))
    if np.max(np.abs(got - expected)) <= tol:
        return
    # near-equal real parts may sort either way: match nearest pairs instead
    left = list(expected)
    for z in got:
        j = min(range(len(left)), key=lambda i: abs(left[i] - z))
        require(abs(left[j] - z) <= tol, f"{what}: eigenvalue {z} has no match within {tol:.1e}")
        left.pop(j)


def sample_rows(key: str, n_points: int, count: int = 6) -> list:
    rng = random.Random(key)
    rows = {0, n_points - 1}
    while len(rows) < min(count, n_points):
        rows.add(rng.randrange(n_points))
    return sorted(rows)


def grid_shape(job: dict) -> tuple:
    per_axis = job["counts"] * (job["region"][2] if job["region"] else 1)
    return (per_axis,) * (2 * job["genus"])


def grid_momentum(job: dict, index: tuple) -> np.ndarray:
    counts, region = job["counts"], job["region"]
    if region is None:
        return np.exp(2j * np.pi * np.array(index) / counts)
    lo, hi, n_moduli = region
    moduli = np.exp(np.linspace(lo, hi, n_moduli)) if n_moduli > 1 else np.exp([(lo + hi) / 2.0])
    index = np.array(index)
    return moduli[index // counts] * np.exp(2j * np.pi * (index % counts) / counts)


def _own_clusters(row: np.ndarray, tol: float) -> list:
    """Single-linkage clusters (size >= 2) of one spectrum, as sorted index tuples."""
    n = row.size
    label = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(row[i] - row[j]) <= tol and label[i] != label[j]:
                old, new = label[i], label[j]
                label = [new if x == old else x for x in label]
    groups = {}
    for i, lab in enumerate(label):
        groups.setdefault(lab, []).append(i)
    return sorted(tuple(g) for g in groups.values() if len(g) >= 2)


def check_bands_csv(data: bytes, job: dict) -> None:
    """Header, row count and sampled rows of a bands CSV against the inputs.

    Lines are located through an index of newline offsets rather than by
    splitting, so checking a large file adds little to the peak memory of
    the process being measured.
    """
    model = load_model(job["model"])
    shape = grid_shape(job)
    n_points = math.prod(shape)
    dim = job["dim"]
    hermitian = job["region"] is None
    require(data.endswith(b"\n"), "bands CSV does not end with a newline")
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))

    def line(i: int) -> str:
        return data[(ends[i - 1] + 1 if i else 0):ends[i]].decode("utf-8")

    require(line(0) == "# hyperband bands v1", f"bands CSV marker is {line(0)!r}")
    require(f" grid_shape={'x'.join(map(str, shape))} " in line(1)
             and line(1).endswith(f"hermitian={hermitian}"), f"bands CSV provenance is {line(1)!r}")
    header = ",".join([f"i{k}" for k in range(len(shape))] + ["band", "re", "im"])
    require(line(3) == header, f"bands CSV header is {line(3)!r}")
    require(ends.size - 4 == n_points * dim,
             f"bands CSV has {ends.size - 4} rows, expected {n_points * dim}")
    for p in sample_rows(job["id"], n_points):
        index = np.unravel_index(p, shape)
        got = []
        for b in range(dim):
            fields = line(4 + p * dim + b).split(",")
            require([int(v) for v in fields[:-3]] == [int(v) for v in index] and int(fields[-3]) == b,
                     f"bands CSV row {p * dim + b} is labelled {fields[:-2]}")
            got.append(complex(float(fields[-2]), float(fields[-1])))
        H = bloch_matrix(model, grid_momentum(job, index))
        check_spectrum(got, spectrum(H, hermitian), f"grid point {tuple(map(int, index))}")


def check_scan(bands: np.ndarray, groups: tuple, job: dict) -> None:
    """Sampled rows of a sweep and its degeneracy groups against the inputs."""
    model = load_model(job["model"])
    shape = grid_shape(job)
    n_points = math.prod(shape)
    hermitian = job["region"] is None
    require(bands.shape == (n_points, job["dim"]), f"sweep shape {bands.shape}")
    radius = float(np.max(np.abs(bands)))
    gap_tol = 1e-6 * radius if radius > 0 else 1e-12
    by_point = {}
    for g in groups:
        by_point.setdefault(g.flat_index, []).append(tuple(g.band_indices))
    for p in sample_rows(job["id"], n_points):
        index = np.unravel_index(p, shape)
        H = bloch_matrix(model, grid_momentum(job, index))
        check_spectrum(bands[p], spectrum(H, hermitian), f"grid point {tuple(map(int, index))}")
        require(sorted(by_point.get(p, [])) == _own_clusters(bands[p], gap_tol),
                 f"degeneracy groups at grid point {p}: {sorted(by_point.get(p, []))}")
    if job["props"]["degenerate"]:
        require(len(by_point) == n_points, f"degenerate model has groups at {len(by_point)} of {n_points} points")


def check_variety(text: str, job: dict) -> None:
    """The emitted terms, evaluated at fresh points, against a direct determinant."""
    doc = json.loads(text)
    model = load_model(job["model"])
    genus, dim = job["genus"], job["dim"]
    require(doc.get("hyperband_bloch_variety") == 1, "missing Bloch-variety marker")
    require(doc["genus"] == genus and doc["dim"] == dim, "genus/dim mismatch")
    require(doc["holdout_residual"] <= VARIETY_TOL, f"holdout residual {doc['holdout_residual']}")
    terms = doc["terms"]
    require(len(terms) > 0, "no terms")
    alphas = np.array([t["alpha"] for t in terms], dtype=float)
    powers = np.array([t["power"] for t in terms], dtype=float)
    coeffs = np.array([_complex(t["coeff"]) for t in terms])
    require(alphas.shape[1] == 2 * genus and np.all(powers <= dim), "term exponents out of range")
    rng = random.Random(job["id"] + "/variety")
    for _ in range(3):
        chi = np.array([math.exp(rng.uniform(-0.3, 0.3)) * complex(math.cos(t), math.sin(t))
                        for t in (rng.uniform(0, 2 * math.pi) for _ in range(2 * genus))])
        E = complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 2.0
        mono = np.prod(chi[None, :] ** alphas, axis=1) * E ** powers
        value = complex(np.sum(coeffs * mono))
        scale = float(np.sum(np.abs(coeffs * mono)))
        direct = complex(_det(bloch_matrix(model, chi) - E * np.eye(dim)))
        require(abs(value - direct) <= VARIETY_TOL * scale,
                 f"variety value {value} vs det {direct} (scale {scale:.3e})")


def check_cover(exit_code: int, out_text, stdout: str, stderr: str, job: dict) -> None:
    require(exit_code == job["expect_exit"], f"exit code {exit_code}, expected {job['expect_exit']}: {stderr.strip()}")
    if job["expect_exit"] == 3:
        require(out_text is None and stdout == "", "a refused cover wrote output")
        require(stderr.startswith("numerical failure:"), f"refusal message {stderr.strip()!r}")
        return
    doc = json.loads(out_text)
    n_states = job["sheets"] * job["dim"]
    require(doc.get("hyperband_cover_check") == 1, "missing cover-check marker")
    require(doc["passed"] is True, "cover check did not pass")
    require(doc["trials"] == job["trials"], f"trials {doc['trials']}")
    require(doc["n_states"] == n_states, f"n_states {doc['n_states']}, expected {n_states}")
    require(doc["genus_cover"] == job["genus_cover"],
             f"genus_cover {doc['genus_cover']}, expected {job['genus_cover']}")
    require(doc["max_spectral_distance"] <= doc["tolerance"] * max(doc["spectral_radius"], 1e-12),
             "spectral distance over tolerance")
    require(stdout.startswith(f"PASS: {job['trials']} characters, {n_states} states,"),
             f"summary line {stdout.strip()!r}")


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------


def momentum_values(row) -> np.ndarray:
    log_mod, phase = row
    return np.exp(np.array(log_mod)) * np.exp(1j * np.array(phase))


def check_bloch(job: dict, results: list) -> None:
    """results: per momentum (H, eigenvalues, H at the adjoint momentum)."""
    model = load_model(job["model"])
    for row, (H, ev, H_adj) in zip(job["momenta"], results, strict=True):
        chi = momentum_values(row)
        own = bloch_matrix(model, chi)
        require(np.max(np.abs(H - own)) <= 1e-12 * max(1.0, float(np.max(np.abs(own)))), "H(chi) differs")
        check_spectrum(ev, spectrum(own, bool(np.allclose(np.abs(chi), 1.0))), "pointwise spectrum")
        require(np.array_equal(H_adj, H.conj().T), "H(adjoint(chi)) is not H(chi)^dagger bitwise")


def check_quiver(job: dict, results: list) -> None:
    """results: per momentum (reassembled matrix, bloch_abelian matrix)."""
    model = load_model(job["model"])
    for row, (R, H) in zip(job["momenta"], results, strict=True):
        require(np.array_equal(R, H), "quiver reassembly differs from bloch_abelian")
        own = bloch_matrix(model, momentum_values(row))
        require(np.max(np.abs(H - own)) <= 1e-12 * max(1.0, float(np.max(np.abs(own)))), "H(chi) differs")


def closed_form(point) -> complex:
    m, u, B = (_complex(z) for z in point)
    return -(B * B) * u * (u - 1.0) * (u - m)


def _close(a: complex, b: complex, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_toy_branch_points(points: list, point) -> None:
    """points: finite branch points as complex, or None for infinity."""
    m = _complex(point[0])
    finite = sorted((p for p in points if p is not None), key=lambda z: (z.real, z.imag))
    expected = sorted([0j, 1 + 0j, m], key=lambda z: (z.real, z.imag))
    require(len(finite) == 3 and points.count(None) == 1, f"toy branch points {points}")
    for got, want in zip(finite, expected):
        require(abs(got - want) <= 1e-6 * max(1.0, abs(m)), f"toy branch point {got}, expected {want}")


def check_toy_curve(job: dict, results: list) -> None:
    """results: per point (genus, smooth, [(point or None, multiplicity)])."""
    for point, (genus, smooth, bps) in zip(job["points"], results, strict=True):
        require(smooth and genus == 1, f"toy curve smooth={smooth} genus={genus}")
        require(all(mult == 1 for _, mult in bps), "toy curve branch point with multiplicity")
        check_toy_branch_points([p for p, _ in bps], point)


def check_hitchin(job: dict, results: list) -> None:
    for point, c in zip(job["points"], results, strict=True):
        require(_close(c, closed_form(point), 1e-8), f"hitchin {c} vs closed form {closed_form(point)}")


def empty_lattice(tau, k, n: int) -> np.ndarray:
    tau = _complex(tau)
    G = np.array([[1.0, 0.0], [tau.real, tau.imag]])
    W = _inv(G).T
    r = np.arange(-16, 17)
    mm, nn = np.meshgrid(r, r, indexing="ij")
    vecs = mm.reshape(-1, 1) * W[0] + nn.reshape(-1, 1) * W[1]
    diff = np.array(k, dtype=float)[None, :] - vecs
    return np.sort(np.einsum("ij,ij->i", diff, diff))[:n]


def lambda_series(tau) -> complex:
    tau = _complex(tau)
    theta2 = 2.0 * sum(np.exp(1j * np.pi * tau * (n + 0.5) ** 2) for n in range(40))
    theta3 = 1.0 + 2.0 * sum(np.exp(1j * np.pi * tau * n * n) for n in range(1, 40))
    return complex((theta2 / theta3) ** 4)


def check_two_torsion(tau, points) -> None:
    tau = _complex(tau)
    G = np.array([[1.0, 0.0], [tau.real, tau.imag]])
    # classes of 2 * (p . gamma_i) mod 2: a folded coordinate may read 1 - eps
    coords = sorted(tuple(round(float(c) * 2) % 2 for c in G @ np.array(p, dtype=float)) for p in points)
    require(coords == [(0, 0), (0, 1), (1, 0), (1, 1)], f"two-torsion classes {coords}")
    for p in points:
        c = G @ np.array(p, dtype=float)
        require(np.all(np.abs(2 * c - np.round(2 * c)) <= 1e-9), f"{p} is not 2-torsion")


def check_lattice(job: dict, results: list) -> None:
    """results: per lattice (energies, two-torsion points, lambda)."""
    for spec, (energies, torsion, lam) in zip(job["lattices"], results, strict=True):
        own = empty_lattice(spec["tau"], spec["k"], spec["bands"])
        require(np.allclose(energies, own, rtol=1e-9, atol=1e-9), f"empty-lattice bands {energies} vs {own}")
        check_two_torsion(spec["tau"], torsion)
        require(_close(lam, lambda_series(spec["tau"]), 1e-10), f"lambda {lam}")


def _discriminant(doc: dict) -> np.ndarray:
    (p11, p12), (p21, p22) = [[np.array([_complex(c) for c in p]) for p in row] for row in doc["entries"]]
    a1 = np.zeros(max(p11.size, p22.size), dtype=complex)
    a1[: p11.size] += p11
    a1[: p22.size] += p22
    prod1, prod2 = np.convolve(p11, p22), np.convolve(p12, p21)
    a2 = np.zeros(max(prod1.size, prod2.size), dtype=complex)
    a2[: prod1.size] += prod1
    a2[: prod2.size] -= prod2
    sq = np.convolve(a1, a1)
    disc = np.zeros(max(sq.size, a2.size), dtype=complex)
    disc[: sq.size] += sq
    disc[: a2.size] -= 4.0 * a2
    return disc


def check_cli_pointwise(sub: str, check: dict, doc: dict) -> None:
    if sub == "cli_higgs":
        require(doc.get("hyperband_higgs_toy") == 1, "missing higgs-toy marker")
        c = closed_form(check["point"])
        require(_close(_complex(doc["hitchin"]), c, 1e-8), f"hitchin {doc['hitchin']} vs {c}")
        require(_close(_complex(doc["hitchin_closed_form"]), c, 1e-12), "hitchin_closed_form")
    elif sub == "cli_curve":
        require(doc.get("hyperband_spectral_curve") == 1, "missing spectral-curve marker")
        require(doc["smooth"] is True and doc["degenerate"] is False, "curve is not smooth")
        points = [None if bp["point"] == "infinity" else _complex(bp["point"]) for bp in doc["branch_points"]]
        if "point" in check:
            require(doc["genus"] == 1, f"toy curve genus {doc['genus']}")
            check_toy_branch_points(points, check["point"])
            return
        with open(check["higgs"], "r", encoding="utf-8") as fh:
            field = json.load(fh)
        base = field["genus"]
        require(doc["genus"] == base, f"curve genus {doc['genus']}, expected {base}")
        require(sum(bp["multiplicity"] for bp in doc["branch_points"]) == 2 * base + 2, "branch point count")
        disc = _discriminant(field)
        for z in points:
            if z is None:
                continue
            powers = z ** np.arange(disc.size)
            value = abs(np.sum(disc * powers))
            require(value <= 1e-6 * float(np.sum(np.abs(disc * powers))), f"{z} is not a discriminant root")
    elif sub == "cli_euclid":
        require(doc.get("hyperband_euclidean") == 1, "missing euclidean marker")
        own = empty_lattice(check["tau"], check["k"], check["bands"])
        require(np.allclose(doc["bands"], own, rtol=1e-9, atol=1e-9), "empty-lattice bands")
        check_two_torsion(check["tau"], doc["two_torsion"])
        require(_close(_complex(doc["modular_lambda"]), lambda_series(check["tau"]), 1e-10), "lambda")
    else:
        raise ValueError(sub)
