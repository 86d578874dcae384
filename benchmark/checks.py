"""Output checks computed apart from the program.

Nothing here imports ``qcausal``: every expected value is recomputed from
the paper's definitions with plain numpy, so a later change to the
program's kernels, seed split or optimizer passes these checks exactly
when its outputs are still right. No check compares against a stored
copy of an earlier output.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

SQ2 = math.sqrt(2.0)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# (+1, -1) eigenvectors |m_0>, |m_1> of sigma_x, sigma_y, sigma_z.
EIGVECS = (
    (np.array([1, 1]) / SQ2, np.array([1, -1]) / SQ2),
    (np.array([1, 1j]) / SQ2, np.array([1, -1j]) / SQ2),
    (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
)
# Pi_i = |m0 m0><m0 m0| + |m1 m1><m1 m1|: both qubits give the same outcome on axis i.
EQUAL_PROJ = tuple(
    sum(np.outer(np.kron(m, m), np.kron(m, m).conj()) for m in pair) for pair in EIGVECS
)
# The paper's vertices: entangled-basis preparations (common cause) and
# Pauli evolutions (direct cause).
BELL_VERTICES = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)
PAULI_VERTICES = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)

LABEL_TOL = 1e-9
EXTREMA = {"CC_MAX": 1.0 / 27.0, "CC_MIN": -1.0, "DC_MAX": 1.0, "DC_MIN": -1.0 / 27.0}
BOUND_TOL = 1e-6
PUBLISHED_TABLE2 = {
    "v1": {"cc": 36.44, "dc": 58.91},
    "v2": {"cc": 35.84, "dc": 57.32},
    "v3": {"cc": 29.9, "dc": 50.64},
    "v4": {"cc": 33.45, "dc": 52.56},
}
TABLE2_BAND_PP = 5.0


# -- geometry written from the vertices ---------------------------------------


def face_margin(vertices: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Smallest face slack of each point; >= 0 inside the tetrahedron.

    Any two of the paper's four vertices have dot product -1, so the face
    opposite vertex v_j is the plane v_j . x = -1, and the interior is the
    side where v_j . x >= -1 (v_j itself gives 3).
    """
    return (np.asarray(pts, dtype=float) @ vertices.T + 1.0).min(axis=-1)


def labels_of(pts: np.ndarray, tol: float = LABEL_TOL) -> np.ndarray:
    """The four-way classification of each correlation point."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    out = np.full(len(pts), "MIXTURE_REQUIRED", dtype="<U16")
    out[face_margin(PAULI_VERTICES, pts) >= -tol] = "DC_ONLY"
    out[face_margin(BELL_VERTICES, pts) >= -tol] = "CC_ONLY"
    out[np.abs(pts).sum(axis=1) <= 1.0 + tol] = "AMBIGUOUS"
    return out


def boundary_distance(pts: np.ndarray) -> np.ndarray:
    """Distance (in the slack of any defining inequality) to a label boundary."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    slacks = [
        np.abs(face_margin(BELL_VERTICES, pts)),
        np.abs(face_margin(PAULI_VERTICES, pts)),
        np.abs(np.abs(pts).sum(axis=1) - 1.0),
        1.0 - np.abs(pts).max(axis=1),
    ]
    return np.min(slacks, axis=0)


# -- correlation points from the definitions ----------------------------------


def prep_point(rho: np.ndarray) -> np.ndarray:
    """c_ii = 2 tr(rho Pi_i) - 1 for a two-qubit density operator."""
    return np.array([2.0 * np.trace(rho @ p).real - 1.0 for p in EQUAL_PROJ])


def unitary_point(u: np.ndarray) -> np.ndarray:
    """c_ii = 2 |<m_i|u|m_i>|^2 - 1 for a one-qubit evolution."""
    return np.array([2.0 * abs(m[0].conj() @ u @ m[0]) ** 2 - 1.0 for m in EIGVECS])


def rotation_reach(rho: np.ndarray) -> float:
    """Largest |c11|+|c22|+|c33| that any rotation v (x) v can give ``rho``.

    Rotating both qubits by v turns the correlation tensor
    T_ij = tr(rho sigma_i (x) sigma_j) into R T R^t with R in SO(3), and
    only the symmetric part S of T reaches the diagonal. By Schur-Horn the
    reachable diagonals are the convex hull of the permuted eigenvalues of
    S, so the largest one-norm is the sum of their absolute values. A
    preparation can escape the overlap exactly when this exceeds 1.
    """
    t = np.array(
        [[np.trace(rho @ np.kron(a, b)).real for b in PAULI] for a in PAULI]
    )
    return float(np.abs(np.linalg.eigvalsh((t + t.T) / 2.0)).sum())


def is_unitary(m: np.ndarray, tol: float = 1e-9) -> bool:
    return m.shape == (2, 2) and bool(np.abs(m @ m.conj().T - np.eye(2)).max() <= tol)


# -- sample -------------------------------------------------------------------


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def read_csv(path: str):
    """Header, the four numeric columns and the label column of a sample CSV."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
    values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3), ndmin=2)
    labels = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(4,), dtype=str, ndmin=1)
    return header, values, labels


def check_sample_dc(header: str, values: np.ndarray, labels: np.ndarray, n: int) -> list[str]:
    problems = []
    if header != "c11,c22,c33,c,label":
        problems.append(f"sample: header is {header!r}")
    if len(values) != n:
        problems.append(f"sample: {len(values)} rows, expected {n}")
        return problems
    pts, c = values[:, :3], values[:, 3]
    bad = np.abs(c - pts[:, 0] * pts[:, 1] * pts[:, 2]) > 1e-12
    if bad.any():
        problems.append(f"sample: {int(bad.sum())} rows where c is not c11*c22*c33")
    outside = face_margin(PAULI_VERTICES, pts) < -LABEL_TOL
    if outside.any():
        problems.append(f"sample: {int(outside.sum())} points outside the evolution tetrahedron")
    low = c < -1.0 / 27.0 - 1e-9
    if low.any():
        problems.append(f"sample: {int(low.sum())} rows with c < -1/27")
    wrong = labels != labels_of(pts)
    if wrong.any():
        problems.append(f"sample: {int(wrong.sum())} labels differ from the recomputed ones")
    # c33 = 2(a1^2 + a2^2) - 1 with (a1, a2, b1, b2) uniform on the 3-sphere is
    # uniform on [-1, 1]: mean 0 (variance 1/3), and c33^2 has variance 4/45.
    c33 = pts[:, 2]
    mean_se, var_se = math.sqrt(1.0 / 3.0 / n), math.sqrt(4.0 / 45.0 / n)
    if abs(c33.mean()) > 5.0 * mean_se:
        problems.append(f"sample: c33 mean {c33.mean():.3g} is not 0 within 5 standard errors")
    if abs((c33 * c33).mean() - c33.mean() ** 2 - 1.0 / 3.0) > 5.0 * var_se:
        problems.append(f"sample: c33 variance {c33.var():.5g} is not 1/3 within 5 standard errors")
    return problems


def check_sample_report(report: dict, n: int) -> list[str]:
    res = report.get("results", {})
    problems = []
    if report.get("violations") != []:
        problems.append(f"sample: violations {report.get('violations')}")
    if res.get("csv_rows") != n or res.get("bound_violations") != 0:
        problems.append("sample: report rows or bound violations are wrong")
    return problems


# -- bounds -------------------------------------------------------------------


def check_bounds(report: dict) -> list[str]:
    problems = []
    if report.get("violations") != []:
        problems.append(f"bounds: violations {report.get('violations')}")
    results = report.get("results", {})
    if set(results) != set(EXTREMA):
        return problems + [f"bounds: targets {sorted(results)}"]
    for target, exact in EXTREMA.items():
        entry = results[target]
        for key in ("grid_polished", "multistart"):
            if not abs(entry[key] - exact) <= BOUND_TOL:
                problems.append(f"bounds: {target} {key} {entry[key]!r} is not {exact!r}")
        w = np.asarray(entry["witness_weights"], dtype=float)
        if w.shape != (4,) or w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
            problems.append(f"bounds: {target} witness weights {w} are not a distribution")
            continue
        vertices = BELL_VERTICES if target.startswith("CC") else PAULI_VERTICES
        value = float(np.prod(w @ vertices))
        if not abs(value - entry["grid_polished"]) <= 1e-12:
            problems.append(f"bounds: {target} witness gives {value!r}, not the reported value")
    return problems


# -- table2 -------------------------------------------------------------------


def check_table2(report: dict, n: int) -> list[str]:
    problems = []
    results = report.get("results", {})
    if set(results) != set(PUBLISHED_TABLE2):
        return [f"table2: rows {sorted(results)}"]
    for row, columns in PUBLISHED_TABLE2.items():
        for column, published in columns.items():
            e = results[row][column]
            where = f"table2: {row}/{column}"
            if e["n"] != n or not 0 <= e["escaped"] <= n:
                problems.append(f"{where}: escaped {e['escaped']} of n {e['n']}")
                continue
            p = e["escaped"] / n
            if not abs(e["proportion_percent"] - 100.0 * p) <= 1e-9:
                problems.append(f"{where}: proportion {e['proportion_percent']} is not escaped/n")
            if not abs(100.0 * p - published) <= TABLE2_BAND_PP:
                problems.append(f"{where}: {100.0 * p:.2f}% is not within 5 pp of {published}%")
            if e["image_in_target"] is not True:
                problems.append(f"{where}: image_in_target is {e['image_in_target']!r}")
            half = 100.0 * 1.96 * math.sqrt(p * (1.0 - p) / n)
            if not abs(e["halfwidth_percent"] - half) <= 1e-9:
                problems.append(f"{where}: half-width {e['halfwidth_percent']} is not {half}")
    return problems


# -- classify -----------------------------------------------------------------


def check_classify(doc: dict, report: dict) -> list[str]:
    """Check one classify report against the benchmark's own evaluation.

    ``doc`` is the corpus entry: its ``kind``, the generated ``matrix`` or
    ``point`` and, for preparations, whether a rotation can take it out of
    the overlap (``escapable``).
    """
    name = f"classify {doc['name']}"
    res = report.get("results", {})
    if doc["kind"] == "density":
        point = prep_point(doc["matrix"])
    elif doc["kind"] == "unitary":
        point = unitary_point(doc["matrix"])
    else:
        point = np.asarray(doc["point"], dtype=float)
    problems = []
    got = np.asarray(res.get("pvector"), dtype=float)
    if got.shape != (3,) or np.abs(got - point).max() > 1e-9:
        problems.append(f"{name}: point {got} is not {point}")
        return problems
    label = labels_of(point)[0]
    if res.get("label") != label:
        problems.append(f"{name}: label {res.get('label')} is not {label}")
    if not abs(res["statistic"]["value"] - float(np.prod(point))) <= 1e-12:
        problems.append(f"{name}: statistic {res['statistic']['value']} is not c11*c22*c33")
    escape = res.get("escape")
    if label != "AMBIGUOUS":
        if escape is not None:
            problems.append(f"{name}: a decidable point reports an escape search")
        return problems
    if doc["kind"] == "pvector":
        if not escape or escape.get("applicable") is not False:
            problems.append(f"{name}: a bare point reports an applicable escape")
        return problems
    if not escape or escape.get("applicable") is not True:
        return problems + [f"{name}: no escape search for an ambiguous object"]
    if doc.get("escapable") is not None and escape["found"] != doc["escapable"]:
        problems.append(f"{name}: found={escape['found']}, but escapable={doc['escapable']}")
    if not escape["found"]:
        return problems
    v = np.array([complex(re, im) for re, im in escape["v"]]).reshape(2, 2)
    if not is_unitary(v):
        return problems + [f"{name}: escape v is not unitary"]
    if doc["kind"] == "density":
        vv = np.kron(v, v)
        moved = prep_point(vv.conj().T @ doc["matrix"] @ vv)
        vertices = BELL_VERTICES
    else:
        moved = unitary_point(v.conj().T @ doc["matrix"] @ v)
        vertices = PAULI_VERTICES
    if np.abs(moved).sum() <= 1.0 + LABEL_TOL:
        problems.append(f"{name}: escape v leaves the point {moved} in the overlap")
    if face_margin(vertices, moved) < -LABEL_TOL:
        problems.append(f"{name}: escape v moves the point {moved} out of its tetrahedron")
    return problems
