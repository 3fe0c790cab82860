"""The benchmark's three CLI pipelines: input models, commands and checks.

Every expected value below is derived here, from the layout rules of the
paper or from a numpy reference built from Pauli matrices, never read back
from the program.  perfbench/README.md says why each workload was chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

ENERGY_RTOL = 1e-9    # energies agree to this share of the model's energy scale
CHECK_TOL = 1e-10     # the --tol every command runs with (the CLI default)
LEVEL_TOL = 1e-9      # eigenvalues closer than this are one degenerate level

FIELD_B = 1.0
DYNAMICS_TIMES = (0.1, 0.5, 1.0)
DYNAMICS_STATES = 2


@dataclass
class Outcome:
    """What one command that exited 0 left behind, handed to its check."""

    workdir: Path
    stdout: str
    capture: dict | None = None   # traced dynamics: psi in, decoded out

    def json_out(self):
        return json.loads(self.stdout)

    def load(self, name):
        with open(self.workdir / name) as fh:
            return json.load(fh)


@dataclass
class Command:
    """One `python -m rotinv ARGV` call, timed under its stage."""

    stage: str                       # "construct" | "verify" | "solve"
    argv: list
    check: Callable[[Outcome], list]
    writes: tuple = ()               # files written by --out / --encoding-out
    capture: bool = False            # traced run keeps the dynamics states


@dataclass
class Reload:
    """Reload a `flags --out` file with load_flag_spec, in this process.

    Fails with SchemaError today: cmd_flags saves the spec, then _emit
    overwrites the same path with the report document.  That failure is
    counted as a failed operation; any other mismatch is a wrong output.
    """

    path: str
    layout: dict

    def run(self, workdir: Path) -> tuple[bool, list]:
        """(failed, wrong-output problems) of one reload."""
        from rotinv.errors import SchemaError
        from rotinv.tri_flags import load_flag_spec

        try:
            spec = load_flag_spec(workdir / self.path)
        except SchemaError as exc:
            if "missing key 'r'" in str(exc):    # the known fault above
                return True, []
            return True, [f"reload of {self.path} raised {exc!r}"]
        except Exception as exc:  # any other failure is a wrong output
            return True, [f"reload of {self.path} raised {exc!r}"]
        got = {"r": spec.r, "twice_j": spec.j.twice_value, "m": spec.m,
               "variant": spec.variant}
        want = {key: self.layout[key] for key in got}
        if got != want:
            return True, [f"reloaded {got}, expected {want}"]
        return False, []


@dataclass(frozen=True)
class Workload:
    inputs: dict                     # file name -> JSON document
    operations: Callable[[int], list]


# ---------------------------------------------------------------------------
# references


def dense_model(matrix) -> list:
    """A matrix in the interchange format: rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


def model_doc(label, n, boundary, terms) -> dict:
    return {
        "schema_version": 1,
        "label": label,
        "n": n,
        "local_dim": 2,
        "boundary": boundary,
        "terms": [{"support": list(s), "matrix": dense_model(m)} for s, m in terms],
    }


def heisenberg_pair() -> np.ndarray:
    """(XX + YY + ZZ)/4 on two qubits."""
    return sum(np.kron(PAULI[a], PAULI[a]) for a in "xyz") / 4.0


def chain_matrix(pair: np.ndarray, n: int) -> np.ndarray:
    """Sum of the pair term on the open bonds of an n-site qubit chain."""
    return sum(np.kron(np.kron(np.eye(2 ** i), pair), np.eye(2 ** (n - i - 2)))
               for i in range(n - 1))


def levels(values) -> list:
    """(energy, degeneracy) of eigenvalues, a new level after each gap > LEVEL_TOL."""
    out, last = [], None
    for v in np.sort(values):
        if last is not None and v - last <= LEVEL_TOL:
            out[-1][1] += 1
        else:
            out.append([float(v), 1])
        last = v
    return [tuple(level) for level in out]


def flag_layout(r: int, twice_j: int, variant: str) -> dict:
    """The paper's layout rules: run length m, flag block F = m + 6, cell F + r."""
    if variant == "general":
        m = max(r - 1, 5)
        m += m % 2
    elif variant == "improved":
        m = (r + twice_j) // 2 + 1          # r/2 + j + 1
    else:                                   # small_r, r in {3, 4}
        m = r + 1
    f = m + 6
    return {"r": r, "twice_j": twice_j, "variant": variant, "m": m, "F": f,
            "cell": f + r}


def close(value, expected, scale) -> bool:
    return abs(value - expected) <= ENERGY_RTOL * max(1.0, abs(scale))


def flag_report_problems(reports, layout, where) -> list:
    """Every misaligned offset 1..cell-1 annihilated, with a sound witness."""
    problems = []
    flags = [r for r in reports if r["check"].startswith("flag_misalignment")]
    passed = sum(r["passed"] for r in flags)
    if len(flags) != layout["cell"] - 1 or passed != layout["cell"] - 1:
        problems.append(f"{where}: {passed}/{len(flags)} offsets annihilated, "
                        f"expected {layout['cell'] - 1}")
    for r in flags:
        d = r["details"]
        w = d.get("witness")
        if w is None or w["twice_spin"] in w["attainable_twice_spins"]:
            problems.append(f"{where}: offset {d['offset']} has no valid witness")
        if d.get("probe_residual", 0.0) > CHECK_TOL:
            problems.append(f"{where}: offset {d['offset']} probe residual "
                            f"{d['probe_residual']:.3e}")
    return problems


# ---------------------------------------------------------------------------
# tri_ring13: build-tri -> verify -> spectrum on the 13-qubit invariant ring

TRI = flag_layout(3, 1, "small_r")
TRI_K, TRI_SITES = 1, 1                # a 1-site generator on a 1-site chain
FIELD_TERM = FIELD_B * PAULI["z"]
FIELD_LEVELS = levels(np.linalg.eigvalsh(FIELD_TERM))       # [(-B, 1), (B, 1)]
TRI_J = 2 * TRI_K * TRI["cell"] * float(np.max(np.abs(np.linalg.eigvalsh(FIELD_TERM))))
TRI_OFFSET = TRI_J * TRI_SITES * (TRI["cell"] - 1)          # J' N (F + r - 1)
TRI_GROUND_DEGENERACY = ((3 * (TRI["m"] + 1)) ** TRI_SITES * TRI["cell"]
                         * (TRI["twice_j"] + 1) ** TRI_SITES * FIELD_LEVELS[0][1])


def check_build_tri(out: Outcome) -> list:
    doc = out.load("ring.json")
    md = doc["metadata"]["tri"]
    problems = []
    qubits = TRI_SITES * TRI["cell"]
    if doc["n"] != qubits or len(doc["terms"]) != qubits:
        problems.append(f"ring has {doc['n']} qubits, {len(doc['terms'])} terms")
    for key in ("m", "F", "r", "twice_j"):
        if md[key] != TRI[key]:
            problems.append(f"metadata {key} = {md[key]}, expected {TRI[key]}")
    if md["body_size"] != TRI_K * TRI["cell"]:
        problems.append(f"body size {md['body_size']}, expected {TRI_K * TRI['cell']}")
    if not close(md["J_prime"], TRI_J, TRI_OFFSET):
        problems.append(f"J' = {md['J_prime']}, expected {TRI_J}")
    if not close(md["penalty_offset"], TRI_OFFSET, TRI_OFFSET):
        problems.append(f"offset = {md['penalty_offset']}, expected {TRI_OFFSET}")
    return problems


def check_tri_verify(out: Outcome) -> list:
    doc = out.json_out()
    problems = [] if doc.get("passed") else ["verify reports a failed check"]
    kinds = {r["check"] for r in doc.get("reports", [])}
    for needed in ("translation_invariance", "rotation_invariance"):
        if needed not in kinds:
            problems.append(f"missing {needed} report")
    problems += flag_report_problems(doc.get("reports", []), TRI, "verify")
    return problems


def check_tri_spectrum(out: Outcome) -> list:
    doc = out.json_out()
    (e0, _), (e1, _) = FIELD_LEVELS[:2]
    problems = []
    if not close(doc["ground_energy"] - TRI_OFFSET, e0, TRI_OFFSET):
        problems.append(f"ground - offset = {doc['ground_energy'] - TRI_OFFSET!r}, "
                        f"expected {e0}")
    if doc["gap"] is None or not close(doc["gap"], e1 - e0, TRI_OFFSET):
        problems.append(f"gap = {doc['gap']!r}, expected {e1 - e0}")
    if doc["degeneracies"][0][1] != TRI_GROUND_DEGENERACY:
        problems.append(f"ground degeneracy {doc['degeneracies'][0][1]}, "
                        f"expected {TRI_GROUND_DEGENERACY}")
    return problems


def tri_ring13(seed: int) -> list:
    s = ["--seed", str(seed)]
    return [
        Command("construct", ["build-tri", "field1.json", "--r", str(TRI["r"]),
                              "--twice-j", str(TRI["twice_j"]), "--variant", TRI["variant"],
                              "--out", "ring.json", *s],
                check_build_tri, writes=("ring.json",)),
        Command("verify", ["verify", "ring.json", "--checks", "ti,ri,flags",
                           "--period", str(TRI_SITES * TRI["cell"]), "--json", *s],
                check_tri_verify),
        Command("solve", ["spectrum", "ring.json", "--count", "4", "--json", *s],
                check_tri_spectrum),
    ]


# ---------------------------------------------------------------------------
# ri_chain15: encode -> verify -> spectrum (Lanczos) -> dynamics (Krylov)

RI_R, RI_TWICE_J, RI_SITES = 5, 1, 3
HEIS = chain_matrix(heisenberg_pair(), RI_SITES)                 # 8 x 8
HEIS_LEVELS = levels(np.linalg.eigvalsh(HEIS))                   # -1 (x2), 0, ...
RI_GROUND_DEGENERACY = HEIS_LEVELS[0][1] * (RI_TWICE_J + 1) ** RI_SITES
RI_COUNT = RI_GROUND_DEGENERACY + 1     # fewest eigenpairs that resolve the gap
RI_PENALTY_SCALE = 3.0                  # energies are O(J); J = 3 for this chain


def check_encode(out: Outcome) -> list:
    model, enc = out.load("enc.json"), out.load("map.json")
    problems = []
    if model["n"] != RI_R * RI_SITES or model["local_dim"] != 2:
        problems.append(f"encoded model has {model['n']} sites")
    if (enc["r"], enc["twice_j"], enc["d"]) != (RI_R, RI_TWICE_J, 2):
        problems.append(f"encoding is r={enc['r']}, 2j={enc['twice_j']}, d={enc['d']}")
    iso = np.array([[complex(*z) for z in row] for row in enc["isometry"]])
    if np.max(np.abs(iso.conj().T @ iso - np.eye(enc["d"]))) > 1e-12:
        problems.append("encoding isometry is not orthonormal")
    return problems


def check_ri_verify(out: Outcome) -> list:
    doc = out.json_out()
    reports = doc.get("reports", [])
    if not doc.get("passed") or [r["check"] for r in reports] != ["rotation_invariance"]:
        return ["rotation check did not pass"]
    return []


def check_ri_spectrum(out: Outcome) -> list:
    doc = out.json_out()
    (e0, _), (e1, _) = HEIS_LEVELS[:2]
    problems = []
    if not close(doc["ground_energy"], e0, RI_PENALTY_SCALE):
        problems.append(f"ground energy {doc['ground_energy']!r}, expected {e0}")
    if doc["gap"] is None or not close(doc["gap"], e1 - e0, RI_PENALTY_SCALE):
        problems.append(f"gap {doc['gap']!r}, expected {e1 - e0}")
    if doc["degeneracies"][0][1] != RI_GROUND_DEGENERACY:
        problems.append(f"ground degeneracy {doc['degeneracies'][0][1]}, "
                        f"expected {RI_GROUND_DEGENERACY}")
    return problems


def check_dynamics(out: Outcome) -> list:
    doc = out.json_out()
    problems = []
    if not doc.get("passed") or doc.get("max_deviation", 1.0) > CHECK_TOL:
        problems.append(f"dynamics deviation {doc.get('max_deviation')!r}")
    if out.capture is not None:
        psi, decoded = out.capture["psi"], out.capture["decoded"]
        if len(psi) != DYNAMICS_STATES or len(decoded) != DYNAMICS_STATES * len(DYNAMICS_TIMES):
            problems.append(f"captured {len(psi)} states, {len(decoded)} decoded")
        else:
            worst = max(
                np.linalg.norm(decoded[i * len(DYNAMICS_TIMES) + k]
                               - scipy.linalg.expm(-1j * HEIS * t) @ psi[i])
                for i in range(len(psi)) for k, t in enumerate(DYNAMICS_TIMES))
            if worst > CHECK_TOL:
                problems.append(f"decoded states differ from expm by {worst:.3e}")
    return problems


def ri_chain15(seed: int) -> list:
    s = ["--seed", str(seed)]
    return [
        Command("construct", ["encode", "heis3.json", "--r", str(RI_R),
                              "--twice-j", str(RI_TWICE_J), "--out", "enc.json",
                              "--encoding-out", "map.json", *s],
                check_encode, writes=("enc.json", "map.json")),
        Command("verify", ["verify", "enc.json", "--checks", "ri", "--json", *s],
                check_ri_verify),
        Command("solve", ["spectrum", "enc.json", "--count", str(RI_COUNT), "--json", *s],
                check_ri_spectrum),
        Command("solve", ["dynamics", "heis3.json", "map.json", "--times",
                          ",".join(map(str, DYNAMICS_TIMES)),
                          "--states", str(DYNAMICS_STATES), "--json", *s],
                check_dynamics, capture=True),
    ]


# ---------------------------------------------------------------------------
# flag_layouts: the misalignment probe of two layouts, no global matrix

LAYOUTS = (flag_layout(10, 0, "general"), flag_layout(20, 8, "improved"))


def flags_check(layout, path):
    def check(out: Outcome) -> list:
        doc = out.load(path)
        problems = []
        spec = doc.get("spec", {})
        if (spec.get("m"), spec.get("F")) != (layout["m"], layout["F"]):
            problems.append(f"layout m={spec.get('m')}, F={spec.get('F')}, "
                            f"expected m={layout['m']}, F={layout['F']}")
        if (doc.get("offsets_annihilated"), doc.get("offsets_total")) != \
                (layout["cell"] - 1,) * 2:
            problems.append(f"{doc.get('offsets_annihilated')}/"
                            f"{doc.get('offsets_total')} offsets annihilated")
        problems += flag_report_problems(doc.get("overlaps", []), layout, path)
        return problems
    return check


def flag_layouts(seed: int) -> list:
    ops = []
    for layout in LAYOUTS:
        path = f"flags_{layout['variant']}.json"
        ops.append(Command("verify", ["flags", "--r", str(layout["r"]),
                                      "--twice-j", str(layout["twice_j"]),
                                      "--variant", layout["variant"],
                                      "--out", path, "--seed", str(seed)],
                           flags_check(layout, path), writes=(path,)))
        ops.append(Reload(path, layout))
    return ops


WORKLOADS = {
    "tri_ring13": Workload({
        "field1.json": model_doc("z_field", 1, "periodic", [((0,), FIELD_TERM)]),
    }, tri_ring13),
    "ri_chain15": Workload({
        "heis3.json": model_doc("heisenberg", RI_SITES, "open",
                                [((i, i + 1), heisenberg_pair())
                                 for i in range(RI_SITES - 1)]),
    }, ri_chain15),
    "flag_layouts": Workload({}, flag_layouts),
}
