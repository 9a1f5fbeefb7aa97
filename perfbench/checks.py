"""Output checks for the benchmark, written without any hspsim code path.

Group arithmetic, subgroup closure, annihilators, normality and the
period-finding distribution are recomputed here from their definitions,
so a check never compares the package against itself.  Each check
returns a list of problems; an empty list means the output is correct.

Not checked: the weak-Fourier-sampling law on D_N.  The pipeline starts
from F|e>, which is not the uniform superposition for non-abelian D_N, so
the irrep marginals do not follow P(rho) = (d_rho/|G|) sum_{k in K}
chi_rho(k) at this commit.  Asserting the law would fail every dihedral
run for a known, separately tracked defect; the dihedral checks use a
distribution recorded at this commit instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Subgroup counts of the order-32 groups, from their closed forms:
# Z2^5 sums the Gaussian binomials [5 k]_2 = 1+31+155+155+31+1, D16 has
# tau(16)+sigma(16) = 5+31, Z32 has tau(32) = 6, and Z2xZ16 has 14
# (brute-force closure of all generator pairs).
SUBGROUP_COUNTS = {"Z2^5": 374, "D16": 36, "Z2xZ16": 14, "Z32": 6}


# ---------------------------------------------------------------- groups


class Abelian:
    """Z_m1 x ... x Z_mk, elements as coordinate tuples, first factor most significant."""

    def __init__(self, moduli, cyclic=False):
        self.moduli = tuple(moduli)
        self.cyclic = cyclic
        self.order = math.prod(self.moduli)

    def op(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def coords(self, index):
        out = []
        for m in reversed(self.moduli):
            index, r = divmod(index, m)
            out.append(r)
        return tuple(reversed(out))

    def element(self, gen):
        return self.coords(gen) if isinstance(gen, int) else tuple(gen)

    def label(self, a):
        if self.cyclic:
            return str(a[0])
        return "(" + ",".join(str(x) for x in a) + ")"

    def pairs_trivially(self, y, k):
        """Whether the character with coordinates y is 1 on element k."""
        big = math.lcm(*self.moduli)
        return sum(yi * ki * (big // m) for yi, ki, m in zip(y, k, self.moduli)) % big == 0


class Dihedral:
    """D_n as pairs (rotation, reflection) with s r s^-1 = r^-1; index = rot + n*ref."""

    def __init__(self, n):
        self.n = n
        self.order = 2 * n

    def op(self, a, b):
        (r1, f1), (r2, f2) = a, b
        return ((r1 + (-r2 if f1 else r2)) % self.n, (f1 + f2) % 2)

    def inv(self, a):
        r, f = a
        return a if f else ((-r) % self.n, 0)

    def element(self, index):
        return (index % self.n, index // self.n)

    def label(self, a):
        r, f = a
        text = ("" if r == 0 else "r" if r == 1 else f"r{r}") + ("s" if f else "")
        return text or "e"

    def is_normal(self, elements):
        """K is normal iff conjugation by the generators r and s keeps it."""
        for g in ((1, 0), (0, 1)):
            ginv = self.inv(g)
            if any(self.op(self.op(g, k), ginv) not in elements for k in elements):
                return False
        return True


def closure(group, generators):
    """Subgroup generated by the given elements, by breadth-first products."""
    identity = group.element(0)
    seen = {identity}
    frontier = [identity]
    gens = [group.element(g) for g in generators]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = group.op(a, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def group_of(spec):
    if spec.startswith("D"):
        return Dihedral(int(spec[1:]))
    if spec == "Z2^5":
        return Abelian((2,) * 5)
    if spec == "Z2^12":
        return Abelian((2,) * 12)
    if spec == "Z2xZ16":
        return Abelian((2, 16))
    if spec == "Z32":
        return Abelian((32,), cyclic=True)
    raise ValueError(f"no benchmark oracle for group {spec!r}")


# ---------------------------------------------------------------- artifacts


def read_distribution(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["outcome_label", "probability"]:
        raise ValueError(f"{path} is not a distribution CSV")
    return {label: float(p) for label, p in rows[1:]}


def _report_distribution(report, out_dir):
    if "distribution" in report:
        return {label: float(p) for label, p in report["distribution"]}
    return read_distribution(Path(out_dir) / "distribution.csv")


def _normalisation(dist):
    problems = []
    total = math.fsum(dist.values())
    if abs(total - 1.0) > TOL:
        problems.append(f"probabilities sum to {total!r}")
    if min(dist.values()) < 0.0:
        problems.append("negative probability")
    return problems


def _uniform_on_annihilator(group, generators, dist):
    """Abelian law: p(y) = 1/|K^perp| on the annihilator of K and 0 elsewhere."""
    gens = [group.element(g) for g in generators]
    annihilator = {
        i for i in range(group.order)
        if all(group.pairs_trivially(group.coords(i), k) for k in gens)
    }
    if len(dist) != group.order:
        return [f"{len(dist)} outcomes, expected {group.order}"]
    expected = 1.0 / len(annihilator)
    worst = max(abs(p - (expected if int(label) in annihilator else 0.0))
                for label, p in dist.items())
    if worst > TOL:
        return [f"distribution deviates from uniform on the annihilator by {worst:.3e}"]
    return []


def _hidden_labels(group, hidden):
    return {group.label(k) for k in hidden}


# ---------------------------------------------------------------- checks


def check_simulate(spec, generators):
    """simulate: hidden subgroup, normality, law or reference, norms, samples."""
    group = group_of(spec)
    hidden = closure(group, generators)
    reference_key = f"{spec}:{json.dumps(list(generators))}"

    def check(report, out_dir):
        problems = []
        if set(report["hidden_elements"]) != _hidden_labels(group, hidden):
            problems.append("hidden_elements differ from the closure of the generators")
        if isinstance(group, Dihedral) and report["hidden_is_normal"] != group.is_normal(hidden):
            problems.append(f"hidden_is_normal is {report['hidden_is_normal']}")
        dist = _report_distribution(report, out_dir)
        problems += _normalisation(dist)
        if isinstance(group, Abelian):
            problems += _uniform_on_annihilator(group, generators, dist)
        else:
            problems += _against_reference(reference_key, report["distribution"])
        drift = max(abs(norm - 1.0) for norm in report["norms"])
        if drift > TOL:
            problems.append(f"state norm drifted by {drift:.3e}")
        if any(dist.get(label, 0.0) <= 0.0 for label in report["samples"]):
            problems.append("a sample lies outside the support")
        return problems

    return check


def check_simon(generators):
    """simon: brute-force agreement, recovered K, uniform law from distribution.csv."""
    group = group_of("Z2^12")
    hidden = closure(group, generators)

    def check(report, out_dir):
        problems = []
        if report["matches_brute_force"] is not True:
            problems.append("matches_brute_force is not true")
        if set(report["recovered_elements"]) != _hidden_labels(group, hidden):
            problems.append("recovered_elements differ from the hidden subgroup")
        dist = read_distribution(Path(out_dir) / "distribution.csv")
        return problems + _normalisation(dist) + _uniform_on_annihilator(group, generators, dist)

    return check


def check_recover(spec, generators):
    """recover: every subgroup ranked, and the true K at total variation 0."""
    group = group_of(spec)
    labels = _hidden_labels(group, closure(group, generators))

    def check(report, out_dir):
        problems = []
        if len(report["candidates"]) != SUBGROUP_COUNTS[spec]:
            problems.append(
                f"{len(report['candidates'])} candidates, expected {SUBGROUP_COUNTS[spec]}")
        truth = [c for c in report["candidates"] if set(c["elements"]) == labels]
        if len(truth) != 1:
            problems.append("the hidden subgroup is not ranked exactly once")
        elif truth[0]["total_variation"] > TOL:
            problems.append(f"true K has total variation {truth[0]['total_variation']!r}")
        return problems

    return check


def _modpow(base, exponents, modulus):
    """base**e mod modulus for an int64 array of exponents, by repeated squaring."""
    result = np.ones_like(exponents)
    power = np.full_like(exponents, base % modulus)
    e = exponents.copy()
    while e.any():
        odd = (e & 1).astype(bool)
        result[odd] = result[odd] * power[odd] % modulus
        power = power * power % modulus
        e >>= 1
    return result


def offset_peak_mass(n, a, q, bound, seed):
    """Peak mass of the offset transversal tau(i) = i + q*m_i by a direct numpy DFT.

    The two-register state |q>|f~(q)> is built as a (q, n) array and
    transformed along the left register in one batched FFT.
    """
    offsets = np.random.default_rng(seed).integers(0, bound, size=q)
    tau = np.arange(q, dtype=np.int64) + q * offsets.astype(np.int64)
    values = _modpow(a, tau, n)
    state = np.zeros((q, n), dtype=np.complex128)
    state[np.arange(q), values] = 1.0 / math.sqrt(q)
    probs = (np.abs(np.fft.fft(state, axis=0, norm="ortho")) ** 2).sum(axis=1)
    r = 1
    while pow(a, r, n) != 1:
        r += 1
    y = np.arange(q, dtype=np.int64)
    j0 = np.rint(r * y / q).astype(np.int64)
    best = np.min([np.abs(r * y - j * q) for j in (j0 - 1, j0, j0 + 1)], axis=0)
    return float(probs[2 * best <= r].sum())


def check_sweep(n, a, q, bound, seed, seeds):
    """sweep-transversal: frozen canonical peak mass, one offset row by direct DFT."""
    frozen = json.loads((REFERENCE_DIR / "period_sweep.json").read_text())
    key = f"N={n},a={a},Q={q}"
    expected_row = offset_peak_mass(n, a, q, bound, seed)

    def check(report, out_dir):
        problems = []
        if abs(report["peak_mass_shor"] - frozen[key]) > TOL:
            problems.append(
                f"peak_mass_shor {report['peak_mass_shor']!r} != frozen {frozen[key]!r}")
        with open(Path(out_dir) / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["seed"]) for r in rows] != list(range(seed, seed + seeds)):
            problems.append("sweep.csv does not hold one row per offset seed")
        elif abs(float(rows[0]["peak_mass_offset"]) - expected_row) > TOL:
            problems.append(
                f"offset row for seed {seed}: {rows[0]['peak_mass_offset']} "
                f"!= DFT {expected_row!r}")
        return problems

    return check


def labels_digest(labels):
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()


def _against_reference(key, distribution):
    """Compare with the distribution recorded at the baseline commit, when one is."""
    reference = json.loads((REFERENCE_DIR / "dihedral_simulate.json").read_text())
    if key not in reference:
        return []
    expected = reference[key]
    if labels_digest([label for label, _ in distribution]) != expected["labels_sha256"]:
        return [f"outcome labels differ from the recorded distribution {key}"]
    worst = max(abs(p - e) for (_, p), e in zip(distribution, expected["probs"]))
    if worst > TOL:
        return [f"distribution {key} deviates from the recorded one by {worst:.3e}"]
    return []
