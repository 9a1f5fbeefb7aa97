"""Finite group arithmetic over dense integer element indices.

Built-in kinds are cyclic groups Z_N, direct products of cyclic groups,
and dihedral groups D_N of order 2N with generators r (rotation) and s
(reflection) and relation s r s^-1 = r^-1.  Element 0 is always the
identity; the enumeration per kind is fixed (cyclic: residues ascending;
products: mixed radix, first factor most significant; dihedral:
e, r, ..., r^{N-1}, s, rs, ..., r^{N-1}s).  Groups and subgroups are
immutable after construction and safe for shared read-only use.

Each kind multiplies and inverts by an index formula (bit fields for
products whose moduli are powers of two) that applies to Python ints and
to numpy int64 arrays alike.  Closure, membership, normality and cosets
work on generators and index arrays with that formula, so they need
O(|G|) memory at any order.  Subgroups are enumerated by classification
(D_N) and by character duality (abelian kinds), so no package path builds
the |G| x |G| multiplication table.  `check_index` is the one element-index
rule, and `_indices` its vector form for every entry point taking many.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ResourceCapError

MAX_TABLE_ORDER = 4096
SUBGROUP_ENUM_LIMIT = 64
# product-group labels formatted per `%` operation
_LABEL_ROWS = 4096


class FiniteGroup:
    """Base class; elements are the indices 0..order-1, identity is 0.

    Subclasses give the unchecked formulas `_op` and `_inv`, which take
    Python ints or broadcastable int64 arrays, plus `labels` and a
    generating set `generators`.
    """

    name: str
    order: int

    def _op(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def op(self, a: int, b: int) -> int:
        return int(self._op(self.check_index(a), self.check_index(b)))

    def inv(self, a: int) -> int:
        return int(self._inv(self.check_index(a)))

    def label(self, a: int) -> str:
        return self.labels((a,))[0]

    def labels(self, elements) -> list[str]:
        """The label of each index in `elements`, in one array pass."""
        raise NotImplementedError

    def generators(self) -> tuple[int, ...]:
        raise NotImplementedError

    def check_index(self, a: int) -> int:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.order:
            raise ValueError(
                f"element index {a!r} out of range for {self.name} (order {self.order})"
            )
        return int(a)

    @cached_property
    def op_table(self) -> np.ndarray:
        """The |G| x |G| multiplication table, kept as a test oracle; no package path reads it."""
        if self.order > MAX_TABLE_ORDER:
            raise ResourceCapError(
                f"op table for {self.name} needs order <= {MAX_TABLE_ORDER}, got {self.order}"
            )
        idx = np.arange(self.order, dtype=np.int64)
        table = self._op(idx[:, None], idx)
        table.flags.writeable = False
        return table

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def _indices(group: FiniteGroup, elements) -> np.ndarray:
    """`elements` (any iterable) as an int64 array, the vector form of `check_index`:
    it refuses what `check_index` refuses, with its text for the first bad entry."""
    try:
        idx = np.asarray(elements)
    except ValueError:  # a ragged nesting, which numpy refuses in its own words
        idx = None
    if idx is not None and idx.ndim == 1 and idx.dtype.kind in "iu" and (
            not idx.size or 0 <= idx.min() <= idx.max() < group.order):
        return idx.astype(np.int64, copy=False)
    # an iterator, a non-integer entry or a bad one: element by element
    return np.array([group.check_index(a) for a in elements], dtype=np.int64)


def _int64_order(name: str, order: int) -> int:
    """The order, refused at 2^63 and above: element indices are int64."""
    if order >= 1 << 63:
        raise ResourceCapError(f"{name} has order at least 2^63, past the int64 element indices")
    return order


class CyclicGroup(FiniteGroup):
    """Z_N under addition modulo N."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"cyclic group order must be positive, got {n}")
        self.n = int(n)
        self.name = f"Z{self.n}"
        self.order = _int64_order(self.name, self.n)
        self.moduli = (self.n,)
        self._radix = (np.array(self.moduli, dtype=np.int64), np.ones(1, dtype=np.int64))

    def _op(self, a, b):
        return (a + b) % self.n

    def _inv(self, a):
        return -a % self.n

    def generators(self) -> tuple[int, ...]:
        return (1,) if self.n > 1 else ()

    def labels(self, elements) -> list[str]:
        return [str(a) for a in _indices(self, elements).tolist()]


class ProductGroup(FiniteGroup):
    """Direct product of cyclic groups, mixed-radix indexed."""

    def __init__(self, moduli: tuple[int, ...]):
        moduli = tuple(int(m) for m in moduli)
        if not moduli or any(m < 1 for m in moduli):
            raise ValueError(f"product moduli must be positive, got {moduli}")
        self.moduli = moduli
        self.name = _product_name(moduli)
        self.order = _int64_order(self.name, math.prod(moduli))
        # place value of each coordinate; the last factor varies fastest
        weights = [1] * len(moduli)
        for i in range(len(moduli) - 2, -1, -1):
            weights[i] = weights[i + 1] * moduli[i + 1]
        self._radix = (np.array(moduli, dtype=np.int64), np.array(weights, dtype=np.int64))
        # with every modulus a power of two, an index is a concatenation of
        # bit fields; _fields masks their low bits and their top bits
        self._fields = None
        if all(m & (m - 1) == 0 for m in moduli):
            top = sum(w * m // 2 for m, w in zip(moduli, weights) if m > 1)
            self._fields = ((self.order - 1) ^ top, top)

    # Bit fields: the low bits add, each carry stopping at its field's top
    # bit, and the top bits add mod 2 by XOR.  Digits: coordinate i of index
    # a is a // w_i % m_i; the higher digits of a // w_i drop out mod m_i.
    def _op(self, a, b):
        if self._fields is not None:
            low, top = self._fields
            return ((a & low) + (b & low)) ^ ((a ^ b) & top)
        m, w = self._radix
        return (np.asarray(a)[..., None] // w + np.asarray(b)[..., None] // w) % m @ w

    def _inv(self, a):
        m, w = self._radix
        return -(np.asarray(a)[..., None] // w) % m @ w

    def generators(self) -> tuple[int, ...]:
        m, w = self._radix
        return tuple(w[m > 1].tolist())

    def coords(self, a: int) -> tuple[int, ...]:
        m, w = self._radix
        return tuple((self.check_index(a) // w % m).tolist())

    def index_of(self, coords) -> int:
        if len(coords) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} coordinates for {self.name}, got {coords!r}"
            )
        a = 0
        for x, m in zip(coords, self.moduli):
            a = a * m + CyclicGroup(m).check_index(x)
        return a

    def labels(self, elements) -> list[str]:
        """One `%` operation per chunk of rows over their coordinates."""
        m, w = self._radix
        row = "(" + ",".join(["%d"] * len(m)) + ")\n"
        idx, out = _indices(self, elements), []
        for lo in range(0, len(idx), _LABEL_ROWS):
            coords = (idx[lo:lo + _LABEL_ROWS, None] // w % m).ravel().tolist()
            out += (row * (len(coords) // len(m)) % tuple(coords)).split("\n")[:-1]
        return out


def is_z2n(group: FiniteGroup) -> bool:
    """Whether `group` is a product Z2^n, the group of Simon's problem."""
    return isinstance(group, ProductGroup) and all(m == 2 for m in group.moduli)


class DihedralGroup(FiniteGroup):
    """D_N of order 2N; index a encodes r^(a mod N) s^(a div N)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"dihedral parameter must be positive, got {n}")
        self.n = int(n)
        self.name = f"D{self.n}"
        self.order = _int64_order(self.name, 2 * self.n)

    def _op(self, a, b):
        n = self.n
        aref, bref = a // n, b // n
        return (aref + bref) % 2 * n + (a % n + (1 - 2 * aref) * (b % n)) % n

    def _inv(self, a):
        ref = a // self.n
        return ref * a + (1 - ref) * (-a % self.n)

    def generators(self) -> tuple[int, ...]:
        return (1, self.n) if self.n > 1 else (1,)

    def labels(self, elements) -> list[str]:
        ref, rot = np.divmod(_indices(self, elements), self.n)
        return [(f"r{t}" if t > 1 else "r" * t) + "s" * b or "e"
                for t, b in zip(rot.tolist(), ref.tolist())]


@dataclass(frozen=True)
class Subgroup:
    """A subgroup: its sorted element indices in a parent group, which alone decide equality."""

    group: FiniteGroup = field(compare=False)
    elements: tuple[int, ...]
    normal: bool

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def num_cosets(self) -> int:
        return self.group.order // self.order

    def spanning_generators(self) -> tuple[int, ...]:
        """A short generator list: repeatedly the least element not yet spanned."""
        return _greedy_generators(self.group, _mask(self.group, self.elements))

    @classmethod
    def from_generators(cls, group: FiniteGroup, generators) -> "Subgroup":
        gens = tuple(group.check_index(g) for g in generators)
        span = _mask(group, (0,))
        _grow(group, span, gens)
        return cls(group, tuple(np.flatnonzero(span).tolist()), _is_normal(group, span, gens))

    @classmethod
    def from_elements(cls, group: FiniteGroup, elements) -> "Subgroup":
        inside = _mask(group, _indices(group, elements))
        elems = tuple(np.flatnonzero(inside).tolist())
        if not elems or elems[0] != 0:
            raise ValueError("subgroup must contain the identity")
        return cls(group, elems, _is_normal(group, inside, _greedy_generators(group, inside)))


def _mask(group: FiniteGroup, elements) -> np.ndarray:
    member = np.zeros(group.order, dtype=bool)
    member[np.asarray(elements, dtype=np.int64)] = True
    return member


def _grow(group: FiniteGroup, span: np.ndarray, gens, closed: int = 0) -> None:
    """Close the mask `span`, a subgroup closed under gens[:closed], in place
    to <span, gens>.

    Breadth-first right multiplication, one array op per layer.  The
    generators are joined by their repeated squares, so g^k is reached
    in O(log k) layers.  The span times gens[:closed] lies in the span, so
    the first layer multiplies by the other generators alone.
    """
    x = np.asarray(gens, dtype=np.int64)
    powers = [x]
    for _ in range(group.order.bit_length() - 1):
        if not x.any():
            break
        powers.append(x := group._op(x, x))
    x = np.stack(powers)
    layer, frontier = x[:, closed:].ravel(), np.flatnonzero(span)
    while frontier.size:
        prods = group._op(frontier[:, None], layer)
        fresh = _mask(group, prods[~span[prods]])
        frontier = np.flatnonzero(fresh)
        span |= fresh
        layer = x.ravel()


def _greedy_generators(group: FiniteGroup, inside: np.ndarray) -> tuple[int, ...]:
    """Greedy generators of the element set `inside`; ValueError if it is not closed.

    Each generator is the least element not yet spanned, so the span at
    least doubles per generator and no step does |S|^2 work.
    """
    span = _mask(group, (0,))
    gens: list[int] = []
    while True:
        rest = np.flatnonzero(inside & ~span)
        if not rest.size:
            return tuple(gens)
        gens.append(int(rest[0]))
        _grow(group, span, gens, len(gens) - 1)
        outside = np.flatnonzero(span & ~inside)
        if outside.size:
            raise ValueError(
                f"element set not closed under the group operation: "
                f"it generates {group.label(int(outside[0]))}"
            )


def _is_normal(group: FiniteGroup, inside: np.ndarray, generators) -> bool:
    """g k g^-1 in K for generators g of G and k of K.

    That suffices: the g with gKg^-1 = K form a subgroup, and
    conjugation by g maps <k_1, ..., k_m> onto <g k_1 g^-1, ...>.
    """
    g = np.array(group.generators(), dtype=np.int64)[:, None]
    k = np.array(generators, dtype=np.int64)
    return bool(inside[group._op(group._op(g, k), group._inv(g))].all())


def coset_ids(group: FiniteGroup, subgroup: Subgroup) -> np.ndarray:
    """The int64 id of each element's left coset gK, the cosets numbered by their
    least element.  The least element not yet placed is the least of its coset,
    so one `_op` per coset places the coset, in O(|G|) memory."""
    if subgroup.group is not group:
        raise ValueError("subgroup does not belong to the given group")
    kel = np.array(subgroup.elements, dtype=np.int64)
    ids = np.full(group.order, -1, dtype=np.int64)
    g = 0
    for c in range(subgroup.num_cosets):
        while ids[g] >= 0:
            g += 1
        ids[group._op(g, kel)] = c
    return ids


def left_cosets(group: FiniteGroup, subgroup: Subgroup) -> list[tuple[int, ...]]:
    """Partition of G into left cosets gK, ordered by least-index representative."""
    members = np.argsort(coset_ids(group, subgroup), kind="stable")
    return [tuple(c) for c in members.reshape(-1, subgroup.order).tolist()]


def character_pairing(group: FiniteGroup, xs, ys) -> tuple[np.ndarray, int]:
    """t[i, j] = sum_c x_c y_c (L / m_c) mod L for x = xs[i], y = ys[j], and L.

    L is the lcm of the moduli m_c of an abelian kind, and the character
    chi_y is exp(2 pi i t / L) at x, so chi_y(x) = 1 exactly when t = 0.
    """
    if not isinstance(group, (CyclicGroup, ProductGroup)):
        raise ValueError(f"character pairing needs an abelian built-in group, got {group.name}")
    m, w = group._radix
    big = math.lcm(*group.moduli)
    xc = np.asarray(xs, dtype=np.int64)[:, None] // w % m
    yc = np.asarray(ys, dtype=np.int64)[:, None] // w % m * (big // m)
    # x_c < m_c and y_c L / m_c < L, so t < L sum_c m_c <= |G| (|G| + c):
    # no int64 overflow for any group whose coordinates fit in memory
    t = xc @ yc.T
    t %= big
    return t, big


def all_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """Complete subgroup list, sorted by (order, element tuple).

    D_N by classification: its subgroups are <r^d> and <r^d, r^i s> for
    d | N and 0 <= i < d (Conrad, "Dihedral groups II"), written out by
    index with no closure search.  Abelian kinds
    by duality: every subgroup K is the intersection of the character
    kernels that contain it, so closing {G} under intersection with the
    kernels ker(chi_y) reaches every subgroup.
    """
    n = group.order
    if n > SUBGROUP_ENUM_LIMIT:
        raise ResourceCapError(
            f"subgroup enumeration is limited to order {SUBGROUP_ENUM_LIMIT}, "
            f"got {group.name} of order {n}"
        )
    if isinstance(group, DihedralGroup):
        rot = group.n
        out = []
        for d in range(1, rot + 1):
            if rot % d == 0:
                turns = tuple(range(0, rot, d))
                out.append(Subgroup(group, turns, True))
                # conjugation by r takes r^i s to r^(i+2) s, so <r^d, r^i s> is normal iff d <= 2
                out += [Subgroup(group, turns + tuple(rot + i + t for t in turns), d <= 2)
                        for i in range(d)]
    elif isinstance(group, (CyclicGroup, ProductGroup)):
        idx = np.arange(n)
        bits = np.packbits(character_pairing(group, idx, idx)[0] == 0, axis=0, bitorder="little")
        kernels = {int.from_bytes(col.tobytes(), "little") for col in bits.T}
        found = frontier = {(1 << n) - 1}
        while frontier:
            frontier = {a & k for a in frontier for k in kernels} - found
            found |= frontier
        out = []
        for mask in found:
            elems = tuple(i for i in range(n) if mask >> i & 1)
            # a kernel intersection is a subgroup, normal as G is abelian
            out.append(Subgroup(group, elems, True))
    else:
        raise ValueError(f"no subgroup enumeration for group kind {type(group).__name__}")
    out.sort(key=lambda s: (s.order, s.elements))
    return out


def membership(group: FiniteGroup, subgroups) -> np.ndarray:
    """The (len(subgroups), |G|) boolean matrix of which element lies in which subgroup."""
    member = np.zeros((len(subgroups), group.order), dtype=bool)
    rows = np.repeat(np.arange(len(subgroups)), [k.order for k in subgroups])
    member[rows, np.concatenate([k.elements for k in subgroups])] = True
    return member


def lattice_generators(subgroups) -> list[tuple[int, ...]]:
    """`spanning_generators()` of each of `subgroups`, which must be every
    subgroup of one group (in any order), with no closure search.

    The greedy rule adds the least element g of K outside the span, and
    <span, g> is the smallest subgroup that contains the span and g.  So
    each step, taken for every K at once, reads the C x C containment
    relation between the subgroups; the span at least doubles per step, so
    there are at most log2|G| + 1 steps.
    """
    group = subgroups[0].group
    inside = membership(group, subgroups)
    orders = inside.sum(axis=1)
    # contains[a, b]: K_b lies in K_a, as |K_a & K_b| = |K_b|.  A float64 (BLAS)
    # product of the 0/1 rows is exact: each sum is an integer <= |G| < 2^53
    counts = inside.astype(np.float64)
    contains = counts @ counts.T == orders
    span = np.full(len(subgroups), int(np.argmin(orders)))
    gens: list[list[int]] = [[] for _ in subgroups]
    active = np.arange(len(subgroups))
    while True:
        rest = inside[active] & ~inside[span[active]]
        more = rest.any(axis=1)
        active, rest = active[more], rest[more]
        if not active.size:
            return [tuple(g) for g in gens]
        least = rest.argmax(axis=1)
        for c, g in zip(active.tolist(), least.tolist()):
            gens[c].append(g)
        fits = contains[:, span[active]].T & inside[:, least].T
        span[active] = np.where(fits, orders, group.order + 1).argmin(axis=1)


def _product_name(moduli: tuple[int, ...]) -> str:
    if len(moduli) == 1:
        return f"Z{moduli[0]}^1"
    parts = []
    i = 0
    while i < len(moduli):
        j = i
        while j < len(moduli) and moduli[j] == moduli[i]:
            j += 1
        count = j - i
        parts.append(f"Z{moduli[i]}^{count}" if count > 1 else f"Z{moduli[i]}")
        i = j
    return "x".join(parts)


_DIHEDRAL_RE = re.compile(r"[Dd](\d+)")
_CYCLIC_FACTOR_RE = re.compile(r"[Zz](\d+)(?:\^(\d+))?")


def group_from_spec(spec: str) -> FiniteGroup:
    """Parse a group description such as "Z6", "Z2^3", "Z2xZ4", or "D4"."""
    s = spec.replace(" ", "")
    if not s:
        raise ValueError("empty group spec")
    m = _DIHEDRAL_RE.fullmatch(s)
    if m:
        return DihedralGroup(int(m.group(1)))
    parts = []
    for part in re.split(r"[xX]", s):
        m = _CYCLIC_FACTOR_RE.fullmatch(part)
        if not m:
            raise ValueError(f"unrecognized group spec {spec!r}")
        base, power = int(m.group(1)), int(m.group(2) or 1)
        if base < 1 or power < 1:
            raise ValueError(f"group spec {spec!r} has a non-positive factor")
        parts.append((base, power))
    # 63 factors of modulus >= 2 already reach 2^63, so refuse before expanding
    if sum(power for _, power in parts) > 63:
        raise ResourceCapError(f"group spec {spec!r} has more than 63 cyclic factors")
    if len(parts) == 1 and "^" not in s:
        return CyclicGroup(parts[0][0])
    return ProductGroup(tuple(base for base, power in parts for _ in range(power)))
