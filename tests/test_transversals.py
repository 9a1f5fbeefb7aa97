import math
import tracemalloc

import numpy as np
import pytest

from hspsim.engine import OutcomeDistribution
from hspsim.errors import ResourceCapError
from hspsim.transversals import (
    PeriodicInstance,
    Transversal,
    _spectrum,
    approximate_function,
    offset_transversal,
    peak_mass,
    shor_pipeline,
    shor_transversal,
    transversal_quality_sweep,
)

from oracles import (
    composed_table,
    direct_fourier_probs,
    multiplicative_order,
    peak_mass_by_windows,
    spectrum_by_full_length_rffts,
)
from test_acceptance import PEAK_MASS_N21_A2_Q512

# Frozen: shor transversal, N=21, a=2, Q=65536 (the benchmark's sweep instance).
PEAK_MASS_N21_A2_Q65536 = 0.7892786611208602


def test_shor_transversal_is_identity_section():
    tau = shor_transversal(4)
    assert np.array_equal(tau.table, (0, 1, 2, 3))
    assert all(tau.table[q] % 4 == q for q in range(4))


def test_tables_are_readonly_int64():
    inst = PeriodicInstance(21, 2, 16)
    tables = [Transversal((0, 1, 2, 3)).table]
    for tau in (shor_transversal(16), offset_transversal(16, 21, seed=0)):
        tables += [tau.table, approximate_function(inst, tau).values]
    for table in tables:
        assert table.dtype == np.int64
        with pytest.raises(ValueError):
            table[0] = 0


def test_composition_with_modular_exponentiation():
    inst = PeriodicInstance(15, 7, 16)
    values = approximate_function(inst, shor_transversal(16)).values
    assert np.array_equal(values, (1, 7, 4, 13) * 4)


def test_offset_transversal_with_bound_one_is_canonical():
    for seed in range(5):
        assert np.array_equal(offset_transversal(16, 1, seed).table, shor_transversal(16).table)


@pytest.mark.parametrize("seed", range(5))
def test_offset_transversal_section_property(seed):
    tau = offset_transversal(16, 7, seed)
    assert all(tau.table[q] % 16 == q for q in range(16))


def test_offsets_are_invisible_when_period_divides_q():
    # a^Q = 1 when r | Q, so every offset transversal composes to the same table
    inst = PeriodicInstance(15, 7, 16)
    reference = approximate_function(inst, shor_transversal(16)).values
    for seed in range(5):
        tau = offset_transversal(16, 4, seed=seed)
        assert np.array_equal(approximate_function(inst, tau).values, reference)


def test_offset_transversal_breaks_periodicity():
    # r = 6 does not divide Q = 16, so varying offsets destroy the period
    inst = PeriodicInstance(21, 2, 16)
    r = inst.period
    values = approximate_function(inst, offset_transversal(16, 4, seed=1)).values
    assert any(values[q] != values[q + r] for q in range(16 - r))


def test_offset_bound_refused_past_int64():
    # representatives reach Q*bound - 1, which must fit in int64
    assert offset_transversal(16, 1 << 59, seed=0).table.max() < 1 << 63
    for q, bound in ((16, (1 << 59) + 1), (1, (1 << 63) + 1), (512, 10**20)):
        with pytest.raises(ValueError, match="2\\^63"):
            offset_transversal(q, bound, seed=0)


def test_transversal_validation_rejects_bad_tables():
    with pytest.raises(ValueError, match="injective"):
        Transversal((0, 1, 2, 2))
    with pytest.raises(ValueError, match="reduce"):
        Transversal((0, 1, 2, 5))
    with pytest.raises(ValueError):
        offset_transversal(16, 0, seed=0)


def test_transversal_validation_names_the_first_bad_index():
    with pytest.raises(ValueError, match="-3 does not reduce to 1 modulo 4"):
        Transversal((0, -3, 2, -1))
    with pytest.raises(ValueError, match="9 does not reduce to 2 modulo 4"):
        Transversal([0, 1, 9, 7])
    with pytest.raises(ValueError):
        Transversal((0, 1.5, 2, 3))


def test_periodic_instance_validation_and_period():
    inst = PeriodicInstance(15, 7, 16)
    assert inst.period == 4 == multiplicative_order(7, 15)
    assert PeriodicInstance(21, 2, 512).period == 6
    with pytest.raises(ValueError, match="coprime"):
        PeriodicInstance(15, 5, 16)
    with pytest.raises(ValueError, match="power of two"):
        PeriodicInstance(15, 7, 12)
    assert PeriodicInstance(15, 7, 12, allow_any_q=True).q == 12


def test_power_table_matches_pow():
    """A[k] = a^k mod N against Python pow, and its length, the period, against the
    order of a: every coprime a < N <= 300 (N = 2, a = 1 among them), and
    N = 1048573, a = 2, whose period 1048572 is N - 1."""
    cases = [(n, a) for n in range(2, 301) for a in range(1, n) if math.gcd(a, n) == 1]
    assert (2, 1) in cases
    for n, a in cases + [(1048573, 2)]:
        inst = PeriodicInstance(n, a, 2)
        r = multiplicative_order(a, n)
        assert inst.period == r
        assert inst.powers.tolist() == [pow(a, k, n) for k in range(r)], (n, a)
        assert not inst.powers.flags.writeable
    assert PeriodicInstance(1048573, 2, 4).period == 1048572


def test_exact_case_support_and_probabilities():
    inst = PeriodicInstance(15, 7, 16)
    dist = shor_pipeline(inst, shor_transversal(16))
    expected = {y: (0.25 if y % 4 == 0 else 0.0) for y in range(16)}
    for label, p in zip(dist.labels, dist.probs):
        assert abs(p - expected[label]) < 1e-12
    assert peak_mass(dist, 4, 16) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "modulus,base,big_q",
    [(15, 7, 16), (15, 4, 16), (17, 4, 16), (21, 2, 64)]
    + [(21, 2, q) for q in (1, 2, 3, 8, 15, 512, 1000)],
)
def test_pipeline_matches_direct_summation(modulus, base, big_q):
    """The mirrored real-FFT half spectrum, odd and even Q, against O(Q^2)
    summation of the forward and of the inverse transform: one law for both."""
    inst = PeriodicInstance(modulus, base, big_q, allow_any_q=bool(big_q & (big_q - 1)))
    for tau in (shor_transversal(big_q), offset_transversal(big_q, modulus, seed=3)):
        values = approximate_function(inst, tau).values
        dist = shor_pipeline(inst, tau)
        for forward in (True, False):
            expected = direct_fourier_probs(values, big_q, forward=forward)
            assert np.abs(np.asarray(dist.probs) - np.asarray(expected)).max() < 1e-12


@pytest.mark.parametrize("modulus,base", [(15, 4), (17, 4), (15, 7)])
def test_uniform_peaks_when_period_divides_q(modulus, base):
    big_q = 16
    inst = PeriodicInstance(modulus, base, big_q)
    r = inst.period
    assert big_q % r == 0
    dist = shor_pipeline(inst, shor_transversal(big_q))
    for label, p in zip(dist.labels, dist.probs):
        if label % (big_q // r) == 0:
            assert abs(p - 1 / r) < 1e-10
        else:
            assert p < 1e-12


def test_constant_approximation_gives_point_mass():
    inst = PeriodicInstance(15, 1, 16)
    assert inst.period == 1
    dist = shor_pipeline(inst, shor_transversal(16))
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)
    assert dist.probs[1:].max() < 1e-12


def test_offset_transversal_degrades_peak_mass():
    # offsets only matter when r does not divide Q; there they smear the
    # probability away from the multiples of Q/r
    inst = PeriodicInstance(21, 2, 512)
    r, big_q = inst.period, 512
    reference = peak_mass(shor_pipeline(inst, shor_transversal(big_q)), r, big_q)
    for seed in range(3):
        dist = shor_pipeline(inst, offset_transversal(big_q, 21, seed=seed))
        smeared = peak_mass(dist, r, big_q)
        assert smeared < 0.5 * reference
        assert len(dist.support(1e-12)) > r


def test_shift_covariance_of_the_distribution():
    inst = PeriodicInstance(15, 7, 16)
    base = shor_pipeline(inst, shor_transversal(16))
    for shift in range(1, 6):
        table = tuple(q + shift * 16 for q in range(16))
        shifted = Transversal(table)
        dist = shor_pipeline(inst, shifted)
        assert np.abs(np.asarray(dist.probs) - np.asarray(base.probs)).max() < 1e-12


def test_peak_mass_windows():
    uniform = OutcomeDistribution(tuple(range(512)), np.full(512, 1 / 512))
    r = 6
    qualifying = 0
    for y in range(512):
        j0 = round(r * y / 512)
        best = min(abs(r * y - j * 512) for j in (j0 - 1, j0, j0 + 1))
        qualifying += 2 * best <= r
    assert peak_mass(uniform, r, 512) == pytest.approx(qualifying / 512, abs=1e-15)
    assert qualifying in (r, r + 1)
    with pytest.raises(ValueError):
        peak_mass(uniform, 0, 512)


def test_pipeline_caps_and_mismatches():
    with pytest.raises(ResourceCapError):
        shor_pipeline(PeriodicInstance(8191, 2, 1 << 12), shor_transversal(1 << 12))
    inst = PeriodicInstance(15, 7, 16)
    with pytest.raises(ValueError, match="quotient order"):
        shor_pipeline(inst, shor_transversal(8))


def test_quality_sweep_prefers_canonical_transversal():
    inst = PeriodicInstance(21, 2, 512)
    rows = transversal_quality_sweep(inst, 21, range(10))
    assert len(rows) == 10
    wins = sum(1 for _, pm_shor, pm_offset in rows if pm_shor > pm_offset)
    assert wins >= 8


def _oracle_transversals(big_q):
    return [shor_transversal(big_q)] + [
        offset_transversal(big_q, bound, seed=1) for bound in (21, 1 << 40)
    ]


@pytest.mark.parametrize("big_q", [16, 512, 65536, 999])
@pytest.mark.parametrize("modulus,base", [(15, 7), (21, 2)])
def test_tables_and_peak_mass_match_scalar_oracles(big_q, modulus, base):
    # r = 4 divides every power-of-two Q here, r = 6 none; on the odd Q = 999
    # some labels sit exactly on a window edge, 2*|r*y - j*Q| = r
    inst = PeriodicInstance(modulus, base, big_q, allow_any_q=True)
    r = inst.period
    uniform = np.full(big_q, 1 / big_q)
    labels = tuple(range(big_q))
    for tau in _oracle_transversals(big_q):
        values = approximate_function(inst, tau).values
        assert np.array_equal(values, composed_table(base, modulus, tau.table))
        dist = shor_pipeline(inst, tau)
        assert peak_mass(dist, r, big_q) == peak_mass_by_windows(labels, dist.probs, r, big_q)
    dist = OutcomeDistribution(labels, uniform)
    assert peak_mass(dist, r, big_q) == peak_mass_by_windows(labels, uniform, r, big_q)
    step = max(1, big_q // 64)
    for y in sorted({*range(0, big_q, step), *range(big_q // r - 2, big_q // r + 3), big_q - 1}):
        point = np.zeros(big_q)
        point[y] = 1.0
        dist = OutcomeDistribution(labels, point)
        # the oracle skips the zero entries, which add nothing to its sum
        assert peak_mass(dist, r, big_q) == peak_mass_by_windows((y,), (1.0,), r, big_q)


def test_peak_mass_frozen_at_q65536():
    inst = PeriodicInstance(21, 2, 65536)
    dist = shor_pipeline(inst, shor_transversal(65536))
    assert abs(peak_mass(dist, inst.period, 65536) - PEAK_MASS_N21_A2_Q65536) < 1e-10


def test_peak_mass_memory_at_period_cap():
    """2^20 labels, the period cap: one int64 working array beside the labels."""
    q = 1 << 20
    dist = OutcomeDistribution(tuple(range(q)), np.full(q, 1 / q))
    tracemalloc.start()
    try:
        mass = peak_mass(dist, 6, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # windows by rint(r*y/Q) and a stacked three-way minimum peak at 80 MiB
    assert peak < 48 * 2**20
    # one label nearest each j*Q/6, j = 0..5
    assert mass == 6 / q


def _level_set_law(values, big_q, forward):
    """sum_v |DFT(1[f~ = v])|^2 / Q^2 over the distinct values v, by full complex FFTs."""
    values = np.asarray(values)
    probs = np.zeros(big_q)
    for v in sorted(set(values.tolist())):
        indicator = (values == v).astype(np.complex128)
        spectrum = np.fft.fft(indicator) if forward else np.fft.ifft(indicator) * big_q
        probs += np.abs(spectrum) ** 2
    return probs / big_q**2


@pytest.mark.parametrize("big_q", [4, 16, 999, 65536])
def test_period_law_matches_level_sets_of_composed_table(big_q):
    # r = 6: Q = 4 < r leaves classes of tau mod r empty; Q = 999 is odd
    modulus, base = 21, 2
    inst = PeriodicInstance(modulus, base, big_q, allow_any_q=True)
    transversals = [shor_transversal(big_q)] + [
        offset_transversal(big_q, bound, seed=3) for bound in (21, 1 << 40)
    ]
    for tau in transversals:
        values = composed_table(base, modulus, tau.table)
        if big_q == 4:
            assert len(set(values)) < inst.period
        dist = shor_pipeline(inst, tau)
        for forward in (True, False):
            expected = _level_set_law(values, big_q, forward)
            assert np.abs(np.asarray(dist.probs) - expected).max() < 1e-12


@pytest.mark.parametrize("modulus,base,big_q", [(21, 2, 4), (21, 2, 16), (21, 2, 999),
                                                (21, 2, 512), (21, 2, 65536), (35, 2, 4096)])
def test_sweep_rows_equal_peak_mass_of_the_pipeline(modulus, base, big_q):
    inst = PeriodicInstance(modulus, base, big_q, allow_any_q=True)
    r = inst.period
    reference = peak_mass(shor_pipeline(inst, shor_transversal(big_q)), r, big_q)
    for bound in (1, 21, 1 << 40):
        rows = transversal_quality_sweep(inst, bound, range(3, 6))
        assert [seed for seed, _, _ in rows] == [3, 4, 5]
        for seed, pm_shor, pm_offset in rows:
            assert pm_shor == reference
            tau = offset_transversal(big_q, bound, seed)
            assert pm_offset == peak_mass(shor_pipeline(inst, tau), r, big_q)
    frozen = {512: PEAK_MASS_N21_A2_Q512, 65536: PEAK_MASS_N21_A2_Q65536}
    if modulus == 21 and big_q in frozen:
        assert abs(reference - frozen[big_q]) < 1e-10


def test_sweep_row_memory_at_period_cap():
    """Q*N = 2^22: one offset row holds a few Q-length arrays, no f~ table or label tuple."""
    inst = PeriodicInstance(4, 3, 1 << 20)
    tracemalloc.start()
    try:
        rows = transversal_quality_sweep(inst, 1000, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # building f~, np.unique over it and a tuple of 2^20 labels per row peaks at 90 MiB
    assert peak < 48 * 2**20
    # r = 2 divides Q, so every transversal puts all mass on the windows
    assert rows == [(0, 1.0, 1.0)]


def _some_transversals(big_q):
    return [shor_transversal(big_q)] + [
        offset_transversal(big_q, bound, seed) for bound in (2, 21, 1 << 40) for seed in (3, 4)
    ]


@pytest.mark.parametrize("modulus,base,big_q", [(7, 2, 1024), (21, 2, 1001), (35, 2, 4097)])
def test_coset_kernel_is_bit_identical_when_gcd_is_one(modulus, base, big_q):
    """g = gcd(Q, r) = 1: one rfft of length Q per class, bit for bit the oracle's."""
    inst = PeriodicInstance(modulus, base, big_q, allow_any_q=True)
    assert math.gcd(big_q, inst.period) == 1
    for tau in _some_transversals(big_q):
        expected = spectrum_by_full_length_rffts(tau.table, inst.powers, big_q)
        assert np.array_equal(_spectrum(inst, tau), expected)


@pytest.mark.parametrize("modulus,base,big_q,g", [
    (21, 2, 4, 2),      # Q = 4 < r = 6: empty classes
    (21, 2, 999, 3),    # odd Q/g = 333
    (21, 2, 65536, 2),  # the benchmark's sweep instance
    (91, 2, 4096, 4),   # r = 12
    (15, 2, 1024, 4),   # g = r = 4
])
def test_coset_kernel_matches_full_length_rffts(modulus, base, big_q, g):
    inst = PeriodicInstance(modulus, base, big_q, allow_any_q=True)
    assert math.gcd(big_q, inst.period) == g
    for tau in _some_transversals(big_q):
        expected = spectrum_by_full_length_rffts(tau.table, inst.powers, big_q)
        got = _spectrum(inst, tau)
        assert got.shape == (big_q,)
        assert np.abs(got - expected).max() <= 1e-12


@pytest.mark.parametrize("modulus,base,big_q", [(15, 2, 1024), (15, 7, 16), (21, 2, 768)])
def test_offset_laws_equal_the_shor_law_when_period_divides_q(modulus, base, big_q):
    """r | Q: tau(q) mod r = q mod r for every transversal, so every offset law is
    the Shor transversal's, bit for bit."""
    inst = PeriodicInstance(modulus, base, big_q, allow_any_q=True)
    assert big_q % inst.period == 0
    reference = shor_pipeline(inst, shor_transversal(big_q)).probs
    for tau in _some_transversals(big_q)[1:]:
        assert np.array_equal(shor_pipeline(inst, tau).probs, reference)
