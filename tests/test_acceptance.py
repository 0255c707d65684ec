"""End-to-end acceptance gate: one test per headline claim, each printing
a PASS/FAIL line with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.

At pinned tolerances and runtime budgets it checks Bell saturation at
2*sqrt(2), the randomized complex (<= 2*sqrt(2)) and real (<= 2) bounds
over 10^4 models, optimizer convergence, the 32-element aligned GHZ
intersection with constant -i product, the quantum eigenrelations, the
(1-sqrt(3))/8 negative weight and expectation agreement over 10^3 states,
the six-axis-only sign-assignment existence result, permutation evolution,
and the Tsirelson cross-check over 10^3 random settings."""

import math
import time

import numpy as np
import pytest

from qlhv import chsh, ghz, oracle, qubit
from qlhv.quaternions import Basis, Q8Element
from qlhv.tolerances import BOUND_TOL, EXACT_TOL

TSIRELSON = 2.0 * math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
QI = Q8Element(Basis.I, 1)
# exchanges m and m+4 for m = 1..4, which flips the x signs
X_FLIP = (5, 6, 7, 8, 1, 2, 3, 4)
IDENTITY_PERMUTATION = (1, 2, 3, 4, 5, 6, 7, 8)


def timed(fn, repeats=3):
    """Best-of-n wall time for steady-state cost (first call warms caches)."""
    fn()
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def report(number, description, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{status}] {description} ({elapsed * 1e3:.3f} ms)")
    assert ok, f"criterion {number} failed: {description}"


def random_bloch(rng):
    while True:
        r = rng.uniform(-1.0, 1.0, 3)
        if float(r @ r) <= 1.0:
            return r


def test_criterion_1_chsh_achievement():
    value, elapsed = timed(lambda: chsh.bell_expression(chsh.make_achieving_model()))
    ok = abs(value - TSIRELSON) <= 1e-9 and elapsed < 1e-3
    report(1, f"achieving model reaches 2*sqrt(2): {value:.12f}", ok, elapsed)


def test_criterion_2_chsh_randomized_bounds():
    def sweep():
        rng = np.random.default_rng(2024)
        max_complex = 0.0
        for _ in range(10_000):
            max_complex = max(max_complex, chsh.bell_expression(chsh.sample_model(rng)))
        rng = np.random.default_rng(2025)
        max_real = 0.0
        for _ in range(10_000):
            model = chsh.sample_model(rng, phase_choices=(0.0, math.pi))
            max_real = max(max_real, chsh.bell_expression(model))
        return max_complex, max_real

    (max_complex, max_real), elapsed = timed(sweep, repeats=1)
    ok = max_complex <= TSIRELSON + BOUND_TOL and max_real <= 2.0 + BOUND_TOL and elapsed < 5.0
    report(
        2,
        f"10^4 random models: complex max {max_complex:.9f} <= 2*sqrt(2), "
        f"real max {max_real:.9f} <= 2",
        ok,
        elapsed,
    )


def test_criterion_3_optimizer():
    (_, value), elapsed = timed(lambda: chsh.maximize_bell(8, 50, 7), repeats=1)
    ok = (TSIRELSON - EXACT_TOL <= value <= TSIRELSON + BOUND_TOL) and elapsed < 1.0
    report(3, f"maximize_bell(8) = {value:.12f}", ok, elapsed)


def test_criterion_4_ghz_enumeration():
    def full_check():
        inter = ghz.ghz_intersection()
        products = {ghz.xxx_product(a) for a in inter}
        parity = ghz.classical_parity_check()
        return inter, products, parity

    (inter, products, parity), elapsed = timed(full_check)
    from test_ghz import aligned_family_listing

    ok = (
        len(inter) == 32
        and inter == aligned_family_listing()
        and products == {-QI}
        and parity.constant_product == 1
        and elapsed < 10e-3
    )
    report(
        4,
        f"intersection size {len(inter)}, xxx product "
        f"{{{', '.join(sorted(str(p) for p in products))}}}, classical parity constant "
        f"{parity.constant_product}",
        ok,
        elapsed,
    )


def test_criterion_5_quantum_oracle_agreement():
    def run():
        state = oracle.ghz_state()
        good = all(
            oracle.verify_eigenrelation(oracle.three_party_operator(axes), state, 1)
            for axes in ("xyy", "yxy", "yyx")
        )
        return good and oracle.verify_eigenrelation(
            oracle.three_party_operator("xxx"), state, -1
        )

    ok_relations, elapsed = timed(run)
    ok = ok_relations and elapsed < 10e-3
    report(5, "GHZ eigenrelations (+1, +1, +1, -1) at 1e-12", ok, elapsed)


def test_criterion_6_qubit_distribution():
    def run():
        diag = qubit.state_distribution((1 / SQRT3, 1 / SQRT3, 1 / SQRT3))
        ok = abs(diag.weights[7] - (1.0 - SQRT3) / 8.0) <= 1e-12
        rng = np.random.default_rng(2026)
        for _ in range(1_000):
            r = random_bloch(rng)
            dist = qubit.state_distribution(r)
            ok = ok and qubit.retroaction_check(dist)
            for idx, axis in enumerate("xyz"):
                lhv = qubit.axis_expectation(dist, axis)
                n = [0.0, 0.0, 0.0]
                n[idx] = 1.0
                ok = ok and abs(lhv - r[idx]) <= 1e-12
                ok = ok and abs(lhv - oracle.qubit_expectation(r, n)) <= 1e-12
        return ok

    ok_values, elapsed = timed(run, repeats=1)
    ok = ok_values and elapsed < 1.0
    report(6, "negative weight (1-sqrt(3))/8 and 10^3-state expectation agreement", ok, elapsed)


def test_criterion_7_sign_function_search():
    axis_dirs = [
        (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
        (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
    ]
    s = 1.0 / math.sqrt(2.0)
    off_axis = [(s, s, 0.0), (1 / SQRT3, 1 / SQRT3, 1 / SQRT3)]
    ok = True
    worst = 0.0
    for direction in axis_dirs + off_axis:
        found, elapsed = timed(lambda d=direction: qubit.sign_function_search(d))
        worst = max(worst, elapsed)
        expected = direction in axis_dirs
        ok = ok and ((found is not None) == expected) and elapsed < 0.1
    report(7, "sign assignment exists exactly for the six signed axes", ok, worst)


def test_criterion_8_evolution():
    def run():
        rng = np.random.default_rng(2027)
        ok = True
        for _ in range(100):
            r = random_bloch(rng)
            evolved = qubit.evolve_permutation(qubit.state_distribution(r), X_FLIP)
            mirrored = qubit.state_distribution((-r[0], r[1], r[2]))
            ok = ok and evolved.weights == mirrored.weights
        z_pair_swap = (3, 4, 1, 2, 7, 8, 5, 6)
        mix = qubit.PermutationMix(
            ((IDENTITY_PERMUTATION, 0.25), (X_FLIP, 0.5), (z_pair_swap, 0.25))
        )
        for _ in range(100):
            evolved = qubit.evolve_mixture(qubit.state_distribution(random_bloch(rng)), mix)
            ok = ok and qubit.retroaction_check(evolved)
        return ok

    ok_values, elapsed = timed(run, repeats=1)
    ok = ok_values and elapsed < 1.0
    report(8, "x-flip mirrors the Bloch vector; commuting mixtures keep pair sums", ok, elapsed)


def test_criterion_9_tsirelson_cross_check():
    def run():
        s = 1.0 / math.sqrt(2.0)
        optimal = oracle.chsh_quantum_value((1, 0, 0), (0, 1, 0), (s, s, 0), (s, -s, 0))
        rng = np.random.default_rng(2028)
        worst = 0.0
        for _ in range(1_000):
            dirs = rng.standard_normal((4, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            worst = max(worst, oracle.chsh_quantum_value(*dirs))
        return optimal, worst

    (optimal, worst), elapsed = timed(run, repeats=1)
    ok = abs(optimal - TSIRELSON) <= EXACT_TOL and worst <= TSIRELSON + BOUND_TOL and elapsed < 2.0
    report(
        9,
        f"quantum CHSH optimum {optimal:.9f}, random-settings max {worst:.9f}",
        ok,
        elapsed,
    )
