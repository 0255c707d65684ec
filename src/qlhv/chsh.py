"""Finite hidden-variable models whose outcomes are unit-modulus phases.

A model assigns, to each hidden point, four dichotomic bits and four fixed
phase angles; the observable value at a setting is (-1)^bit * e^{i theta}.
The module evaluates the two-party correlation functional, the Bell
combination |E(a,b)-E(a,b')| + |E(a',b)+E(a',b')|, its analytic phase
bound, the explicit saturating configuration, and a numerical maximizer.
One pass over a model's points computes its four correlations; correlation
returns one of them, and the four calls of bell_expression on a model share
that pass.

A population of models is three arrays: weights (N, MAX_POINTS) with
zeros past each model's support, thetas (N, 4) and uint16 words (N, 4),
one per setting, whose bit p is that setting's bit at point p and is 0
past the support: the words that the row layout draws.  sample_models
draws one from a single (N, 25) block of uniforms and bell_values
evaluates it, under one set of phases or under S stacked as (S, N, 4);
ChshModel is one unpadded row, used by the per-model API and
serialization, whose weights and phases follow the real rule of
qlhv.tolerances (bell_values applies it as a dtype rule).  sample_model
decodes one row of the same layout in plain Python, which on a single row
is faster than numpy, into the ChshModel that is row 0 of sample_models
bit for bit; both per-model decoders read a word's bits through
_word_bits.

A model's value depends only on its four parity sums s_xy and on Bob's
phase difference t4 - t2: E(x,y) = s_xy e^{i(theta_x + theta_y)}, so
|E(a,b) - E(a,b')| = |s_ab - s_ab' e^{i(t4 - t2)}| and the a' term likewise;
Alice's phases t1 and t3 never enter it.  So maximize_bell searches the one
variable delta = t4 - t2 of a one-point model, and returns
theta = (0, 0, 0, delta).  bell_values evaluates that form,
while bell_expression multiplies out the four correlations, so the batch
route and the replay of a row through bell_expression differ by formula,
and agree to the rounding of the phases.

bell_sweep draws each block of a sweep once through sample_models and
evaluates it under complex and real phases, the two regimes the paper
compares, returning a witness row for each maximum and two fixed spot rows.
The real maximum ties among many rows, so its witness is the lowest row
within EXACT_TOL of it, and the sweep counts those rows.  Its check of each
complex value against analytic_bound reads the bound's real closed form,
which shares no code with bell_values.

numpy is imported, when called, by the population functions
(sample_models, bell_values, bell_sweep) and by analytic_bound given
arrays; sample_model uses only the numpy Generator it is given.
maximize_bell, which draws from random.Random, and the ChshModel record
path are plain Python.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from collections.abc import Mapping
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import tolerances
from .tolerances import EXACT_TOL, CheckedRecord, reals

if TYPE_CHECKING:
    import numpy as np

ALICE_SETTINGS = ("a", "a'")
BOB_SETTINGS = ("b", "b'")

# support size bound of sample_models
MAX_POINTS = 16
# uniforms per model of sample_models: the support size, MAX_POINTS raw
# weights, four phases and four bit uniforms, one per setting, in this order.
# Setting k's bit at point p is bit p of floor(u * 2^MAX_POINTS), u its bit
# uniform: the product is exact, a power of two times a double
_BITS = 1 + MAX_POINTS + 4   # the first bit uniform's column
_ROW = _BITS + 4
_WORD = 2.0 ** MAX_POINTS
# added to each raw weight uniform, so that no support point has weight 0
# (_row_model reads the support as the nonzero weights); sample_model and
# _decode_rows must add the same double
_WEIGHT_OFFSET = 1e-9

# the bits of each byte, least significant first: _BYTE_BITS[i][p] is
# (i >> p) & 1, so _word_bits reads a word's bits two bytes at a time
_BYTE_BITS = tuple(t[::-1] for t in itertools.product((0, 1), repeat=8))


def _word_bits(word: int, n: int) -> tuple[int, ...]:
    # the bits (word >> p) & 1 of points p = 0 .. n - 1 of a 16-bit word
    return (_BYTE_BITS[word & 255] + _BYTE_BITS[word >> 8])[:n]


_BIT_KEYS = ("f1", "f2", "f3", "f4")
# setting -> slot into the (f1, f2, f3, f4) / (theta1..theta4) layout
_SLOT = {"a": 0, "b": 1, "a'": 2, "b'": 3}
# (Alice, Bob) settings of E(a,b), E(a,b'), E(a',b), E(a',b'), the order of
# _correlations: each pair's index, and Alice's and Bob's slots of each
_PAIRS = tuple(itertools.product(ALICE_SETTINGS, BOB_SETTINGS))
_INDEX = {pair: k for k, pair in enumerate(_PAIRS)}
_ALICE, _BOB = zip(*((_SLOT[a], _SLOT[b]) for a, b in _PAIRS))


class ChshModel(CheckedRecord, namedtuple("ChshModel", "weights thetas bits")):
    """One model, an unpadded row of a population: a probability weight per
    hidden point (nonnegative, sum 1; signed weights belong to the qubit
    model), four phases theta1..theta4 and four per-point bit vectors
    f1..f4, one per setting, each field a tuple.  Weights and phases are
    reals by the rule of qlhv.tolerances, stored as floats; anything else,
    such as a string, None or True, raises ValueError("weights and phases
    must be numbers").  Bits are 0 or 1 by ==.  Checks what bell_values
    checks, written for one row and without numpy."""

    __slots__ = ()

    def __new__(cls, weights: tuple[float, ...], thetas: tuple[float, float, float, float],
                bits: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]):
        # tuples, so that no caller keeps a mutable field of the record
        weights = reals(weights, "weights and phases must be numbers")
        thetas = reals(thetas, "weights and phases must be numbers")
        # no points, a negative weight or a leading NaN fails min; a later NaN
        # or an infinity fails the sum
        if not (weights and min(weights) >= 0.0 and abs(sum(weights) - 1.0) <= EXACT_TOL):
            raise ValueError("invalid distribution")
        try:
            bits = tuple(map(tuple, bits))
            if len(thetas) != 4 or len(bits) != 4:
                raise ValueError("need exactly four phases and four bit vectors")
            for vec in bits:
                if len(vec) != len(weights):
                    raise ValueError("bits need one entry per point")
                # counted by ==, as `in (0, 1)` compares, so no entry is hashed
                if vec.count(0) + vec.count(1) != len(vec):
                    raise ValueError("bits must be 0 or 1")
        except TypeError:   # a number in place of the bit vectors or of one of them
            raise ValueError("bits need one entry per point") from None
        if not all(map(math.isfinite, thetas)):
            raise ValueError("phases must be finite")
        return super().__new__(cls, weights, thetas, bits)


def correlation(model: ChshModel, alice: str, bob: str) -> complex:
    """Weighted sum over hidden points of the product of Alice's and Bob's
    outcome values for the given settings: one of the four correlations
    that _correlations computes in one pass.  A setting is a str naming
    one: "a" or "a'" for Alice, "b" or "b'" for Bob.  Anything else, an
    array equal to such a name among them, raises ValueError naming the
    first bad setting.  Each parity sum adds its signed weights left to
    right from 0.0, as sum() does only up to CPython 3.11, so the values
    are the same on every interpreter."""
    # _correlations raises neither KeyError nor TypeError on a ChshModel, so
    # either comes from the lookup of the settings
    try:
        return _correlations(model)[_INDEX[alice, bob]]
    except (KeyError, TypeError):
        # a str first: an unhashable setting equal to a known one is `in` them
        if not isinstance(alice, str) or alice not in ALICE_SETTINGS:
            raise ValueError(f"unknown Alice setting: {alice!r}") from None
        raise ValueError(f"unknown Bob setting: {bob!r}") from None


# the last model given to _correlations and its four values: a model is an
# immutable record, so the same object has the same values
_LAST = (None, None)


def _correlations(model: ChshModel) -> tuple[complex, complex, complex, complex]:
    # E(a,b), E(a,b'), E(a',b), E(a',b') in one pass over the points: each
    # parity sum adds its signed weights left to right from 0.0, as sum() does
    # up to CPython 3.11, times e^{i(theta_a + theta_b)}
    global _LAST
    last, values = _LAST
    if last is model:
        return values
    s_ab = s_abp = s_apb = s_apbp = 0.0
    for w, a, b, ap, bp in zip(model.weights, *model.bits):
        s_ab += w if a == b else -w
        s_abp += w if a == bp else -w
        s_apb += w if ap == b else -w
        s_apbp += w if ap == bp else -w
    t_a, t_b, t_ap, t_bp = model.thetas
    values = (s_ab * cmath.exp(1j * (t_a + t_b)), s_abp * cmath.exp(1j * (t_a + t_bp)),
              s_apb * cmath.exp(1j * (t_ap + t_b)), s_apbp * cmath.exp(1j * (t_ap + t_bp)))
    _LAST = model, values
    return values


def bell_expression(model: ChshModel) -> float:
    return (abs(correlation(model, "a", "b") - correlation(model, "a", "b'"))
            + abs(correlation(model, "a'", "b") + correlation(model, "a'", "b'")))


def bell_values(weights: np.ndarray, thetas: np.ndarray, words: np.ndarray) -> np.ndarray:
    """bell_expression of each model of a population: weights (N, P) with
    P at most MAX_POINTS, thetas (N, 4) and words (N, 4), whose bit p of
    words[:, k] is setting k's bit at point p; returns shape (N,).  thetas
    may also stack S phase regimes of the same weights and words as
    (S, N, 4), which returns (S, N): the parity sums are computed once and
    only the phase difference once per regime.  A value reads only the four
    parity sums and t4 - t2, never t1 or t3, as |s_ab - s_ab' e^{i(t4 - t2)}|
    + |s_a'b + s_a'b' e^{i(t4 - t2)}|: a different formula from
    bell_expression's, one cosine and one sine per model and regime, so the
    per-model route is an independent check of each batch value.  At large
    phases the two agree to the rounding of the phases, not to 1e-14:
    bell_expression rounds four sums theta_a + theta_b, this one difference.
    Weights and phases must have an int, uint or float dtype, else
    ValueError("weights and phases must be numbers") (a bool, str, bytes,
    complex or object array).  Words must have an int or uint dtype and
    lie in [0, 2**16), else ValueError("bits must be words ...").  The
    whole batch is validated once, and each row must be a valid model:
    weights nonnegative summing to 1 within EXACT_TOL, finite phases.  Bits
    at zero-weight points, and at points P and above, change no value.

    The XOR of Alice's and Bob's words of each setting pair holds the four
    pair parities, pair-major as (4, N); they are unpacked once to
    (4, N, 16), the same +1/-1 terms in the same order as a gather of
    unpacked bits, so the sums equal that route's bit for bit."""
    import numpy as np
    weights, thetas, words = np.asarray(weights), np.asarray(thetas), np.asarray(words)
    # the real rule as a dtype rule: no bool, str, bytes, complex or object
    if weights.dtype.kind not in "iuf" or thetas.dtype.kind not in "iuf":
        raise ValueError("weights and phases must be numbers")
    weights, thetas = weights.astype(float, copy=False), thetas.astype(float, copy=False)
    if (weights.ndim != 2 or weights.shape[1] > MAX_POINTS or thetas.ndim not in (2, 3)
            or thetas.shape[-2:] != (len(weights), 4) or words.shape != (len(weights), 4)):
        raise ValueError("need weights (N, P) with P <= 16, thetas (N, 4) or (S, N, 4) and words (N, 4)")
    # reductions, not elementwise masks: min and max carry a NaN into the
    # comparison, which it fails
    if not (weights.min(initial=0.0) >= 0.0
            and np.abs(weights.sum(axis=1) - 1.0).max(initial=0.0) <= EXACT_TOL):
        raise ValueError("invalid distribution")
    if not (words.dtype.kind in "iu" and words.min(initial=0) >= 0 and words.max(initial=0) < _WORD):
        raise ValueError("bits must be words of an int or uint dtype in [0, 2**16)")
    if not np.isfinite(thetas).all():
        raise ValueError("phases must be finite")
    # the four pair words, pair-major; a little-endian word's bytes unpack
    # low byte first, each least significant bit first, so bit p lands at
    # point p.  int8 keeps the parity out of float
    words = words.astype("<u2", copy=False)
    pairs = words.T[list(_ALICE)] ^ words.T[list(_BOB)]
    bits = np.unpackbits(pairs.view(np.uint8), bitorder="little").reshape(4, len(weights), MAX_POINTS)
    s_ab, s_abp, s_apb, s_apbp = np.einsum("np,knp->kn", weights,
                                           1 - 2 * bits[..., :weights.shape[1]].view(np.int8))
    # |E(a,b) - E(a,b')| = |s_ab - s_ab' e^{i delta}| with delta = t4 - t2, and
    # |E(a',b) + E(a',b')| likewise: Alice's phases cancel.  Real and imaginary
    # parts, not s^2 + s'^2 - 2 s s' cos delta, which cancels near a zero term
    delta = thetas[..., _SLOT["b'"]] - thetas[..., _SLOT["b"]]
    c, sn = np.cos(delta), np.sin(delta)
    return (np.sqrt((s_ab - s_abp * c) ** 2 + (s_abp * sn) ** 2)
            + np.sqrt((s_apb + s_apbp * c) ** 2 + (s_apbp * sn) ** 2))


def analytic_bound(t2, t4):
    """|e^{i t2}+e^{i t4}| + |e^{i t2}-e^{i t4}|, an upper bound on
    bell_expression for every model carrying these two Bob phases.  Takes
    floats or arrays of equal shape.

    With d = t4 - t2 the two magnitudes are 2|cos(d/2)| and 2|sin(d/2)|,
    whose squares always sum to 4, so the bound is at most 2*sqrt(2), with
    equality exactly when the two phases differ by an odd multiple of pi/2.
    It is computed as that real closed form, 2 * (|cos(d/2)| + |sin(d/2)|):
    two real numbers take math.cos and math.sin, which agree with np.cos
    and np.sin bit for bit, so only arrays import numpy.
    """
    if isinstance(t2, (int, float)) and isinstance(t4, (int, float)):
        cos, sin = math.cos, math.sin
    else:
        import numpy as np
        t2, t4 = np.asarray(t2), np.asarray(t4)
        # bell_values' dtype rule: no bool, str, bytes, complex or object
        if t2.dtype.kind not in "iuf" or t4.dtype.kind not in "iuf":
            raise ValueError("phases must be numbers")
        cos, sin = np.cos, np.sin
    half = (t4 - t2) / 2
    return 2 * (abs(cos(half)) + abs(sin(half)))


def make_achieving_model() -> ChshModel:
    """The explicit configuration that saturates the 2*sqrt(2) bound:
    theta = (7pi/4, 0, pi/4, pi/2) on a single support point with all four
    bits zero."""
    return _single_point_model(7 * math.pi / 4, 0.0, math.pi / 4, math.pi / 2)


def _single_point_model(t1: float, t2: float, t3: float, t4: float) -> ChshModel:
    # a one-point model with equal bits: its Bell value is analytic_bound(t2, t4)
    return ChshModel((1.0,), (t1, t2, t3, t4), ((0,), (0,), (0,), (0,)))


def _improve(best, deltas):
    # best, a (value, delta) or None, after scoring the phase differences in
    # order by analytic_bound(0.0, delta): a difference replaces it only by a
    # strictly greater value, so among equal values the first stays
    for delta in deltas:
        value = analytic_bound(0.0, delta)
        if best is None or value > best[0]:
            best = value, delta
    return best


def maximize_bell(grid_steps: int, refine_iters: int = 50,
                  rng_seed: int = 0) -> tuple[ChshModel, float]:
    """Grid search over Bob's phase difference delta = t4 - t2 followed by
    local refinement.

    The support and bit structure are fixed analytically (single point,
    equal bits): any maximizing model can be brought to that form, and its
    Bell value, analytic_bound(t2, t4), reads only delta, so only delta is
    searched, each candidate scored by analytic_bound(0.0, delta).  A
    candidate replaces the best only by a strictly greater value, in the
    grid scan and in every refinement round, so among equal values the
    first wins: among equal grid maxima, the lowest grid index.  Each
    refinement round scores a step either way and one random candidate
    from random.Random(rng_seed), and halves the step when none of them
    improves.  grid_steps, refine_iters and rng_seed are integers;
    grid_steps must be at least 4, refine_iters and rng_seed nonnegative.
    Returns (the model theta = (0, 0, 0, delta mod 2pi), its Bell value
    through the correlations).
    """
    grid_steps = tolerances.count(grid_steps, "grid_steps", 4)
    refine_iters = tolerances.count(refine_iters, "refine_iters", 0)
    rng_seed = tolerances.count(rng_seed, "rng_seed", 0)
    import random
    step = 2.0 * math.pi / grid_steps
    best = _improve(None, (step * k for k in range(grid_steps)))
    rng = random.Random(rng_seed)
    for _ in range(refine_iters):
        delta = best[1]
        improved = _improve(best, [delta + step, delta - step, delta + step * rng.uniform(-1, 1)])
        if improved is best:
            step *= 0.5
        best = improved
    best_model = _single_point_model(0.0, 0.0, 0.0, best[1] % math.tau)
    return best_model, bell_expression(best_model)


def sample_model(rng: np.random.Generator, phase_choices: Sequence[float] | None = None) -> ChshModel:
    """Draw a random valid model: up to MAX_POINTS points with normalized
    weights, independent random bits, and phases either uniform on
    [0, 2pi) or drawn from phase_choices, which, if given, is a nonempty
    tuple, list or array of reals, else ValueError.  One rng.random(25)
    call, decoded by the row layout of sample_models in plain Python, which
    on one row is faster than numpy: the model is row 0 of
    sample_models(rng, 1, phase_choices) bit for bit, since both decoders
    divide the weights by their sum taken left to right.  Point p's bit is
    still (word >> p) & 1, read two bytes at a time by _word_bits through
    _BYTE_BITS, the 256-entry table of each byte's bits, least significant
    first."""
    choices = _phase_choices(phase_choices)
    u = rng.random(_ROW).tolist()
    n = int(u[0] * MAX_POINTS) + 1
    raw = [x + _WEIGHT_OFFSET for x in u[1:1 + n]]
    # left to right, as _decode_rows sums; sum() is compensated from CPython 3.12
    total = 0.0
    for w in raw:
        total += w
    thetas = [2.0 * math.pi * x if choices is None else choices[int(x * len(choices))]
              for x in u[1 + MAX_POINTS:_BITS]]
    bits = [_word_bits(int(x * _WORD), n) for x in u[_BITS:]]
    return ChshModel([w / total for w in raw], thetas, bits)


def sample_models(rng: np.random.Generator, count: int,
                  phase_choices: Sequence[float] | None = None):
    """Draw count models as arrays (weights (count, MAX_POINTS), thetas
    (count, 4), words uint16 (count, 4)) in one rng.random((count, 25))
    call, the population that bell_values takes.  Each row of 25 uniforms
    gives a support size, 16 raw weights, 4 phases and one uniform u per
    setting, whose top 16 bits, word = floor(u * 2^16), are that setting's
    bits: point p gets (word >> p) & 1.  Weights past each model's support
    are 0, and so are the words' bits there.  The product u * 2^16 is
    exact, so the numpy and the plain-Python decoder read the same words.
    A row-major draw consumes the stream as count draws of one row do, so
    row i is the model that the i-th of count sample_model calls on the
    same generator would return, and splitting a sweep into chunks does not
    change its models.  count is a nonnegative integer; phase_choices, if
    given, is a nonempty tuple, list or array of reals."""
    count = tolerances.count(count, "count", 0)
    choices = _phase_choices(phase_choices)
    return _decode_rows(rng.random((count, _ROW)), choices)


def _phase_choices(phase_choices):
    # None, or the nonempty tuple of floats that phase_choices must be
    if phase_choices is not None:
        message = "phase_choices must be a nonempty sequence of reals"
        if not (phase_choices := reals(phase_choices, message)):
            raise ValueError(message)
    return phase_choices


def _decode_rows(u, choices):
    """The models of the rows of u (N, _ROW) as arrays, by the row layout
    that sample_model decodes one row of: weights (N, MAX_POINTS), thetas
    (N, 4) uniform on [0, 2pi) or drawn from the tuple choices, and the
    little-endian uint16 words (N, 4) as drawn, their bits past the
    support cleared."""
    import numpy as np
    size_u, weight_u = u[:, :1], u[:, 1:1 + MAX_POINTS]
    theta_u, bit_u = u[:, 1 + MAX_POINTS:_BITS], u[:, _BITS:]
    # a support of n = floor(16 u) + 1 points: columns 0 to n - 1
    n = (size_u * MAX_POINTS).astype(np.intp) + 1
    support = np.arange(MAX_POINTS) < n
    weights = weight_u + _WEIGHT_OFFSET
    weights *= support
    # summed left to right, as sample_model sums, not pairwise as weights.sum
    total = weights[:, 0].copy()
    for column in weights.T[1:]:
        total += column
    weights /= total[:, None]
    thetas = (2.0 * math.pi * theta_u if choices is None
              else np.asarray(choices)[(theta_u * len(choices)).astype(np.intp)])
    # each setting's word as a little-endian uint16 (MAX_POINTS is 16), its
    # bits past the support cleared
    words = (bit_u * _WORD).astype("<u2")
    words &= ((1 << n) - 1).astype("<u2")
    return weights, thetas, words


def _row_model(weights, thetas, words, row: int) -> ChshModel:
    # a row of a drawn population as a ChshModel: its support is its nonzero
    # weights, which come first
    w = weights[row].tolist()
    n = len(w) - w.count(0.0)
    return ChshModel(w[:n], thetas[row].tolist(), [_word_bits(word, n) for word in words[row].tolist()])


# models per block of bell_sweep: bounds the memory of its model arrays for
# any sample count without changing the stream
_BLOCK = 1024
# complex rows that bell_sweep returns whatever their value: 15 in 16 rows
# have more than one point, where the complex maximum nearly always has one
_SPOT_ROWS = 2


class Witness(NamedTuple):
    """A row of a sweep: the lowest-indexed model that reaches a maximum, or
    is within EXACT_TOL of it, or a spot row.  Witness and Sweep are plain
    results, which only the library builds and which check nothing."""

    index: int      # row of the sweep, counted from 0 across blocks
    value: float    # its Bell value through bell_values
    model: ChshModel


class Sweep(NamedTuple):
    """What bell_sweep finds in its complex and real regimes."""

    complex_witness: Witness    # the lowest row at the complex maximum
    real_max: float
    real_witness: Witness       # the lowest row within EXACT_TOL of real_max
    real_ties: int              # the rows within EXACT_TOL of real_max
    gap: float                  # the largest excess of a complex value over its analytic_bound
    spots: list[Witness]        # the first _SPOT_ROWS rows under complex phases


def bell_sweep(rng: np.random.Generator, samples: int) -> Sweep:
    """Draw samples models from rng, as sample_models draws them, and
    evaluate each under complex phases (uniform on [0, 2pi)) and under real
    phases (0 or pi) mapped from the same phase uniforms: the real models
    are those that sample_models(rng, samples, (0.0, math.pi)) would draw
    from a generator in the same state.  Works in blocks of up to _BLOCK
    models, one rng.random call and one bell_values call each.  The real
    maximum, 2, is reached by about one row in six, whose values differ in
    the last place, so a last-place change of the values would move a
    witness taken at the maximum itself.  Its witness is the lowest row
    whose value v has v >= real_max - EXACT_TOL, which such a change does
    not move; the complex witness is the lowest row at the complex maximum.
    samples is an integer of at least 1.  Returns a Sweep, whose spot rows
    are fewer than _SPOT_ROWS if samples is smaller.

    The real bookkeeping is arrays: each block keeps the indexes and values
    of its rows at or above the running floor real_max - EXACT_TOL, and its
    best value.  The floor only rises, so a row below it never comes back,
    and when the maximum rises, every kept block whose best falls below the
    new floor is dropped.  Only a block that raised the maximum keeps its
    model arrays, for only such a block can come first at the end: an
    earlier kept block reaches at least as high.  At the end, the first
    kept row at or above the floor is the witness, the only row that
    becomes a ChshModel, and the kept rows at or above the floor are the
    ties.  A kept row costs 16 bytes, about 2.7 MB per million samples."""
    import numpy as np
    samples = tolerances.count(samples, "samples", 1)
    best = None
    # kept holds (start, rows, values, arrays or None, best) per block
    real_max, gap, spots, kept = -math.inf, -math.inf, [], []
    for start in range(0, samples, _BLOCK):
        # the uniforms live only inside sample_models, so they are freed
        # before evaluation: a block held through bell_values made malloc
        # return and re-fault about 360 heap pages per call
        weights, thetas, words = sample_models(rng, min(_BLOCK, samples - start))
        # the real phase (0.0, pi)[floor(2u)] of each phase uniform u: the
        # phase 2pi*u rounds below pi exactly when u < 1/2
        thetas = np.stack((thetas, np.where(thetas < math.pi, 0.0, math.pi)))
        values = bell_values(weights, thetas, words)
        gap = max(gap, float((values[0] - analytic_bound(thetas[0, :, 1], thetas[0, :, 3])).max()))
        spots += [Witness(start + row, float(values[0, row]), _row_model(weights, thetas[0], words, row))
                  for row in range(min(len(words), _SPOT_ROWS - start))]
        row = int(values[0].argmax())
        # a tie keeps the earlier witness, as argmax does within a block
        if best is None or values[0, row] > best.value:
            best = Witness(start + row, float(values[0, row]), _row_model(weights, thetas[0], words, row))
        top, arrays = float(values[1].max()), None
        if top > real_max:
            real_max, arrays = top, (weights, thetas[1], words)
            kept = [block for block in kept if block[4] >= real_max - EXACT_TOL]
        rows = np.flatnonzero(values[1] >= real_max - EXACT_TOL)
        kept.append((start, rows, values[1, rows], arrays, top))
    floor = real_max - EXACT_TOL
    start, rows, near, arrays, _ = kept[0]
    first = int((near >= floor).argmax())
    witness = Witness(start + int(rows[first]), float(near[first]), _row_model(*arrays, int(rows[first])))
    return Sweep(best, real_max, witness, sum(int((block[2] >= floor).sum()) for block in kept), gap, spots)


def model_to_dict(model: ChshModel) -> dict:
    """Flat serialization {points, weights, theta, f1..f4}; points are l0, l1,
    ..., weights and phases floats and bits ints."""
    record = {"points": [f"l{k}" for k in range(len(model.weights))],
              "weights": list(model.weights), "theta": list(model.thetas)}
    record.update((key, list(map(int, vec))) for key, vec in zip(_BIT_KEYS, model.bits))
    return record


def model_from_dict(record: Mapping) -> ChshModel:
    """Inverse of model_to_dict.  Labels are only counted: there must be
    one per weight.  ChshModel judges the numbers, so a string or a bool
    (JSON true/false) as a weight or phase is corrupt, while a bit is
    read as 0 or 1 by ==, true/false as 1/0.  Any malformed record raises
    ValueError: one that is not a mapping, lacks a key, or holds anything
    but a list or tuple (a number, None, a string or a mapping) as its
    points, weights or bits, or anything but a list, tuple or array as its
    theta, which ChshModel reads."""
    if not isinstance(record, Mapping):
        raise ValueError(f"a model record must be a mapping, got {type(record).__name__}")
    missing = [key for key in ("points", "weights", "theta", *_BIT_KEYS) if key not in record]
    if missing:
        raise ValueError(f"model record lacks {', '.join(missing)}")
    # a str, bytes or mapping has a length too, but is no list
    if not all(isinstance(record[key], (list, tuple)) for key in ("points", "weights", *_BIT_KEYS)):
        raise ValueError("points, weights and bits must be lists")
    if len(record["points"]) != len(record["weights"]):
        raise ValueError("invalid distribution: one label per weight")
    # a bit equal to 0 or 1 becomes that int; any other stays as it is, for
    # ChshModel to reject
    bits = tuple(tuple(int(b == 1) if b in (0, 1) else b for b in record[key]) for key in _BIT_KEYS)
    return ChshModel(record["weights"], record["theta"], bits)
