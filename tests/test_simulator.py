import bisect
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from pytest import approx
from scipy import stats as sps

from stopline.labels import MOTHER, is_antichain
from stopline.model import K_MAX, ModelSpec, Offspring, RateFunction
from stopline.simulator import (
    MAX_STEPS,
    SimulationError,
    _entropy,
    _keyed_stream,
    _philox_keys,
    _segment,
    _segment_steps,
    _stream_keys,
    child_state,
    empirical_moment_bound_check,
    label_stream,
    population_count,
    replication_seed,
    simulate_forest,
    simulate_forests,
    stream_state,
    total_born,
)

from conftest import PLANAR_MODEL, make_spec

START = [(MOTHER, [0.0])]


def test_no_events_when_rate_zero():
    spec = make_spec(alpha=0.0)
    rec = simulate_forest(spec, START, horizon=2.0, dt=0.5, seed=3)
    assert len(rec.particles) == 1
    p = rec.particles[MOTHER]
    assert p.end_kind == "alive_at_horizon"
    assert math.isinf(p.end_time)
    assert population_count(rec, 2.0) == 1


@pytest.mark.parametrize("span", [-1.0, 0.0, 1e-15, 1e-13])
def test_segment_below_the_residual_floor_has_no_steps(span):
    assert len(_segment_steps(*_segment(0.0, span, 0.01), 0.01)) == 0


def test_rejects_bad_inputs():
    spec = make_spec(alpha=0.0)
    with pytest.raises(SimulationError):
        simulate_forest(spec, START, horizon=1.0, dt=1.5, seed=0)
    with pytest.raises(SimulationError):
        simulate_forest(spec, [((1,), [0.0]), ((1, 0), [0.0])], horizon=1.0, dt=0.1, seed=0)
    with pytest.raises(SimulationError):
        simulate_forest(spec, [], horizon=1.0, dt=0.1, seed=0)


@pytest.mark.parametrize("horizon, dt, t0, what", [
    (math.nan, 0.1, 0.0, "horizon"),
    (math.inf, 0.1, 0.0, "horizon"),
    (1.0, 0.1, math.nan, "horizon"),
    (1.0, math.nan, 0.0, "dt"),
    (1.0, -math.inf, 0.0, "dt"),
])
def test_non_finite_times_are_refused(horizon, dt, t0, what):
    # a NaN passes "horizon <= t0" and "dt <= 0"; an inf horizon draws a
    # Yule tree until max_particles
    spec = make_spec(alpha=1.0, offspring=("deterministic", 2))
    with pytest.raises(SimulationError, match=what):
        simulate_forest(spec, START, horizon=horizon, dt=dt, seed=0, t0=t0)


def test_more_than_max_steps_is_refused():
    # a dt this small would ask numpy for arrays it cannot allocate
    spec = make_spec(alpha=1.0, offspring=("deterministic", 2))
    for dt in (1e-300, 1.0 / (2 * MAX_STEPS)):
        with pytest.raises(SimulationError, match="steps"):
            simulate_forest(spec, START, horizon=1.0, dt=dt, seed=0)


def test_bit_identical_records_for_same_seed():
    spec = make_spec(diffusion=("constant", 0.7), alpha=1.0,
                     offspring=("binary", (0.4, 0.6)))
    a = simulate_forest(spec, START, horizon=2.0, dt=0.05, seed=42)
    b = simulate_forest(spec, START, horizon=2.0, dt=0.05, seed=42)
    assert sorted(a.particles) == sorted(b.particles)
    for lab, pa in a.particles.items():
        pb = b.particles[lab]
        assert pa.end_time == pb.end_time
        assert np.array_equal(pa.times, pb.times)
        assert np.array_equal(pa.positions, pb.positions)


def test_seed_changes_record():
    spec = make_spec(alpha=1.0, offspring=("deterministic", 2))
    a = simulate_forest(spec, START, horizon=1.5, dt=0.25, seed=1)
    b = simulate_forest(spec, START, horizon=1.5, dt=0.25, seed=2)
    ea = a.particles[MOTHER].end_time
    eb = b.particles[MOTHER].end_time
    assert ea != eb


def test_local_branching_and_bookkeeping():
    spec = make_spec(diffusion=("constant", 0.5), alpha=2.0,
                     offspring=("deterministic", 2))
    rec = simulate_forest(spec, START, horizon=1.0, dt=0.05, seed=9)
    branched = [p for p in rec.particles.values() if p.end_kind == "branched"]
    assert branched
    for p in branched:
        kids = [rec.particles.get(p.label + (k,)) for k in range(p.offspring_count)]
        assert all(c is not None for c in kids)
        for c in kids:
            assert c.birth_time == p.end_time
            assert np.allclose(c.positions[0], p.positions[-1])
    # exactly k children exist, no extras
    for p in branched:
        extra = p.label + (p.offspring_count,)
        assert extra not in rec.particles


def test_antichain_of_alive_sets():
    spec = make_spec(alpha=1.5, offspring=("binary", (0.3, 0.7)))
    rec = simulate_forest(spec, START, horizon=2.0, dt=0.5, seed=11)
    event_times = sorted({p.birth_time for p in rec.particles.values()})
    for t in event_times:
        t = min(t, rec.horizon)
        assert is_antichain([lab for lab, p in rec.particles.items()
                             if p.birth_time <= t < p.end_time])


def test_total_born_monotone_and_counts():
    spec = make_spec(alpha=1.0, offspring=("deterministic", 2))
    rec = simulate_forest(spec, START, horizon=2.0, dt=0.25, seed=5)
    ts = np.linspace(0.0, 2.0, 21)
    born = [total_born(rec, t) for t in ts]
    assert born[0] == 1
    assert all(a <= b for a, b in zip(born, born[1:]))
    first_branch = min(p.end_time for p in rec.particles.values())
    if math.isfinite(first_branch) and first_branch < 2.0:
        assert total_born(rec, min(2.0, first_branch + 1e-9)) == 3


def test_pure_death_counts():
    spec = make_spec(alpha=1.0, offspring=("deterministic", 0))
    rec = simulate_forest(spec, START, horizon=5.0, dt=1.0, seed=21)
    assert total_born(rec, 5.0) == 1
    p = rec.particles[MOTHER]
    assert p.end_kind == "branched" and p.offspring_count == 0


def test_death_time_is_exponential():
    spec = make_spec(alpha=1.0, offspring=("deterministic", 0))
    reps = 4000
    records = simulate_forests(spec, START, horizon=60.0, dt=10.0,
                               seeds=[replication_seed(7, r) for r in range(reps)])
    ends = np.array([rec.particles[MOTHER].end_time for rec in records])
    assert np.all(np.isfinite(ends))
    se = ends.std(ddof=1) / math.sqrt(reps)
    assert abs(ends.mean() - 1.0) <= 3 * se


def test_yule_population_mean():
    spec = make_spec(alpha=1.0, offspring=("deterministic", 2))
    reps = 3000
    records = simulate_forests(spec, START, horizon=1.0, dt=0.25,
                               seeds=[replication_seed(13, r) for r in range(reps)])
    counts = np.array([population_count(rec, 1.0) for rec in records], dtype=float)
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - math.e) <= 3 * se


def test_thinning_accepts_all_at_the_bound():
    spec = make_spec(alpha=1.0, offspring=("deterministic", 1))
    rec = simulate_forest(spec, START, horizon=500.0, dt=100.0, seed=3)
    assert rec.proposals > 100
    assert rec.rejections == 0


def test_thinning_rejects_half_at_half_rate():
    spec = make_spec(alpha=0.5, alpha_bar=1.0, offspring=("deterministic", 1))
    # the forests of replication_seed(17, r), r = 0, 1, ..., drawn 8 at a time
    forests = (rec for r in itertools.count(0, 8) for rec in simulate_forests(
        spec, START, horizon=2000.0, dt=500.0, seeds=[replication_seed(17, r + i) for i in range(8)]))
    proposals = rejections = 0
    while proposals < 100_000:
        rec = next(forests)
        proposals += rec.proposals
        rejections += rec.rejections
    frac = rejections / proposals
    se = math.sqrt(0.25 / proposals)
    assert abs(frac - 0.5) <= 3 * se


def branched_counts(rec):
    return [p.offspring_count for p in rec.particles.values() if p.end_kind == "branched"]


def test_offspring_frequencies_chi_square():
    spec = make_spec(alpha=1.0, offspring=("binary", (0.3, 0.7)))
    zeros = twos = 0
    for r in range(1500):
        rec = simulate_forest(spec, START, horizon=8.0, dt=2.0,
                              seed=replication_seed(23, r))
        for k in branched_counts(rec):
            if k == 0:
                zeros += 1
            elif k == 2:
                twos += 1
            else:
                raise AssertionError(f"impossible offspring count {k}")
    n = zeros + twos
    stat, p = sps.chisquare([zeros, twos], [0.3 * n, 0.7 * n])
    assert p >= 0.01


def test_poisson_offspring_matches_pmf():
    lam = 0.5
    spec = make_spec(alpha=1.0, offspring=("poisson", lam))
    counts: dict = {}
    for rec in simulate_forests(spec, START, horizon=6.0, dt=2.0,
                                seeds=[replication_seed(29, r) for r in range(1200)]):
        for k in branched_counts(rec):
            counts[k] = counts.get(k, 0) + 1
    n = sum(counts.values())
    kmax = 4
    observed = [counts.get(k, 0) for k in range(kmax)] + [
        sum(v for k, v in counts.items() if k >= kmax)
    ]
    pk = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(kmax)]
    expected = [p * n for p in pk] + [(1.0 - sum(pk)) * n]
    stat, p = sps.chisquare(observed, expected)
    assert p >= 0.01


def test_euler_moments_constant_coefficients():
    b, s, t = 0.3, 0.7, 1.0
    spec = make_spec(drift=("constant", b), diffusion=("constant", s), alpha=0.0)
    for dt in (1e-2, 1e-3):
        reps = 2500
        finals = np.empty(reps)
        for r in range(reps):
            rec = simulate_forest(spec, START, horizon=t, dt=dt,
                                  seed=replication_seed(31, r))
            finals[r] = rec.particles[MOTHER].positions[-1][0]
        se_mean = finals.std(ddof=1) / math.sqrt(reps)
        assert abs(finals.mean() - b * t) <= 3 * se_mean
        var = finals.var(ddof=1)
        se_var = var * math.sqrt(2.0 / (reps - 1))
        assert abs(var - s * s * t) <= 3 * se_var


def test_euler_drift_bias_shrinks_with_dt():
    # deterministic linear drift: the Euler error has a closed form
    r_rate = 0.5
    spec = make_spec(drift=("linear", r_rate), diffusion=("constant", 0.0), alpha=0.0)
    errs = []
    for dt in (1e-2, 1e-3):
        rec = simulate_forest(spec, [(MOTHER, [1.0])], horizon=1.0, dt=dt, seed=1)
        errs.append(abs(rec.particles[MOTHER].positions[-1][0] - math.exp(r_rate)))
    assert errs[1] < errs[0]


def test_exact_event_times_not_grid_snapped():
    spec = make_spec(alpha=3.0, offspring=("deterministic", 0))
    rec = simulate_forest(spec, START, horizon=10.0, dt=1.0, seed=2)
    end = rec.particles[MOTHER].end_time
    assert end != approx(round(end))
    assert rec.particles[MOTHER].times[-1] == approx(end)


def _key(stream):
    return stream.bit_generator.state["state"]["key"].tolist()


# numpy splits 0, 1, 2^32 and 2^96 - 1 into 1, 1, 2 and 3 words and hashes
# the missing high words as 0; 2^128 - 1 fills all 4 words with ones
EDGE_ENTROPIES = [0, 1, 2**32, 2**96 - 1, 2**128 - 1]


def test_batched_keys_equal_seed_sequence_keys():
    rng = np.random.default_rng(20231)
    entropies = EDGE_ENTROPIES + [int.from_bytes(rng.bytes(16), "little") for _ in range(20_000)]
    words = np.frombuffer(b"".join(e.to_bytes(16, "little") for e in entropies),
                          dtype="<u4").reshape(-1, 4)
    keys = _philox_keys(words)
    assert keys.dtype == np.uint64 and keys.shape == (len(entropies), 2)
    expected = np.array([np.random.SeedSequence(entropy=e).generate_state(2, np.uint64)
                         for e in entropies])
    assert np.array_equal(keys, expected)


def test_batched_keys_equal_label_stream_keys():
    deep = tuple(i % 3 for i in range(600))
    pairs = [(seed, label)
             for seed in (0, 1, -1, -(2**40), replication_seed(3, 0), replication_seed(3, 7, "dpp"),
                          2**64 - 1)
             for label in ((), (0,), (1,), (0, 0), (63, 2), deep[:500], deep)]
    keys = _stream_keys([stream_state(seed, label) for seed, label in pairs])
    assert keys == [_key(label_stream(seed, label)) for seed, label in pairs]
    assert len({tuple(k) for k in keys}) == len(pairs)
    assert _stream_keys([]) == []


def test_a_child_state_continues_its_mothers_text():
    # down one lineage 1,000 deep, each state continued from its mother's, and
    # on the children of the empty label, whose text gains no "."
    for seed in (0, -7, replication_seed(3, 5)):
        state, label = stream_state(seed, MOTHER), MOTHER
        for depth in range(1, 1001):
            label += ((depth * 7) % 12,)
            state = child_state(state, label)
            assert state.digest()[:16] == _entropy(seed, label), (seed, depth)
        mother = stream_state(seed, MOTHER)
        for k in range(K_MAX + 1):
            assert child_state(mother, (k,)).digest()[:16] == _entropy(seed, (k,))
        # the mother's own state is left as it was
        assert mother.digest()[:16] == _entropy(seed, MOTHER)


def test_a_keyed_stream_draws_what_its_label_stream_draws():
    # the reused generator is left mid-buffer and with a spare 32-bit half,
    # then re-keyed: every part of the state must start afresh
    for seed, label in [(1, ()), (-4, (2, 0)), (replication_seed(9, 2), (1,) * 40)]:
        _keyed_stream([12345, 678]).random(3, dtype=np.float32)
        [key] = _stream_keys([stream_state(seed, label)])
        ours, ref = _keyed_stream(key), label_stream(seed, label)
        assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)
        for draw in (lambda g: g.exponential(2.0), lambda g: g.standard_normal((3, 2)),
                     lambda g: g.uniform(0.0, 1.5), lambda g: g.random(3, dtype=np.float32),
                     lambda g: g.standard_normal(5)):
            assert np.array_equal(draw(ours), draw(ref))


def test_the_draw_reads_a_mark_and_a_pick_as_numpy_would():
    # a * random() is the double uniform(0, a) draws, and leaves the stream
    # where uniform leaves it
    for a in (0.25, 1.0, 1.5):
        ours, ref = label_stream(5, (1,)), label_stream(5, (1,))
        for _ in range(100):
            assert a * ours.random() == ref.uniform(0.0, a)
        assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)
    # bisect_right on the cdf as a list is searchsorted(side="right"), at
    # every entry and at its neighbours
    for off in (Offspring("deterministic", k0=2), Offspring("binary", p0=0.3, p2=0.7),
                Offspring("poisson", lam=RateFunction("constant", value=2.5)),
                Offspring("poisson", lam=RateFunction("constant", value=40.0))):
        cdf = off.pmf(np.zeros(1), K_MAX)[0].cumsum()
        row = cdf.tolist()
        for entry in cdf:
            for v in (np.nextafter(entry, -np.inf), entry, np.nextafter(entry, np.inf)):
                assert bisect.bisect_right(row, float(v)) == cdf.searchsorted(float(v),
                                                                              side="right")


def test_label_streams_differ():
    # siblings, mother and child, and the same label under another seed
    pairs = [(1, ()), (1, (0,)), (1, (1,)), (1, (0, 0)), (1, (0, 1)), (1, (10,)), (1, (1, 0)),
             (2, (0,)), (-1, (0,)), (11, ()), (1, (1, 1))]
    keys = _stream_keys([stream_state(seed, label) for seed, label in pairs])
    assert keys == [_key(label_stream(seed, label)) for seed, label in pairs]
    assert len({tuple(k) for k in keys}) == len(pairs)
    normals = {tuple(_keyed_stream(key).standard_normal(4).tolist()) for key in keys}
    assert len(normals) == len(pairs)


def test_moment_bound_check_k_one():
    spec = make_spec(alpha=0.3, offspring=("poisson", 0.5), gamma=5.0)
    mean, bound, ok = empirical_moment_bound_check(spec, K=1.0, t=1.0, reps=100, seed=5)
    assert mean == approx(1.0)
    assert bound == approx(1.0)
    assert ok


def test_moment_bound_check_k_below_one():
    spec = make_spec(alpha=0.3, offspring=("poisson", 0.5), gamma=5.0)
    mean, bound, ok = empirical_moment_bound_check(spec, K=0.5, t=1.0, reps=200, seed=5)
    assert mean <= 1.0
    assert bound == approx(1.0)
    assert ok


def test_max_particles_guard():
    spec = make_spec(alpha=5.0, offspring=("deterministic", 2))
    with pytest.raises(SimulationError):
        simulate_forest(spec, START, horizon=10.0, dt=1.0, seed=1, max_particles=50)


def test_open_forest_is_freed_without_the_cycle_collector():
    # a forest must form no reference cycle, or every dropped forest would
    # wait for a cyclic collection to free its paths
    spec = make_spec(diffusion=("constant", 1.0), alpha=1.0, offspring=("deterministic", 2))
    gc.disable()
    try:
        rec = simulate_forest(spec, START, horizon=2.0, dt=0.1, seed=1)
        refs = [weakref.ref(rec)] + [weakref.ref(p) for p in rec.particles.values()]
        del rec
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


# --- whole forests, pinned bit for bit


def _pinned_models():
    models = {}
    for noise in (0.9, 0.0):
        # constant coefficients; without noise the drift still moves the particles
        const = make_spec(drift=("constant", 0.3), diffusion=("constant", noise), alpha=1.0,
                          offspring=("binary", (0.3, 0.7)))
        models[f"constant_rate@{noise}"] = const
        models[f"logistic_rate@{noise}"] = dataclasses.replace(
            const, branch_rate=RateFunction("logistic", cap=1.5, center=0.5, width=0.7),
            alpha_bar=1.5)
        models[f"poisson_logistic@{noise}"] = dataclasses.replace(
            const, offspring=Offspring("poisson", lam=RateFunction("logistic", cap=2.0)))
    put = json.loads((Path(__file__).parent.parent / "configs" / "put.json").read_text())
    models["put"] = ModelSpec.from_json(put["model"])
    return models


PINNED_MODELS = _pinned_models()
# three roots of two generations, on a clock that starts at 0.5
MULTI_ROOT = [((1,), [0.2]), ((0, 2), [-0.3]), ((2,), [0.7])]
PINNED_FORESTS = [(name, START if name != "put" else [(MOTHER, [0.6])], 2.5, 0.0)
                  for name in PINNED_MODELS]
PINNED_FORESTS += [("logistic_rate@0.9", MULTI_ROOT, 3.0, 0.5),
                   ("constant_rate@0.9", MULTI_ROOT, 3.0, 0.5)]
FOREST_DIGEST = "0769de4a1a803ed5ad5da72019d58fbd3efe094142ef7ac545bcffa19fd06987"


def forest_digest(records):
    """SHA-256 over forests: each particle's label, parent, end, offspring
    count, times and positions, in the order its record files them, and each
    forest's proposals and rejections."""
    h = hashlib.sha256()
    for rec in records:
        for p in rec.particles.values():
            h.update(repr((p.label, p.parent, p.end_time, p.offspring_count)).encode())
            h.update(np.ascontiguousarray(p.times, dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(p.positions, dtype=np.float64).tobytes())
        h.update(repr((rec.proposals, rec.rejections)).encode())
    return h.hexdigest()


def test_forests_are_pinned():
    seeds = list(range(8))
    alone = [[simulate_forest(PINNED_MODELS[name], initial, horizon, 0.05, seed, t0=t0)
              for seed in seeds] for name, initial, horizon, t0 in PINNED_FORESTS]
    assert forest_digest(rec for recs in alone for rec in recs) == FOREST_DIGEST
    # one walk over many forests draws each as a walk of its own does
    for (name, initial, horizon, t0), recs in zip(PINNED_FORESTS, alone):
        together = simulate_forests(PINNED_MODELS[name], initial, horizon, 0.05, seeds, t0=t0)
        assert [rec.seed for rec in together] == seeds
        assert [forest_digest([rec]) for rec in together] == [forest_digest([rec]) for rec in recs]


# dt = 0.07 leaves a residual step at the horizon too
PLANAR_FOREST_DIGEST = "65506b9e276e1019d4583a840dba958aa8f84d958a69e879240b79c39e713573"


def test_a_planar_forest_is_pinned():
    initial = [((0,), [0.1, -0.5]), ((1,), [-0.4, 0.6])]
    records = [simulate_forest(PLANAR_MODEL, initial, 2.5, 0.07, seed) for seed in range(8)]
    assert sum(rec.rejections for rec in records) > sum(len(rec.particles) for rec in records)
    assert forest_digest(records) == PLANAR_FOREST_DIGEST


# noiseless, so a mark reads a position that only the drift moves; dt = 0.07
# and 0.2 leave a residual step at the horizon too
NOISELESS_FOREST_DIGEST = "a5175a4400014419bbd62108ca43910dacd5b1dfadbffc9a12bcdd6514045d01"


def test_a_noiseless_forest_with_a_logistic_rate_is_pinned():
    spec = dataclasses.replace(
        make_spec(drift=("constant", 0.4), alpha=1.0, offspring=("binary", (0.3, 0.7))),
        branch_rate=PLANAR_MODEL.branch_rate, alpha_bar=2.5)
    initial = [((0,), [-0.6]), ((1,), [0.5])]
    records = [simulate_forest(spec, initial, 2.5, dt, seed)
               for dt in (0.05, 0.07, 0.2) for seed in range(8)]
    assert sum(rec.rejections for rec in records) > sum(len(rec.particles) for rec in records)
    assert forest_digest(records) == NOISELESS_FOREST_DIGEST


def test_max_particles_is_a_bound_per_root():
    spec = make_spec(alpha=2.0, offspring=("deterministic", 2))
    initial = [((0,), [0.0]), ((1,), [0.0])]
    rec = simulate_forest(spec, initial, horizon=1.0, dt=0.25, seed=4)
    below = [sum(lab[0] == root for lab in rec.particles) for root in (0, 1)]
    cap = max(below)
    assert sum(below) > cap
    capped = simulate_forest(spec, initial, horizon=1.0, dt=0.25, seed=4, max_particles=cap)
    assert forest_digest([capped]) == forest_digest([rec])
    with pytest.raises(SimulationError, match="max_particles"):
        simulate_forest(spec, initial, horizon=1.0, dt=0.25, seed=4, max_particles=cap - 1)
