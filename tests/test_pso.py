"""Tests for the particle swarm engine."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import engine_reference
from conftest import SPECIAL_FLOATS, ForcedStream, assert_same_bits
from engine_reference import state_of
from swarmkit import (
    ConfigError,
    ContractError,
    Global,
    ObjectiveSpec,
    Particle,
    PsoConfig,
    Ring,
    SwarmState,
    TerminationCriteria,
    benchmark,
    derive_stream,
    fitness_key,
    initialize_swarm,
    optimize,
    step,
    update_position,
    update_velocity,
)
from swarmkit.pso import _check_envelope, _clamped, _evaluated, _guides, _keyed, resolve_vmax


def sphere_spec(d=2, half_range=1.0):
    return ObjectiveSpec(
        dimension=d,
        lower_bound=np.full(d, -half_range),
        upper_bound=np.full(d, half_range),
        evaluate=lambda x: float(np.sum(x * x)),
    )


def state_from_pbest_fitnesses(fitnesses):
    """Swarm whose pbest positions encode their index for easy identification."""
    return state_of(
        [Particle([float(i)], [0.0], [float(i)], fit) for i, fit in enumerate(fitnesses)]
    )


class TestParticle:
    @pytest.mark.parametrize(
        "position, velocity, pbest",
        [
            ([0.0, 0.0], [0.0], [0.0, 0.0]),
            ([0.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0]),
            ([[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]),
            (0.0, 0.0, 0.0),
        ],
        ids=["velocity-short", "pbest-long", "2-d", "0-d"],
    )
    def test_vectors_must_be_1d_and_share_one_dimension(self, position, velocity, pbest):
        with pytest.raises(ConfigError, match="particle vectors must be 1-d"):
            Particle(position, velocity, pbest, 0.0)


class TestPsoConfig:
    def test_defaults(self):
        config = PsoConfig(swarm_size=10, termination=TerminationCriteria(max_iterations=5))
        assert config.c1 == 2.0 and config.c2 == 2.0
        assert config.vmax is None
        assert config.topology == Global()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(swarm_size=0),
            dict(swarm_size=5, c1=-0.1),
            dict(swarm_size=5, c2=-1.0),
            dict(swarm_size=5, vmax=0.0),
            dict(swarm_size=5, vmax=-1.0),
            dict(swarm_size=5, vmax=np.array([[1.0]])),
            dict(swarm_size=5, vmax=np.array([1.0, -1.0])),
            dict(swarm_size=5, topology=Ring(k=5)),
            dict(swarm_size=5, topology=Ring(k=7)),
            dict(swarm_size=5, topology="ring"),
        ],
    )
    def test_rejects_invalid_configs(self, kwargs):
        kwargs.setdefault("termination", TerminationCriteria(max_iterations=5))
        with pytest.raises(ConfigError):
            PsoConfig(**kwargs)

    def test_ring_radius_must_be_positive(self):
        with pytest.raises(ConfigError):
            Ring(k=0)

    @pytest.mark.parametrize("vmax", [1e308, np.array([1.0, 1e308])])
    def test_rejects_vmax_whose_double_overflows(self, vmax):
        # Initial velocities are -vmax + 2 * vmax * u, so every one would be +inf.
        with pytest.raises(ConfigError, match=r"vmax is too large: 2 \* vmax overflows"):
            PsoConfig(swarm_size=3, termination=TerminationCriteria(max_iterations=5), vmax=vmax)

    def test_largest_accepted_vmax_starts_finite_velocities(self):
        config = PsoConfig(
            swarm_size=3,
            termination=TerminationCriteria(max_iterations=5),
            vmax=np.finfo(float).max / 2,
        )
        state = initialize_swarm(sphere_spec(d=2), config, derive_stream(1, 0))
        assert np.isfinite(state.velocity).all()

    def test_vector_vmax_accepted(self):
        config = PsoConfig(
            swarm_size=3,
            termination=TerminationCriteria(max_iterations=5),
            vmax=np.array([1.0, 2.0]),
        )
        assert config.vmax.shape == (2,)

    def test_resolve_vmax_defaults_to_half_range(self):
        spec = sphere_spec(d=3, half_range=5.12)
        config = PsoConfig(swarm_size=3, termination=TerminationCriteria(max_iterations=5))
        assert np.array_equal(resolve_vmax(config, spec), np.full(3, 5.12))

    def test_resolve_vmax_rejects_dimension_mismatch(self):
        spec = sphere_spec(d=3)
        config = PsoConfig(
            swarm_size=3,
            termination=TerminationCriteria(max_iterations=5),
            vmax=np.array([1.0, 2.0]),
        )
        with pytest.raises(ConfigError):
            resolve_vmax(config, spec)


class TestInitializeSwarm:
    def test_positions_and_velocities_within_bounds(self):
        spec = sphere_spec(d=2)
        config = PsoConfig(swarm_size=3, termination=TerminationCriteria(max_iterations=5))
        state = initialize_swarm(spec, config, derive_stream(42, 0))
        vmax = resolve_vmax(config, spec)
        for particle in state.particles:
            assert (particle.position >= spec.lower_bound).all()
            assert (particle.position <= spec.upper_bound).all()
            assert (np.abs(particle.velocity) <= vmax).all()

    def test_pbest_equals_initial_position(self):
        spec = sphere_spec(d=4)
        config = PsoConfig(swarm_size=6, termination=TerminationCriteria(max_iterations=5))
        state = initialize_swarm(spec, config, derive_stream(1, 0))
        for particle in state.particles:
            assert np.array_equal(particle.pbest_position, particle.position)
            assert particle.pbest_fitness == spec.evaluate(particle.position)

    def test_gbest_is_minimum_initial_fitness(self):
        spec = sphere_spec(d=3)
        config = PsoConfig(swarm_size=3, termination=TerminationCriteria(max_iterations=5))
        state = initialize_swarm(spec, config, derive_stream(42, 0))
        assert state.gbest_fitness == min(p.pbest_fitness for p in state.particles)

    def test_deterministic_per_stream(self):
        spec = sphere_spec(d=3)
        config = PsoConfig(swarm_size=5, termination=TerminationCriteria(max_iterations=5))
        a = initialize_swarm(spec, config, derive_stream(11, 0))
        b = initialize_swarm(spec, config, derive_stream(11, 0))
        for pa, pb in zip(a.particles, b.particles):
            assert np.array_equal(pa.position, pb.position)
            assert np.array_equal(pa.velocity, pb.velocity)


class TestUpdateVelocity:
    def _config(self, **kwargs):
        kwargs.setdefault("swarm_size", 3)
        kwargs.setdefault("termination", TerminationCriteria(max_iterations=5))
        return PsoConfig(**kwargs)

    def test_zero_differences_leave_velocity_unchanged(self):
        particle = Particle([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 0.0)
        config = self._config(vmax=10.0)
        out = update_velocity(particle, np.zeros(2), config, ForcedStream([0.9, 0.1, 0.5, 0.4]))
        assert np.array_equal(out, np.zeros(2))

    def test_scalar_case_attracting_back(self):
        # v=0, x=1, pbest=guide=0, c1=c2=2, r1=r2=0.5:
        # v' = 0 + 2*0.5*(0-1) + 2*0.5*(0-1) = -2.0 exactly.
        particle = Particle([1.0], [0.0], [0.0], 0.0)
        config = self._config(vmax=10.0)
        out = update_velocity(particle, np.array([0.0]), config, ForcedStream([0.5, 0.5]))
        assert out[0] == -2.0

    def test_scalar_case_mixed_terms(self):
        # v=0.3, x=0, pbest=0, guide=1, r1=0.25, r2=0.5:
        # v' = 0.3 + 0 + 2*0.5*1 = 1.3 exactly.
        particle = Particle([0.0], [0.3], [0.0], 0.0)
        config = self._config(vmax=10.0)
        out = update_velocity(particle, np.array([1.0]), config, ForcedStream([0.25, 0.5]))
        assert out[0] == 0.3 + 2.0 * 0.5 * 1.0

    def test_draw_order_is_r1_then_r2_per_dimension(self):
        # Distinct draws per slot expose any deviation from the pinned
        # interleaved order (dim 0: r1, r2; dim 1: r1, r2).
        particle = Particle([0.0, 0.0], [0.0, 0.0], [1.0, 1.0], 0.0)
        guide = np.array([2.0, 2.0])
        config = self._config(c1=1.0, c2=1.0, vmax=100.0)
        draws = [0.1, 0.2, 0.3, 0.4]
        out = update_velocity(particle, guide, config, ForcedStream(draws))
        expected = np.array([0.1 * 1.0 + 0.2 * 2.0, 0.3 * 1.0 + 0.4 * 2.0])
        assert np.array_equal(out, expected)

    def test_consumes_exactly_two_draws_per_dimension(self):
        particle = Particle([0.0, 0.0, 0.0], [0.0] * 3, [1.0] * 3, 0.0)
        stream = ForcedStream([0.5] * 7)
        update_velocity(particle, np.ones(3), self._config(vmax=10.0), stream)
        assert stream.remaining == 1

    def test_result_is_clamped(self):
        particle = Particle([0.0], [0.0], [100.0], 0.0)
        config = self._config(vmax=1.5)
        out = update_velocity(particle, np.array([100.0]), config, ForcedStream([1.0, 1.0]))
        assert out[0] == 1.5

    def test_unset_vmax_everywhere_is_rejected(self):
        particle = Particle([0.0], [0.0], [0.0], 0.0)
        with pytest.raises(ConfigError, match="resolve_vmax"):
            update_velocity(particle, np.array([0.0]), self._config(), ForcedStream([0.5, 0.5]))

    @pytest.mark.parametrize("vmax", [[1.0, 1.0, 1.0], [1.0]])
    def test_vmax_dimension_mismatch_rejected(self, vmax):
        # Length 3 used to fail in numpy's broadcast and length 1 to broadcast silently.
        particle = Particle([0.0, 0.0], [0.0, 0.0], [1.0, 1.0], 0.0)
        config = self._config(vmax=np.array(vmax))
        message = rf"vmax has shape \({len(vmax)},\), particle has shape \(2,\)"
        with pytest.raises(ContractError, match=message):
            update_velocity(particle, np.zeros(2), config, ForcedStream([0.5] * 4))

    def test_guide_dimension_mismatch_rejected(self):
        particle = Particle([0.0], [0.0], [0.0], 0.0)
        with pytest.raises(ContractError):
            update_velocity(
                particle, np.array([0.0, 1.0]), self._config(vmax=1.0), ForcedStream([0.5, 0.5])
            )


class TestClampVelocity:
    """``pso._clamped``, the clamp that ``step`` and ``update_velocity`` run."""

    def test_upper_saturation(self):
        assert _clamped(np.array([3.0]), 2.0)[0] == 2.0

    def test_lower_saturation(self):
        assert _clamped(np.array([-3.0]), 2.0)[0] == -2.0

    def test_interior_identity(self):
        assert _clamped(np.array([1.5]), 2.0)[0] == 1.5

    def test_vector_vmax(self):
        out = _clamped(np.array([3.0, -3.0, 0.5]), np.array([1.0, 2.0, 4.0]))
        assert np.array_equal(out, [1.0, -2.0, 0.5])

    @given(
        st.data(),
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
            elements=st.floats() | SPECIAL_FLOATS,
        ),
        st.booleans(),
    )
    def test_equals_np_clip(self, data, velocity, per_dimension):
        # NaN passes through; +-inf saturate; -0.0 and 0.0 keep their signs.
        positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
        vmax = data.draw(positive)
        if per_dimension:
            vmax = data.draw(hnp.arrays(np.float64, velocity.shape[-1], elements=positive))
        assert_same_bits(_clamped(velocity, vmax), np.clip(velocity, -vmax, vmax))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
        st.floats(1e-3, 1e3),
    )
    def test_clamped_components_within_bound(self, values, vmax):
        out = _clamped(np.array(values), vmax)
        assert (np.abs(out) <= vmax).all()
        inside = np.abs(np.array(values)) <= vmax
        assert np.array_equal(out[inside], np.array(values)[inside])


class TestUpdatePosition:
    def test_scalar_sum(self):
        assert update_position(np.array([1.0]), np.array([-2.0]))[0] == -1.0

    def test_zero_velocity_fixed_point(self):
        assert np.array_equal(update_position(np.zeros(2), np.zeros(2)), np.zeros(2))

    def test_componentwise_sum(self):
        out = update_position(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
        assert np.array_equal(out, [1.5, 1.5])

    def test_positions_are_not_clamped_to_any_box(self):
        out = update_position(np.array([5.12]), np.array([10.0]))
        assert out[0] == 5.12 + 10.0  # far outside [-5.12, 5.12] and kept

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            update_position(np.zeros(2), np.zeros(3))


def assert_states_identical(a, b):
    """Equal bit for bit in every field: NaN equals NaN, and a zero's sign counts."""
    for field in dataclasses.fields(SwarmState):
        assert_same_bits(getattr(a, field.name), getattr(b, field.name))


def checked_step(state, objective, config, make_streams):
    """``step`` from ``state``, after checking that ``engine_reference.step`` gives the same bits.

    ``make_streams()`` must return a fresh, equal set of streams on each call.
    """
    stepped = step(state, objective, config, make_streams())
    expected = engine_reference.step(state, objective, config, make_streams())
    assert_states_identical(stepped, expected)
    return stepped


def guides_after_step(fitnesses, topology):
    """Where each particle of ``state_from_pbest_fitnesses(fitnesses)`` moves in one step.

    Particle i rests at its pbest [i], and the objective returns +inf, so no
    pbest changes. With c1=0, c2=1 and r2=1 the velocity is guide - x, so each
    particle lands exactly on its guide.
    """
    n = len(fitnesses)
    config = PsoConfig(
        swarm_size=n,
        termination=TerminationCriteria(max_iterations=1),
        c1=0.0,
        c2=1.0,
        vmax=float(n),
        topology=topology,
    )
    spec = ObjectiveSpec(1, np.array([-1.0]), np.array([float(n)]), lambda x: math.inf)

    def streams():  # r1, then r2, for d=1
        return [ForcedStream([0.5, 1.0]) for _ in range(n)]

    stepped = checked_step(state_from_pbest_fitnesses(fitnesses), spec, config, streams)
    return stepped.position[:, 0].tolist()


class TestSelectGuide:
    """The guide rule, as ``step`` runs it, against the per-particle reference."""

    def test_global_returns_overall_best(self):
        assert guides_after_step([3.0, 1.0, 2.0], Global()) == [1.0, 1.0, 1.0]

    def test_single_particle_is_its_own_guide(self):
        assert guides_after_step([7.0], Global()) == [0.0]

    def test_ring_neighborhood_wraps_around(self):
        # Particle 0's Ring(1) neighborhood is {4, 0, 1}, with fitnesses
        # {1, 5, 4}; particle 4 wins. Particle 4's is {3, 4, 0}.
        guides = guides_after_step([5.0, 4.0, 3.0, 2.0, 1.0], Ring(k=1))
        assert guides == [4.0, 2.0, 3.0, 4.0, 4.0]

    def test_ring_ties_break_to_lowest_index(self):
        guides = guides_after_step([2.0, 1.0, 1.0, 5.0, 5.0], Ring(k=1))
        assert guides == [1.0, 1.0, 1.0, 2.0, 0.0]
        # Across the wrap, the tie goes to index 0, not to 4, which comes first in ring order.
        assert guides_after_step([1.0, 5.0, 5.0, 5.0, 1.0], Ring(k=1)) == [0.0, 0.0, 1.0, 4.0, 0.0]

    def test_ring_covering_whole_swarm_matches_global(self):
        # Tied minima go to the lowest index on both paths. Ring(3) over 4 particles
        # lists some neighbors twice.
        cases = [
            ([5.0, 1.0, 3.0, 2.0, 4.0], 2),
            ([5.0, 1.0, 3.0, 1.0, 4.0], 2),
            ([2.0, 1.0, 3.0, 1.0], 3),
        ]
        for fitnesses, k in cases:
            ring = guides_after_step(fitnesses, Ring(k=k))
            assert ring == guides_after_step(fitnesses, Global())


def pbest_after_step(pbest_fitness, fitness):
    """One step of a particle at [2] with pbest [1], on an objective that returns ``fitness``."""
    particle = Particle([2.0], [0.0], [1.0], pbest_fitness)
    config = PsoConfig(swarm_size=1, termination=TerminationCriteria(max_iterations=1))
    spec = ObjectiveSpec(1, np.array([-4.0]), np.array([4.0]), lambda x: fitness)
    return checked_step(state_of([particle]), spec, config, lambda: [derive_stream(0, 1)])


class TestUpdatePbest:
    """The pbest rule, as ``step`` runs it, against the per-particle reference."""

    def test_strict_improvement_replaces(self):
        out = pbest_after_step(1.0, 0.5)
        assert out.pbest_fitness.tolist() == [0.5]
        assert out.pbest_position.tolist() == [[2.0]]

    def test_tie_keeps_old_pbest(self):
        out = pbest_after_step(1.0, 1.0)
        assert out.pbest_fitness.tolist() == [1.0]
        assert out.pbest_position.tolist() == [[1.0]]

    def test_worse_keeps_old_pbest(self):
        out = pbest_after_step(1.0, 2.0)
        assert out.pbest_fitness.tolist() == [1.0]
        assert out.pbest_position.tolist() == [[1.0]]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fitness_never_improves(self, bad):
        out = pbest_after_step(1.0, bad)
        assert out.pbest_fitness.tolist() == [1.0]
        assert out.pbest_position.tolist() == [[1.0]]
        assert out.non_finite_evals == 1

    def test_finite_fitness_replaces_non_finite_pbest(self):
        out = pbest_after_step(math.nan, 100.0)
        assert out.pbest_fitness.tolist() == [100.0]
        assert out.pbest_position.tolist() == [[2.0]]


# Fitnesses with ties and every non-finite kind, for the starting pbests.
FITNESSES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.0]), st.floats(-4.0, 4.0)
)


class TestReferenceParity:
    """``step``'s guide and pbest helpers against the bodies in ``tests/engine_reference.py``."""

    @given(st.data())
    def test_select_guide_matches_the_per_particle_body(self, data):
        fitnesses = data.draw(st.lists(FITNESSES, min_size=1, max_size=12), label="fitnesses")
        n = len(fitnesses)
        # Narrow rings (2k+1 < n) and rings that cover the whole swarm, where
        # tied minima must still go to the lowest index.
        radius = st.integers(1, max(1, (n - 2) // 2)) | st.integers(1, n + 2)
        topology = data.draw(st.just(Global()) | radius.map(lambda k: Ring(k=k)), label="topology")
        state = state_of(
            [
                Particle([float(i), -float(i)], [0.0, 0.0], [float(i), 0.5 * i], fit)
                for i, fit in enumerate(fitnesses)
            ]
        )
        keyed = _keyed(state.pbest_fitness)
        gbest = state.pbest_position[keyed.argmin()]  # as ``step`` picks it
        guides = np.broadcast_to(_guides(state.pbest_position, gbest, keyed, topology), (n, 2))
        for i in range(n):
            assert np.array_equal(guides[i], engine_reference.select_guide(state, i, topology))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
        FITNESSES,
        FITNESSES,
    )
    def test_update_pbest_matches_the_per_particle_body(self, position, pbest_fitness, fitness):
        d = len(position)
        particle = Particle(position, np.ones(d), np.arange(d) + 0.25, pbest_fitness)
        prior = state_of([particle], non_finite_evals=3)
        spec = ObjectiveSpec(d, np.full(d, -1e6), np.full(d, 1e6), lambda x: fitness)
        pbest, pbest_fitness_out, keyed, non_finite = _evaluated(spec, prior.position, prior)
        ref = engine_reference.update_pbest(particle, fitness)
        assert np.array_equal(pbest[0], ref.pbest_position)
        assert np.array_equal(pbest_fitness_out[0], ref.pbest_fitness, equal_nan=True)
        assert keyed[0] == fitness_key(ref.pbest_fitness)
        assert non_finite == 3 + (not math.isfinite(fitness))
        # The prior's arrays are left as they were.
        assert np.array_equal(prior.pbest_position[0], particle.pbest_position)
        assert np.array_equal(prior.pbest_fitness[0], pbest_fitness, equal_nan=True)


class TestStep:
    def _setup(self, swarm_size=7, d=3, topology=Global(), seed=5):
        spec = sphere_spec(d=d, half_range=2.0)
        config = PsoConfig(
            swarm_size=swarm_size,
            termination=TerminationCriteria(max_iterations=10),
            topology=topology,
        )
        state = initialize_swarm(spec, config, derive_stream(seed, 0))
        return spec, config, state

    @pytest.mark.parametrize("topology", [Global(), Ring(k=1), Ring(k=2), Ring(k=3)])
    def test_matches_per_particle_operations_bitwise(self, topology):
        spec, config, state = self._setup(topology=topology)
        vec_streams = [derive_stream(5, 1 + k) for k in range(config.swarm_size)]
        ref_streams = [derive_stream(5, 1 + k) for k in range(config.swarm_size)]
        vec_state, ref_state = state, state
        for _ in range(4):
            vec_state = step(vec_state, spec, config, vec_streams)
            ref_state = engine_reference.step(ref_state, spec, config, ref_streams)
            assert_states_identical(vec_state, ref_state)

    @given(st.data())
    def test_matches_per_particle_operations_for_any_configuration(self, data):
        fitnesses = data.draw(st.lists(FITNESSES, min_size=1, max_size=10), label="fitnesses")
        swarm = len(fitnesses)
        d = data.draw(st.integers(1, 5), label="d")
        topology = Global()
        if swarm > 1 and data.draw(st.booleans(), label="ring"):
            # Narrow rings (2k+1 < swarm) and rings that cover the whole swarm.
            k = st.integers(1, max(1, (swarm - 2) // 2)) | st.integers(1, swarm - 1)
            topology = Ring(data.draw(k, label="ring_k"))
        vmax = data.draw(
            st.floats(0.1, 3.0)
            | st.lists(st.floats(0.1, 3.0), min_size=d, max_size=d).map(np.array),
            label="vmax",
        )
        config = PsoConfig(
            swarm_size=swarm,
            termination=TerminationCriteria(max_iterations=3),
            c1=data.draw(st.floats(0.0, 4.0), label="c1"),
            c2=data.draw(st.floats(0.0, 4.0), label="c2"),
            vmax=vmax,
            topology=topology,
        )
        # Rows past the cut evaluate to NaN or an infinity, so non-finite
        # pbests occur in both implementations, and later steps adopt over them.
        cut = data.draw(st.floats(-1.0, 1.0), label="cut")
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="bad")
        spec = ObjectiveSpec(
            dimension=d,
            lower_bound=np.full(d, -1.0),
            upper_bound=np.full(d, 1.0),
            evaluate=lambda x: bad if x[0] > cut else float(np.sum(x * x)),
        )
        seed = data.draw(st.integers(0, 2**32), label="seed")
        # Start from pbests with the drawn fitnesses, held at other positions than the particles.
        start = initialize_swarm(spec, config, derive_stream(seed, 0)).particles
        state = state_of(
            [
                Particle(p.position, p.velocity, 0.5 - p.position, fitness)
                for p, fitness in zip(start, fitnesses)
            ]
        )
        vec_streams = [derive_stream(seed, 1 + k) for k in range(swarm)]
        ref_streams = [derive_stream(seed, 1 + k) for k in range(swarm)]
        vec_state, ref_state = state, state
        for _ in range(6):
            vec_state = step(vec_state, spec, config, vec_streams)
            ref_state = engine_reference.step(ref_state, spec, config, ref_streams)
            assert_states_identical(vec_state, ref_state)

    def test_performs_exactly_swarm_size_evaluations(self):
        calls = []
        spec = ObjectiveSpec(
            dimension=2,
            lower_bound=np.array([-1.0, -1.0]),
            upper_bound=np.array([1.0, 1.0]),
            evaluate=lambda x: calls.append(1) or float(np.sum(x * x)),
        )
        config = PsoConfig(swarm_size=6, termination=TerminationCriteria(max_iterations=5))
        state = initialize_swarm(spec, config, derive_stream(0, 0))
        calls.clear()
        step(state, spec, config, [derive_stream(0, 1 + k) for k in range(6)])
        assert len(calls) == 6

    def test_gbest_never_increases(self):
        spec, config, state = self._setup()
        streams = [derive_stream(5, 1 + k) for k in range(config.swarm_size)]
        previous = state.gbest_fitness
        for _ in range(20):
            state = step(state, spec, config, streams)
            assert state.gbest_fitness <= previous
            previous = state.gbest_fitness

    def test_gbest_bounded_by_every_pbest(self):
        spec, config, state = self._setup(swarm_size=9, topology=Ring(k=2))
        streams = [derive_stream(5, 1 + k) for k in range(9)]
        for _ in range(10):
            state = step(state, spec, config, streams)
            assert state.gbest_fitness == min(p.pbest_fitness for p in state.particles)
            for particle in state.particles:
                assert state.gbest_fitness <= particle.pbest_fitness

    def test_pbest_fitness_non_increasing_per_particle(self):
        spec, config, state = self._setup(swarm_size=5)
        streams = [derive_stream(5, 1 + k) for k in range(5)]
        previous = [p.pbest_fitness for p in state.particles]
        for _ in range(15):
            state = step(state, spec, config, streams)
            current = [p.pbest_fitness for p in state.particles]
            assert all(c <= p for c, p in zip(current, previous))
            previous = current

    def test_velocities_clamped_after_every_step(self):
        spec, config, state = self._setup(swarm_size=8)
        vmax = resolve_vmax(config, spec)
        streams = [derive_stream(5, 1 + k) for k in range(8)]
        for _ in range(10):
            state = step(state, spec, config, streams)
            for particle in state.particles:
                assert (np.abs(particle.velocity) <= vmax).all()

    def test_stationary_single_particle_at_guide_stays_put(self):
        spec = sphere_spec(d=2)
        config = PsoConfig(
            swarm_size=1, termination=TerminationCriteria(max_iterations=5), vmax=1.0
        )
        particle = Particle([0.25, -0.5], [0.0, 0.0], [0.25, -0.5], 0.3125)
        state = state_of([particle])
        out = step(state, spec, config, [derive_stream(3, 1)])
        assert np.array_equal(out.particles[0].position, particle.position)
        assert np.array_equal(out.particles[0].velocity, [0.0, 0.0])

    def test_repeated_runs_are_bit_identical(self):
        spec, config, state = self._setup(swarm_size=5, d=2, seed=7)
        a, b = state, state
        streams_a = [derive_stream(7, 1 + k) for k in range(5)]
        streams_b = [derive_stream(7, 1 + k) for k in range(5)]
        for _ in range(10):
            a = step(a, spec, config, streams_a)
            b = step(b, spec, config, streams_b)
        assert_states_identical(a, b)

    def test_zero_learning_factors_ignore_the_streams(self):
        spec = sphere_spec(d=3)
        config = PsoConfig(
            swarm_size=4, termination=TerminationCriteria(max_iterations=5), c1=0.0, c2=0.0
        )
        state = initialize_swarm(spec, config, derive_stream(9, 0))
        a, b = state, state
        streams_a = [derive_stream(1000, 1 + k) for k in range(4)]
        streams_b = [derive_stream(2000, 1 + k) for k in range(4)]
        for _ in range(5):
            a = step(a, spec, config, streams_a)
            b = step(b, spec, config, streams_b)
            assert_states_identical(a, b)

    def test_integer_pbests_are_adopted_as_floats(self):
        # A hand-built state may hold integer arrays; adoption upcasts them
        # to float instead of failing to cast the new positions.
        spec, config, state = self._setup(swarm_size=3, d=2)
        ints = dataclasses.replace(
            state,
            pbest_position=np.zeros((3, 2), dtype=np.int64),
            pbest_fitness=np.full(3, 10, dtype=np.int64),
        )
        streams = [derive_stream(5, 1 + k) for k in range(3)]
        stepped = step(ints, spec, config, streams)
        assert stepped.pbest_position.dtype == float
        assert np.array_equal(stepped.pbest_position, state.position)

    def test_stream_count_mismatch_rejected(self):
        spec, config, state = self._setup(swarm_size=4)
        with pytest.raises(ContractError):
            step(state, spec, config, [derive_stream(0, 1)])

    def test_non_finite_evaluations_are_counted_and_contained(self):
        calls = []

        def patchy(x):
            calls.append(1)
            return math.nan if x[0] > 0 else float(np.sum(x * x))

        spec = ObjectiveSpec(
            dimension=1,
            lower_bound=np.array([-1.0]),
            upper_bound=np.array([1.0]),
            evaluate=patchy,
        )
        config = PsoConfig(swarm_size=6, termination=TerminationCriteria(max_iterations=5))
        state = initialize_swarm(spec, config, derive_stream(2, 0))
        streams = [derive_stream(2, 1 + k) for k in range(6)]
        for _ in range(5):
            state = step(state, spec, config, streams)
        assert math.isfinite(state.gbest_fitness)
        assert state.non_finite_evals > 0


class TestOptimize:
    def test_single_iteration_trace(self):
        spec = sphere_spec(d=2)
        config = PsoConfig(swarm_size=4, termination=TerminationCriteria(max_iterations=1))
        _, best, trace = optimize(spec, config, seed=3)
        assert len(trace.entries) == 1
        assert trace.entries[0].iteration == 0

    def test_returned_best_matches_last_trace_entry(self):
        spec = sphere_spec(d=3)
        config = PsoConfig(swarm_size=5, termination=TerminationCriteria(max_iterations=20))
        position, best, trace = optimize(spec, config, seed=11)
        assert best == trace.entries[-1].best_fitness
        assert best == spec.evaluate(position)

    def test_trace_is_non_increasing_with_consecutive_iterations(self):
        spec = sphere_spec(d=3)
        config = PsoConfig(swarm_size=5, termination=TerminationCriteria(max_iterations=50))
        _, _, trace = optimize(spec, config, seed=4)
        fits = [e.best_fitness for e in trace.entries]
        assert all(b <= a for a, b in zip(fits, fits[1:]))
        assert [e.iteration for e in trace.entries] == list(range(50))

    def test_evaluation_accounting(self):
        spec = sphere_spec(d=2)
        config = PsoConfig(swarm_size=7, termination=TerminationCriteria(max_iterations=9))
        _, _, trace = optimize(spec, config, seed=1)
        # init evaluates the swarm once, then one swarm per iteration
        assert trace.evaluations == 7 + 7 * 9
        assert [e.evaluations for e in trace.entries] == [7 + 7 * (i + 1) for i in range(9)]

    def test_target_fitness_stops_early(self):
        spec = sphere_spec(d=2, half_range=5.0)
        config = PsoConfig(
            swarm_size=10,
            termination=TerminationCriteria(max_iterations=1000, target_fitness=60.0),
        )
        _, best, trace = optimize(spec, config, seed=8)
        assert best <= 60.0
        assert len(trace.entries) < 1000

    def test_full_run_determinism(self):
        spec = sphere_spec(d=4)
        config = PsoConfig(
            swarm_size=6,
            termination=TerminationCriteria(max_iterations=30),
            topology=Ring(k=1),
        )
        out_a = optimize(spec, config, seed=99)
        out_b = optimize(spec, config, seed=99)
        assert np.array_equal(out_a[0], out_b[0])
        assert out_a[1] == out_b[1]
        assert out_a[2] == out_b[2]

    def test_different_seeds_give_different_runs(self):
        spec = sphere_spec(d=4)
        config = PsoConfig(swarm_size=6, termination=TerminationCriteria(max_iterations=10))
        _, best_a, _ = optimize(spec, config, seed=1)
        _, best_b, _ = optimize(spec, config, seed=2)
        assert best_a != best_b

    def test_global_equals_full_coverage_ring(self):
        # With 2k+1 >= swarm_size the ring spans the whole swarm, so the
        # runs must match bit for bit.
        spec = sphere_spec(d=3)
        base = dict(swarm_size=5, termination=TerminationCriteria(max_iterations=40))
        global_out = optimize(spec, PsoConfig(topology=Global(), **base), seed=13)
        ring_out = optimize(spec, PsoConfig(topology=Ring(k=2), **base), seed=13)
        assert np.array_equal(global_out[0], ring_out[0])
        assert global_out[1] == ring_out[1]
        assert global_out[2] == ring_out[2]

    def test_narrow_ring_differs_from_global(self):
        spec = sphere_spec(d=3)
        base = dict(swarm_size=12, termination=TerminationCriteria(max_iterations=30))
        global_out = optimize(spec, PsoConfig(topology=Global(), **base), seed=13)
        ring_out = optimize(spec, PsoConfig(topology=Ring(k=1), **base), seed=13)
        assert global_out[2] != ring_out[2]

    def test_on_iteration_callback_streams_every_entry(self):
        spec = sphere_spec(d=2)
        config = PsoConfig(swarm_size=3, termination=TerminationCriteria(max_iterations=12))
        seen = []
        _, _, trace = optimize(spec, config, seed=5, on_iteration=seen.append)
        assert seen == list(trace.entries)

    def test_benchmark_integration(self):
        bench = benchmark("rastrigin", 4)
        config = PsoConfig(swarm_size=10, termination=TerminationCriteria(max_iterations=50))
        _, best, trace = optimize(bench.spec, config, seed=17)
        assert best < bench.spec.evaluate(bench.spec.upper_bound)
        assert trace.evaluations == 10 + 10 * 50


def log_uniform(low_exponent, high_exponent):
    return st.floats(low_exponent, high_exponent).map(lambda e: 10.0**e)


def farthest_point_spec(d, half_range):
    """-max|x| on [-h, h]^d: it cannot overflow, and it pulls the pbests outward."""
    lower, upper = np.full(d, -half_range), np.full(d, half_range)
    return ObjectiveSpec(d, lower, upper, lambda x: -float(np.max(np.abs(x))))


class TestVelocityEnvelope:
    ENVELOPE = "c1, c2, vmax and max_iterations let a velocity sum overflow"

    @settings(max_examples=200)
    @given(
        st.integers(0, 2**32 - 1),
        st.just(0.0) | log_uniform(-3, 308),
        st.just(0.0) | log_uniform(-3, 308),
        st.none() | log_uniform(-3, 307),
        log_uniform(-3, 307),
        st.integers(1, 30),
        st.integers(1, 5),
        st.integers(1, 3),
    )
    def test_accepted_runs_never_overflow(self, seed, c1, c2, vmax, half_range, budget, swarm, d):
        config = PsoConfig(swarm, TerminationCriteria(budget), c1=c1, c2=c2, vmax=vmax)
        spec = farthest_point_spec(d, half_range)
        try:
            with np.errstate(over="raise", invalid="raise"):
                optimize(spec, config, seed)
        except ConfigError as exc:
            assert str(exc).startswith(self.ENVELOPE)

    @pytest.mark.parametrize(
        "half_range, budget, coefficients",
        [
            (8e307, 50, dict()),  # a box whose pbest - x overflows
            (5.12, 10, dict(c1=1e308, c2=1e308)),
            (5.12, 10**400, dict()),  # beyond the float range: no run could finish
            (5.12, 10**5000, dict()),  # beyond what str() prints of an int
            (1.0, 30, dict(c1=0.0, c2=0.0, vmax=8e307)),  # 0 * inf in the envelope is NaN
        ],
        ids=["wide-box", "c1-c2", "budget-beyond-float", "budget-beyond-str", "nan-envelope"],
    )
    def test_refuses_before_the_first_evaluation(self, half_range, budget, coefficients):
        def evaluate(x):
            raise AssertionError("the run started")

        spec = ObjectiveSpec(3, np.full(3, -half_range), np.full(3, half_range), evaluate)
        config = PsoConfig(10, TerminationCriteria(budget), **coefficients)
        with pytest.raises(ConfigError, match=self.ENVELOPE):
            optimize(spec, config, seed=1)

    def test_refuses_a_budget_no_run_can_reach_on_the_sphere_box(self):
        spec = benchmark("sphere", 2).spec
        accepted = PsoConfig(5, TerminationCriteria(2 * 10**306))
        _check_envelope(accepted, spec)  # 2 * (5.12 + 8 * (5.12 + T * 5.12)) < 1.8e308
        with pytest.raises(ConfigError, match=self.ENVELOPE):
            _check_envelope(PsoConfig(5, TerminationCriteria(3 * 10**306)), spec)


class TestRandomizedInvariants:
    @given(st.integers(0, 2**32))
    def test_initialization_respects_bounds_for_any_seed(self, seed):
        spec = sphere_spec(d=2, half_range=3.0)
        config = PsoConfig(swarm_size=4, termination=TerminationCriteria(max_iterations=5))
        state = initialize_swarm(spec, config, derive_stream(seed, 0))
        for particle in state.particles:
            assert (np.abs(particle.position) <= 3.0).all()
            assert (np.abs(particle.velocity) <= 3.0).all()

    def test_invariants_hold_across_random_configurations(self):
        rng = random.Random(424242)
        for _ in range(30):
            d = rng.randint(1, 4)
            swarm = rng.randint(1, 8)
            topology = Global() if swarm == 1 or rng.random() < 0.5 else Ring(
                k=rng.randint(1, swarm - 1)
            )
            config = PsoConfig(
                swarm_size=swarm,
                termination=TerminationCriteria(max_iterations=3),
                c1=rng.uniform(0.0, 4.0),
                c2=rng.uniform(0.0, 4.0),
                vmax=rng.uniform(0.1, 3.0),
                topology=topology,
            )
            spec = sphere_spec(d=d, half_range=rng.uniform(0.5, 5.0))
            seed = rng.randint(0, 2**32)
            state = initialize_swarm(spec, config, derive_stream(seed, 0))
            streams = [derive_stream(seed, 1 + k) for k in range(swarm)]
            for _ in range(3):
                state = step(state, spec, config, streams)
                assert all(
                    (np.abs(p.velocity) <= config.vmax).all() for p in state.particles
                )
                assert state.gbest_fitness == min(p.pbest_fitness for p in state.particles)


def patchy_spec(d, patch, cut, grain):
    """Sphere on [-2, 2]^d, floored to a multiple of ``grain`` when it is set,
    that returns ``patch`` wherever ``x[0] > cut``."""

    def evaluate(x):
        if x[0] > cut:
            return patch
        value = float(np.sum(x * x))
        return grain * math.floor(value / grain) if grain else value

    return ObjectiveSpec(d, np.full(d, -2.0), np.full(d, 2.0), evaluate)


class TestWholeRunReference:
    @settings(max_examples=200)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 8),
        st.integers(1, 30),
        st.sampled_from([0.0, 0.7, 2.0]),
        st.sampled_from([0.0, 1.3, 2.0]),
        st.data(),
    )
    def test_optimize_matches_the_straight_loop(self, seed, d, swarm, budget, c1, c2, data):
        # A finite patch or a grain makes plateaus of tied fitnesses, which
        # pick guides by index and which a target of 1.0 can meet exactly.
        # cut=2 leaves the box unpatched, cut=-2 patches all of it.
        patch = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, 1.0]), label="patch")
        cut = data.draw(st.sampled_from([2.0, 1.0, 0.5, 0.0, -0.3, -2.0]), label="cut")
        grain = data.draw(st.sampled_from([0.0, 0.5]), label="grain")
        topology = Global()
        if swarm > 1 and data.draw(st.booleans(), label="ring"):
            topology = Ring(data.draw(st.integers(1, swarm - 1), label="ring_k"))
        vmax = data.draw(
            st.one_of(st.none(), st.just(0.4), hnp.arrays(float, d, elements=st.floats(0.1, 3.0))),
            label="vmax",
        )
        target = data.draw(st.sampled_from([None, 0.05, 1.0, 2.0]), label="target_fitness")
        config = PsoConfig(
            swarm_size=swarm,
            termination=TerminationCriteria(max_iterations=budget, target_fitness=target),
            c1=c1,
            c2=c2,
            vmax=vmax,
            topology=topology,
        )
        spec = patchy_spec(d, patch, cut, grain)
        best, best_fitness, trace = optimize(spec, config, seed)
        ref_best, ref_fitness, ref_trace = engine_reference.optimize(spec, config, seed)
        assert_same_bits(best, ref_best)
        assert_same_bits(best_fitness, ref_fitness)
        assert [e[::2] for e in trace.entries] == [e[::2] for e in ref_trace.entries]
        assert_same_bits(
            [e.best_fitness for e in trace.entries], [e.best_fitness for e in ref_trace.entries]
        )
        assert trace.non_finite_evals == ref_trace.non_finite_evals
