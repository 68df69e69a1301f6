"""Frozen value objects store copies: freezing one never freezes its caller's array."""

import numpy as np
import pytest

from itkit.classical import Trajectory
from itkit.coincidence import CoincidenceDataset, DelayObservation, PairGeometry
from itkit.core import POSITION, ComplexField, GaussianPacketSpec, UniformField, centered_grid_1d
from itkit.imaging import DetectorPatch, ITResult
from itkit.propagate import EvolutionSpec
from itkit.scatter import HyperConfig


def _trajectory(r_start=(0.0,), p_start=(1.0,), r_end=(1.0,), p_end=(1.0,)):
    return Trajectory(r_start, p_start, 0.0, r_end, p_end, 1.0)


# name: (values of the caller's array, constructor given that array, attribute storing it)
CASES = {
    "DelayObservation.masses": (
        [1.0, 2.0], lambda a: DelayObservation(a, [1.0, 1.0], 1.0, [0.5]), "masses"),
    "DelayObservation.distances": (
        [1.0, 2.0], lambda a: DelayObservation([1.0, 1.0], a, 1.0, [0.5]), "distances"),
    "DelayObservation.delays": (
        [0.5, 0.25], lambda a: DelayObservation([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 1.0, a), "delays"),
    "CoincidenceDataset.delta_t": (
        [0.0, 1.0], lambda a: CoincidenceDataset(a, [1.0, 2.0], PairGeometry(1.0, 1.0), 8.0),
        "delta_t"),
    "CoincidenceDataset.counts": (
        [1.0, 2.0], lambda a: CoincidenceDataset([0.0, 1.0], a, PairGeometry(1.0, 1.0), 8.0),
        "counts"),
    "UniformField.force": ([0.1, 0.2], UniformField, "force"),
    "GaussianPacketSpec.p0": ([1.0], lambda a: GaussianPacketSpec(a, [0.5]), "p0"),
    "GaussianPacketSpec.sigma_p": ([0.5], lambda a: GaussianPacketSpec([1.0], a), "sigma_p"),
    "GaussianPacketSpec.r0": ([0.0], lambda a: GaussianPacketSpec([1.0], [0.5], a), "r0"),
    "ComplexField.values": (
        [1.0 + 0.5j] * 8, lambda a: ComplexField(centered_grid_1d(10.0, 8), POSITION, a), "values"),
    "Trajectory.r_start": ([0.0], lambda a: _trajectory(r_start=a), "r_start"),
    "Trajectory.p_start": ([1.0], lambda a: _trajectory(p_start=a), "p_start"),
    "Trajectory.r_end": ([1.0], lambda a: _trajectory(r_end=a), "r_end"),
    "Trajectory.p_end": ([1.0], lambda a: _trajectory(p_end=a), "p_end"),
    "DetectorPatch.position": (
        [2000.0, 0.0, 0.0], lambda a: DetectorPatch(a, 0.01, 1.0, 100.0), "position"),
    "ITResult.momentum_point": ([1.0, 2.0], lambda a: ITResult(0.5, a, 1.0, 0.0), "momentum_point"),
    "EvolutionSpec.potential": (
        [0.0, 0.1, 0.0], lambda a: EvolutionSpec(1.0, 0.0, 1.0, 10, potential=a), "potential"),
    "HyperConfig.masses": ([1.0, 2.0], lambda a: HyperConfig(a, 1.0, 1.0), "masses"),
}


@pytest.mark.parametrize("values, build, attr", CASES.values(), ids=CASES.keys())
def test_constructor_copies_before_freezing(values, build, attr):
    caller = np.array(values)
    stored = getattr(build(caller), attr)
    caller[0] += 1.0  # still writable
    assert np.array_equal(stored, values)
    assert not stored.flags.writeable
