"""Each checker accepts a real job's output and refuses a perturbed copy.

Run from the root of the checkout:

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed


@pytest.fixture(scope="module")
def free(tmp_path_factory):
    wl = workloads.FreeImaging(0, tmp_path_factory.mktemp("free"))
    wl.job()
    return wl


@pytest.fixture(scope="module")
def field(tmp_path_factory):
    wl = workloads.FieldExtraction(0, tmp_path_factory.mktemp("field"))
    return wl, wl.job()


@pytest.fixture(scope="module")
def coin(tmp_path_factory):
    wl = workloads.Coincidence(0, tmp_path_factory.mktemp("coin"))
    return wl, wl.job()


@pytest.fixture(scope="module")
def scat(tmp_path_factory):
    wl = workloads.Scattering(0, tmp_path_factory.mktemp("scat"))
    return wl, wl.job()


def test_free_imaging_accepts(free):
    assert free.check(None) == (4, 0)


@pytest.mark.parametrize("perturb", ["exact", "imaged", "reported", "order"])
def test_free_imaging_refuses(free, perturb):
    args = free.load()
    grids, exact, imaged, reported = args[4:]
    peak = int(np.argmax(exact[2]))
    if perturb == "exact":
        exact[2] = exact[2].copy()
        exact[2][peak] *= 1.0 + 1e-6
    elif perturb == "imaged":
        imaged[2] = imaged[2].copy()
        imaged[2][peak] *= 1.0 + 1e-6
    elif perturb == "reported":
        reported[1] *= 1.0 + 1e-6
    else:
        for seq in (args[3], grids, exact, imaged, reported):
            seq.reverse()
    with pytest.raises(CheckFailed):
        checks.check_free_imaging(*args)


def test_field_extraction_accepts(field):
    wl, result = field
    assert wl.check(result) == (3, 0)


@pytest.mark.parametrize("perturb", ["alone", "mapped", "norm", "unmoved", "round_trip"])
def test_field_extraction_refuses(field, perturb):
    wl, result = field
    alone, mapped, forward, back = (np.array(r) for r in result)
    if perturb == "alone":
        alone = alone * np.exp(1e-6j * wl.grid.axis(0))
    elif perturb == "mapped":
        mapped = mapped * (1.0 + 1e-3)
    elif perturb == "norm":
        forward = forward * (1.0 + 1e-9)
    elif perturb == "unmoved":
        forward = np.array(wl.pot_psi0)
    else:
        back[len(back) // 2 - 2400] += 1e-9
    with pytest.raises(CheckFailed):
        wl.check((alone, mapped, forward, back))


def test_coincidence_accepts(coin):
    wl, result = coin
    assert wl.check(result) == (wl.N_PAIRS + wl.N_TRIPLES + 2 * wl.N_DATASETS, 0)


@pytest.mark.parametrize("perturb", ["numeric", "closed", "multi"])
def test_coincidence_inversion_refuses(coin, perturb):
    wl, (closed, numeric, multi) = coin
    closed, numeric, multi = np.array(closed), np.array(numeric), np.array(multi)
    if perturb == "numeric":
        numeric[7, 0] += 1e-8
    elif perturb == "closed":
        closed[7] *= 1.0 + 1e-8
    else:
        multi[3, 2] *= 1.0 + 1e-8
    with pytest.raises(CheckFailed):
        wl.check((closed, numeric, multi))


def test_coincidence_files_refused(coin):
    wl, _ = coin
    out = wl.runs[0][0]
    curve = workloads._read_csv(out / "curve.csv")
    prob = curve[:, 3].copy()
    prob[10] *= 1.0 + 1e-8
    with pytest.raises(CheckFailed):
        checks.check_curve(curve[:, 0], prob)
    counts = workloads._read_csv(out / "dataset.csv")[:, 1]
    with pytest.raises(CheckFailed):
        checks.check_dataset(counts + 0.5, wl.N_EVENTS)
    with pytest.raises(CheckFailed):
        checks.check_dataset(counts * 1.2, wl.N_EVENTS)
    sigma = json.loads((out / "fit.json").read_text())["sigma"]
    with pytest.raises(CheckFailed):
        checks.check_fit(sigma + 0.2, wl.sigma_expected)


def test_scattering_counts_known_defects(scat):
    wl, values = scat
    attempted, failed = wl.check(values)
    assert attempted == wl.N_ANGLES + len(wl.points)
    assert failed == 7


def test_scattering_refuses(scat):
    wl, values = scat
    good = next(i for i, (n, z, _, _) in enumerate(wl.points) if n == 2 and z == 10.0)
    for bad in (values[good] * (1.0 + 1e-6), None):
        perturbed = list(values)
        perturbed[good] = bad
        with pytest.raises(CheckFailed):
            wl.check(perturbed)
    table = workloads._read_csv(wl.out / "xsec.csv")
    q = 2.0 * np.sqrt(2.0 * wl.MASS * wl.energy) * np.sin(np.radians(table[:, 0]) / 2.0)
    f = table[:, 1] + 1j * table[:, 2]
    ref = checks.born_gaussian(wl.v0, wl.a, wl.MASS, q)
    checks.check_born(f, ref)
    f[5] *= 1.0 + 1e-8
    with pytest.raises(CheckFailed):
        checks.check_born(f, ref)
