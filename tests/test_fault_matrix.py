"""The suites' power to catch faults, pinned per fault.

Each fault is a registered model with one callable replaced.  Every
(gyronorm, suite) pair of the model runs on the faulted and the unfaulted
model, and the test asserts the set of suites whose verdict differs.  A
change that drops rows or weakens a check shrinks such a set and fails here.
"""

import dataclasses

import numpy as np
import pytest

from gyroball import CheckConfig, SamplingHealthError, UnknownNameError, run_suite
from gyroball.engine import SUITE_NAMES
from gyroball.mobius import mobius_add, mobius_gyr
from gyroball.registry import get_normed, gyronorm_names

CFG = CheckConfig(samples=2000, seed=7)


def _identity_gyr(a, b, x):
    return np.broadcast_to(x, np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(x)))


def _swapped_gyr(a, b, x):
    return mobius_gyr(b, a, x)


def _overshooting_gyr(a, b, x):
    g = mobius_gyr(a, b, x)
    return g + 1e-7 * (g - x)


def _scaled_add(a, b):
    return (1.0 - 1e-8) * mobius_add(a, b)


# (model, field, replacement) -> suites whose verdict the fault flips, under
# every gyronorm of the model.
FAULTS = {
    "identity-gyration": ("mobius", "closed_gyr", _identity_gyr,
                          {"axioms", "table1", "homogeneity-isotropy"}),
    "swapped-gyration": ("mobius", "closed_gyr", _swapped_gyr, {"axioms", "table1"}),
    "einstein-gyration-without-phi-inv": ("einstein", "closed_gyr", mobius_gyr,
                                          {"axioms", "table1"}),
    "overshooting-gyration": ("mobius", "closed_gyr", _overshooting_gyr,
                              {"axioms", "gyronorm", "homogeneity-isotropy", "isometry",
                               "mazur-ulam", "table1"}),
    "scaled-addition": ("mobius", "add", _scaled_add,
                        {"axioms", "homogeneity-isotropy", "left-invariance",
                         "mazur-ulam", "table1"}),
}


def _verdict(model, gyronorm, suite):
    try:
        return run_suite(model, suite, CFG, dim=3, gyronorm=gyronorm).passed
    except SamplingHealthError:
        return "sampling-health"
    except UnknownNameError:  # topology on a model without both its gyronorms
        return "not-admitted"


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_flips_the_verdicts_of_known_suites(monkeypatch, fault):
    model, field, replacement, expected = FAULTS[fault]
    pairs = [(g, s) for g in gyronorm_names(model) for s in SUITE_NAMES]
    clean = {pair: _verdict(model, *pair) for pair in pairs}

    def faulted(name, dim=None, gyronorm=None):
        nm = get_normed(name, dim=dim, gyronorm=gyronorm)
        return dataclasses.replace(
            nm, model=dataclasses.replace(nm.model, **{field: replacement}))

    monkeypatch.setattr("gyroball.engine.get_normed", faulted)
    for gyronorm in gyronorm_names(model):
        flipped = {s for s in SUITE_NAMES
                   if _verdict(model, gyronorm, s) != clean[gyronorm, s]}
        assert flipped == expected, (gyronorm, flipped)
