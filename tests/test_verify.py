"""The suite driver behind `sfp verify`, with every criterion stubbed out."""

import inspect

import sfp.verify as verify

# The criteria of the full suite, in the order of their IDs 1..11.
FULL = ["exponent_identities", "closed_form_vs_oracle", "adjacent_sandwich", "adjacent_decay",
        "coupling", "degree_tail", "bridge_slope", "fkg", "hierarchy_machinery",
        "second_moment_shape", "distance_suite"]


def test_full_suite_runs_every_criterion_in_order_with_seed_and_threads(monkeypatch):
    calls = []
    for cid, name in enumerate(FULL, start=1):
        real = getattr(verify, f"criterion_{name}")

        def stub(*args, _real=real, _cid=str(cid), **kwargs):
            calls.append(inspect.signature(_real).bind(*args, **kwargs))
            return verify.CriterionResult(cid=_cid, name=_real.__name__, passed=True,
                                          detail="", elapsed=0.0)
        monkeypatch.setattr(verify, f"criterion_{name}", stub)

    results = verify.run_suite(quick=False, seed=7, threads=3)
    assert [r.cid for r in results] == [str(i) for i in range(1, 12)]
    # Full mode passes the seed and the worker count, and leaves every
    # size at its full-suite default.
    for bound in calls:
        taken = {"seed": 7, "threads": 3}
        assert bound.arguments == {k: v for k, v in taken.items()
                                   if k in bound.signature.parameters}
