"""The package's record types: their constructors, which records are frozen,
value equality and hashing, and pickling."""

import inspect
import pickle
import re

import numpy as np
import pytest

from avagrad_lab.core import Frozen, Schedule
from avagrad_lab.mlp import LabeledSet
from avagrad_lab.optim import DecayMode, HyperParams, Method, OptimizerState, StepReport
from avagrad_lab.problems import ProblemConstants, quadratic_make, synth_make
from avagrad_lab.runner import (BoundReport, TrialConfig, TrialRecord, TrialTrace, run_trial,
                                run_trials)
from avagrad_lab.sweep import GridSpec, HeatmapCell

REQUIRED = inspect.Parameter.empty
HP = HyperParams(Schedule.constant(1e-3), 1e-8)
QUADRATIC = quadratic_make([1.0, 4.0], 0.1)
CONFIG = TrialConfig(Method.ADAM, HP, QUADRATIC, 5, np.ones(2), 3)
TRACE = TrialTrace(*np.zeros((6, 5)))
CONSTANTS = ProblemConstants(1.0, 2.0, 3.0, 4.0)
DATA = LabeledSet(np.zeros((3, 2)), np.arange(3))

# type -> each parameter with its default (REQUIRED if none), in order, and a
# value for each that the constructor accepts, stored as the field of its name
SIGNATURES = {
    Schedule: [("kind", REQUIRED, "inverse_sqrt"), ("base", 0.0, 0.5)],
    HyperParams: [("alpha", REQUIRED, Schedule.constant(0.1)), ("epsilon", REQUIRED, 1e-3),
                  ("beta1", Schedule.constant(0.9), Schedule.inverse_sqrt(0.5)),
                  ("beta2", Schedule.constant(0.999), Schedule.inverse_t()),
                  ("weight_decay", 0.0, 1e-2), ("decay_mode", DecayMode.NONE, DecayMode.DECOUPLED)],
    OptimizerState: [("method", REQUIRED, Method.AMSGRAD), ("m", REQUIRED, np.ones(2)),
                     ("v", REQUIRED, np.ones(2)), ("v_hat", REQUIRED, np.zeros(2)),
                     ("t", REQUIRED, 4)],
    StepReport: [("eta", REQUIRED, np.ones(2)), ("alpha_eff", REQUIRED, 0.1),
                 ("eta_min", REQUIRED, 1.0), ("eta_l2", REQUIRED, 1.5)],
    ProblemConstants: [("m_smooth", REQUIRED, 1.0), ("d_gap", REQUIRED, 0.5),
                       ("g_inf", None, 2.0), ("g_2", None, 3.0)],
    TrialConfig: [("method", REQUIRED, Method.AVAGRAD), ("hp", REQUIRED, HP),
                  ("problem", REQUIRED, QUADRATIC), ("T", REQUIRED, 7),
                  ("w1", REQUIRED, np.zeros(2)), ("seed", REQUIRED, 9),
                  ("record_every", 1, 2), ("capture_trace", None, True),
                  ("grad_metric", "full", "batch"), ("converge_tol", None, 1e-3)],
    TrialTrace: [(name, REQUIRED, np.full(3, float(i))) for i, name in enumerate(
        ("alpha", "eta_min", "eta_max", "eta_l2", "alpha_eff", "grad_norm_sq"))],
    TrialRecord: [("config", REQUIRED, CONFIG), ("status", REQUIRED, "finished"),
                  ("steps_done", REQUIRED, 5), ("w_mean", REQUIRED, 0.5),
                  ("grad_norm_sq_mean", REQUIRED, 0.25), ("z_weight_sum", REQUIRED, 1e-3),
                  ("grad_metric_exact", REQUIRED, True), ("w_final", REQUIRED, np.ones(2)),
                  ("rows", REQUIRED, np.zeros((1, 7))), ("trace", None, TRACE)],
    BoundReport: [("variant", REQUIRED, "conditional"), ("lhs", REQUIRED, 1.0),
                  ("rhs", REQUIRED, 2.0), ("constants", REQUIRED, CONSTANTS),
                  ("steps", REQUIRED, 5)],
    GridSpec: [("problem", REQUIRED, QUADRATIC), ("methods", REQUIRED, [Method.SGD, Method.ADAM]),
               ("alphas", REQUIRED, [0.01, 0.1]), ("epsilons", REQUIRED, [1e-3]),
               ("seeds", REQUIRED, [0, 1]), ("T", REQUIRED, 5), ("base_seed", 0, 4),
               ("hp", None, HP), ("w1", None, np.ones(2)),
               ("init_scale", 0.1, 0.2), ("metric", "full_objective", "full_objective"),
               ("holdout", None, None)],
    HeatmapCell: [("method", REQUIRED, "adam"), ("alpha", REQUIRED, 0.1),
                  ("epsilon", REQUIRED, 1e-3), ("seed", REQUIRED, 2),
                  ("final_metric", REQUIRED, 0.5), ("status", REQUIRED, "finished")],
    LabeledSet: [("features", REQUIRED, np.zeros((2, 3))), ("labels", REQUIRED, np.arange(2))],
}
FROZEN = (Schedule, HyperParams, StepReport, ProblemConstants, BoundReport, HeatmapCell,
          LabeledSet)


def built(cls, how):
    """An instance of cls from SIGNATURES' values, passed by position or by keyword."""
    args = [value for _, _, value in SIGNATURES[cls]]
    if how == "positional":
        return cls(*args)
    return cls(**{name: value for (name, _, _), value in zip(SIGNATURES[cls], args)})


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_parameters_and_defaults_in_order(cls):
    want = [(name, default) for name, default, _ in SIGNATURES[cls]]
    got = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert got == want


@pytest.mark.parametrize("how", ["positional", "keyword"])
@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_stores_each_argument_as_its_field(cls, how):
    record = built(cls, how)
    assert list(vars(record)) == [name for name, _, _ in SIGNATURES[cls]]
    for name, _, value in SIGNATURES[cls]:
        got = getattr(record, name)
        assert got is value or not isinstance(value, np.ndarray) and got == value, name


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_defaults_fill_the_optional_fields(cls):
    required = [value for _, default, value in SIGNATURES[cls] if default is REQUIRED]
    record = cls(*required)
    for name, default, _ in SIGNATURES[cls]:
        if default is not REQUIRED:
            assert getattr(record, name) == default, name


def test_config_methods_are_coerced_to_method():
    assert CONFIG.method is Method.ADAM
    assert TrialConfig("avagrad", HP, QUADRATIC, 5, np.ones(2), 3).method is Method.AVAGRAD
    spec = GridSpec(QUADRATIC, ["sgd", "adam"], [0.1], [1.0], [0], 5)
    assert spec.methods == [Method.SGD, Method.ADAM]
    assert all(type(m) is Method for m in spec.methods)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_fields_cannot_be_assigned_or_deleted(cls):
    record = built(cls, "keyword")
    before = dict(vars(record))
    for name in [*before, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert isinstance(record, Frozen)
    assert all(vars(record)[name] is value for name, value in before.items())


@pytest.mark.parametrize("cls", [OptimizerState, TrialConfig, GridSpec, TrialTrace, TrialRecord],
                         ids=lambda cls: cls.__name__)
def test_mutable_records_take_assignments(cls):
    record = built(cls, "keyword")
    assert not isinstance(record, Frozen)
    for name in vars(record):
        setattr(record, name, None)
    assert set(vars(record).values()) == {None}


def test_equal_schedules_built_apart_are_one_value():
    a, b = Schedule("constant", 0.5), Schedule.constant(0.5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Schedule.constant(0.25) and a != Schedule.inverse_sqrt(0.5)
    assert Schedule.inverse_t() == Schedule("inverse_t", 0.0) == Schedule("inverse_t", 0.9)
    assert Schedule("inverse_t", 0.9).base == 0.0  # inverse_t ignores its base
    assert len({a, b, Schedule.inverse_t(), Schedule.inverse_t()}) == 2
    assert a != ("constant", 0.5)
    hp = HyperParams(Schedule.constant(1e-3), 1e-8, Schedule.constant(0.5))
    assert hp == HyperParams(Schedule.constant(1e-3), 1e-8, Schedule.constant(0.5))
    assert hash(hp) == hash(HyperParams(Schedule.constant(1e-3), 1e-8, Schedule.constant(0.5)))
    assert repr(a) == "Schedule(kind='constant', base=0.5)"


def test_equal_schedules_built_apart_run_as_one_batch():
    """run_trials compares the beta schedules of its lanes by value: lanes whose
    schedules were built separately but are equal run as one batch, each with
    the record it gets alone."""
    synth = synth_make(999.0, 1.0)

    def cfg(seed, alpha, beta1):
        hp = HyperParams(Schedule.constant(alpha), 1e-8, Schedule.constant(beta1),
                         Schedule.constant(0.99))
        return TrialConfig(Method.ADAM, hp, synth, 50, np.array([0.5]), seed)

    lanes = [cfg(1, 1e-3, 0.5), cfg(2, 1e-2, 0.5)]
    assert lanes[0].hp.beta1 is not lanes[1].hp.beta1
    batch = run_trials(lanes)
    for lane, record in zip(lanes, batch):
        alone = run_trial(lane)
        assert record.config is lane
        assert record.rows.tobytes() == alone.rows.tobytes()
        assert record.w_final.tobytes() == alone.w_final.tobytes()
    with pytest.raises(ValueError, match="lanes may differ only"):
        run_trials([cfg(1, 1e-3, 0.5), cfg(2, 1e-3, 0.25)])


def test_heatmap_cell_survives_a_pickle_round_trip():
    cell = HeatmapCell("avagrad", 5e-7, 100.0, 2**64 - 1, float("inf"), "diverged")
    back = pickle.loads(pickle.dumps(cell))
    assert back == cell and back is not cell and hash(back) == hash(cell)
    assert back.sort_key == cell.sort_key
    with pytest.raises(AttributeError):
        back.status = "finished"


def test_labeled_set_survives_a_pickle_round_trip():
    back = pickle.loads(pickle.dumps(DATA))
    assert type(back) is LabeledSet and len(back) == 3
    assert back.features.tobytes() == DATA.features.tobytes()
    assert back.labels.dtype == DATA.labels.dtype
    assert back.labels.tobytes() == DATA.labels.tobytes()
    with pytest.raises(AttributeError):
        back.labels = np.zeros(3, np.int64)


@pytest.mark.parametrize("cls, bad, message", [
    (Schedule, dict(kind="linear"), "unknown schedule kind 'linear'"),
    (Schedule, dict(base=float("nan")), "schedule base must be finite"),
    (HyperParams, dict(epsilon=0.0), "epsilon must be a positive finite float, got 0.0"),
    (HyperParams, dict(weight_decay=-1.0), "weight_decay must be finite and >= 0, got -1.0"),
    (HyperParams, dict(alpha=Schedule.constant(0.0)), "alpha must be > 0, got base 0.0"),
    (HyperParams, dict(beta1=Schedule.constant(1.0)), "beta1 must evaluate into [0, 1)"),
    (HyperParams, dict(beta2=Schedule.inverse_sqrt(-0.5)), "beta2 must evaluate into [0, 1)"),
    (ProblemConstants, dict(d_gap=-1.0), "d_gap must be finite and >= 0, got -1.0"),
    (ProblemConstants, dict(g_2=float("inf")), "g_2 must be finite and >= 0, got inf"),
    (LabeledSet, dict(labels=np.zeros(2)), "labels must have an integer dtype"),
    (LabeledSet, dict(labels=np.arange(3)), "features and labels length mismatch"),
    (GridSpec, dict(seeds=[1, 1]), "seeds must not repeat"),
    (GridSpec, dict(alphas=[0.1, 0.01]), "alphas must be strictly ascending"),
    (GridSpec, dict(T=0), "T must be >= 1"),
    (GridSpec, dict(holdout=LabeledSet(np.zeros((2, 2)), np.arange(2))),
     "holdout needs metric holdout_ce or holdout_error, got 'full_objective'"),
])
def test_constructors_check_their_arguments(cls, bad, message):
    kwargs = {name: value for name, _, value in SIGNATURES[cls]}
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(**{**kwargs, **bad})
