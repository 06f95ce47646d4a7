"""The record contract: every record type builds, compares and prints the same way.

The records are NamedTuples, except ``Doa``, whose constructor checks the
horizon, and ``Trace``, which defines ``__len__``; those two are
``bt.FrozenRecord`` classes.  Either kind is built from positional or
keyword arguments in the field order written out below, refuses
assignment, equals a record of its own type exactly when their fields are
equal, copies, and prints as ``Name(field=value, ...)``.
"""

import copy

import pytest

from btconverge.backchain import (
    ActionEntry,
    BcBt,
    BcConvergenceReport,
    ConditionEntry,
    InfluenceTerms,
    LinkStructure,
    OperatingVerdict,
)
from btconverge.bt import AbstractionVerdict, Doa, LeafData, ModelError, NodeAnalysis, NodeSpec
from btconverge.execution import ExitResult, FtsVerdict, Trace
from btconverge.ordered_tree import TreeOrders
from btconverge.prepares import AcyclicVerdict, BehaviorGraph, Certificate, PrepVertex, Refutation
from btconverge.specfile import LoadedSpec
from btconverge.statespace import Region

# field order, then the defaults of the trailing fields that have one
RECORDS = {
    Doa: ("basin goal horizon", {}),
    LeafData: ("name kind success failure controller doa", {"controller": None, "doa": None}),
    NodeSpec: ("kind children leaf", {"children": (), "leaf": None}),
    NodeAnalysis: ("running success failure influence omega success_pathway failure_pathway reached", {}),
    AbstractionVerdict: ("valid overlaps uncovered", {}),
    TreeOrders: ("parent_order sibling_order left_uncle right_uncle left_to_right right_to_left", {}),
    LoadedSpec: ("world model abstraction delta library library_root substitution", {}),
    Trace: ("states leaves statuses halt", {}),
    FtsVerdict: ("ok kind witness step", {"kind": None, "witness": None, "step": None}),
    ExitResult: ("steps witness", {"witness": None}),
    PrepVertex: ("owner flavor cells", {}),
    BehaviorGraph: ("nodes edges", {}),
    Certificate: (
        "graph condensed analysis_classes sink_classes per_class_exit bound transitions_bound refined_bound",
        {"bound": 0, "transitions_bound": 0, "refined_bound": 0},
    ),
    Refutation: ("kind witness_class witness_cell detail condensed", {}),
    AcyclicVerdict: ("acyclic transition_bound per_class_deadline message", {}),
    ActionEntry: ("leaf preconditions", {}),
    ConditionEntry: ("leaf achievers", {}),
    LinkStructure: ("links post acc", {}),
    BcBt: ("model vertex_of", {}),
    InfluenceTerms: ("acc pre post", {}),
    OperatingVerdict: ("ok violations", {}),
    BcConvergenceReport: ("hypothesis_ok hypothesis_witnesses pattern_ok pattern_violations result", {}),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_a_record_keeps_its_fields_defaults_equality_and_repr(cls):
    names, defaults = RECORDS[cls]
    names = names.split()
    values = [10 + k for k in range(len(names))]  # positive, so a Doa horizon passes
    record = cls(*values)
    assert cls(**dict(zip(names, values))) == record
    assert [getattr(record, name) for name in names] == values

    required = len(names) - len(defaults)
    assert list(defaults) == names[required:]
    short = cls(*values[:required])
    assert short == cls(**dict(zip(names[:required], values[:required])))
    assert [getattr(short, name) for name in names[required:]] == list(defaults.values())

    for k, name in enumerate(names):  # every field takes part in equality
        other = values.copy()
        other[k] += 100
        assert cls(*other) != record, name
        with pytest.raises(AttributeError):
            setattr(record, name, other[k])
    assert getattr(record, names[0]) == values[0]
    assert copy.deepcopy(record) == record

    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"


def test_a_frozen_record_equals_nothing_of_another_type_and_hashes():
    empty = Region.empty(2)
    assert Doa(empty, empty, 1) != Trace(empty, empty, 1, "stop")
    assert Doa(empty, empty, 1) != (empty, empty, 1)
    assert hash(Doa(empty, empty, 1)) == hash(Doa(empty, empty, 1))


@pytest.mark.parametrize("horizon", [0, -3])
def test_a_doa_needs_a_positive_horizon(horizon):
    empty = Region.empty(2)
    with pytest.raises(ModelError, match="^doa horizon must be a positive step count$"):
        Doa(empty, empty, horizon)
    with pytest.raises(ModelError, match="^doa horizon must be a positive step count$"):
        Doa(basin=empty, goal=empty, horizon=horizon)
