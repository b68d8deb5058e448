"""Value semantics of the record types: equality, hashing, repr,
immutability and construction.

The expected reprs are those the classes have always printed; the
frozen records behave like immutable tuples with named fields, and
``LinearProgram`` stays a mutable, unhashable builder.
"""

from __future__ import annotations

import pickle
from fractions import Fraction as F

import pytest

from abcvote.axioms import Deviation, PriceSystem
from abcvote.generators import PartyListInstance, gen_party_list
from abcvote.laminar import LaminarSeats, check_laminar
from abcvote.lp import LE, LinearProgram, LPOutcome
from abcvote.model import BallotClasses, ElectionInstance
from abcvote.rules import PhragmenTrace, RuleXTrace, phragmen_sequential, rule_x, rule_x_complete

INST = ElectionInstance(3, 2, [{0, 1}, {0, 1}, {2}])
INST_REPR = (
    "ElectionInstance(num_candidates=3, committee_size=2, "
    "approvals=(frozenset({0, 1}), frozenset({0, 1}), frozenset({2})))"
)


def records():
    """(record, its repr, its field names, an equal copy, a different record)
    for every frozen record type."""
    price = F(3, 2), ({0: F(3, 4)}, {0: F(3, 4)}, {2: F(3, 2)})
    laminar = ElectionInstance(4, 3, [{0, 1}, {0, 1}, {0, 2, 3}, {0, 2, 3}])
    return [
        (INST, INST_REPR, ("num_candidates", "committee_size", "approvals"),
         ElectionInstance(3, 2, ((0, 1), [1, 0], {2})),
         ElectionInstance(3, 1, [{0, 1}, {0, 1}, {2}])),
        (INST.classes,
         "BallotClasses(ballots=(frozenset({0, 1}), frozenset({2})), "
         "voters=([0, 1], [2]), sizes=(2, 1), holders=([0], [0], [1]))",
         ("ballots", "voters", "sizes", "holders"),
         ElectionInstance(3, 1, [{0, 1}, {0, 1}, {2}]).classes,
         ElectionInstance(3, 2, [{0, 1}, {2}, {0, 1}]).classes),
        (PriceSystem(*price),
         "PriceSystem(price=Fraction(3, 2), payments=({0: Fraction(3, 4)}, "
         "{0: Fraction(3, 4)}, {2: Fraction(3, 2)}))",
         ("price", "payments"),
         PriceSystem(price=F(3, 2), payments=price[1]),
         PriceSystem(F(1), price[1])),
        (Deviation(frozenset({2}), frozenset({2, 1})),
         "Deviation(coalition=frozenset({2}), alternative=frozenset({1, 2}))",
         ("coalition", "alternative"),
         Deviation(alternative=frozenset({1, 2}), coalition=frozenset({2})),
         Deviation(frozenset({1, 2}), frozenset({2}))),
        (phragmen_sequential(INST), "PhragmenTrace(elected=(0, 1))",
         ("elected", "purchases"),
         phragmen_sequential(ElectionInstance(3, 2, [{0, 1}, {0, 1}, {2}])),
         PhragmenTrace((0, 1), [])),
        (rule_x(INST), "RuleXTrace(elected=(0,), q_values=(Fraction(3, 4),))",
         ("elected", "q_values", "snapshots"),
         rule_x(ElectionInstance(3, 2, [{0, 1}, {0, 1}, {2}])),
         RuleXTrace((0,), (F(3, 4),), [])),
        (LPOutcome("optimal", F(1, 2), (F(1, 2), F(0))),
         "LPOutcome(status='optimal', value=Fraction(1, 2), "
         "assignment=(Fraction(1, 2), Fraction(0, 1)))",
         ("status", "value", "assignment"),
         LPOutcome(status="optimal", assignment=(F(1, 2), F(0)), value=F(1, 2)),
         LPOutcome("optimal", F(1, 2), (F(0), F(1, 2)))),
        (LPOutcome("infeasible", None, None),
         "LPOutcome(status='infeasible', value=None, assignment=None)",
         ("status", "value", "assignment"),
         LPOutcome(status="infeasible", value=None, assignment=None),
         LPOutcome("optimal", None, None)),
        (check_laminar(laminar),
         "LaminarSeats(forced=frozenset({0}), pools=((frozenset({1}), 1), "
         "(frozenset({2, 3}), 1)))",
         ("forced", "pools"),
         LaminarSeats(frozenset({0}), ((frozenset({1}), 1), (frozenset({2, 3}), 1))),
         LaminarSeats(frozenset(), ((frozenset({1}), 1), (frozenset({2, 3}), 1)))),
        (gen_party_list([2, 1], [2, 1], 2),
         f"PartyListInstance(instance={INST_REPR}, "
         "parties=(frozenset({0, 1}), frozenset({2})), integral=False)",
         ("instance", "parties", "integral"),
         PartyListInstance(INST, (frozenset({0, 1}), frozenset({2})), False),
         PartyListInstance(INST, (frozenset({0, 1}), frozenset({2})), True)),
    ]


RECORDS = records()
IDS = [type(record).__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, text, names, same, other", RECORDS, ids=IDS)
def test_records_compare_hash_and_print_by_their_fields(record, text, names, same, other):
    values = tuple(getattr(record, name) for name in names)
    assert repr(record) == text and repr(same) == text
    assert record == same and not record != same
    assert record != other and not record == other
    assert record != values and record != object()
    assert type(record).__eq__(record, values) is NotImplemented
    try:
        hash(values)
    except TypeError:  # a list or dict field: the record is unhashable too
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(same) == hash(values)
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("record, text, names, same, other", RECORDS, ids=IDS)
def test_records_are_frozen(record, text, names, same, other):
    for name in (*names, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert repr(record) == text


def test_records_take_positional_and_keyword_arguments():
    ballots = [{0, 1}, {0, 1}, {2}]
    assert ElectionInstance(num_candidates=3, committee_size=2, approvals=ballots) == INST
    assert ElectionInstance(3, approvals=ballots, committee_size=2) == INST
    for build in (
        lambda: ElectionInstance(3, 2),
        lambda: ElectionInstance(3, 2, ballots, 1),
        lambda: ElectionInstance(3, 2, ballots, num_candidates=3),
        lambda: ElectionInstance(3, 2, approvals=ballots, voters=3),
        lambda: Deviation(frozenset()),
        lambda: LPOutcome(),
        lambda: LinearProgram(),
        lambda: LinearProgram(2),
        lambda: LinearProgram(2, [0, 0], [], None),
    ):
        with pytest.raises(TypeError):
            build()
    for record, _, names, _, _ in RECORDS:
        cls, values = type(record), tuple(getattr(record, name) for name in names)
        assert cls(*values) == record
        assert cls(**dict(reversed(list(zip(names, values))))) == record
        for build in (
            lambda: cls(**dict(zip(names[1:], values[1:]))),  # first field missing
            lambda: cls(*values, values[0]),
            lambda: cls(*values, extra=values[0]),
            lambda: cls(*values, **{names[0]: values[0]}),
        ):
            with pytest.raises(TypeError, match=cls.__name__):
                build()


def test_record_fields_have_no_defaults():
    # every field is required, the last ones too: an outcome with no value
    # and no assignment spells both out
    with pytest.raises(TypeError, match="^LPOutcome is missing field 'value'$"):
        LPOutcome("infeasible")
    with pytest.raises(TypeError, match="^LPOutcome is missing field 'assignment'$"):
        LPOutcome("optimal", F(0))
    # no record class gives a field a value in its body
    for record, _, names, _, _ in RECORDS:
        assert not set(names) & set(vars(type(record)))


def test_record_argument_errors_name_the_fault():
    # every field given positionally plus one by keyword repeats that
    # field; it is not one positional argument too many
    empty = frozenset()
    with pytest.raises(
        TypeError, match=r"^Deviation got unknown or repeated fields \['coalition'\]$"
    ):
        Deviation(empty, empty, coalition=empty)
    with pytest.raises(TypeError, match="^Deviation takes 2 fields, not 3$"):
        Deviation(empty, empty, empty)
    with pytest.raises(TypeError, match="^Deviation is missing field 'alternative'$"):
        Deviation(empty)


def test_constructors_still_validate():
    with pytest.raises(ValueError, match="at least one candidate"):
        ElectionInstance(0, 1, [set()])
    with pytest.raises(ValueError, match="committee size 4 not in 1..3"):
        ElectionInstance(3, 4, [set()])
    with pytest.raises(ValueError, match="at least one voter"):
        ElectionInstance(3, 1, [])
    with pytest.raises(ValueError, match="candidate 3, valid range is 0..2"):
        ElectionInstance(3, 1, [{3}])
    with pytest.raises(ValueError, match="indices must be ints"):
        ElectionInstance(3, 1, [{1.0}])
    # a whole float is no size either: 2.0 made seq_pav raise TypeError
    with pytest.raises(ValueError, match="^committee size 2.0 is not an int$"):
        ElectionInstance(3, 2.0, [{0}, {1}])
    with pytest.raises(ValueError, match="^number of candidates 3.0 is not an int$"):
        ElectionInstance(3.0, 2, [{0}, {1}])
    with pytest.raises(ValueError, match="at least one variable"):
        LinearProgram(0, [])
    with pytest.raises(ValueError, match="objective has wrong length"):
        LinearProgram(2, [1])
    with pytest.raises(TypeError, match="must be ints"):
        LinearProgram(2, [1, F(1)])
    assert INST.approvals == (frozenset({0, 1}), frozenset({0, 1}), frozenset({2}))
    assert type(INST.approvals) is tuple


def test_trace_properties_are_cached():
    trace = phragmen_sequential(INST)
    times, payments = trace.election_times, trace.payments
    assert times == (F(3, 4), F(3, 2))
    assert payments == ({0: F(3, 4), 1: F(3, 4)},) * 2
    assert trace.election_times is times and trace.payments is payments
    assert {"election_times", "payments"} <= set(vars(trace))
    assert trace == phragmen_sequential(INST)  # cached values are not fields

    run = rule_x(INST)
    budgets = run.budgets
    assert budgets == ((F(1, 4), F(1, 4), F(1)),)
    assert run.budgets is budgets and "budgets" in vars(run)
    assert run.committee == frozenset({0}) and not run.completed
    done = rule_x_complete(ElectionInstance(3, 2, [{0}, {1}, {2}]))
    assert repr(done) == "RuleXTrace(elected=(0, 1), q_values=())" and done.completed

    # an instance's profile view is kept, but it is no field either
    read = ElectionInstance(3, 2, [{0, 1}, {0, 1}, {2}])
    views = read.classes, read.approver_masks, read.clones
    # tuples, so no caller can change what the others read
    classes = BallotClasses(
        (frozenset({0, 1}), frozenset({2})), ([0, 1], [2]), (2, 1), ([0], [0], [1])
    )
    assert views == (classes, (0b011, 0b011, 0b100), ((0, 1), (2,)))
    assert all(view is again for view, again in zip(
        views, (read.classes, read.approver_masks, read.clones)
    ))
    assert {"classes", "approver_masks", "clones"} <= set(vars(read))
    fresh = ElectionInstance(3, 2, [{0, 1}, {0, 1}, {2}])
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert read != ElectionInstance(3, 1, [{0, 1}, {0, 1}, {2}])
    copy = pickle.loads(pickle.dumps(read))
    assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == INST_REPR
    assert copy.clones == views[2]


def test_linear_program_is_a_mutable_unhashable_builder():
    first, second = LinearProgram(2, [0, 0]), LinearProgram(num_variables=2, objective=[0, 0])
    assert first == second and not first != second
    assert repr(first) == "LinearProgram(num_variables=2, objective=[0, 0], constraints=[])"
    assert LinearProgram.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)
    first.add_constraint([1, 1], LE, 3)
    assert second.constraints == [] and first != second
    assert first.objective is not second.objective
    assert repr(first) == (
        "LinearProgram(num_variables=2, objective=[0, 0], constraints=[([1, 1], '<=', 3)])"
    )
    weights = [1, 2]
    third = LinearProgram(2, weights)
    assert third.objective == weights and third.objective is not weights
    assert repr(third) == (
        "LinearProgram(num_variables=2, objective=[1, 2], constraints=[])"
    )
    first.num_variables = 3
    assert first.num_variables == 3
    del first.num_variables
    assert "num_variables" not in vars(first)
    assert LinearProgram.__eq__(second, (2, [0, 0], [])) is NotImplemented
