"""Differential tests: the input path of ``abcvote.model``, which parses,
range-checks and renders each distinct ballot once, against the per-voter
versions kept in ``tests/oracles.py``.

Instance texts draw their ballot lines from a pool of at most three,
valid, valid but spelled with non-canonical numerals and inner runs of
blanks, or malformed, plus whitespace variants of one of them, comments
and blank lines; both parsers must return equal instances or raise the
same ``ParseError`` message, and the parsed instance must serialize and
digest as the oracle renders it.  Constructed instances must pass or fail
the range check with the same error, and serialization and digests must
agree.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from abcvote.model import (
    ElectionInstance,
    ParseError,
    instance_digest,
    parse_instance,
    serialize_instance,
)
from tests import oracles
from tests.conftest import instances, shared_ballot_instances


def _outcome(call, *args):
    """The call's result, or the type and text of the error it raised."""
    try:
        return call(*args)
    except (ParseError, ValueError, TypeError) as error:
        return type(error), str(error)


@st.composite
def spelled_ballots(draw, m):
    """A valid ballot line whose indices are written as ``1``, ``+1``,
    ``01`` or ``0_1`` and separated by runs of spaces and tabs."""
    ballot = sorted(draw(st.frozensets(st.integers(1, m), min_size=1)))
    spellings = st.sampled_from(("{}", "+{}", "0{}", "0_{}"))
    line = draw(spellings).format(ballot[0])
    for c in ballot[1:]:
        line += draw(st.sampled_from((" ", "  ", "\t", " \t "))) + draw(spellings).format(c)
    return line


@st.composite
def instance_texts(draw):
    """An instance file whose ballot lines repeat, with the header's ballot
    count right most of the time."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, m))
    # ballots of one common size often, so that distinct lines look alike
    size = draw(st.integers(0, m))
    valid = st.one_of(
        st.frozensets(st.integers(1, m), min_size=size, max_size=size),
        st.frozensets(st.integers(1, m)),
    ).map(lambda ballot: " ".join(str(c) for c in sorted(ballot)))
    malformed = st.lists(
        st.sampled_from(("0", "1", "2", str(m + 1), "x", "1.5", "-1", "02")),
        min_size=1,
        max_size=4,
    ).map(" ".join)
    pool = draw(
        st.lists(
            st.one_of(valid, valid, spelled_ballots(m), malformed),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    dressed = draw(st.sampled_from(pool))
    variants = (dressed, " " + dressed, dressed + " \t", "\t" + dressed + "  ")
    extras = (None, None, None, "# a comment", "  # an indented comment", "", "   ")
    body = []
    repeats = draw(st.lists(st.sampled_from(pool), max_size=9))
    for line in draw(st.permutations(pool + repeats)):
        body.append(draw(st.sampled_from(variants)) if line == dressed else line)
        extra = draw(st.sampled_from(extras))
        if extra is not None:
            body.append(extra)
    ballots = sum(1 for line in body if not line.lstrip().startswith("#"))
    n = draw(st.sampled_from((ballots, ballots, ballots, ballots - 1, ballots + 1)))
    ending = draw(st.sampled_from(("\n", "", "\n\n")))
    return f"{m} {n} {k}\n" + "\n".join(body) + ending


@given(instance_texts())
def test_parse_matches_oracle(text):
    expected = _outcome(oracles.parse_instance, text)
    parsed = _outcome(parse_instance, text)
    assert parsed == expected
    if isinstance(expected, ElectionInstance):
        assert serialize_instance(parsed) == oracles.serialize_instance(expected)
        assert instance_digest(parsed) == oracles.instance_digest(expected)


@st.composite
def unchecked_ballots(draw):
    """Ballots for ``m`` candidates from a pool of at most three, some with
    an index out of range or of the wrong type."""
    m = draw(st.integers(1, 5))
    index = st.one_of(
        st.integers(-1, m), st.integers(0, m - 1), st.sampled_from((1.5, "a", True))
    )
    pool = draw(st.lists(st.frozensets(index, max_size=3), min_size=1, max_size=3))
    ballots = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return m, tuple(ballots)


@given(unchecked_ballots())
def test_range_check_matches_oracle(case):
    m, ballots = case
    expected = _outcome(oracles.check_ballot_range, m, ballots)
    built = _outcome(ElectionInstance, m, 1, ballots)
    if isinstance(built, ElectionInstance):
        built = built.approvals
    assert built == expected


@given(st.one_of(instances(), shared_ballot_instances()))
def test_serialize_and_digest_match_oracle(inst):
    assert serialize_instance(inst) == oracles.serialize_instance(inst)
    assert instance_digest(inst) == oracles.instance_digest(inst)
