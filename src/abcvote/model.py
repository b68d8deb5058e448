"""Core data model: instances, committees, welfare vectors, ballot classes.

An election instance consists of ``m`` candidates, ``n`` voters and a target
committee size ``k``.  Every voter approves an arbitrary subset of the
candidates (possibly empty).  Candidates are identified by 0-based indices
``0 .. m-1`` internally; the text file format and all command-line output use
1-based indices.

Instance file format
--------------------
* The first content line is a header ``m n k`` (three positive integers,
  whitespace separated).
* The following ``n`` content lines hold one approval ballot each: 1-based
  candidate indices in strictly increasing order, whitespace separated.  An
  empty line denotes an empty ballot.
* Lines whose first non-blank character is ``#`` are comments and are
  ignored, as is trailing whitespace on any line.

``parse_instance`` and ``serialize_instance`` are inverse to each other:
parsing a serialized instance reproduces it exactly (comments are not
preserved).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

#: Exact rational number type used throughout the package.
Rational = Fraction

#: A committee is a plain set of 0-based candidate indices.
Committee = frozenset[int]


class ParseError(ValueError):
    """Raised for malformed instance files or committee literals."""


class SearchBudgetExceeded(RuntimeError):
    """Raised when an exhaustive search would exceed its node budget.

    The message states the budget that was exceeded (or why a checker is
    undecided); callers that expose the search (e.g. the command line)
    should treat this as "no exact answer" rather than as a property verdict.
    """


#: Nodes an exhaustive search may visit before it gives up.
DEFAULT_NODE_BUDGET = 1 << 20


class NodeCounter:
    """The nodes a walk has visited: ``tick`` raises SearchBudgetExceeded
    once more than ``budget`` have been, so a walk of N nodes finishes at
    budget N and gives up at N - 1."""

    def __init__(self, budget: int) -> None:
        self.budget, self.nodes = budget, 0

    def tick(self, count: int = 1) -> None:
        self.nodes += count
        if self.nodes > self.budget:
            raise SearchBudgetExceeded(
                f"search visited more nodes than its budget of {self.budget}; "
                "the instance is too large for exact analysis"
            )


class InternalInvariantError(RuntimeError):
    """Raised when a re-check of a result against its definition fails.

    This signals a bug in the library, never a property of the input; the
    checks are ordinary code, so they also run under ``python -O``.
    """


class Record:
    """An immutable value with named fields.

    A subclass annotates its fields in the class body, in order; a field
    given a value there defaults to it.  The constructor binds positional,
    then keyword arguments to the fields and raises TypeError, naming the
    class, on a surplus, unknown, repeated or missing one.  Records of the
    same class are equal when their fields are, hash as the tuple of their
    fields and print as ``Name(field=value, ...)`` without the fields named
    in ``_hidden``.  Assigning or deleting an attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        vars(self).update(zip(fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The arguments, then the class-body defaults, one per field."""
        name, fields, defaults = cls.__qualname__, cls._fields, vars(cls)
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, not {len(args)}")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in defaults:
                values.append(defaults[field])
            else:
                raise TypeError(f"{name} is missing field {field!r}")
        if kwargs:
            raise TypeError(f"{name} got unknown or repeated fields {sorted(kwargs)}")
        return values

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self._fields
            if name not in self._hidden
        )
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ElectionInstance(Record):
    """An approval election: candidates, approval ballots, committee size.

    Attributes:
        num_candidates: Number of candidates ``m``, an ``int``; candidates
            are the indices ``0 .. m-1``.
        committee_size: Target committee size ``k``, an ``int`` with
            ``1 <= k <= m``.
        approvals: One ballot per voter, in voter order.  The constructor
            accepts a sequence of ballots, each any iterable of ``int``
            candidate indices (not ``1.0``), and stores them as a tuple of
            frozensets.  Empty ballots are allowed.

    ``parse_instance`` checks each distinct ballot line once and fills the
    three fields itself, without the constructor's second check.

    ``classes``, ``approver_masks``, ``clones`` and ``text`` are built on
    first access (``parse_instance`` fills ``text`` as it reads), kept and
    shared, never mutated (``approver_masks`` is a tuple of ints and
    ``clones`` a tuple of tuples).  They are not fields: equality, hashing
    and ``repr`` ignore them.
    """

    num_candidates: int
    committee_size: int
    approvals: tuple[frozenset[int], ...]

    def __init__(
        self,
        num_candidates: int,
        committee_size: int,
        approvals: Sequence[Iterable[int]],
    ) -> None:
        if not isinstance(num_candidates, int):
            raise ValueError(f"number of candidates {num_candidates!r} is not an int")
        if not isinstance(committee_size, int):
            raise ValueError(f"committee size {committee_size!r} is not an int")
        if num_candidates < 1:
            raise ValueError("instance needs at least one candidate")
        if not 1 <= committee_size <= num_candidates:
            raise ValueError(
                f"committee size {committee_size} not in 1..{num_candidates}"
            )
        if len(approvals) < 1:
            raise ValueError("instance needs at least one voter")
        approvals = tuple(map(frozenset, approvals))
        # A C-level union and sum instead of a test per approval (a float
        # equal to an index makes the sum a non-int); the per-voter loop
        # names the first offender.
        used = frozenset().union(*approvals)
        if not used <= frozenset(range(num_candidates)) or type(sum(used)) is not int:
            for voter, ballot in enumerate(approvals):
                for c in ballot:
                    if not isinstance(c, int):
                        raise ValueError(
                            f"ballot of voter {voter} mentions candidate {c!r}, "
                            "candidate indices must be ints"
                        )
                    if not 0 <= c < num_candidates:
                        raise ValueError(
                            f"ballot of voter {voter} mentions candidate {c}, "
                            f"valid range is 0..{num_candidates - 1}"
                        )
        fields = vars(self)
        fields["num_candidates"] = num_candidates
        fields["committee_size"] = committee_size
        fields["approvals"] = approvals

    @property
    def num_voters(self) -> int:
        return len(self.approvals)

    @property
    def voters(self) -> range:
        return range(self.num_voters)

    @property
    def candidates(self) -> range:
        return range(self.num_candidates)

    @cached_property
    def classes(self) -> BallotClasses:
        """The voters grouped by ballot."""
        return ballot_classes(self)

    @cached_property
    def approver_masks(self) -> tuple[int, ...]:
        """``approver_masks[c]``: the voters approving c as a bitset, bit i
        set when voter i approves c.

        Built per block of consecutive equal ballots: the block of voters
        start .. end - 1 ORs ``((1 << (end - start)) - 1) << start`` into
        the mask of each candidate on its ballot, so a profile that lists
        its voters by ballot costs a few ORs per block, and one where no
        two neighbours agree costs one block per voter, as a per-voter
        loop would."""
        masks = [0] * self.num_candidates
        approvals = self.approvals
        n = len(approvals)
        start = 0
        for end, ballot in enumerate(approvals, 1):
            if end < n and approvals[end] == ballot:
                continue  # the block goes on
            block = ((1 << (end - start)) - 1) << start
            for c in ballot:
                masks[c] |= block
            start = end
        return tuple(masks)

    @cached_property
    def text(self) -> str:
        """The canonical file text: LF line endings, one trailing newline."""
        lines = [f"{self.num_candidates} {self.num_voters} {self.committee_size}"]
        names = [str(c + 1) for c in self.candidates]
        rendered: dict[frozenset[int], str] = {}
        for ballot in self.approvals:
            line = rendered.get(ballot)
            if line is None:
                line = rendered[ballot] = " ".join([names[c] for c in sorted(ballot)])
            lines.append(line)
        return "\n".join(lines) + "\n"

    @cached_property
    def clones(self) -> tuple[tuple[int, ...], ...]:
        """Candidates grouped by approvers ("clones"): each class in
        increasing order, the classes in order of their smallest member."""
        groups: dict[int, list[int]] = {}
        for c, mask in enumerate(self.approver_masks):
            groups.setdefault(mask, []).append(c)
        return tuple(map(tuple, groups.values()))

    def approvers(self, candidate: int) -> frozenset[int]:
        """Voters that approve ``candidate``, read from the ballots."""
        _indices((candidate,), self.num_candidates, "no such candidate: {}")
        return frozenset(
            i for i, ballot in enumerate(self.approvals) if candidate in ballot
        )


def _indices(indices: Iterable[int], count: int, message: str) -> frozenset[int]:
    """``indices`` as a frozenset, after checking that each is an ``int``
    in ``0 .. count-1``, the rule for every index a caller passes in;
    otherwise ValueError, ``message`` formatted with the first offender."""
    found = frozenset(indices)
    for i in found:
        if not (isinstance(i, int) and 0 <= i < count):
            raise ValueError(message.format(i))
    return found


def committee_members(
    instance: ElectionInstance, committee: Iterable[int]
) -> frozenset[int]:
    """``committee`` as a frozenset, after checking that every member is a
    candidate of ``instance``; ValueError names one that is not.

    Every public function that takes a committee reads it through this
    check, directly or through ``welfare_vector``.  The committee may have
    any size; it does not have to respect the committee size.
    """
    return _indices(committee, instance.num_candidates, "no such candidate: {}")


def welfare_vector(instance: ElectionInstance, committee: Iterable[int]) -> tuple[int, ...]:
    """Number of approved committee members, per voter, for any committee
    ``committee_members`` accepts."""
    members = committee_members(instance, committee)
    return tuple(len(ballot & members) for ballot in instance.approvals)


class BallotClasses(Record):
    """The voters grouped by ballot, the only view of a profile an
    anonymous rule or axiom needs.

    Attributes:
        ballots: The distinct ballots, in order of first appearance.
        voters: ``voters[j]`` is the increasing list of the voters who
            cast ``ballots[j]``.
        sizes: ``sizes[j]`` is ``len(voters[j])``.
        holders: ``holders[c]`` is the increasing list of the classes
            whose ballot approves candidate ``c``.
    """

    ballots: tuple[frozenset[int], ...]
    voters: tuple[list[int], ...]
    sizes: tuple[int, ...]
    holders: tuple[list[int], ...]


def ballot_classes(instance: ElectionInstance) -> BallotClasses:
    """Group the voters by ballot: one pass over the voters, one over the
    distinct ballots."""
    groups: dict[frozenset[int], list[int]] = {}
    for i, ballot in enumerate(instance.approvals):
        groups.setdefault(ballot, []).append(i)
    holders: list[list[int]] = [[] for _ in instance.candidates]
    for j, ballot in enumerate(groups):
        for c in ballot:
            holders[c].append(j)
    voters = tuple(groups.values())
    return BallotClasses(
        ballots=tuple(groups),
        voters=voters,
        sizes=tuple(map(len, voters)),
        holders=tuple(holders),
    )


def suffix_counts(
    holders: Sequence[Sequence[int]], num_classes: int
) -> list[list[int]]:
    """``out[p][j]`` is the number of entries of ``holders[p:]`` that list
    class j; ``out`` has ``len(holders) + 1`` rows, the last all zero."""
    out = [[0] * num_classes]
    for row in reversed(holders):
        counts = out[-1].copy()
        for j in row:
            counts[j] += 1
        out.append(counts)
    out.reverse()
    return out


def restrict_profile(
    instance: ElectionInstance, voters: Iterable[int], new_k: int
) -> ElectionInstance:
    """Sub-instance on a voter subset, with a new committee size.

    The candidate universe is unchanged (ballots keep their indices), only
    the ballot list shrinks.  Voters are kept in increasing index order.
    """
    chosen = sorted(_indices(voters, instance.num_voters, "no such voter: {}"))
    if not chosen:
        raise ValueError("cannot restrict to an empty voter set")
    return ElectionInstance(
        num_candidates=instance.num_candidates,
        committee_size=new_k,
        approvals=tuple(instance.approvals[i] for i in chosen),
    )


# ---------------------------------------------------------------------------
# file format


def _content_lines(text: str, numbers: bool = False) -> list:
    """The rstripped non-comment lines or, with ``numbers``, their 1-based
    line numbers, which only error messages read."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # a file ending in "\n" is not followed by an empty line
    return [
        lineno if numbers else line
        for lineno, line in enumerate(map(str.rstrip, lines), start=1)
        if "#" not in line or not line.lstrip().startswith("#")
    ]


def parse_instance(text: str) -> ElectionInstance:
    """Parse the instance file format described in the module docstring.

    Raises ParseError with the offending 1-based line number in the message.
    """
    lines = _content_lines(text)
    if not lines:
        raise ParseError("line 1: missing header 'm n k'")

    def fail(position: int, message: str) -> ParseError:
        """The error for content line ``position``, with its line number."""
        return ParseError(f"line {_content_lines(text, True)[position]}: {message}")

    header = lines[0]
    fields = header.split()
    if len(fields) != 3:
        raise fail(0, f"header must be 'm n k', got {header!r}")
    try:
        m, n, k = (int(f) for f in fields)
    except ValueError:
        raise fail(0, f"header must hold three integers, got {header!r}") from None
    if m < 1 or n < 1 or k < 1:
        raise fail(0, "m, n and k must be positive")
    if k > m:
        raise fail(0, f"committee size k={k} exceeds m={m}")

    if len(lines) <= n:
        raise fail(0, f"header announces {n} ballots, file has {len(lines) - 1}")
    for position, line in enumerate(lines[n + 1:], start=n + 1):
        if line.strip():
            raise fail(position, f"unexpected content after {n} ballots")

    # Ballot lines repeat (many voters cast the same few ballots): each
    # distinct line is parsed once, in order of first occurrence, so a
    # malformed line is reported there.  Canonical indices are looked up
    # (no line holds more of them than the text has characters); any other
    # token, or indices out of order, sends the line to the int() loop.
    ballot_lines = lines[1 : n + 1]
    index = dict(zip(map(str, range(1, min(m, len(text)) + 1)), range(m)))
    ballots: dict[str, frozenset[int]] = {}
    rendered: dict[str, str] = {}
    for line in dict.fromkeys(ballot_lines):
        tokens = line.split()
        cs = list(map(index.get, tokens))
        if None not in cs:
            ballot = frozenset(cs)
            if len(ballot) == len(cs) and sorted(cs) == cs:
                ballots[line] = ballot
                rendered[line] = " ".join(tokens)
                continue
        position = 1 + ballot_lines.index(line)
        chosen: set[int] = set()
        prev = 0
        for token in tokens:
            try:
                c = int(token)
            except ValueError:
                raise fail(position, f"candidate index expected, got {token!r}") from None
            if not 1 <= c <= m:
                raise fail(position, f"candidate index {c} out of range 1..{m}")
            if c == prev:
                raise fail(position, f"duplicate candidate {c}")
            if c < prev:
                raise fail(position, "candidate indices must be strictly increasing")
            prev = c
            chosen.add(c - 1)
        ballots[line] = frozenset(chosen)
        rendered[line] = " ".join([str(c + 1) for c in sorted(chosen)])

    # every value the constructor would check has been checked above, once
    # per distinct line, so the fields are filled here, as is the text
    instance = ElectionInstance.__new__(ElectionInstance)
    canonical = [f"{m} {n} {k}", *map(rendered.__getitem__, ballot_lines)]
    vars(instance).update(
        num_candidates=m,
        committee_size=k,
        approvals=tuple(map(ballots.__getitem__, ballot_lines)),
        text="\n".join(canonical) + "\n",
    )
    return instance


def serialize_instance(instance: ElectionInstance) -> str:
    """Canonical text form (LF line endings, one trailing newline)."""
    return instance.text


def instance_digest(instance: ElectionInstance) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize_instance(instance).encode("ascii")).hexdigest()


def parse_committee(text: str, num_candidates: int) -> Committee:
    """Parse a committee literal: comma-separated 1-based indices in any
    order (``format_committee`` renders the increasing form).

    Blank tokens are skipped, so the empty string is the empty committee;
    duplicate, out-of-range and non-integer indices raise ParseError.
    """
    members: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            c = int(token)
        except ValueError:
            raise ParseError(f"committee flag: bad index {token!r}") from None
        if not 1 <= c <= num_candidates:
            raise ParseError(
                f"committee flag: index {c} out of range 1..{num_candidates}"
            )
        if c - 1 in members:
            raise ParseError(f"committee flag: duplicate index {c}")
        members.add(c - 1)
    return frozenset(members)


def format_committee(committee: Iterable[int]) -> str:
    """Render a committee as a literal: sorted, 1-based, comma-separated."""
    return ",".join(str(c + 1) for c in sorted(committee))


def format_rational(x: Rational) -> str:
    """Lowest-terms ``num/den`` rendering; integers render without ``/1``."""
    return str(Fraction(x))

