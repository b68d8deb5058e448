"""Command-line front end.

Four subcommands: ``run`` executes a committee rule on an instance file
and prints the committee, welfare vector, and execution trace; ``check``
tests a committee against one axiom and prints PASS or FAIL plus a
witness; ``search`` hunts for counterexamples (a rule output violating
an axiom) over seeded random and small structured instances; ``repro``
re-derives the catalogue's frozen numbers and prints a desk-scale
property matrix.

All output is deterministic for a fixed command line: rationals render
as ``num/den`` in lowest terms (``/1`` omitted), committees as
comma-separated increasing 1-based indices, and ``--json`` emits the
same fields as machine-readable JSON.  Exit codes: 0 pass/success, 1
axiom failure or reproduction mismatch, 2 input error, 3 undecided
(a search budget exceeded, or a verdict that would not be certain).

Each subcommand's flags are declared once, in ``COMMANDS``.  A command
line of the plain form ``SUBCOMMAND (--flag [value])*`` is read from
that table directly; any other (help, abbreviations, ``--flag=value``,
errors) goes to the argparse parser ``build_parser`` makes from the
same table, so help and error output are argparse's own.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Callable, Iterable, Sequence

from abcvote.axioms import (
    PROPERTY_KINDS,
    Deviation,
    PriceSystem,
    check_core_subject_to,
    check_ejr,
    check_pareto,
    check_pigou_dalton,
    check_pjr,
    check_priceable,
    find_core_deviation,
    minimal_core_lambda,
    validate_price_system,
    verify_deviation,
)
from abcvote.generators import fixture, gen_laminar, gen_random
from abcvote.laminar import (
    check_laminar,
    check_laminar_proportional,
    laminar_proportional_committees,
)
from abcvote.model import (
    DEFAULT_NODE_BUDGET,
    Committee,
    ElectionInstance,
    ParseError,
    SearchBudgetExceeded,
    format_committee,
    format_rational,
    instance_digest,
    parse_committee,
    parse_instance,
    restrict_profile,
    serialize_instance,
    welfare_vector,
)
from abcvote.rules import (
    dhondt,
    pav_score,
    pav_winners,
    phragmen_sequential,
    rule_x,
    rule_x_complete,
    seq_pav,
)

RULES = ("pav", "seqpav", "phragmen", "rulex", "rulex-complete", "dhondt")


def _read_instance(path: str) -> ElectionInstance:
    # bytes.decode imports no codec module; CRLF and CR read as LF, as in
    # text mode
    with open(path, "rb") as handle:
        text = handle.read().decode("ascii")
    return parse_instance(text.replace("\r\n", "\n").replace("\r", "\n"))


def _fractions(values: Iterable[Fraction]) -> str:
    return ",".join(format_rational(v) for v in values)


def _emit(lines: list[tuple[str, str]], as_json: bool) -> None:
    if as_json:
        print(json.dumps(dict(lines)))
    else:
        for key, value in lines:
            print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# run


def _trace_lines(instance: ElectionInstance, rule: str, all_ties: bool):
    """Rule-specific report fields: committee plus trace summary."""
    if rule == "pav":
        winners = pav_winners(instance)
        first = winners[0]
        lines = [
            ("score", format_rational(pav_score(instance, first))),
            ("committee", format_committee(first)),
        ]
        if all_ties:
            lines.append(("ties", ";".join(format_committee(w) for w in winners)))
        return first, lines
    if rule == "seqpav":
        committee = seq_pav(instance)
        return committee, [("committee", format_committee(committee))]
    if rule in ("phragmen", "rulex", "rulex-complete"):
        if rule == "phragmen":
            trace = phragmen_sequential(instance)
            steps = ("times", _fractions(trace.election_times))
        else:
            trace = (rule_x if rule == "rulex" else rule_x_complete)(instance)
            steps = ("q", _fractions(trace.q_values))
        size, k = len(trace.elected), instance.committee_size
        lines = [
            ("committee", format_committee(trace.committee)),
            ("elected", ",".join(str(c + 1) for c in trace.elected)),
            steps,
        ]
        if size < k:
            lines.append(("undersized", f"{size} of {k} seats"))
        return trace.committee, lines
    # dhondt: the instance must be a party-list profile, each distinct
    # ballot a party's slate and its voters the party
    classes = instance.classes
    if not all(classes.ballots):
        raise ParseError("apportionment needs non-empty ballots")
    if any(len(held) > 1 for held in classes.holders):
        raise ParseError("apportionment needs disjoint party slates")
    parties = sorted(zip(classes.ballots, classes.sizes), key=lambda p: min(p[0]))
    slates = [slate for slate, _ in parties]
    seats = dhondt(tuple(size for _, size in parties), instance.committee_size)
    committee = set()
    for slate, won in zip(slates, seats):
        if won > len(slate):
            raise ParseError(
                f"party with {len(slate)} candidates won {won} seats"
            )
        committee.update(sorted(slate)[:won])
    lines = [
        ("committee", format_committee(committee)),
        ("seats", ",".join(str(s) for s in seats)),
    ]
    return frozenset(committee), lines


def cmd_run(args) -> int:
    if args.all_ties and args.rule != "pav":
        raise ParseError("--all-ties applies only to --rule pav")
    instance = _read_instance(args.input)
    committee, trace = _trace_lines(instance, args.rule, args.all_ties)
    lines = [
        ("instance", instance_digest(instance)),
        ("rule", args.rule),
    ]
    lines += trace
    lines.append(
        ("welfare", ",".join(str(u) for u in welfare_vector(instance, committee)))
    )
    _emit(lines, args.json)
    return 0


# ---------------------------------------------------------------------------
# check


#: (violated, witness lines) of one committee against one axiom.
Verdict = tuple[bool, list[tuple[str, str]]]


def _deviation(deviation: Deviation | None) -> Verdict:
    if deviation is None:
        return False, []
    return True, [
        ("S", "{" + format_committee(deviation.coalition) + "}"),
        ("T", "{" + format_committee(deviation.alternative) + "}"),
    ]


def _better(label: str, better: Committee | None) -> Verdict:
    if better is None:
        return False, []
    return True, [(label, format_committee(better))]


def _priceable(instance, committee, options) -> Verdict:
    system = check_priceable(instance, committee)
    if system is None:
        return True, []
    return False, [("price", format_rational(system.price))]


#: Every axiom by name: a function of (instance, committee, options)
#: returning (violated, witness lines).  ``options`` carries ``budget``
#: (and, for ``check``, ``lam`` and ``deviation_property``).  ``laminar``
#: is a property of the instance alone and ignores the committee.
#: Entries reach the checkers through this module's globals, so a tracer
#: that replaces them here sees every call.
AXIOM_CHECKS: dict[
    str, Callable[[ElectionInstance, Committee, argparse.Namespace], Verdict]
] = {
    "priceable": _priceable,
    "laminar": lambda inst, w, opts: (check_laminar(inst) is None, []),
    "laminar-prop": lambda inst, w, opts: (not check_laminar_proportional(inst, w), []),
    "pjr": lambda inst, w, opts: _deviation(check_pjr(inst, w, budget=opts.budget)),
    "ejr": lambda inst, w, opts: _deviation(check_ejr(inst, w, budget=opts.budget)),
    "core": lambda inst, w, opts: _deviation(
        find_core_deviation(inst, w, budget=opts.budget)
    ),
    "core2": lambda inst, w, opts: _deviation(
        find_core_deviation(inst, w, Fraction(2), budget=opts.budget)
    ),
    "lambda-core": lambda inst, w, opts: _deviation(
        find_core_deviation(inst, w, opts.lam, budget=opts.budget)
    ),
    "core-subject": lambda inst, w, opts: _deviation(
        check_core_subject_to(inst, w, opts.deviation_property, budget=opts.budget)
    ),
    "constrained-core": lambda inst, w, opts: _deviation(
        check_core_subject_to(inst, w, "price_eq", budget=opts.budget)
    ),
    "pigou-dalton": lambda inst, w, opts: _better(
        "transfer", check_pigou_dalton(inst, w, budget=opts.budget)
    ),
    "pareto": lambda inst, w, opts: _better(
        "dominating", check_pareto(inst, w, budget=opts.budget)
    ),
}

#: The names each subcommand offers.
CHECK_AXIOMS = tuple(
    name for name in AXIOM_CHECKS if name not in ("core2", "constrained-core")
)
SEARCH_AXIOMS = ("ejr", "pjr", "pareto", "pigou-dalton", "core", "core2", "priceable")
MATRIX_RULES = ("pav", "phragmen", "rulex")
#: The desk matrix's rows: each axiom with the rules the paper proves
#: satisfy it.  A violation in one of these cells is a reproduction
#: failure; the other cells only report.
MATRIX = {
    "laminar-prop": ("phragmen", "rulex"),
    "priceable": ("phragmen", "rulex"),
    "pjr": ("pav", "phragmen", "rulex"),
    "ejr": ("pav", "rulex"),
    "constrained-core": ("rulex",),
    "pareto": ("pav",),
    "pigou-dalton": ("pav",),
}

#: The options ``search`` and ``repro`` check with: the default budget.
DEFAULT_OPTIONS = argparse.Namespace(budget=DEFAULT_NODE_BUDGET)


def _at_least(value: int, low: int, flag: str) -> None:
    """Reject a numeric flag below the smallest value it can work with."""
    if value < low:
        raise ParseError(f"{flag} must be at least {low}, got {value}")


def cmd_check(args) -> int:
    _at_least(args.budget, 1, "--budget")
    instance = _read_instance(args.input)
    committee = None
    if args.committee is not None:
        committee = parse_committee(args.committee, instance.num_candidates)
        if len(committee) > instance.committee_size:
            raise ParseError(
                f"committee has {len(committee)} members, size bound is "
                f"{instance.committee_size}"
            )
    if committee is None and args.axiom != "laminar":
        raise ParseError(f"--axiom {args.axiom} requires --committee")
    for flag, value, owner in (
        ("--lambda", args.lam, "lambda-core"),
        ("--property", args.deviation_property, "core-subject"),
    ):
        if value is None and args.axiom == owner:
            raise ParseError(f"{owner} requires {flag}")
        if value is not None and args.axiom != owner:
            raise ParseError(f"{flag} applies only to --axiom {owner}")
    violated, witness = AXIOM_CHECKS[args.axiom](instance, committee, args)
    lines = [
        ("instance", instance_digest(instance)),
        ("axiom", args.axiom),
        ("verdict", "FAIL" if violated else "PASS"),
    ]
    lines += witness
    _emit(lines, args.json)
    return 1 if violated else 0


# ---------------------------------------------------------------------------
# search

SEARCH_RULES: dict[str, Callable[[ElectionInstance], Committee]] = {
    "pav": lambda inst: pav_winners(inst)[0],
    "seqpav": seq_pav,
    "phragmen": lambda inst: phragmen_sequential(inst).committee,
    "rulex": lambda inst: rule_x(inst).committee,
}


def _search_candidates(rng, max_n: int, max_m: int, max_k: int, planted: bool):
    """One trial instance: either independent-approval random or, for the
    planted variant, a random structured profile built around a sharing
    group (top-indexed shared block, booster/drain/filler candidates)."""
    n = rng.randint(2, max_n)
    m = rng.randint(2, max_m)
    k = rng.randint(1, min(max_k, m))
    if not planted:
        seed = rng.getrandbits(32)
        density = rng.choice((0.3, 0.5, 0.7))
        return gen_random(seed, n, m, k, density)

    ell = rng.choice((2, 2, 3))
    if m < ell + 1 or k < 2:
        return None
    s_min = -(-ell * n // k)
    if s_min > n - 1:
        return None
    s = rng.randint(s_min, n - 1)
    outsiders = list(range(s, n))
    ballots = [set(range(m - ell, m)) for _ in range(s)]
    ballots += [set() for _ in outsiders]
    for c in range(m - ell, m):
        if rng.random() < 0.5:
            for v in rng.sample(outsiders, rng.randint(0, len(outsiders))):
                ballots[v].add(c)
    for c in range(m - ell):
        if rng.random() < 0.45:
            for v in rng.sample(range(s), rng.randint(1, min(3, s))):
                ballots[v].add(c)
        for v in rng.sample(outsiders, rng.randint(0, len(outsiders))):
            ballots[v].add(c)
    if any(not b for b in ballots):
        return None
    return ElectionInstance(m, k, ballots)


def _paired_rotation_family(max_n: int, max_m: int, max_k: int):
    """Structured candidates for the sequential-rule representation hunt:
    three member pairs each approve a common three-candidate block plus
    two private drains, and three outsider pairs fund the drains (two
    outsider pairs per drain).  The family needs n = 12, m = 9, k = 6 —
    the member block is exactly at the cohesiveness threshold — and the
    drain funding schedule decides whether the block's candidates ever
    come up for election."""
    groups = 3
    k = 2 * groups
    m = k + 3
    n = 4 * groups
    if n > max_n or m > max_m or k > max_k:
        return
    witnesses = frozenset({k, k + 1, k + 2})
    pair_options = list(combinations(range(groups), 2))
    for assignment in product(pair_options, repeat=k):
        ballots = []
        for i in range(groups):
            ballot = frozenset({i, i + groups}) | witnesses
            ballots += [ballot, ballot]
        funded: list[set[int]] = [set() for _ in range(groups)]
        for drain, pairs in enumerate(assignment):
            for p in pairs:
                funded[p].add(drain)
        if any(not drains for drains in funded):
            continue
        for p in range(groups):
            ballots += [frozenset(funded[p])] * 2
        yield ElectionInstance(m, k, tuple(ballots))


def _exhaustive_small(max_n: int, max_m: int, max_k: int):
    """Every instance with at most 3 voters, 3 candidates: small enough to
    enumerate outright, and any counterexample here beats a sampled one."""
    for m in range(1, min(3, max_m) + 1):
        ballot_pool = [
            frozenset(c)
            for size in range(1, m + 1)
            for c in combinations(range(m), size)
        ]
        for n in range(1, min(3, max_n) + 1):
            for k in range(1, min(m, max_k) + 1):
                for ballots in product(ballot_pool, repeat=n):
                    yield ElectionInstance(m, k, tuple(ballots))


def _instance_key(instance: ElectionInstance):
    return (
        instance.num_voters,
        instance.num_candidates,
        instance.committee_size,
        tuple(sorted(tuple(sorted(b)) for b in instance.approvals)),
    )


def cmd_search(args) -> int:
    _at_least(args.max_n, 2, "--max-n")
    _at_least(args.max_m, 2, "--max-m")
    _at_least(args.max_k, 1, "--max-k")
    _at_least(args.trials, 0, "--trials")
    if "+" in args.violation:
        axiom, _, rule = args.violation.partition("+")
    else:
        axiom, rule = "ejr", "phragmen"
        if args.violation != "ejr-phragmen":
            raise ParseError(f"search: unknown violation {args.violation!r}")
    if rule not in SEARCH_RULES:
        raise ParseError(f"search: unknown rule {rule!r}")
    if axiom not in SEARCH_AXIOMS:
        raise ParseError(f"search: unknown axiom {axiom!r}")
    run_rule = SEARCH_RULES[rule]
    check = AXIOM_CHECKS[axiom]
    found: list[ElectionInstance] = []
    probes = undecided = 0

    def decide(instance: ElectionInstance) -> bool | None:
        """Whether the rule's committee violates the axiom; None when the
        rule or the checker could not decide within its budget."""
        try:
            return check(instance, run_rule(instance), DEFAULT_OPTIONS)[0]
        except SearchBudgetExceeded:
            return None

    def tally(instance: ElectionInstance, violated: bool | None) -> None:
        nonlocal probes, undecided
        probes += 1
        if violated is None:
            undecided += 1
        elif violated:
            found.append(instance)

    # The enumerated families repeat profiles up to voter order (most of
    # their probes).  Every search rule and axiom is anonymous, every walk
    # but PJR's visits the same nodes under any voter order, and PJR's
    # visits at most 2^n - 1, within budget as these n are at most 12, so
    # a reordering takes the outcome of its first-seen twin.  It still
    # counts as a probe and still joins ``found``, where ``min`` keeps the
    # twin that came first.
    enumerated = _exhaustive_small(args.max_n, args.max_m, args.max_k)
    if axiom == "ejr" and rule == "phragmen":
        enumerated = chain(
            enumerated, _paired_rotation_family(args.max_n, args.max_m, args.max_k)
        )
    outcomes: dict[tuple, bool | None] = {}
    for instance in enumerated:
        key = _instance_key(instance)
        if key not in outcomes:
            outcomes[key] = decide(instance)
        tally(instance, outcomes[key])
    rng = random.Random(args.seed)
    for trial in range(args.trials):
        planted = rule == "phragmen" and axiom == "ejr" and trial % 2 == 1
        instance = _search_candidates(
            rng, args.max_n, args.max_m, args.max_k, planted
        )
        if instance is not None:
            tally(instance, decide(instance))
    if not found:
        if undecided:
            raise SearchBudgetExceeded(
                f"nothing found, but {undecided} of {probes} probes exceeded "
                "the search budget"
            )
        print("none found")
        return 0
    smallest = min(found, key=_instance_key)
    sys.stdout.write(serialize_instance(smallest))
    return 0


# ---------------------------------------------------------------------------
# repro


class _Report:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.failures = 0

    def expect(self, label: str, got, want) -> None:
        if got == want:
            self.lines.append(f"ok   {label}: {want}")
        else:
            self.failures += 1
            self.lines.append(f"FAIL {label}: expected {want}, got {got}")


def _welfare_sorted(instance: ElectionInstance, committee: Committee):
    return tuple(sorted(welfare_vector(instance, committee)))


def _desk_suite() -> list[ElectionInstance]:
    suite = [gen_random(seed, 6, 6, 3, 0.5) for seed in range(10)]
    suite += [gen_random(seed, 8, 6, 4, 0.3) for seed in range(10, 16)]
    suite += [gen_random(seed, 5, 5, 2, 0.7) for seed in range(16, 20)]
    suite += [fixture("example21"), fixture("example32"), fixture("example41")]
    return suite


def _matrix_cell(violations: list[str], total: int) -> str:
    if not violations:
        return f"✓ 0/{total}"
    return f"✗ {violations[0]}"


def cmd_repro(args) -> int:
    report = _Report()
    f = Fraction

    # Vote-splitting scores: slate-vs-blocs instance.
    big = fixture("phragmen1899")
    split = frozenset({0, 1, 2, 3}) | frozenset({5})
    sweep = frozenset(range(5))
    report.expect("bloc committee score", pav_score(big, split), 7750)
    report.expect("sweep committee score", pav_score(big, sweep), 7850)
    report.expect(
        "score-optimal committee",
        [format_committee(w) for w in pav_winners(big)],
        ["1,2,3,4,5"],
    )

    # Spend-clock elections on the fifteen-voter blocks instance.
    blocks = fixture("example21")
    trace = phragmen_sequential(blocks)
    t1 = f(15, 48)
    expected_times = (t1, t1 + f(9, 32), t1 + f(9, 32) + f(25, 128))
    expected_times += (expected_times[-1] + f(81, 256),)
    report.expect("spend-clock order", trace.elected, (0, 3, 1, 4))
    report.expect("spend-clock times", trace.election_times, expected_times)
    report.expect(
        "spend-clock committee", format_committee(trace.committee), "1,2,4,5"
    )

    # Budget-spending q-values on the same profile.
    xtrace = rule_x(blocks)
    report.expect(
        "budget q-values", xtrace.q_values, (f(15, 48), f(15, 48), f(15, 40), f(1))
    )
    report.expect(
        "budget committee", format_committee(xtrace.committee), "1,2,3,4"
    )
    forced = rule_x(blocks, tie_choices={2: 3})
    report.expect(
        "forced-tie committee", format_committee(forced.committee), "1,2,4"
    )
    report.expect("forced-tie stops early", len(forced.committee) < 4, True)

    # The introduction's dichotomy instance.
    intro = fixture("intro")
    report.expect(
        "intro spend-clock welfare",
        welfare_vector(intro, phragmen_sequential(intro).committee),
        (4, 4, 4, 2, 2, 2),
    )
    report.expect(
        "intro budget welfare",
        welfare_vector(intro, rule_x(intro).committee),
        (4, 4, 4, 2, 2, 2),
    )
    pav_intro = pav_winners(intro)
    report.expect(
        "intro score-optimal welfare",
        sorted(set(welfare_vector(intro, w) for w in pav_intro)),
        [(3, 3, 3, 3, 3, 3)],
    )
    committee_a = frozenset({0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13})
    committee_b = frozenset({0, 1, 2}) | frozenset(range(6, 15))
    report.expect(
        "committee (a) priceable", check_priceable(intro, committee_a) is not None, True
    )
    report.expect(
        "committee (a) laminar-proportional",
        check_laminar_proportional(intro, committee_a),
        True,
    )
    report.expect(
        "committee (b) priceable", check_priceable(intro, committee_b) is not None, False
    )
    deviation = find_core_deviation(intro, committee_b)
    report.expect("committee (b) blocked", deviation is not None, True)
    report.expect(
        "blocking coalition",
        format_committee(deviation.coalition) if deviation else "",
        "1,2,3",
    )

    # Laminar welfare split: equal versus skewed utility vectors.
    one = fixture("thm32_instance1")
    committees = laminar_proportional_committees(one)
    report.expect(
        "first split instance: all proportional welfare vectors",
        sorted(set(_welfare_sorted(one, w) for w in committees)),
        [(6,) * 8],
    )
    report.expect(
        "first split instance: skewed vector achievable",
        _welfare_sorted(one, frozenset(range(22)) - {17, 21}),
        (5, 5, 5, 5, 7, 7, 7, 7),
    )
    two = fixture("thm32_instance2")
    committees = laminar_proportional_committees(two)
    report.expect(
        "second split instance: unique proportional committee",
        [format_committee(w) for w in committees],
        ["1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20"],
    )
    report.expect(
        "second split instance: its welfare vector",
        _welfare_sorted(two, committees[0]),
        (5, 5, 5, 5, 7, 7, 7, 7),
    )
    report.expect(
        "second split instance: equal vector achievable",
        _welfare_sorted(two, frozenset(range(16)) | frozenset(range(20, 24))),
        (6,) * 8,
    )

    # Constrained deviation on the 160-voter catalogue instance: the
    # budget rule's committee admits a priceable deviation.
    prop = fixture("propB1")
    committee = rule_x(prop).committee
    report.expect(
        "large instance: budget committee",
        format_committee(committee),
        "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20",
    )
    coalition = frozenset(range(40)) | frozenset(range(56, 96)) | frozenset(
        range(112, 160)
    )
    alternative = frozenset(range(20, 36))
    deviation = Deviation(coalition=coalition, alternative=alternative)
    report.expect(
        "large instance: deviation valid",
        verify_deviation(prop, committee, deviation),
        True,
    )
    report.expect(
        "large instance: deviation priceable",
        _propb1_deviation_priceable(prop, coalition, alternative),
        True,
    )

    report.lines.append("")
    report.lines.append("desk-scale evidence (bounded property runs, not proofs)")
    _desk_matrix(report)

    payload = {"ok": report.failures == 0, "lines": report.lines}
    if args.json:
        print(json.dumps(payload))
    else:
        for line in report.lines:
            print(line)
        print("ok" if report.failures == 0 else f"{report.failures} mismatches")
    return 0 if report.failures == 0 else 1


def _propb1_deviation_priceable(
    instance: ElectionInstance, coalition: frozenset[int], alternative: frozenset[int]
) -> bool:
    """The deviating coalition supports its 16 candidates with an explicit
    price system over the restricted profile: price 8, the 80 early voters
    paying 1/8 per approved deviation candidate and each late voter 1/2 to
    each of its two."""
    restricted = restrict_profile(instance, sorted(coalition), len(alternative))
    payments = []
    for original in sorted(coalition):
        ballot = instance.approvals[original] & alternative
        if original < 112:
            payments.append({c: Fraction(1, 8) for c in ballot})
        else:
            payments.append({c: Fraction(1, 2) for c in ballot})
    system = PriceSystem(price=Fraction(8), payments=tuple(payments))
    return validate_price_system(restricted, alternative, system)


def _desk_matrix(report: _Report) -> None:
    suite = _desk_suite()
    laminar_suite = [gen_laminar(seed, 3, 10, 4) for seed in range(10)]
    laminar_suite += [fixture("thm32_instance1"), fixture("thm32_instance2")]

    def elect(pool: list[ElectionInstance]):
        return {
            name: [(instance, SEARCH_RULES[name](instance)) for instance in pool]
            for name in MATRIX_RULES
        }

    # each rule's committee on each instance, computed once for every row;
    # a row decides each distinct (position, committee) once, so rules
    # that elect the same committee on an instance share the answer
    on_suite, on_laminar = elect(suite), elect(laminar_suite)
    rows = []
    for axiom, guaranteed in MATRIX.items():
        cells = []
        check = AXIOM_CHECKS[axiom]
        runs = on_laminar if axiom == "laminar-prop" else on_suite
        violated = {}
        for rule_name in MATRIX_RULES:
            violations = []
            for pos, (instance, w) in enumerate(runs[rule_name]):
                if (pos, w) not in violated:
                    violated[pos, w] = check(instance, w, DEFAULT_OPTIONS)[0]
                if violated[pos, w]:
                    violations.append(f"instance {pos}")
            if violations and rule_name in guaranteed:
                report.failures += 1
                report.lines.append(
                    f"FAIL {rule_name}/{axiom} violated at desk scale: "
                    + violations[0]
                )
            cells.append(_matrix_cell(violations, len(runs[rule_name])))
        rows.append((axiom, cells))

    # Welfarist row: two profiles with identical welfare possibilities
    # must get equal welfare vectors from a purely welfare-based rule.
    pair = fixture("fig2_profile1"), fixture("fig2_profile2")
    swap = list(range(6, 12)) + list(range(0, 6))
    cells = []
    for name in MATRIX_RULES:
        if name == "pav":
            cells.append("✓ by definition")
            continue
        first = welfare_vector(pair[0], SEARCH_RULES[name](pair[0]))
        second = welfare_vector(pair[1], SEARCH_RULES[name](pair[1]))
        mirrored = tuple(second[v] for v in swap)
        cells.append("✓ pair agrees" if first == mirrored else "✗ paired profiles")
    rows.append(("welfarist", cells))

    lam_cells = []
    lambdas = {}
    for rule_name in MATRIX_RULES:
        worst = Fraction(1)
        unstable = False
        for pos, (instance, w) in enumerate(on_suite[rule_name]):
            if (pos, w) not in lambdas:
                lambdas[pos, w] = minimal_core_lambda(instance, w)
            lam = lambdas[pos, w]
            if lam is None:
                unstable = True
            else:
                worst = max(worst, lam)
        label = f"max λ {format_rational(worst)}" + (" (+∞ seen)" if unstable else "")
        if rule_name == "pav" and (worst > 2 or unstable):
            report.failures += 1
            report.lines.append(f"FAIL pav core approximation above 2: {label}")
        lam_cells.append(label)
    rows.append(("core", lam_cells))

    report.lines.append(
        f"suites: {len(suite)} bounded random instances "
        "(n ≤ 8, m ≤ 6, k ≤ 4) plus three catalogue profiles; "
        f"laminar row over {len(laminar_suite)} instances "
        "(10 derived laminar profiles and the two welfare-split "
        "instances); welfarist row over the 12-voter paired profiles"
    )
    width = max(len(r[0]) for r in rows)
    header = " " * (width + 2) + "  ".join(f"{name:<18}" for name in MATRIX_RULES)
    report.lines.append(header.rstrip())
    for name, cells in rows:
        row = f"{name:<{width}}  " + "  ".join(f"{cell:<18}" for cell in cells)
        report.lines.append(row.rstrip())


# ---------------------------------------------------------------------------
# entry point


def _rational(text: str) -> Fraction:
    """A flag value such as ``3/2``; a zero denominator is a bad value too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


#: Every subcommand's flags, declared once: subcommand -> (help, handler
#: name, flags), each flag a (name, dest, ``add_argument`` keywords)
#: triple.  ``build_parser`` hands each to argparse and ``_read_plain``
#: reads the same declarations without it.  The handler is looked up by
#: name when a command line is read, so one replaced on this module runs.
COMMANDS = {
    "run": ("execute a committee rule on an instance", "cmd_run", (
        ("--rule", "rule", {"choices": RULES, "required": True}),
        ("--input", "input", {"required": True}),
        ("--all-ties", "all_ties", {"action": "store_true"}),
        ("--json", "json", {"action": "store_true"}),
    )),
    "check": ("test a committee against an axiom", "cmd_check", (
        ("--axiom", "axiom", {"choices": CHECK_AXIOMS, "required": True}),
        ("--input", "input", {"required": True}),
        ("--committee", "committee", {}),
        ("--lambda", "lam", {"type": _rational}),
        ("--property", "deviation_property", {"choices": PROPERTY_KINDS}),
        ("--budget", "budget", {"type": int, "default": DEFAULT_NODE_BUDGET}),
        ("--json", "json", {"action": "store_true"}),
    )),
    "search": ("hunt for rule/axiom counterexamples", "cmd_search", (
        ("--violation", "violation", {"required": True}),
        ("--max-n", "max_n", {"type": int, "default": 12}),
        ("--max-m", "max_m", {"type": int, "default": 10}),
        ("--max-k", "max_k", {"type": int, "default": 6}),
        ("--seed", "seed", {"type": int, "default": 0}),
        ("--trials", "trials", {"type": int, "default": 10000}),
    )),
    "repro": ("re-derive the catalogue's numbers", "cmd_repro", (
        ("--json", "json", {"action": "store_true"}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcvote", description="committee elections with exact arithmetic"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, flags) in COMMANDS.items():
        subparser = sub.add_parser(command, help=help_text)
        for name, dest, options in flags:
            subparser.add_argument(name, dest=dest, **options)
        subparser.set_defaults(handler=globals()[handler])
    return parser


def _read_plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read without
    building the parser, for argv of the form ``SUBCOMMAND (--flag
    [value])*``: exact flag names, each at most once, each value the next
    word and not starting with ``-``, passing its flag's ``type`` and
    ``choices``, and every required flag present.  None for any other
    argv (help, abbreviations, ``--flag=value``, ``--``, a value starting
    with ``-``, a repeated flag, a bad value, a missing flag), which
    argparse then reads, printing the same help and errors as ever."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, flags = COMMANDS[argv[0]]
    unseen = {name: (dest, options) for name, dest, options in flags}
    values = {}
    words = iter(argv[1:])
    for word in words:
        if word not in unseen:  # also a flag given twice
            return None
        dest, options = unseen.pop(word)
        if options.get("action") == "store_true":
            values[dest] = True
            continue
        text = next(words, None)
        if text is None or text.startswith("-"):
            return None
        convert = options.get("type")
        try:
            value = text if convert is None else convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        values[dest] = value
    for dest, options in unseen.values():
        if options.get("required"):
            return None
        switch = options.get("action") == "store_true"
        values[dest] = options.get("default", False if switch else None)
    return argparse.Namespace(command=argv[0], handler=globals()[handler], **values)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
