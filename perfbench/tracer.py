"""Span tracing for one abcvote command, installed from outside the program.

The tracer replaces each public function listed in ``TRACED`` with a
wrapper that records a span (name, start, end, parent) and, for
``COUNTED``, only a call count.  A function is replaced in its defining
module and in every ``abcvote`` namespace that holds the same object:
modules that imported it by name, the package namespace, and module-level
dicts such as ``cli.SEARCH_RULES``.  ``uninstall`` puts every original
object back.  The program's source is never modified.

Spans are kept in memory; ``summary`` turns them into per-function self
times and counts, where a span's self time is its duration minus the
durations of its direct child spans.  The root span is the ``cli.main``
call itself, so the self times of all spans add up to the command's
``cli.main`` time.

Which workload each layer's metrics should move (through ``round_p50_s``):

* model: ``approvers`` calls and parse/digest time on run-large and audit;
  ``distinct_ballot_ratio`` only describes the inputs;
* generators: search-ejr-phragmen;
* rules: Phragmen on search-ejr-phragmen and run-large; Rule X and
  ``min_affordable_q`` calls on run-large and repro; ``pav_winners`` on
  audit and repro (its ``calls`` on repro count recomputation in the
  desk matrix);
* axioms: ``check_ejr`` on search-ejr-phragmen and audit,
  ``find_core_deviation`` on audit; the re-validators never drop to 0;
* lp: audit and repro; no change expected on search-ejr-phragmen or
  run-large, where no LP runs;
* laminar: repro only.
"""

from __future__ import annotations

import functools
import sys
import time

#: (layer, module, attribute path) of every function that gets a span.
TRACED = (
    ("model", "abcvote.model", "parse_instance"),
    ("model", "abcvote.model", "instance_digest"),
    ("model", "abcvote.model", "welfare_vector"),
    ("model", "abcvote.model", "ElectionInstance.approvers"),
    ("generators", "abcvote.generators", "gen_random"),
    ("generators", "abcvote.generators", "gen_laminar"),
    ("generators", "abcvote.generators", "fixture"),
    ("rules", "abcvote.rules", "phragmen_sequential"),
    ("rules", "abcvote.rules", "rule_x"),
    ("rules", "abcvote.rules", "rule_x_complete"),
    ("rules", "abcvote.rules", "seq_pav"),
    ("rules", "abcvote.rules", "pav_winners"),
    ("rules", "abcvote.rules", "pav_score"),
    ("axioms", "abcvote.axioms", "check_priceable"),
    ("axioms", "abcvote.axioms", "check_pjr"),
    ("axioms", "abcvote.axioms", "check_ejr"),
    ("axioms", "abcvote.axioms", "find_core_deviation"),
    ("axioms", "abcvote.axioms", "minimal_core_lambda"),
    ("axioms", "abcvote.axioms", "check_core_subject_to"),
    ("axioms", "abcvote.axioms", "check_pareto"),
    ("axioms", "abcvote.axioms", "check_pigou_dalton"),
    ("axioms", "abcvote.axioms", "validate_price_system"),
    ("axioms", "abcvote.axioms", "verify_deviation"),
    ("lp", "abcvote.lp", "lp_maximize"),
    ("lp", "abcvote.lp", "lp_feasible"),
    ("laminar", "abcvote.laminar", "check_laminar"),
    ("laminar", "abcvote.laminar", "check_laminar_proportional"),
    ("laminar", "abcvote.laminar", "laminar_proportional_committees"),
)

#: Functions that are only counted: they run in inner loops, and a span
#: per call would swamp the time of their callers.
COUNTED = (("rules", "abcvote.rules", "min_affordable_q"),)

LAYERS = ("model", "generators", "rules", "axioms", "lp", "laminar")

#: Checkers return a witness of a violation, or None.  check_priceable is
#: the exception: it returns a price system (a witness of the property),
#: so a violation is a None result.
CHECKERS = (
    "check_priceable",
    "check_pjr",
    "check_ejr",
    "find_core_deviation",
    "minimal_core_lambda",
    "check_core_subject_to",
    "check_pareto",
    "check_pigou_dalton",
)
INPUT_MAKERS = ("parse_instance", "gen_random", "gen_laminar", "fixture")

ROOT = "cli.main"


def span_name(layer: str, path: str) -> str:
    """Metric prefix of a traced function, e.g. ``model.approvers``."""
    return f"{layer}.{path.rsplit('.', 1)[-1]}"


class Tracer:
    """Records spans for one command; one instance per process."""

    def __init__(self) -> None:
        # (name, start, end, parent index, outcome); outcome is "none",
        # "value", or the name of the exception that left the call.
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.lp_sizes: list[tuple[int, int]] = []
        self.instances: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def _spanned(self, name: str, func):
        spans, stack = self.spans, self._stack
        keep_result = name.rsplit(".", 1)[-1] in INPUT_MAKERS
        lp_call = name.startswith("lp.")
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if lp_call:
                self.lp_sizes.append((len(args[0].constraints), args[0].num_variables))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outcome = "none"
            start = clock()
            try:
                result = func(*args, **kwargs)
                if result is not None:
                    outcome = "value"
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, outcome)
                if keep_result and outcome == "value":
                    self.instances.append((name, result))

        return wrapper

    def _counted(self, name: str, func):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def call_root(self, func, *args):
        """Run ``func`` (``cli.main``) as the root span."""
        return self._spanned(ROOT, func)(*args)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Replace every listed function wherever abcvote holds it."""
        wanted = [(layer, mod, path, self._spanned) for layer, mod, path in TRACED]
        wanted += [(layer, mod, path, self._counted) for layer, mod, path in COUNTED]
        replacements = {}
        for layer, mod, path, make in wanted:
            owner = sys.modules[mod]
            attrs = path.split(".")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
            wrapped = make(span_name(layer, path), original)
            replacements[id(original)] = (original, wrapped)
            if len(attrs) > 1:  # a method: patch the class attribute
                self._patch(owner, attrs[-1], original, wrapped, is_dict=False)
        for module_name, module in list(sys.modules.items()):
            if module_name != "abcvote" and not module_name.startswith("abcvote."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._patch(namespace, key, value, replacements[id(value)][1])
                elif type(value) is dict:
                    for inner, item in list(value.items()):
                        hit = replacements.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patch(value, inner, item, hit[1])

    def _patch(self, owner, key, original, wrapped, is_dict: bool = True) -> None:
        if is_dict:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._patches.append((owner, key, original, is_dict))

    def uninstall(self) -> None:
        """Put back every original object that ``install`` replaced."""
        while self._patches:
            owner, key, original, is_dict = self._patches.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- summary ---------------------------------------------------------

    def summary(self, is_search: bool) -> dict[str, float]:
        """Per-function self time and calls, plus the layer counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        probes = undecided = hits = 0
        for pos, (name, start, end, parent, outcome) in enumerate(spans):
            self_s = (end - start) - child_time[pos]
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + self_s
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            func = name.rsplit(".", 1)[-1]
            if outcome == "SearchBudgetExceeded":
                key = name + ".budget_exceeded"
                out[key] = out.get(key, 0) + 1
            if func in CHECKERS:
                violation = outcome == ("none" if func == "check_priceable" else "value")
                if outcome == "value":
                    out[name + ".witnesses"] = out.get(name + ".witnesses", 0) + 1
                if is_search and parent >= 0 and spans[parent][0] == ROOT:
                    probes += 1
                    if outcome == "SearchBudgetExceeded":
                        undecided += 1
                    elif violation:
                        hits += 1
        out["cli.search.probes"] = probes
        out["cli.search.undecided"] = undecided
        out["cli.search.hits"] = hits
        for name, count in self.counts.items():
            out[name + ".calls"] = count
        rows = [r for r, _ in self.lp_sizes]
        cols = [c for _, c in self.lp_sizes]
        out["lp.rows.sum"], out["lp.rows.max"] = sum(rows), max(rows, default=0)
        out["lp.cols.sum"], out["lp.cols.max"] = sum(cols), max(cols, default=0)
        out["model.voters_parsed"] = sum(
            made.num_voters for name, made in self.instances if name == "model.parse_instance"
        )
        out["model.ballots_seen"] = sum(made.num_voters for _, made in self.instances)
        out["model.distinct_ballots_seen"] = sum(
            len(set(made.approvals)) for _, made in self.instances
        )
        return out

    def records(self) -> list[list]:
        """Spans as JSON-ready lists: name, start, end, parent index."""
        return [[name, start, end, parent] for name, start, end, parent, _ in self.spans]
