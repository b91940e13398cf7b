"""Per-layer spans and counters, recorded by wrappers the benchmark installs.

No library code changes: ``Tracer.installed()`` replaces each public
function listed in ``PROBES`` with a wrapper, in every ``wittkit`` namespace
that holds it (``cli`` imports most names with ``from .x import y``, so
patching only the defining module would leave those calls unseen), and
restores the originals on exit.  Methods are patched on their class, under
every attribute name bound to them (``__rmul__ = __mul__``).

A span's time counts toward its metric only for the outermost call of that
name.  Self time is a span's duration minus the time its child spans cover.
Times are process CPU seconds, like the end-to-end request times.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import time
from collections import defaultdict


def _points(args, kwargs, result):
    h, p = args[0], args[1]
    return (p ** len(h.variables) - 1) // (p - 1)


def _m_max(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["m_max"]


def _nbytes(args, kwargs, result):
    return len(result.encode("utf-8"))


_WITT_OPS = (
    "teichmueller",
    "witt_add",
    "witt_neg",
    "witt_mul",
    "witt_scale_int",
    "witt_frobenius",
    "witt_verschiebung",
    "witt_truncate",
)

#: (module, function or Class.method, span name or None, counter name or
#: None, amount per call: None for 1, else fn(args, kwargs, result)).
PROBES = [
    ("ordinarity", "point_count_projective", "ordinarity.point_count", "ordinarity.points_enumerated", _points),
    ("ordinarity", "classify_elliptic_fiber", None, "ordinarity.fibers_classified", None),
    ("ordinarity", "hasse_witt_poly", "ordinarity.hasse_witt", None, None),
    ("ordinarity", "ordinarity_scan", "ordinarity.scan", None, None),
    ("ordinarity", "frobenius_power_congruence", "ordinarity.congruence", None, None),
    ("series", "substitute_univariate", "series.substitute", None, None),
    ("series", "TruncatedSeries.reversion", "series.reversion", None, None),
    # The CLI never calls the multiplicative TruncatedSeries.inverse; the
    # series inverse it needs is l^(-1), built (and cached) here.
    ("formal_groups", "Logarithm.inverse_series", "series.inverse", None, None),
    ("series", "TruncatedSeries.__mul__", None, "series.mul_count", None),
    ("series", "MultiTruncatedSeries.__mul__", None, "series.mul_count", None),
    ("formal_groups", "group_law_from_logarithm", "formal_groups.synthesis", None, None),
    ("formal_groups", "integrality_report", "formal_groups.integrality", None, None),
    ("polynomials", "SparsePolynomial.__init__", None, "polynomials.validated_count", None),
    ("polynomials", "SparsePolynomial.__mul__", None, "polynomials.mul_count", None),
    ("polynomials", "SparsePolynomial.evaluate", None, "polynomials.evaluate_count", None),
    ("families", "am_logarithm", "families.extraction", None, None),
    ("families", "closed_form_logarithm", "families.closed_form", None, None),
    ("families", "family_logarithm", None, "families.coefficients", _m_max),
    ("witt", "to_ghost", "witt.ghost", None, None),
    *(("witt", name, None, "witt.op_count", None) for name in _WITT_OPS),
    ("picard_fuchs", "ThetaOperator.apply", "picard_fuchs.apply", "picard_fuchs.apply_count", None),
    ("picard_fuchs", "pf_congruence_check", "picard_fuchs.check", None, None),
    ("serialize", "json_dumps", "serialize.dump", None, None),
    ("serialize", "tsv_dumps", "serialize.dump", None, None),
    ("cli", "ResultDoc.emit", "cli.emit", "cli.output_bytes", _nbytes),
]

#: The per-layer metrics derived from the probes, in report order.
SPAN_METRICS = [
    "ordinarity.point_count",
    "ordinarity.hasse_witt",
    "ordinarity.scan",
    "ordinarity.congruence",
    "series.substitute",
    "series.reversion",
    "series.inverse",
    "formal_groups.synthesis",
    "formal_groups.integrality",
    "families.extraction",
    "families.closed_form",
    "witt.ghost",
    "picard_fuchs.apply",
    "picard_fuchs.check",
    "serialize.dump",
    "cli.emit",
]
SELF_METRICS = ["formal_groups.synthesis"]
COUNT_METRICS = [
    "ordinarity.points_enumerated",
    "ordinarity.fibers_classified",
    "series.mul_count",
    "polynomials.validated_count",
    "polynomials.mul_count",
    "polynomials.evaluate_count",
    "families.coefficients",
    "witt.op_count",
    "picard_fuchs.apply_count",
    "cli.output_bytes",
]
COUNT_UNITS = {"cli.output_bytes": "bytes"}


class Tracer:
    """Spans kept in memory plus per-name totals for the current pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (request, span, parent, name, start, end)
        self.request = 0
        self._ids = itertools.count(1)
        self._stack: list[list] = []  # [name, span id, start, child seconds]
        self.reset()

    def reset(self) -> None:
        """Zero the totals; recorded spans are kept."""
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, fn, span=None, counter=None, amount=None):
        stack = self._stack

        def traced(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                parent = stack[-1] if stack else None
                frame = [span, next(self._ids), time.process_time(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.process_time()
                    stack.pop()
                    duration = end - frame[2]
                    if parent is not None:
                        parent[3] += duration
                    if all(f[0] != span for f in stack):
                        self.total_s[span] += duration
                        self.self_s[span] += duration - frame[3]
                    self.spans.append(
                        (self.request, frame[1], parent and parent[1], span, frame[2], end)
                    )
            if counter is not None:
                self.counts[counter] += 1 if amount is None else amount(args, kwargs, result)
            return result

        return traced

    def request_wrapper(self, main):
        """``main`` as the root span of each request, under a new request id."""
        root = self.wrap(main, "cli.request")

        def request(argv):
            self.request += 1
            return root(argv)

        return request

    @contextlib.contextmanager
    def installed(self):
        """Patch every probe into every wittkit namespace; undo on exit."""
        namespaces = [m for n, m in sys.modules.items() if n == "wittkit" or n.startswith("wittkit.")]
        undo = []
        try:
            for module, target, span, counter, amount in PROBES:
                home = sys.modules[f"wittkit.{module}"]
                if "." in target:
                    cls, name = target.split(".")
                    home = getattr(home, cls)
                    owners = [home]
                else:
                    name, owners = target, namespaces
                original = vars(home)[name]
                wrapper = self.wrap(original, span, counter, amount)
                for ns in owners:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            undo.append((ns, attr, original))
            yield self
        finally:
            for ns, attr, original in reversed(undo):
                setattr(ns, attr, original)

    def pass_metrics(self, factor: float = 1.0) -> dict[str, float]:
        """This pass's per-layer values, every metric (zero when unused);
        times are multiplied by ``factor``, the pass's speed scaling."""
        out = {f"{name}_s": self.total_s[name] * factor for name in SPAN_METRICS}
        out.update({f"{name}_self_s": self.self_s[name] * factor for name in SELF_METRICS})
        out.update({name: self.counts[name] for name in COUNT_METRICS})
        return out
