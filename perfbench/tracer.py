"""Per-layer tracing of knotmf from outside the package.

The tracer replaces public functions and methods of knotmf with timing
wrappers for the length of the traced phase and restores them afterwards.
Nothing under ``src/`` is changed.

* Every wrapped call adds to its metric's ``calls`` and ``self_s`` (span
  time minus the time of wrapped calls made inside it); some targets also
  add size counts read off their arguments or result.
* Calls at the coarse layer boundaries (targets with a span name) are also
  kept as spans: id, name, op id, parent span id, start, end.  Every op is
  a span too, the parent of the outermost spans inside it.  High-frequency
  kernels are only aggregated.
* A target that no longer exists is reported as absent, not an error; so is
  a size count whose hook no longer fits the objects it reads.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


def _terms(p) -> int:
    return len(p.terms)


def _exact_div(stat, args, kwargs, result, elapsed):
    stat["dividend_terms"] += _terms(args[0])
    if result is None:
        stat["failed"] += 1
        stat["failed_s"] += elapsed


def _mul(stat, args, kwargs, result, elapsed):
    other = args[1]
    stat["term_pairs"] += _terms(args[0]) * (
        _terms(other) if hasattr(other, "terms") else 1)


def _ratfunc_sum(stat, args, kwargs, result, elapsed):
    parts = args[0] if args else kwargs["parts"]
    union: Counter = Counter()
    for p in parts:
        union |= Counter(tuple(sorted(f.terms.items())) for f in p.den)
    stat["parts"] += len(parts)
    stat["union_factors"] += sum(union.values())
    stat["out_factors"] += len(result.den)


def _from_braid(stat, args, kwargs, result, elapsed):
    stat["terms_out"] += len(result.terms)


def _trace_ocneanu(stat, args, kwargs, result, elapsed):
    stat["terms_in"] += len(args[0].terms)


def _syt_term(stat, args, kwargs, result, elapsed):
    stat["atoms_kept"] += len(result.num_atoms) + len(result.den_atoms)


def _evaluate(stat, args, kwargs, result, elapsed):
    stat["chains_out"] += len(result)


def _residue_step(stat, args, kwargs, result, elapsed):
    stat["terms_out"] += len(result)


# (module, class or None, attributes, metric, span name, extra stats, hook).
# Aliased dunders (__rmul__ = __mul__, __radd__ = __add__) are separate
# class attributes and are wrapped one by one.
TARGETS = [
    ("knotmf.ring", "LaurentPoly", ("exact_div",), "ring.exact_div", None,
     ("failed", "dividend_terms", "failed_s"), _exact_div),
    ("knotmf.ring", "LaurentPoly", ("__mul__", "__rmul__"), "ring.mul", None,
     ("term_pairs",), _mul),
    ("knotmf.ring", "LaurentPoly", ("__add__", "__radd__"), "ring.add", None,
     (), None),
    ("knotmf.ring", "LaurentPoly", ("substitute",), "ring.substitute", None,
     (), None),
    ("knotmf.ring", "QuotientReducer", ("normal_form",), "ring.normal_form",
     None, (), None),
    ("knotmf.scalars", "Scalar", ("__add__", "__radd__"), "scalars.scalar_add",
     None, (), None),
    ("knotmf.scalars", "Scalar", ("reduce",), "scalars.reduce", None, (), None),
    ("knotmf.scalars", "RatFunc", ("sum",), "scalars.ratfunc_sum",
     "RatFunc.sum", ("parts", "union_factors", "out_factors"), _ratfunc_sum),
    ("knotmf.scalars", "RatFunc", ("series_qt",), "scalars.series_qt", None,
     (), None),
    ("knotmf.scalars", "RationalFunc1", ("series",), "scalars.series1", None,
     (), None),
    ("knotmf.braid", "Permutation", ("length",), "braid.perm_length", None,
     (), None),
    ("knotmf.hecke", "HeckeElement", ("mul_gen",), "hecke.mul_gen", None,
     (), None),
    ("knotmf.hecke", None, ("from_braid",), "hecke.from_braid", "from_braid",
     ("terms_out",), _from_braid),
    ("knotmf.hecke", None, ("trace_ocneanu",), "hecke.trace_ocneanu",
     "trace_ocneanu", ("terms_in",), _trace_ocneanu),
    ("knotmf.hecke", None, ("homflypt",), "hecke.homflypt", "homflypt",
     (), None),
    ("knotmf.localization", None, ("syt_term",), "localization.syt_term",
     "syt_term", ("atoms_kept",), _syt_term),
    ("knotmf.localization", "ResidueContext", ("evaluate",),
     "localization.evaluate", "ResidueContext.evaluate", ("chains_out",),
     _evaluate),
    ("knotmf.localization", "ResidueContext", ("residue_step",),
     "localization.residue_step", None, ("terms_out",), _residue_step),
    ("knotmf.localization", None, ("term_to_ratfunc",),
     "localization.term_to_ratfunc", None, (), None),
    ("knotmf.localization", None, ("superpoly_jm",),
     "localization.superpoly_jm", "superpoly_jm", (), None),
    ("knotmf.localization", None, ("homfly_crosscheck",),
     "localization.crosscheck", "homfly_crosscheck", (), None),
    ("knotmf.mf", None, ("convolution_n2",), "mf.convolution_n2",
     "convolution_n2", (), None),
    ("knotmf.mf", "KoszulMF", ("row_transform", "eliminate_row", "row_rescale",
                               "row_swap_parity", "substitute"),
     "mf.row_ops", None, (), None),
    ("knotmf.mf", "KoszulMF", ("validate",), "mf.validate", None, (), None),
    ("knotmf.mf", "KoszulMF", ("state_hash",), "mf.state_hash", None, (), None),
    ("knotmf.mf", None, ("extract_middle",), "mf.extract_middle", None,
     (), None),
    ("knotmf.mf", None, ("kclass",), "mf.kclass", "kclass", (), None),
    ("knotmf.mf", None, ("verify_suite",), "mf.verify_suite", "verify_suite",
     (), None),
]

# Layer metrics reported by the traced run, in output order, with units.
# mf.verify_suite is recorded as spans only.
_RATIO = {"useful_ratio"}
_SECONDS = {"self_s", "failed_s"}
METRICS: list[tuple[str, str]] = []
for _mod, _cls, _attrs, _metric, _span, _extra, _hook in TARGETS:
    if _metric == "mf.verify_suite":
        continue
    _stats = ["calls", *_extra, "self_s"]
    if _metric == "ring.exact_div":
        _stats.insert(2, "useful_ratio")
    for _s in _stats:
        METRICS.append((f"{_metric}.{_s}",
                        "1" if _s in _RATIO else "s" if _s in _SECONDS
                        else "count"))


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.absent: set[str] = set()      # metric names
        self.broken: set[str] = set()      # metric names whose hook failed
        self.spans: list[list] = []
        self.op_id = None
        # Frames: [time spent in wrapped children, id of enclosing span].
        self._stack: list[list] = [[0.0, None]]
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod_name, cls_name, attrs, metric, span, extra, hook in TARGETS:
            stat = self.stats.setdefault(
                metric, {"calls": 0, "self_s": 0.0,
                         **{k: 0.0 if k.endswith("_s") else 0 for k in extra}})
            try:
                owner = importlib.import_module(mod_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name)
            except (ImportError, AttributeError):
                owner = None
            raws = [(a, vars(owner)[a]) for a in attrs
                    if owner is not None and a in vars(owner)]
            if not raws:
                self.absent.add(metric)
                continue
            for attr, raw in raws:
                wrapped = self._wrap(raw, metric, stat, span, hook)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, raw, metric, stat, span_name, hook):
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(raw.__func__, metric, stat,
                                           span_name, hook))
        fn = raw
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            record = None
            if span_name is not None:
                record = [len(spans), span_name, tracer.op_id, parent[1], 0.0, 0.0]
                spans.append(record)
                frame[1] = record[0]
            stack.append(frame)
            result = ok = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = perf() - t0
                stack.pop()
                stat["calls"] += 1
                stat["self_s"] += elapsed - frame[0]
                if record is not None:
                    record[4], record[5] = t0, t0 + elapsed
                if ok and hook is not None and metric not in tracer.broken:
                    try:
                        hook(stat, args, kwargs, result, elapsed)
                    except (AttributeError, TypeError, KeyError, IndexError):
                        tracer.broken.add(metric)
                # Wrapper and hook cost count as the child's time, so they
                # do not inflate the caller's self time.
                parent[0] += perf() - t0

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- ops and output ------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> None:
        """Open the span of one op; spans inside it name it as parent."""
        self.op_id = op_id
        record = [len(self.spans), f"op:{kind}", op_id, None,
                  time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append([0.0, record[0]])

    def end_op(self) -> None:
        frame = self._stack.pop()
        self.spans[frame[1]][5] = time.perf_counter()
        self.op_id = None

    def metrics(self) -> dict:
        """{name: (value, unit)} for every per-layer metric."""
        out = {}
        for name, unit in METRICS:
            metric, stat_name = name.rsplit(".", 1)
            stat = self.stats.get(metric, {})
            if stat_name == "useful_ratio":
                calls = stat.get("calls", 0)
                value = (calls - stat.get("failed", 0)) / calls if calls else 0.0
            else:
                value = stat.get(stat_name, 0)
            out[name] = (value, unit)
        return out

    def missing(self) -> list[str]:
        """Metrics reported as absent: target gone, or size hook broken."""
        out = []
        for name, _ in METRICS:
            metric, stat_name = name.rsplit(".", 1)
            if metric in self.absent or (
                    metric in self.broken
                    and stat_name not in ("calls", "self_s")):
                out.append(name)
        return out
