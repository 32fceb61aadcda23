"""Spans and counters around isoflag's public functions, from outside.

``Tracer.install`` replaces every binding of each traced function with a
wrapper that records a span (name, start, end, parent span, operation).
A module that did ``from .linalg import meet_join`` holds its own binding, so
all ``isoflag.*`` module namespaces are searched for the original object and
each binding is patched; methods are patched on their class.  ``uninstall``
puts every original back.

Scalar arithmetic is counted, not spanned: a span per Gaussian-rational
operation would cost more than the operation.  A counting wrapper costs
about 0.1 us against roughly 10 us per operation; on narrow instances the
counters changed decision time by less than the run-to-run noise.  So they
share the span pass without distorting other layers' self times.

Spans are kept in flat arrays in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

# (module, qualified name) of every spanned function.
SPAN_TARGETS = (
    ("cli", "main"),
    ("io", "parse_instance_text"),
    ("io", "verdict_to_json"),
    ("io", "serialize_instance"),
    ("randgen", "random_instance"),
    ("higgs", "decide_stability"),
    ("higgs", "line_oracle"),
    ("higgs", "max_pardeg_isotropic_in"),
    ("higgs", "verify_certificate"),
    ("hmgit", "consistency_check"),
    ("hmgit", "bounded_destabilizer_search"),
    ("hmgit", "destabilizing_oneps"),
    ("hmgit", "hm_total"),
    ("flags", "IsotropicFlag.profile"),
    ("flags", "IsotropicFlag.intersect_piece"),
    ("flags", "pardeg_subspace"),
    ("flags", "validate_flag"),
    ("weights", "require_valid"),
    ("linalg", "rref"),
    ("linalg", "meet_join"),
    ("linalg", "isotropy_classify"),
    ("linalg", "orthocomplement"),
    ("linalg", "Subspace.from_vectors"),
    ("linalg", "Subspace.contains"),
    ("linalg", "kernel_basis"),
    ("linalg", "invert_matrix"),
)

# Scalar dunder -> counter name.
SCALAR_TARGETS = (
    ("__add__", "scalars.addsub"),
    ("__sub__", "scalars.addsub"),
    ("__mul__", "scalars.mul"),
    ("__truediv__", "scalars.div"),
)
SCALAR_COUNTERS = ("scalars.addsub", "scalars.mul", "scalars.div")

# Spans outside a timed call carry one of these operation ids.
SETUP_OP = -1
OTHER_OP = -2

# Return values kept for the verdict-level ratios.
KEEP_RESULTS = ("higgs.decide_stability",)


def span_names() -> list[str]:
    return [f"{mod}.{qual}" for mod, qual in SPAN_TARGETS]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.kept: list[tuple[int, object]] = []   # (op, result)
        self.scalar_counts = [0] * len(SCALAR_COUNTERS)
        self.op_scalar_counts = [0] * len(SCALAR_COUNTERS)   # inside operations only
        self.op = OTHER_OP
        self._snapshot = list(self.scalar_counts)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        keep = name in KEEP_RESULTS
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack, kept = self.span_start, self.span_end, self._stack, self.kept

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if keep:
                kept.append((self.op, result))
            return result

        return wrapper

    def _count(self, slot: int, fn):
        counts = self.scalar_counts

        @functools.wraps(fn)
        def wrapper(a, b):
            counts[slot] += 1
            return fn(a, b)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "isoflag" or n.startswith("isoflag."))]
        for mod_name, qual in SPAN_TARGETS:
            name = f"{mod_name}.{qual}"
            module = sys.modules[f"isoflag.{mod_name}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, meth, self._wrap(name, raw))
                continue
            original = getattr(module, qual)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        scalar = sys.modules["isoflag.scalars"].Scalar
        for dunder, counter in SCALAR_TARGETS:
            self._set(scalar, dunder,
                      self._count(SCALAR_COUNTERS.index(counter), scalar.__dict__[dunder]))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._snapshot = list(self.scalar_counts)

    def end_op(self) -> None:
        for k, (now, before) in enumerate(zip(self.scalar_counts, self._snapshot)):
            self.op_scalar_counts[k] += now - before
        self.op = OTHER_OP

    # -- results ------------------------------------------------------------

    def fired(self) -> set[str]:
        seen = set(self.span_name)
        out = {self.names[i] for i in seen}
        out.update(c for c, n in zip(SCALAR_COUNTERS, self.scalar_counts) if n)
        return out

    def aggregate(self, op_filter) -> dict[str, dict[str, float]]:
        """Per span name: calls, total span time and self time (span time
        minus the time its direct child spans cover), over the spans whose
        operation id passes ``op_filter``."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "span_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            if not op_filter(self.span_op[i]):
                continue
            dur = self.span_end[i] - self.span_start[i]
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["span_s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        """All spans as tab-separated text: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n")
