"""Span recording around calls into the library's public functions.

The benchmark never edits the library.  Instead :meth:`Tracer.install`
replaces each public function it names, wherever a ``seqcong`` module has
bound it, with a wrapper that records one span per call: its name, start,
end, parent span and request id.  Spans live in flat arrays while the run
goes on and are written out once, when it ends.  A layer's self time is a
span's duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# Span name -> (module, attribute) pairs it covers.  ``Partition.__init__`` is
# a method, so construction is traced on the class itself.
TRACED = {
    "partition.construct": [("partition", "Partition.__init__")],
    "partition.conjugate": [("partition", "conjugate")],
    "bijections.pi_map": [("bijections", "pi_map")],
    "bijections.sigma_map": [("bijections", "sigma_map")],
    "bijections.pi_sigma": [("bijections", "pi_sigma_closed_form")],
    "bijections.psi_map": [("bijections", "psi_map")],
    "bijections.psi_inverse": [("bijections", "psi_inverse")],
    "bijections.c_codec": [("bijections", "to_c_notation"), ("bijections", "from_c_notation")],
    "generalized.n_codec": [("generalized", "n_encode"), ("generalized", "n_decode")],
    "generalized.gmap": [("generalized", f) for f in ("sigma_AB", "pi_AB", "pi_prime_AB", "sigma_prime_AB")],
    "generalized.gcheck": [("generalized", "is_in_SBA")],
    "counting.count_members": [("counting", "count_members")],
    "counting.enumerate": [("counting", f) for f in (
        "enumerate_partitions", "enumerate_seqcong_by_size", "enumerate_seqcong_by_largest")],
    "counting.series": [("counting", "count_into_powers"), ("ideals", "count_parity_ideal")],
    "ideals.closure": [("ideals", "check_ideal_closure")],
    "ideals.order": [("ideals", "order_estimate"), ("ideals", "weak_order_estimate")],
    "ideals.modulus": [("ideals", "check_modulus")],
    "ideals.lset": [("ideals", "compute_L")],
    "ideals.members_within": [("ideals", "members_within")],
    "ideals.link": [("ideals", "infer_linking")],
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self.active = False
        self._stack = [-1]
        self._replaced: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int, t0: float) -> int:
        idx = len(self.start)
        self.start.append(t0)
        self.end.append(t0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run one call inside a span, whether or not the tracer is active."""
        idx = self.open(self.name_id(name), time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid, time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, key, value) -> None:
        self._replaced.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every traced function wherever a loaded seqcong module binds it."""
        modules = [m for k, m in sys.modules.items() if k == "seqcong" or k.startswith("seqcong.")]
        for name, targets in TRACED.items():
            for module, attr in targets:
                owner = sys.modules[f"seqcong.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._replace(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapper)
        self.active = True

    def uninstall(self) -> None:
        """Put back every function :meth:`install` replaced."""
        while self._replaced:
            owner, key, original = self._replaced.pop()
            setattr(owner, key, original)
        self.active = False

    def __len__(self) -> int:
        return len(self.start)

    def extend(self, rows, request_id: int) -> None:
        """Append spans read back from another process, re-based onto this store."""
        offset = len(self.start)
        for name, start, end, parent in rows:
            self.start.append(start)
            self.end.append(end)
            self.name.append(self.name_id(name))
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.request.append(request_id)

    def self_times(self):
        """Per span name: (calls, total inclusive seconds, total self seconds)."""
        covered = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(len(self.start)):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered[i]
        return out

    def write(self, path) -> None:
        """Tab-separated spans: id, request, parent, name, start and end in ns."""
        with open(path, "w") as fh:
            fh.write("span\trequest\tparent\tname\tstart_ns\tend_ns\n")
            names, start, end = self.names, self.start, self.end
            for i in range(len(start)):
                fh.write(f"{i}\t{self.request[i]}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                         f"{int(start[i] * 1e9)}\t{int(end[i] * 1e9)}\n")


def read_rows(path):
    """Spans written by :meth:`Tracer.write`, as (name, start, end, parent)."""
    with open(path) as fh:
        next(fh)
        for line in fh:
            _, _, parent, name, s, e = line.rstrip("\n").split("\t")
            yield name, int(s) / 1e9, int(e) / 1e9, int(parent)
