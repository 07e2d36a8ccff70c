"""Outside-in tracing of the poisson_forge layers, for the benchmark's traced run.

The tracer wraps every public function and public method defined in the
layer modules and patches each wrapper into every `poisson_forge` module
namespace that holds the original, so `division.wedge` and
`homology.de_rham` are traced as well as `exterior.wedge`.  Nothing under
`src/` changes.  Spans (function, start, end, parent, command) stay in
memory and are written out as JSON lines after the run.

Not wrapped: `polynomials` and `rationals` make millions of scalar calls
and would swamp the trace, so their cost shows as their callers' self
time; `normalform`, `series` and `parsing` cost under 10 ms in every
workload; `cli` and `catalog` are glue.  Their time is `unwrapped.self_s`.
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("homology", "linalg", "poisson", "exterior", "division", "reports")

DM = "homology.HomologyEngine.delta_matrix"
DR = "homology.HomologyEngine.delta_rank"
BE = "homology.HomologyEngine.boundary_echelon"
INSERT = "linalg.QEchelon.insert"
DGD = "division.division_group_dim"

# metric -> (function, nested functions whose time it leaves out).  The time
# is that of the outermost calls of the function; bench/METRICS.md says which
# end-to-end metric each one should move, on which workload.
TIMED = {
    "linalg.insert_s": (INSERT, ()),
    "linalg.solve_s": ("linalg.QEchelon.solve", ()),
    "linalg.contains_s": ("linalg.QEchelon.contains", ()),
    "linalg.rank_s": ("linalg.ExactMatrix.rank", ()),
    "homology.delta_matrix_s": (DM, ()),
    "homology.delta_rank_s": (DR, (DM,)),
    "homology.boundary_echelon_s": (BE, (DM,)),
    "homology.verify_representatives_s": (
        "homology.HomologyEngine.verify_representatives", (DM, DR, BE)),
    "poisson.delta_pi_s": ("poisson.delta_pi", ()),
    "poisson.schouten_s": ("poisson.schouten", ()),
    "exterior.wedge_s": ("exterior.wedge", ()),
    "exterior.coords_s": ("exterior.WeightSliceBasis.coords", ()),
    "exterior.enumerate_basis_s": ("exterior.enumerate_basis", ()),
    "division.division_group_dim_s": (DGD, ()),
    "division.verify_division_basis_s": ("division.verify_division_basis", (DGD,)),
    "division.ideal_slice_dim_s": ("division.ideal_slice_dim", ()),
    "reports.emit_s": ("reports.emit_report", ()),
}

COUNTED = {
    "linalg.insert_calls": INSERT,
    "poisson.delta_pi_calls": "poisson.delta_pi",
    "poisson.schouten_calls": "poisson.schouten",
    "exterior.wedge_calls": "exterior.wedge",
    "division.division_group_dim_calls": DGD,
}

# every per-layer metric the traced run reports, with its unit
UNITS = {}
for _layer in LAYERS + ("unwrapped",):
    UNITS[_layer + ".self_s"] = "s"
for _layer in LAYERS:
    UNITS[_layer + ".calls"] = "count"
UNITS.update({name: "s" for name in TIMED})
UNITS.update({name: "count" for name in COUNTED})
UNITS.update({
    "linalg.insert_useful_ratio": "ratio",
    "linalg.inserts_per_delta_column": "ratio",
    "linalg.max_coeff_bits": "bits",
    "linalg.echelon_nnz": "count",
    "linalg.fill_ratio": "ratio",
    "linalg.max_rows": "count",
    "linalg.max_cols": "count",
    "homology.induced_de_rham_self_s": "s",
    "homology.normalize_first_s": "s",
    "homology.normalize_rest_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
})

ROOT, COMMAND = "workload", "command"
_KEYED = (DM, DR, BE)


class Tracer:
    """Span recorder; `install()` patches the layers, `uninstall()` restores them."""

    def __init__(self):
        self.names = [ROOT, COMMAND]
        self.spans = []      # [function id, start, end, parent span, command, key]
        self.stack = []
        self.command = -1
        self.useful_inserts = 0
        self.matrices = {}   # (k, w) -> ExactMatrix returned by delta_matrix
        self.echelons = {}   # (k, w) -> QEchelon returned by boundary_echelon
        self._patches = []

    # -- spans -----------------------------------------------------------

    def begin(self, fid):
        """Open a span of function id `fid`; `end()` closes the innermost one."""
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([fid, time.perf_counter(), 0.0, parent,
                           self.command, None])

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def start_workload(self):
        self.begin(0)

    def start_command(self):
        self.command += 1
        self.begin(1)

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keyed = name in _KEYED
        record = {INSERT: self._count_useful, DM: self.matrices.__setitem__,
                  BE: self.echelons.__setitem__}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [fid, clock(), 0.0, stack[-1] if stack else -1,
                   self.command, tuple(args[1:3]) if keyed else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if record is not None:
                record(rec[5], result)
            return result

        return traced

    def _count_useful(self, _key, inserted):
        self.useful_inserts += bool(inserted)

    # -- patching --------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "poisson_forge"
                                         or n.startswith("poisson_forge."))]
        for layer in LAYERS:
            mod = importlib.import_module("poisson_forge." + layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap("%s.%s" % (layer, attr), obj)
                    for m in modules:
                        for a, v in list(vars(m).items()):
                            if v is obj:
                                self._patch(m, a, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)

    def _wrap_methods(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        spans = self.spans
        out = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def _fids(self, name):
        return {i for i, n in enumerate(self.names) if n == name}

    def _owner(self, index, target, stops):
        """Nearest ancestor span of function `target`, unless a `stops` span is nearer."""
        spans = self.spans
        p = spans[index][3]
        while p >= 0:
            fid = spans[p][0]
            if fid in target:
                return p
            if fid in stops:
                return -1
            p = spans[p][3]
        return -1

    def timed(self, name, exclude=(), command=None):
        """Time in outermost calls of `name`, less nested calls listed in `exclude`."""
        target = self._fids(name)
        excluded = set().union(*(self._fids(e) for e in exclude))
        total = 0.0
        for i, s in enumerate(self.spans):
            if command is not None and s[4] != command:
                continue
            if s[0] in target and self._owner(i, target, ()) < 0:
                total += s[2] - s[1]
            elif s[0] in excluded and self._owner(i, target, excluded) >= 0:
                total -= s[2] - s[1]
        return total

    def calls(self, name):
        target = self._fids(name)
        return sum(1 for s in self.spans if s[0] in target)

    def slice_table(self):
        """One row per assembled delta slice: shape, fill-in, coefficient size, times."""
        dm = self._fids(DM)
        nested = {}          # span -> time of the delta_matrix calls it made
        for s in self.spans:
            if s[0] in dm and s[3] >= 0:
                nested[s[3]] = nested.get(s[3], 0.0) + s[2] - s[1]
        assembly, elimination = {}, {}
        for i, s in enumerate(self.spans):
            if s[5] is None:
                continue
            name, (k, w), dt = self.names[s[0]], s[5], s[2] - s[1]
            if name == DM:
                assembly[(k, w)] = assembly.get((k, w), 0.0) + dt
            else:
                # delta_rank(k, w) and boundary_echelon(k - 1, w) eliminate delta_k
                key = (k, w) if name == DR else (k + 1, w)
                elimination[key] = elimination.get(key, 0.0) + dt - nested.get(i, 0.0)
        rows = []
        for (k, w), mat in sorted(self.matrices.items()):
            ech = self.echelons.get((k - 1, w))
            bits = max((_bits(v) for v in mat.entries.values()), default=0)
            ech_nnz = None
            if ech is not None:
                ech_nnz = sum(len(main) for main, _ in ech.rows.values())
                bits = max([bits] + [_bits(v) for main, _ in ech.rows.values()
                                     for v in main.values()])
            nnz = len(mat.entries)
            rows.append({"k": k, "w": w, "rows": mat.rows, "cols": mat.cols,
                         "nnz": nnz, "echelon_nnz": ech_nnz,
                         "fill": ech_nnz / nnz if ech_nnz is not None and nnz else None,
                         "max_bits": bits,
                         "assembly_s": assembly.get((k, w), 0.0),
                         "elimination_s": elimination.get((k, w), 0.0)})
        return rows

    def metrics(self):
        """Every per-layer metric in UNITS except trace.overhead_s."""
        selfs = self.self_times()
        out = {}
        for layer in LAYERS + ("unwrapped",):
            out[layer + ".self_s"] = 0.0
        for layer in LAYERS:
            out[layer + ".calls"] = 0
        for s, st in zip(self.spans, selfs):
            name = self.names[s[0]]
            layer = name.split(".")[0] if "." in name else "unwrapped"
            out[layer + ".self_s"] += st
            if layer != "unwrapped":
                out[layer + ".calls"] += 1
        for metric, (name, exclude) in TIMED.items():
            out[metric] = self.timed(name, exclude)
        for metric, name in COUNTED.items():
            out[metric] = self.calls(name)
        inserts = out["linalg.insert_calls"]
        out["linalg.insert_useful_ratio"] = (self.useful_inserts / inserts
                                             if inserts else 0.0)
        columns = sum(m.cols for m in self.matrices.values())
        out["linalg.inserts_per_delta_column"] = inserts / columns if columns else 0.0
        table = self.slice_table()
        with_echelon = [r for r in table if r["echelon_nnz"] is not None]
        out["linalg.max_coeff_bits"] = max((r["max_bits"] for r in table), default=0)
        out["linalg.echelon_nnz"] = sum(r["echelon_nnz"] for r in with_echelon)
        nnz = sum(r["nnz"] for r in with_echelon)
        out["linalg.fill_ratio"] = out["linalg.echelon_nnz"] / nnz if nnz else 0.0
        out["linalg.max_rows"] = max((r["rows"] for r in table), default=0)
        out["linalg.max_cols"] = max((r["cols"] for r in table), default=0)
        derham = self._fids("homology.HomologyEngine.induced_de_rham")
        out["homology.induced_de_rham_self_s"] = sum(
            st for s, st in zip(self.spans, selfs) if s[0] in derham)
        normalize = "homology.HomologyEngine.normalize_volume_deformation"
        fids = self._fids(normalize)
        per_command = [self.timed(normalize, command=c)
                       for c in sorted({s[4] for s in self.spans if s[0] in fids})]
        out["homology.normalize_first_s"] = per_command[0] if per_command else 0.0
        out["homology.normalize_rest_s"] = (statistics.median(per_command[1:])
                                            if len(per_command) > 1 else 0.0)
        roots = [s for s in self.spans if s[0] == 0]
        out["trace.wall_s"] = sum(s[2] - s[1] for s in roots)
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path, workload, commands):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": self.names[s[0]], "start": s[1], "end": s[2],
                    "parent": s[3], "workload": workload,
                    "command": commands[s[4]] if s[4] >= 0 else None}) + "\n")


def _bits(q):
    return max(abs(int(q.numerator)).bit_length(), int(q.denominator).bit_length())
