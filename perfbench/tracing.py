"""Span tracer that wraps the package's public functions from outside.

While installed, every module-level binding of a public plasmon_cqed function
(the defining module's own name, each `from .x import f` copy in another
module, and function values held in module-level dicts such as
`tasks.TASK_RUNNERS`) points at a wrapper that records one span:
(name, start, end, parent span, operation id, work).  `work` is a per-call
count read from the arguments or result (ladder orders, grid points, LM
iterations, bytes written).  `scipy.integrate.solve_ivp` is wrapped too, only
to count right-hand-side evaluations.  `uninstall` puts every original object
back.

Spans live in compact arrays so a figure-suite trace (about 10^6 spans) stays
small, and are written out with `save` at the end of the run.

Per-layer metrics (`layer_metrics`) cover the timed operations only.  A
layer's self time is the time in its spans minus their child spans; counts:
  specfun.orders          sum of n_max + 1 over the three ladder functions
  mie.green_unique_frac   distinct (omega, geometry, material, n_max) over calls
  fitting.residual_evals  residual calls made by levenberg_marquardt; their
                          time counts to the layer that defined the residual
  lindblad.liouville_dim  sum of the Liouville-space dimension over builds
  lindblad.rhs_evals      solve_ivp nfev of calls made inside lindblad
  lindblad.states         density matrices returned by evolve_master
  lindblad.build_s        self time of lindblad's build_* functions
  output.files, .bytes    CSV/JSON files written and their size
  trace.overhead_frac     traced over untraced wall time of a pass, minus 1
  trace.unattributed_s    operation time outside any root span
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "plasmon_cqed"
# Layer name -> modules whose public functions belong to it.
LAYERS = {
    "specfun": ("specfun",),
    "medium": ("medium",),
    "mie": ("mie",),
    "coupling": ("coupling",),
    "fitting": ("fitting",),
    "heff": ("heff",),
    "weak": ("weak",),
    "lindblad": ("lindblad",),
    "scenario": ("scenario",),
    "output": ("output",),
    "tasks": ("tasks", "cli"),
}
# Not in the timed path of any workload: their own functions stay unwrapped,
# but the layer functions they import are swapped like everyone else's.
SKIPPED_MODULES = ("verify", "errors", "constants")

RESIDUAL = "<fit residual>"  # span name of a least-squares residual call
LADDERS = ("spherical_jn_ladder", "spherical_yn_ladder", "riccati_ladders")
GRID_FUNCTIONS = {  # qualified name -> positional index of the grid argument
    "coupling.kappa_spectrum": 1,
    "coupling.rate_spectrum_lsp": 1,
    "heff.polarization_spectrum": 1,
    "heff.radiated_spectrum": 1,
}
PER_LAYER_METRICS = (
    ("specfun.calls", "count"), ("specfun.orders", "count"),
    ("specfun.self_s", "s"),
    ("medium.calls", "count"), ("medium.self_s", "s"),
    ("mie.green_calls", "count"), ("mie.green_unique_frac", "fraction"),
    ("mie.self_s", "s"),
    ("coupling.spectrum_points", "count"), ("coupling.self_s", "s"),
    ("fitting.lm_calls", "count"), ("fitting.lm_iterations", "count"),
    ("fitting.residual_evals", "count"), ("fitting.self_s", "s"),
    ("heff.eig_calls", "count"), ("heff.spectrum_points", "count"),
    ("heff.self_s", "s"),
    ("weak.calls", "count"), ("weak.self_s", "s"),
    ("lindblad.liouville_dim", "count"), ("lindblad.rhs_evals", "count"),
    ("lindblad.states", "count"), ("lindblad.build_s", "s"),
    ("lindblad.evolve_s", "s"), ("lindblad.self_s", "s"),
    ("scenario.self_s", "s"),
    ("output.files", "count"), ("output.bytes", "bytes"), ("output.self_s", "s"),
    ("tasks.self_s", "s"),
    ("trace.overhead_frac", "fraction"), ("trace.unattributed_s", "s"),
)
SETUP_OP = -1


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _material_key(material):
    table = material.table
    return (material.kind, material.eps_inf, material.omega_p, material.gamma_p,
            None if table is None else hash(table.tobytes()))


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.current_op = SETUP_OP
        self.rhs_evals: dict[tuple[int, str], int] = {}
        self.green_keys: dict[bool, set] = {True: set(), False: set()}
        self._stack: list[int] = []
        self._patched: list[tuple[object, object, object]] = []
        self._default_n_max = None

    # -- recording -----------------------------------------------------------
    def _name_id(self, qualname: str) -> int:
        if qualname not in self._name_ids:
            self._name_ids[qualname] = len(self.names)
            self.names.append(qualname)
        return self._name_ids[qualname]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.op.append(self.current_op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, work: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if work:
            self.work[idx] = work

    def _span_wrapper(self, qualname: str, fn, work_of=None, wrap_args=None):
        name_id = self._name_id(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                raise
            tracer._close(idx, work_of(args, kwargs, result) if work_of else 0)
            return result

        return traced

    # -- per-function work counts -------------------------------------------
    def _work_hooks(self, layer: str, name: str):
        """(work_of, wrap_args) for one public function, or (None, None)."""
        qual = f"{layer}.{name}"
        if layer == "specfun" and name in LADDERS:
            return (lambda a, k, r: int(_arg(a, k, 0, "n_max")) + 1), None
        if qual in GRID_FUNCTIONS:
            pos = GRID_FUNCTIONS[qual]
            return (lambda a, k, r: int(np.size(_arg(a, k, pos, "grid")))), None
        if qual == "mie.green_rr_scattered":
            return None, self._green_key_recorder()
        if qual == "fitting.levenberg_marquardt":
            return ((lambda a, k, r: int(r.n_iter)),
                    self._residual_wrapper())
        if qual == "lindblad.build_liouvillian":
            return (lambda a, k, r: int(r.shape[0])), None
        if qual == "lindblad.evolve_master":
            return (lambda a, k, r: len(r)), None
        if qual in ("output.write_csv", "output.write_json"):
            return (lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))), None
        return None, None

    def _green_key_recorder(self):
        def record(args, kwargs):
            geometry = _arg(args, kwargs, 1, "geometry")
            key = (float(_arg(args, kwargs, 0, "omega")),
                   geometry.radius, geometry.r_d, geometry.eps_b,
                   _material_key(_arg(args, kwargs, 2, "material")),
                   int(_arg(args, kwargs, 3, "n_max", self._default_n_max)))
            self.green_keys[self.current_op >= 0].add(key)
            return args, kwargs
        return record

    def _residual_wrapper(self):
        """Swap the LM residual callable for one that records a span per
        evaluation, attributed to the module that defined the residual."""
        def wrap(args, kwargs):
            residual = _arg(args, kwargs, 0, "residual")
            layer = residual.__module__.rsplit(".", 1)[-1]
            counted = self._span_wrapper(f"{layer}.{RESIDUAL}", residual)
            if args:
                return (counted,) + tuple(args[1:]), kwargs
            return args, dict(kwargs, residual=counted)
        return wrap

    def _solve_ivp_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def solve_ivp(*args, **kwargs):
            sol = fn(*args, **kwargs)
            owner = tracer.names[tracer.name[tracer._stack[-1]]] \
                if tracer._stack else "<none>"
            key = (tracer.current_op, owner.split(".", 1)[0])
            tracer.rhs_evals[key] = tracer.rhs_evals.get(key, 0) + int(sol.nfev)
            return sol

        return solve_ivp

    # -- installing and restoring bindings ----------------------------------
    def install(self) -> None:
        """Wrap every binding of every public function of each layer."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        names = [m for mods in LAYERS.values() for m in mods] + list(SKIPPED_MODULES)
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in names}
        self._default_n_max = modules["mie"].DEFAULT_N_MAX
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mods in LAYERS.items():
            for m in mods:
                module = modules[m]
                for name, obj in vars(module).items():
                    if (name.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != module.__name__):
                        continue
                    work_of, wrap_args = self._work_hooks(layer, name)
                    wrappers[id(obj)] = (obj, self._span_wrapper(
                        f"{layer}.{name}", obj, work_of, wrap_args))
        for module in [sys.modules[PACKAGE]] + list(modules.values()):
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, name, obj, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._patch(obj, key, value, wrappers[id(value)][1])
        integrate = importlib.import_module("scipy.integrate")
        self._patch(integrate, "solve_ivp", integrate.solve_ivp,
                    self._solve_ivp_wrapper(integrate.solve_ivp))

    def _patch(self, holder, key, original, replacement) -> None:
        if isinstance(holder, dict):
            holder[key] = replacement
        else:
            setattr(holder, key, replacement)
        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        """Restore every binding `install` replaced, newest first."""
        while self._patched:
            holder, key, original = self._patched.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.array(self.name, dtype=np.uint16),
            "op": np.array(self.op, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "work": np.array(self.work, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(path, **self.arrays())


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    return dur - child


def layer_metrics(tracer: Tracer, op_walls, untraced_wall: float,
                  traced_wall: float) -> dict:
    """Per-layer work counts and self times over the timed operations
    (op id >= 0; the traced set-up is excluded)."""
    spans = tracer.arrays()
    names = spans["names"]
    timed = spans["op"] >= 0
    own = self_times(spans)
    qual = names[spans["name"]] if len(names) else np.array([], dtype=str)
    layer_of = np.array([q.split(".", 1)[0] for q in qual], dtype=str)
    func_of = np.array([q.split(".", 1)[1] for q in qual], dtype=str)

    def select(layer=None, funcs=None, prefix=None):
        mask = timed.copy()
        if layer is not None:
            mask &= layer_of == layer
        if funcs is not None:
            mask &= np.isin(qual, funcs)
        if prefix is not None:
            mask &= np.char.startswith(func_of, prefix)
        return mask

    def count(mask):
        return int(np.count_nonzero(mask))

    def self_s(mask):
        return float(np.sum(own[mask]))

    def work(mask):
        return int(np.sum(spans["work"][mask]))

    green_calls = count(select(funcs=["mie.green_rr_scattered"]))
    unique = len(tracer.green_keys[True])
    root = timed & (spans["parent"] < 0)
    root_time = float(np.sum((spans["end"] - spans["start"])[root]))
    m = {
        "specfun.calls": count(select("specfun")),
        "specfun.orders": work(select(funcs=[f"specfun.{f}" for f in LADDERS])),
        "medium.calls": count(select("medium")),
        "mie.green_calls": green_calls,
        "mie.green_unique_frac": unique / green_calls if green_calls else 0.0,
        "coupling.spectrum_points": work(select(
            funcs=["coupling.kappa_spectrum", "coupling.rate_spectrum_lsp"])),
        "fitting.lm_calls": count(select(funcs=["fitting.levenberg_marquardt"])),
        "fitting.lm_iterations": work(select(funcs=["fitting.levenberg_marquardt"])),
        "fitting.residual_evals": count(timed & (func_of == RESIDUAL)),
        "heff.eig_calls": count(select(funcs=["heff.eigendecompose"])),
        "heff.spectrum_points": work(select(
            funcs=["heff.polarization_spectrum", "heff.radiated_spectrum"])),
        "weak.calls": count(select("weak")),
        "lindblad.liouville_dim": work(select(funcs=["lindblad.build_liouvillian"])),
        "lindblad.rhs_evals": sum(v for (op, owner), v in tracer.rhs_evals.items()
                                  if op >= 0 and owner == "lindblad"),
        "lindblad.states": work(select(funcs=["lindblad.evolve_master"])),
        "lindblad.build_s": self_s(select("lindblad", prefix="build_")),
        "lindblad.evolve_s": self_s(select(funcs=["lindblad.evolve_master"])),
        "output.files": count(select(funcs=["output.write_csv", "output.write_json"])),
        "output.bytes": work(select(funcs=["output.write_csv", "output.write_json"])),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.unattributed_s": float(sum(op_walls)) - root_time,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(select(layer))
    return {name: m[name] for name, _ in PER_LAYER_METRICS}
