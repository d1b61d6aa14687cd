"""Outside-in tracing of the fxppo modules for the per-layer metrics.

``Tracer.install()`` replaces every public function of every fxppo module,
and every public method of every fxppo class, with a wrapper that records
one span per call: name, parent span, start, end and an amount of work
(rows through a kernel, bytes written, ...). A wrapper sits on the name
where callers look the function up, so ``fxppo.cli.parse_candles`` and
``fxppo.data.parse_candles`` get separate wrappers; both record under the
defining module, as ``data.parse_candles``. Methods record as
``module.Class.method``.

Spans stay in one flat array in memory and are written out once, at the end.
Self time is derived from them: a span's duration minus the durations of
its direct children. A module's self time is the sum over its spans.

Recording is split into phases (one set-up, one round of the timed
stage). Every metric is reported for one set-up plus one round, averaged
over the phases of each kind, so that counts repeat exactly however many
rounds fit in a run.
"""

import importlib
import inspect
import json
import os
import pkgutil
from array import array
from time import perf_counter

import numpy as np


def _rows(args, kwargs, result):
    return args[0].shape[0]


# Work counted at a span, from its arguments or its result.
AMOUNTS = {
    "kernels.dense_rows_forward": _rows,
    "kernels.dense_rows_backward": _rows,
    "kernels.dense_gemm_forward": _rows,
    "kernels.dense_gemm_backward": _rows,
    "kernels.lstm_seq_forward": _rows,
    "kernels.lstm_seq_backward": _rows,
    "kernels.kmeans_assign": _rows,
    "kernels.kmeans_update": _rows,
    "checkpoint.save_container": lambda a, k, r: os.path.getsize(a[0]),
    "data.parse_candles": lambda a, k, r: len(r),
    "labeler.train_autoencoder": lambda a, k, r: len(r[1]),
    "labeler.kmeans_fit": lambda a, k, r: r.n_iter,
}

# Short names for the two per-step methods.
ALIASES = {
    "agent.act": "agent.PolicyNetwork.act",
    "env.step": "env.TradingEnv.step",
}

# metric -> (what, span or module, unit)
#   s: inclusive seconds; self: module self seconds; calls: span count;
#   amount: summed work amount of the span
METRICS = {}
for _kernel in ("lstm_seq_backward", "dense_rows_backward", "lstm_seq_forward",
                "dense_rows_forward", "dense_gemm_forward", "dense_gemm_backward"):
    METRICS[f"kernels.{_kernel}.s"] = ("s", f"kernels.{_kernel}", "s")
    METRICS[f"kernels.{_kernel}.rows"] = ("amount", f"kernels.{_kernel}", "count")
METRICS.update({
    "kernels.kmeans_assign.s": ("s", "kernels.kmeans_assign", "s"),
    "kernels.kmeans_assign.calls": ("calls", "kernels.kmeans_assign", "count"),
    "kernels.kmeans_update.s": ("s", "kernels.kmeans_update", "s"),
    "nn.Adam.step.s": ("s", "nn.Adam.step", "s"),
    "nn.Adam.step.calls": ("calls", "nn.Adam.step", "count"),
    "nn.clip_grad_norm.s": ("s", "nn.clip_grad_norm", "s"),
    "nn.self_s": ("self", "nn", "s"),
    "agent.update.s": ("s", "agent.update", "s"),
    "agent.minibatch_pass.s": ("s", "agent.minibatch_pass", "s"),
    "agent.minibatch_pass.calls": ("calls", "agent.minibatch_pass", "count"),
    "agent.collect_rollout.s": ("s", "agent.collect_rollout", "s"),
    "agent.compute_gae.s": ("s", "agent.compute_gae", "s"),
    "agent.self_s": ("self", "agent", "s"),
    "agent.act.s": ("s", "agent.act", "s"),
    "agent.act.calls": ("calls", "agent.act", "count"),
    "env.step.s": ("s", "env.step", "s"),
    "env.step.calls": ("calls", "env.step", "count"),
    "labeler.train_autoencoder.s": ("s", "labeler.train_autoencoder", "s"),
    "labeler.ae_epochs": ("amount", "labeler.train_autoencoder", "count"),
    "labeler.kmeans_fit.s": ("s", "labeler.kmeans_fit", "s"),
    "labeler.kmeans_iters": ("amount", "labeler.kmeans_fit", "count"),
    "labeler.label_dataset.s": ("s", "labeler.label_dataset", "s"),
    "labeler.self_s": ("self", "labeler", "s"),
    "backtest.run_backtest.s": ("s", "backtest.run_backtest", "s"),
    "backtest.emit_report.s": ("s", "backtest.emit_report", "s"),
    "backtest.self_s": ("self", "backtest", "s"),
    "checkpoint.save_container.s": ("s", "checkpoint.save_container", "s"),
    "checkpoint.load_container.s": ("s", "checkpoint.load_container", "s"),
    "checkpoint.file_sha256.s": ("s", "checkpoint.file_sha256", "s"),
    "checkpoint.bytes_written": ("amount", "checkpoint.save_container", "B"),
    "data.parse_candles.s": ("s", "data.parse_candles", "s"),
    "data.build_windows.s": ("s", "data.build_windows", "s"),
    "data.candles": ("amount", "data.parse_candles", "count"),
    "cli.self_s": ("self", "cli", "s"),
})


def package_modules(package):
    """Every module of ``package``, imported."""
    pkg = importlib.import_module(package)
    return [importlib.import_module(f"{package}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)]


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _is_ours(obj, package):
    return getattr(obj, "__module__", "").split(".")[0] == package


# Fields of one span record, in the flat record array.
NAME, PARENT, OUTER, START, END, AMOUNT = range(6)
FIELDS = 6


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._active = []
        # one record of FIELDS doubles per span; OUTER is 1 unless a span
        # of the same name is already open (recursion)
        self.records = array("d")
        self._stack = [-1]
        self._installed = []
        self.phases = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        amount_of = AMOUNTS.get(name)
        active, stack, records = self._active, self._stack, self.records
        add = records.extend

        def traced(*args, **kwargs):
            i = len(records)
            add((nid, stack[-1], 0 if active[nid] else 1, 0.0, 0.0, 0.0))
            stack.append(i // FIELDS)
            active[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[nid] -= 1
                stack.pop()
                records[i + START] = t0
                records[i + END] = t1
            if amount_of is not None:
                records[i + AMOUNT] = amount_of(args, kwargs, result)
            return result

        return traced

    def install(self, modules):
        """Wraps the public functions and methods of ``modules``."""
        package = modules[0].__name__.split(".")[0]
        seen_classes = set()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and _is_ours(obj, package):
                    name = f"{_short(obj.__module__)}.{attr}"
                    self._set(module, attr, obj, self._wrap(obj, name))
                elif (inspect.isclass(obj) and _is_ours(obj, package)
                      and not issubclass(obj, BaseException)
                      and obj not in seen_classes):
                    seen_classes.add(obj)
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{_short(obj.__module__)}.{obj.__name__}.{meth}"
                        self._set(obj, meth, fn, self._wrap(fn, name))

    def _set(self, owner, attr, original, wrapper):
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def phase(self, kind):
        return _Phase(self, kind)

    def _spans(self):
        """The records as an (n_spans, FIELDS) array."""
        return np.frombuffer(self.records).reshape(-1, FIELDS) if self.records \
            else np.zeros((0, FIELDS))

    def __len__(self):
        return len(self.records) // FIELDS

    def layer_table(self):
        """Per span name and per module: s, self_s, calls and amount for one
        phase of each kind, summed over kinds."""
        spans = self._spans()
        nid = spans[:, NAME].astype(np.int64)
        parent = spans[:, PARENT].astype(np.int64)
        outer, amount = spans[:, OUTER], spans[:, AMOUNT]
        dur = spans[:, END] - spans[:, START]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        n_names = len(self.names)
        per_name = np.zeros((4, n_names))
        kinds = {}
        for kind, lo, hi in self.phases:
            kinds.setdefault(kind, []).append((lo, hi))
        for ranges in kinds.values():
            weight = 1.0 / len(ranges)
            for lo, hi in ranges:
                ids = nid[lo:hi]
                per_name[0] += weight * np.bincount(
                    ids, weights=dur[lo:hi] * outer[lo:hi], minlength=n_names)
                per_name[1] += weight * np.bincount(
                    ids, weights=self_time[lo:hi], minlength=n_names)
                per_name[2] += weight * np.bincount(ids, minlength=n_names)
                per_name[3] += weight * np.bincount(
                    ids, weights=amount[lo:hi], minlength=n_names)
        per_module = {}
        for i, name in enumerate(self.names):
            module = name.split(".")[0]
            per_module[module] = per_module.get(module, 0.0) + per_name[1, i]
        names = {
            name: {"s": per_name[0, i], "self_s": per_name[1, i],
                   "calls": per_name[2, i], "amount": per_name[3, i]}
            for i, name in enumerate(self.names)
        }
        return names, per_module

    def metrics(self):
        """The per-layer metrics; one whose function no longer exists is
        left out."""
        names, modules = self.layer_table()
        out = {}
        for metric, (what, target, unit) in METRICS.items():
            if what == "self":
                if target not in modules:
                    continue
                value = modules[target]
            else:
                row = names.get(ALIASES.get(target, target))
                if row is None:
                    continue
                value = row["s" if what == "s" else what]
            if unit != "s":
                value = round(value, 6)
            out[metric] = {"value": float(value), "unit": unit}
        return out

    def write(self, directory):
        """Writes the raw spans and the per-name table under ``directory``."""
        os.makedirs(directory, exist_ok=True)
        spans = self._spans()
        np.savez(os.path.join(directory, "spans.npz"),
                 name=spans[:, NAME].astype(np.int32),
                 parent=spans[:, PARENT].astype(np.int32),
                 outer=spans[:, OUTER].astype(np.int8),
                 start=spans[:, START], end=spans[:, END],
                 amount=spans[:, AMOUNT], names=np.array(self.names),
                 phases=np.array([(lo, hi) for _, lo, hi in self.phases]),
                 phase_kinds=np.array([k for k, _, _ in self.phases]))
        names, modules = self.layer_table()
        with open(os.path.join(directory, "layers.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"per_name": names, "module_self_s": modules}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")


class _Phase:
    def __init__(self, tracer, kind):
        self.tracer = tracer
        self.kind = kind

    def __enter__(self):
        self.lo = len(self.tracer)
        return self

    def __exit__(self, *exc):
        self.tracer.phases.append((self.kind, self.lo, len(self.tracer)))
        return False
