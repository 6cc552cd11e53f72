"""Run one `knutson` CLI command with every package layer instrumented.

    python3 perfbench/tracer.py OUT.json TRACE_ID -- <knutson arguments>

The package is not edited: after importing `knutson.cli`, this script
replaces each public function and method of the layer modules with a
timing wrapper, in every `knutson` module that binds the name (the CLI
imports names with `from .x import ...`) and in the module-level dicts
of those modules (the CLI's `seq` dispatch table).  Each wrapped call is a frame
on one stack; its self time is its duration minus the time of the
wrapped calls it made.  Calls into `algnum` and `numtheory` are counted
and timed in aggregate only, because they are many and tiny.  Other
calls are also kept as spans (name, start, end, parent), up to
SPAN_CAP per name, in memory; everything is written to OUT.json when
the command ends.  The command's stdout is the CLI's own, untouched.

`symchar.mn_value` is recursive, memoized and hot, so it is not wrapped:
its counts come from `mn_value.cache_info()` at the end of the command,
and its time lands in the wrapped caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

LAYERS = (
    "numtheory", "partitions", "algnum", "chartable", "symchar",
    "sl2tables", "charring", "knutsonlat", "sequences", "cli",
)
AGGREGATE_ONLY = {"algnum", "numtheory"}
NOT_WRAPPED = {"symchar.mn_value"}
ARITHMETIC = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__neg__", "__eq__",
}
SPAN_CAP = 1000


class Tracer:
    """Frame stack, per-name call statistics, spans and counters."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.stack: list[list] = []   # [start, child_time, span_id]
        self.depth: dict[str, int] = {}
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.spans: list[list] = []   # [id, parent, name, start, end]
        self.dropped: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.index_pairs: set = set()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, observe=None):
        aggregate = name.split(".", 1)[0] in AGGREGATE_ONLY
        stack, depth = self.stack, self.depth
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            after = observe(self, args) if observe else None
            span_id = None
            if not aggregate:
                if stat[0] < SPAN_CAP:
                    span_id = len(self.spans)
                    self.spans.append(None)
                else:
                    self.dropped[name] = self.dropped.get(name, 0) + 1
            depth[name] = depth.get(name, 0) + 1
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                depth[name] -= 1
                stat[0] += 1
                stat[2] += dur - frame[1]
                if not depth[name]:
                    stat[1] += dur
                if stack:
                    stack[-1][1] += dur
                if span_id is not None:
                    parent = next(
                        (f[2] for f in reversed(stack) if f[2] is not None), None
                    )
                    self.spans[span_id] = [
                        span_id, parent, name, frame[0] - self.t0, end - self.t0
                    ]
            if after:
                after(result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Count the items an outermost call yields; nested calls run bare."""
        active = [0]

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            return counted(fn(*args, **kwargs))

        def counted(gen):
            while True:
                active[0] += 1
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    active[0] -= 1
                self.count(f"{name}.yielded")
                yield item

        return wrapper


# Observers see a wrapped call's positional arguments before it runs and
# may return a callback that receives its result.

def _fusion_matrix(tr, args):
    table, a = args
    tr.count("charring.fusion.hits" if a in table._fusion_cache else "charring.fusion.misses")


def _min_multiplier(tr, args):
    m, v = args
    dim = max(len(m), len(m[0]) if m else 0)
    bits = max((abs(x).bit_length() for row in (*m, v) for x in row), default=0)
    c = tr.counters
    c["knutsonlat.min_multiplier.max_dim"] = max(c.get("knutsonlat.min_multiplier.max_dim", 0), dim)
    c["knutsonlat.min_multiplier.max_entry_bits"] = max(
        c.get("knutsonlat.min_multiplier.max_entry_bits", 0), bits
    )


def _knutson_index_char(tr, args):
    table, chi = args
    tr.index_pairs.add((table.label, chi))


def _cache_store(tr, args):
    cli = sys.modules["knutson.cli"]
    key = args[0]
    return lambda _: tr.count("cli.cache_store.bytes", os.path.getsize(cli._cache_path(key)))


def _cache_load(tr, args):
    return lambda table: tr.count(
        "cli.cache_load.hits" if table is not None else "cli.cache_load.misses"
    )


def _vanishing_certificate(tr, args):
    return lambda cert: tr.count(
        "sequences.certified" if cert is not None else "sequences.scanned"
    )


OBSERVERS = {
    "charring.fusion_matrix": _fusion_matrix,
    "knutsonlat.min_multiplier": _min_multiplier,
    "knutsonlat.knutson_index_char": _knutson_index_char,
    "cli.cache_store": _cache_store,
    "cli.cache_load": _cache_load,
    "sequences.vanishing_certificate": _vanishing_certificate,
}


def instrument(tracer: Tracer) -> None:
    """Wrap the public callables of every layer and rebind them everywhere."""
    replace: dict[int, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"knutson.{layer}")
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if attr.startswith("_") or name in NOT_WRAPPED:
                continue
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (
                        not meth.startswith("_")
                        or (layer == "algnum" and meth in ARITHMETIC)
                    ):
                        setattr(obj, meth, tracer.wrap(f"{name}.{meth}", fn))
                continue
            target = getattr(obj, "__wrapped__", obj)
            if not inspect.isfunction(target) or target.__module__ != mod.__name__:
                continue
            if inspect.isgeneratorfunction(target):
                replace[id(obj)] = tracer.wrap_generator(name, obj)
            else:
                replace[id(obj)] = tracer.wrap(name, obj, OBSERVERS.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname == "knutson" or modname.startswith("knutson."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
                elif isinstance(obj, dict):
                    # Dispatch tables such as cli._SEQ_FUNCS captured the
                    # originals at import time.
                    for key, value in list(obj.items()):
                        if id(value) in replace:
                            obj[key] = replace[id(value)]


# Per-layer metric -> how to read it from the merged trace of one pass.
_INCLUSIVE = {
    "chartable.check_orthogonality_s": "chartable.CharacterTable.check_orthogonality",
    "symchar.sn_table_s": "symchar.sn_table",
    "symchar.an_table_s": "symchar.an_table",
    "sl2tables.sl2_table_s": "sl2tables.sl2_table",
    "sl2tables.psl2_table_s": "sl2tables.psl2_table",
    "sl2tables.paper_rho_inverses_s": "sl2tables.paper_rho_inverses",
    "charring.fusion_matrix_s": "charring.fusion_matrix",
    "knutsonlat.min_multiplier_s": "knutsonlat.min_multiplier",
    "knutsonlat.solve_integer_s": "knutsonlat.solve_integer",
    "partitions.find_t_core_s": "partitions.find_t_core",
    "partitions.count_t_cores_s": "partitions.count_t_cores",
    "partitions.exists_t_core_s": "partitions.exists_t_core",
    "sequences.seq_zero_columns_sn_s": "sequences.seq_zero_columns_sn",
    "cli.cache_store_s": "cli.cache_store",
    "cli.cache_load_s": "cli.cache_load",
}
_CALLS = {
    "chartable.inner_product_rows.calls": "chartable.CharacterTable.inner_product_rows",
    "charring.tensor_decompose.calls": "charring.tensor_decompose",
    "knutsonlat.min_multiplier.calls": "knutsonlat.min_multiplier",
    "knutsonlat.solve_integer.calls": "knutsonlat.solve_integer",
}
_COUNTERS = (
    "symchar.mn_value.hits", "symchar.mn_value.misses", "symchar.mn_value.entries",
    "knutsonlat.min_multiplier.max_dim", "knutsonlat.min_multiplier.max_entry_bits",
    "sequences.certified", "sequences.scanned", "cli.cache_store.bytes",
    "cli.cache_load.hits", "cli.cache_load.misses",
)
_MAXIMA = {"knutsonlat.min_multiplier.max_dim", "knutsonlat.min_multiplier.max_entry_bits"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_s", "s"), ("ratio", "ratio"), ("bits", "bits"), ("bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    stats: dict[str, list] = {}
    counters: dict[str, int] = {}
    for rec in records:
        for name, (calls, inclusive, own) in rec["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += inclusive
            s[2] += own
        for key, value in rec["counters"].items():
            if key in _MAXIMA:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    zero = (0, 0.0, 0.0)

    def layer_sum(layer: str, field: int):
        return sum(v[field] for k, v in stats.items() if k.startswith(layer + "."))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_sum(layer, 2)
    m["algnum.ops"] = layer_sum("algnum", 0)
    m["numtheory.calls"] = layer_sum("numtheory", 0)
    for metric, name in _INCLUSIVE.items():
        m[metric] = stats.get(name, zero)[1]
    for metric, name in _CALLS.items():
        m[metric] = stats.get(name, zero)[0]
    for key in _COUNTERS:
        m[key] = counters.get(key, 0)
    m["partitions.yielded"] = counters.get("partitions.partitions.yielded", 0)
    m["cli.render_s"] = (
        stats.get("cli.render_table_text", zero)[1] + stats.get("cli.render_table_csv", zero)[1]
    )
    m["charring.fusion_cache_hit_ratio"] = ratio(
        counters.get("charring.fusion.hits", 0),
        counters.get("charring.fusion.hits", 0) + counters.get("charring.fusion.misses", 0),
    )
    m["knutsonlat.index_useful_ratio"] = ratio(
        counters.get("knutsonlat.index.distinct", 0),
        stats.get("knutsonlat.knutson_index_char", zero)[0],
    )
    return m


def main(argv: list[str]) -> int:
    out_path, trace_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json TRACE_ID -- <knutson arguments>")
    import knutson.cli
    from knutson.symchar import mn_value

    tracer = Tracer()
    instrument(tracer)
    code = 1
    try:
        code = knutson.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        info = mn_value.cache_info()
        tracer.counters.update({
            "symchar.mn_value.hits": info.hits,
            "symchar.mn_value.misses": info.misses,
            "symchar.mn_value.entries": info.currsize,
            "knutsonlat.index.distinct": len(tracer.index_pairs),
        })
        record = {
            "trace_id": trace_id,
            "argv": cli_args,
            "stats": tracer.stats,
            "counters": tracer.counters,
            "spans": tracer.spans,
            "spans_dropped": tracer.dropped,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
