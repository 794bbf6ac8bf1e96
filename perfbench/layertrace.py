"""Per-layer tracing of one grifcalc request, from outside the program.

The tracer replaces public functions and methods of grifcalc's modules
with wrappers that time each call.  A wrapped function is replaced at
its defining module and at every import site that bound it by name
(``report`` binds ``span_equals_kernel``, ``jacobian`` binds
``linalg.determinant`` as ``_det_rows``), so no call slips past.  Each
span's self time is its duration minus the durations of the spans it
encloses; summed over all spans, self times add up to the duration of
the outermost ones.  ``install`` returns a function that puts every
original back.

Run as a script, this module is the child process of a traced request:

    python3 perfbench/layertrace.py STATS.json cli ARGS...
    python3 perfbench/layertrace.py STATS.json jring SPEC.json

It imports the program, installs the wrappers, runs the request (the
grifcalc CLI or the generic Jacobian-ring request), restores the
originals and writes the span and counter totals to STATS.json.  The
untraced benchmark path never imports this module.
"""

import functools
import json
import logging
import sys
import time


class Tracer:
    """Span stack and totals of one process.

    ``spans`` maps a span name to ``[calls, self_s]``; ``counters`` holds
    the per-layer counts that feed the ratio metrics.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}
        self.counters = {}
        self._stack = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn):
        """Return fn wrapped in a span called name."""
        totals = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return span


# Observers run inside the span of the function they wrap and record the
# counts behind the ratio metrics.

def _observe_poly_gcd(tracer, fn):
    depth = [0]

    def poly_gcd(p, q):
        depth[0] += 1
        try:
            g = fn(p, q)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            tracer.count("scalar.poly_gcd.top_calls")
            if not (g.is_constant() and g.constant_value() == 1):
                tracer.count("scalar.poly_gcd.useful")
        return g

    return poly_gcd


def _observe_rref(tracer, fn):
    def rref(rows, field):
        tracer.count("linalg.rref.rows_in", len(rows))
        tracer.count("linalg.rref.nnz_in", sum(len(r) for r in rows))
        out = fn(rows, field)
        tracer.count("linalg.rref.pivots", len(out))
        return out

    return rref


def _observe_quotient_basis(tracer, fn):
    def quotient_basis(ring, k):
        if k in ring._slices:
            tracer.count("jacobian.quotient_basis.reused")
        return fn(ring, k)

    return quotient_basis


def _observe_row_add(tracer, fn):
    def add(reducer, vec):
        grew = fn(reducer, vec)
        if grew:
            tracer.count("linalg.RowReducer.add.useful")
        return grew

    return add


def _observe_standardize(tracer, fn):
    def standardize(ring, w):
        std, cert = fn(ring, w)
        tracer.count("mulkernel.certificate_moves", len(cert.moves))
        return std, cert

    return standardize


def _observe_cache_get(tracer, fn):
    def get(cache, op, params):
        payload = fn(cache, op, params)
        if payload is not None:
            tracer.count("cache.get.hits")
        return payload

    return get


_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
          "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
          "inverse")

# (span name, module, class or None, attribute, observer or None)
TARGETS = (
    [("cli.run_command", "cli", None, "run_command", None),
     ("report.full_report", "report", None, "full_report", None),
     ("scalar.poly_gcd", "scalar", None, "poly_gcd", _observe_poly_gcd),
     ("scalar.from_fraction", "scalar", "Scalar", "from_fraction", None)]
    + [("scalar.arith", "scalar", "Scalar", op, None) for op in _ARITH]
    + [("hodge.chi_y_coefficients", "hodge", None, "chi_y_coefficients", None),
       ("hodge.hypersurface_prim_hodge", "hodge", None,
        "hypersurface_prim_hodge", None),
       ("invariant.delta_nu", "invariant", None, "delta_nu", None),
       ("invariant.iso_det", "invariant", None, "iso_det", None),
       ("invariant.rho_check", "invariant", None, "rho_check", None),
       ("invariant.independence_rank", "invariant", None,
        "independence_rank", None),
       ("jacobian.normal_form", "jacobian", "HypersurfaceRing",
        "normal_form", None),
       ("jacobian.quotient_basis", "jacobian", "HypersurfaceRing",
        "quotient_basis", _observe_quotient_basis),
       ("jacobian.pairing_matrix", "jacobian", None, "pairing_matrix", None),
       ("jacobian.determinant", "jacobian", None, "determinant", None),
       ("linalg.rref", "linalg", None, "rref", _observe_rref),
       ("linalg.determinant", "linalg", None, "determinant", None),
       ("linalg.solve", "linalg", None, "solve", None),
       ("linalg.RowReducer.add", "linalg", "RowReducer", "add",
        _observe_row_add),
       ("mulkernel.span_equals_kernel", "mulkernel", None,
        "span_equals_kernel", None),
       ("mulkernel.standardize", "mulkernel", None, "standardize",
        _observe_standardize),
       ("mulkernel.verify_certificate", "mulkernel", None,
        "verify_certificate", None),
       ("cache.get", "cache", "Cache", "get", _observe_cache_get),
       ("cache.put", "cache", "Cache", "put", None),
       ("characters.enumerate_type", "characters", None, "enumerate_type",
        None),
       ("characters.orbit_partition", "characters", None, "orbit_partition",
        None)]
)


class _RejectCounter(logging.Handler):
    """Counts the warnings the cache logs when it declines an entry."""

    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer.count("cache.rejects")


def install(tracer, extra_modules=()):
    """Wrap every target; return a function that restores the originals.

    Import sites are searched in every loaded ``grifcalc`` module and in
    extra_modules.
    """
    sites = [m for name, m in sorted(sys.modules.items())
             if m is not None and (name == "grifcalc"
                                   or name.startswith("grifcalc."))]
    sites.extend(extra_modules)
    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for span_name, modname, clsname, attr, observer in TARGETS:
        module = sys.modules.get("grifcalc." + modname)
        if module is None:
            # the request never imported this layer; report it as idle
            tracer.spans.setdefault(span_name, [0, 0.0])
            continue
        owner = getattr(module, clsname) if clsname else module
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        inner = observer(tracer, fn) if observer else fn
        wrapped = tracer.wrap(span_name, inner)
        replace(owner, attr, classmethod(wrapped) if is_classmethod
                else wrapped)
        if clsname is None:
            for site in sites:
                for name, value in list(vars(site).items()):
                    if value is fn and not (site is owner and name == attr):
                        replace(site, name, wrapped)

    handler = _RejectCounter(tracer)
    cache_log = logging.getLogger("grifcalc.cache")
    cache_log.addHandler(handler)

    def restore():
        cache_log.removeHandler(handler)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return restore


def _run_cli(args):
    import grifcalc.cli
    try:
        grifcalc.cli.main(args)
    except SystemExit as exc:
        return exc.code
    return 0


def main(argv):
    stats_path, kind, args = argv[0], argv[1], argv[2:]
    extra = []
    start = time.perf_counter()
    if kind == "cli":
        import grifcalc.cli  # noqa: F401  (timed: the CLI's import cost)
        run = _run_cli
    elif kind == "jring":
        import jring_request
        extra.append(jring_request)
        run = jring_request.main
    else:
        raise SystemExit("unknown request kind %r" % kind)
    import_s = time.perf_counter() - start
    tracer = Tracer()
    restore = install(tracer, extra)
    try:
        code = run(args)
    finally:
        restore()
        sys.stdout.flush()
        elapsed = time.perf_counter() - start
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "elapsed_s": elapsed,
                       "spans": tracer.spans, "counters": tracer.counters},
                      fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
