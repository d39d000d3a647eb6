"""Layered benchmark for centerbound.

Run from the root of a source checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

It imports the package from ``src/`` of the checkout it lives in and drives
the public API in one process and one thread.  Every pass builds a fresh
``Group`` per input, because the library's caches are write-once and ignore
caps; every call uses the caps of the pass's ``Config``.

* ``--trace 0`` times untraced passes and prints the end-to-end metrics.
* ``--trace 1`` alternates untraced and traced passes.  A traced pass calls
  the layers bottom-up on each fresh group (build, chain, elements,
  structure, quotients and Sylow subgroups, ranks, statements, witnesses,
  report), so each span mostly holds its own layer's work, and it prints
  per-layer self times and counts.  Spans and the slowest (group, span)
  pairs are written to ``bench/out/`` at exit.

The seed picks a relabelling of every group's points (a conjugation of its
generators) and is also ``Config.seed``; seed 0 keeps the original labels.
Outputs are checked outside the timed region (see ``check_outputs``); the
last line of standard output is one JSON object, and the exit code is 1 when
any check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

# The default corpus takes about 47 s per pass on a 2-vCPU machine, and one
# run must hold at least two passes (the report digest is compared across
# them) within the run budget.  The corpus workload therefore keeps the 129
# default-corpus groups of order <= 200 and leaves out these eleven, of
# order 216-960, which take 35 s of the 47 s; S5 x D4 alone takes 16 s.
CORPUS_LEFT_OUT = frozenset({
    "direct_product(dihedral(4),heisenberg(3))",
    "direct_product(symmetric(3),direct_product(dihedral(4),cyclic(5)))",
    "direct_product(alternating(4),heisenberg(3))",
    "alternating(6)",
    "direct_product(symmetric(5),cyclic(3))",
    "direct_product(alternating(5),dihedral(4))",
    "direct_product(symmetric(4),heisenberg(3))",
    "symmetric(6)",
    "direct_product(heisenberg(3),heisenberg(3))",
    "direct_product(symmetric(3),heisenberg(5))",
    "direct_product(symmetric(5),dihedral(4))",
})

# Orders 1,024-3,600, where the subgroup cap fires or the sections that get
# ranked are abelian or small: the time goes to structure filters,
# coset-action quotients, the structure report of G/Z inside C4 and Sylow
# ascent, and rank takes about 3% of a pass.
LARGE_SPECS = (
    "direct_product(heisenberg(3),heisenberg(5))",
    "direct_product(symmetric(4),heisenberg(5))",
    "elem_abelian(2,10)",
    "direct_product(alternating(5),heisenberg(3))",
    "direct_product(symmetric(4),elem_abelian(3,4))",
    "direct_product(alternating(5),alternating(5))",
    "alternating(7)",
)

WORKLOADS = ("corpus", "large", "witness")
SETUP_REPEATS = 15

# The machines this runs on change speed by 15-30% within seconds, because
# other tenants share the cores, and that swamps run-to-run comparisons.  So
# a short probe of fixed work is timed at every segment boundary and, in
# untraced passes, every PROBE_INTERVAL_S inside a segment from a timer
# signal.  Each stretch between two probes is scaled by REFERENCE_PROBE_S
# over the mean of the probes at its ends, and probe time is left out:
# times read as seconds at the machine speed where one probe takes
# REFERENCE_PROBE_S.  The probe is tuple composition, the library's
# innermost operation (perm.Perm.__mul__).
REFERENCE_PROBE_S = 0.0015
PROBE_INTERVAL_S = 0.05
_PROBE_PERM = tuple((7 * i + 3) % 64 for i in range(64))


def probe() -> float:
    """Best of three bursts of 400 compositions, with the cyclic garbage
    collector paused so that a collection cannot land in the probe."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            x = _PROBE_PERM
            start = time.perf_counter()
            for _ in range(400):
                x = tuple(map(_PROBE_PERM.__getitem__, x))
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


class Stopwatch:
    """Times consecutive segments (a group, the report, a set-up repeat),
    raw and normalised by the probes; a segment runs from one split() to
    the next."""

    def __init__(self, sampling: bool = False):
        self.raw = 0.0
        self.normalised = 0.0
        self._segment = [0.0, 0.0]
        self._busy = False
        self._last_probe = probe()
        self._last_end = time.perf_counter()
        self._sampling = sampling
        if sampling:
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                             PROBE_INTERVAL_S)

    def _on_timer(self, signum, frame):
        if not self._busy:
            self._tick()

    def _tick(self):
        self._busy = True
        start = time.perf_counter()
        p = probe()
        stretch = start - self._last_end
        self._segment[0] += stretch
        self._segment[1] += stretch * REFERENCE_PROBE_S \
            / ((self._last_probe + p) / 2)
        self._last_probe = p
        self._last_end = time.perf_counter()
        self._busy = False

    def split(self) -> float:
        """End the current segment and return its normalised time."""
        blocked = {signal.SIGALRM}
        signal.pthread_sigmask(signal.SIG_BLOCK, blocked)
        try:
            self._tick()
            raw, normalised = self._segment
            self._segment = [0.0, 0.0]
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, blocked)
        self.raw += raw
        self.normalised += normalised
        return normalised

    def close(self):
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._sampling = False


# -- tracing ------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent, request id) and counts, kept in
    memory for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


class _NoTrace:
    """Stands in for a Tracer in untraced passes."""

    @contextmanager
    def span(self, name, request):
        yield

    def count(self, name, n=1):
        pass


# -- set-up -------------------------------------------------------------------


def import_package():
    """Import centerbound from this checkout's src/, never from elsewhere."""
    if not (SRC / "centerbound" / "__init__.py").is_file():
        raise SystemExit(f"error: no centerbound package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "centerbound" or m.startswith("centerbound.")]:
        del sys.modules[name]
    cb = importlib.import_module("centerbound")
    if Path(cb.__file__).resolve().parent != SRC / "centerbound":
        raise SystemExit(f"error: imported centerbound from {cb.__file__}")
    return cb


def workload_specs(cb, workload: str) -> list:
    if workload == "large":
        return [cb.parse_group_spec("family:" + text) for text in LARGE_SPECS]
    specs = cb.default_corpus().specs
    if workload == "corpus":
        specs = [s for s in specs if s.label not in CORPUS_LEFT_OUT]
    return specs


def relabel(cb, G, label: str, seed: int) -> tuple[int, tuple]:
    """Generators of G conjugated by a seeded permutation of its points."""
    if seed == 0 or G.degree < 2:
        return G.degree, G.generators
    points = list(range(1, G.degree + 1))
    random.Random(f"{seed}:{label}").shuffle(points)
    sigma = cb.Perm(points)
    return G.degree, tuple(g.conjugate(sigma) for g in G.generators)


def setup(workload: str, seed: int):
    """Import the package, parse the specs and build the relabelled
    generator lists; repeated, and the median normalised time reported."""
    samples = []
    watch = Stopwatch()
    for _ in range(SETUP_REPEATS):
        cb = import_package()
        items = []
        for spec in workload_specs(cb, workload):
            degree, gens = relabel(cb, cb.build_group(spec), spec.label, seed)
            items.append((spec, degree, gens))
        samples.append(watch.split())
    return cb, items, statistics.median(samples)


# -- passes -------------------------------------------------------------------


class Pass:
    """What one pass over a workload produced."""

    def __init__(self):
        self.wall = 0.0
        self.raw_wall = 0.0
        self.group_times: list[float] = []
        self.records: list[dict] = []
        self.attempted = 0
        self.refused = 0
        self.lost: list[str] = []
        self.orders: dict[str, tuple] = {}
        self.report = ""
        self.digest = ""


def _attempt(run: Pass, cb, label: str, what: str, call):
    """One verdict or witness: refusals by a cap and exceptions are counted,
    and a lost operation never stops the pass."""
    run.attempted += 1
    try:
        return call()
    except cb.CapExceeded:
        run.refused += 1
    except Exception:
        run.lost.append(f"{label} {what}\n{traceback.format_exc()}")
    return None


def _fresh_group(cb, tr, spec, degree, gens, seed):
    if isinstance(tr, Tracer):
        with tr.span("corpus.build", spec.label):
            degree, gens = relabel(cb, cb.build_group(spec), spec.label, seed)
            return cb.Group(degree, gens)
    return cb.Group(degree, gens)


def _is_p_group(cb, G) -> bool:
    return G.order() > 1 and cb.arith.is_prime_power(G.order()) is not None


def _primes(cb, n: int) -> list[int]:
    return sorted(cb.arith.prime_factors(n))


def _structure_layer(cb, tr, cfg, G, label):
    """Kernel, filters and the central quotient of G, bottom-up."""
    cap, coset = cfg.enumeration_cap, cfg.coset_cap
    with tr.span("group.bsgs", label):
        G.build_bsgs()
    tr.count("group.base_points", len(G.base))
    with tr.span("group.elements", label):
        G.elements(cap)
    tr.count("group.elements_enumerated", G.order())
    with tr.span("structure.report", label):
        cb.center(G, cap)
    with tr.span("structure.quotient", label):
        pres = cb.structure.quotient_by_center(G, coset, cap)
    tr.count("structure.quotient_degree", pres.quotient.degree)
    with tr.span("structure.report", label):
        return cb.structure_report(G, cap, coset), pres


def _rank(cb, tr, cfg, H, label):
    """group_rank of H, counting the subgroups it enumerated."""
    with tr.span("rank.group_rank", label):
        r = cb.group_rank(H, cfg.enumeration_cap, cfg.subgroup_cap,
                          cfg.tuple_cap)
    if isinstance(r, cb.UnknownRank):
        tr.count("rank.refused")
    elif H.order() > 1 and not H.is_abelian():
        # all_subgroups is cached on H, so this only reads the count
        n = len(cb.all_subgroups(H, cfg.subgroup_cap, cfg.enumeration_cap))
        tr.count("rank.subgroups_enumerated", n)
        tr.count("rank.table_entries", H.order() ** 2)


def _min_generators(cb, tr, cfg, H, label):
    with tr.span("rank.min_generators", label):
        try:
            cb.min_generators(H, cfg.enumeration_cap, cfg.tuple_cap)
        except cb.CapExceeded:
            tr.count("rank.refused")


def _prefill_statements(cb, tr, cfg, G, label):
    """The shared work the statements reuse through the write-once caches,
    each call with the pass's caps: nothing here is computed that the
    statements would not compute themselves."""
    sr, pres = _structure_layer(cb, tr, cfg, G, label)
    H = pres.quotient
    sr_h, _ = _structure_layer(cb, tr, cfg, H, label)
    for p in _primes(cb, G.order()):
        with tr.span("structure.sylow", label):
            cb.sylow(G, p, cfg.enumeration_cap)
    for p in _primes(cb, sr.dee.order()):
        with tr.span("structure.sylow", label):
            cb.sylow(sr.dee, p, cfg.enumeration_cap)
    for section in (H, sr.derived, sr_h.derived):
        _rank(cb, tr, cfg, section, label)
    with tr.span("rank.group_rank", label):
        try:
            subs = cb.all_subgroups(G, cfg.subgroup_cap, cfg.enumeration_cap)
            tr.count("rank.subgroups_enumerated", len(subs))
            tr.count("rank.table_entries", G.order() ** 2)
        except cb.CapExceeded:
            tr.count("rank.refused")
    library = [sr.derived, sr.second_center]
    library += [cb.sylow(G, p, cfg.enumeration_cap)
                for p in _primes(cb, G.order())]
    for H in library:
        _min_generators(cb, tr, cfg, H, label)


def timed_pass(cb, workload: str, items, cfg, tr) -> Pass:
    """One pass: a fresh group per input through the workload's calls, then
    the sorted report; each group and the report is a timed segment."""
    if workload == "witness":
        per_group = _witness_group
        def key(r): return r["label"], r["op"], json.dumps(r["result"])
    else:
        per_group = _statements_group
        def key(r): return r["label"], r["statement"]
    run = Pass()
    watch = Stopwatch(sampling=not isinstance(tr, Tracer))
    try:
        for spec, degree, gens in items:
            G = _fresh_group(cb, tr, spec, degree, gens, cfg.seed)
            per_group(cb, cfg, tr, run, spec.label, G)
            run.orders[spec.label] = _orders(cb, cfg, G)
            # free the group's reference cycles now, so that peak memory is
            # the largest group's and not garbage left by earlier ones
            del G
            gc.collect()
            run.group_times.append(watch.split())
        with tr.span("cli.report", "-"):
            _emit(run, key)
        watch.split()
    finally:
        watch.close()
    run.wall, run.raw_wall = watch.normalised, watch.raw
    return run


def _statements_group(cb, cfg, tr, run: Pass, label: str, G):
    if isinstance(tr, Tracer):
        try:
            _prefill_statements(cb, tr, cfg, G, label)
        except Exception:
            run.lost.append(f"{label} prefill\n{traceback.format_exc()}")
    for tag in cb.STATEMENT_TAGS:
        with tr.span("statements." + tag, label):
            verdict = _attempt(run, cb, label, tag,
                               lambda: cb.evaluate(tag, G, cfg))
        if verdict is not None:
            tr.count("statements.verdicts")
            if not verdict.computable:
                run.refused += 1
            run.records.append({"label": label, **verdict.to_json()})


def _witness_group(cb, cfg, tr, run: Pass, label: str, G):
    cap = cfg.enumeration_cap
    caps = (cap, cfg.coset_cap, cfg.subgroup_cap, cfg.tuple_cap)
    if isinstance(tr, Tracer):
        try:
            sr, _ = _structure_layer(cb, tr, cfg, G, label)
            for sub in (sr.centralizer_of_derived, sr.dee):
                for p in _primes(cb, sub.order()):
                    with tr.span("structure.sylow", label):
                        cb.sylow(sub, p, cap)
        except Exception:
            run.lost.append(f"{label} prefill\n{traceback.format_exc()}")

    def record(op, payload):
        run.records.append({"label": label, "op": op, "result": payload})

    for op, fn in (("also", cb.also_witness), ("szivas", cb.szivas_witness)):
        with tr.span("witness." + op, label):
            w = _attempt(run, cb, label, op, lambda: fn(G, *caps))
        if w is not None:
            tr.count("witness.chain_elements",
                     sum(len(p.xs) for p in w.per_prime.values()))
            record(op, w.to_json())
    if not _is_p_group(cb, G):
        return
    for which in ("pl1", "pl2"):
        with tr.span("witness.embedding", label):
            e = _attempt(run, cb, label, which,
                         lambda: cb.rank_embedding_pl(
                             G, which, *caps, cfg.sample_pairs, cfg.seed))
        if e is not None:
            if isinstance(e.section_rank, cb.UnknownRank):
                run.refused += 1
            record(which, _embedding_json(cb, e))
    with tr.span("rank.min_generators", label):
        anchors = _attempt(run, cb, label, "shrink",
                           lambda: cb.shrink_generating_set(
                               G, list(G.generators), cap))
    if anchors is None:
        return
    record("shrink", [cb.format_perm(a) for a in anchors])
    for w in cb.derived_subgroup(G).elements(cap):
        with tr.span("witness.factorize", label):
            xs = _attempt(run, cb, label, "factorize",
                          lambda: cb.factorize_commutator(G, anchors, w, cap))
        if xs is not None:
            record("factorize",
                   [cb.format_perm(w)] + [cb.format_perm(x) for x in xs])


def _orders(cb, cfg, G):
    """|G|, |G'|, |Z| from the structure report the pass already cached;
    only these are kept, so a finished group can be freed as in the CLI."""
    try:
        orders = cb.structure_report(G, cfg.enumeration_cap,
                                     cfg.coset_cap).orders
    except Exception:
        return None
    return orders["group"], orders["derived"], orders["center"]


def _embedding_json(cb, e) -> dict:
    rank = (repr(e.section_rank) if isinstance(e.section_rank, cb.UnknownRank)
            else e.section_rank)
    return {"which": e.which, "prime": e.prime, "map_count": e.map_count,
            "homomorphisms_ok": e.homomorphisms_ok,
            "kernel_contained": e.kernel_contained, "section_rank": rank,
            "bound": e.bound, "bound_holds": e.bound_holds}


def _emit(run: Pass, key):
    """Sorted JSONL in the corpus command's record format, and its digest."""
    run.records.sort(key=key)
    run.report = "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
        for r in run.records)
    run.digest = hashlib.sha256(run.report.encode()).hexdigest()


# -- output checks ------------------------------------------------------------


def _sympy_orders(degree: int, gens) -> tuple[int, int, int]:
    from sympy.combinatorics import Permutation, PermutationGroup
    perms = [Permutation([i - 1 for i in g.images]) for g in gens]
    group = PermutationGroup(perms or [Permutation(list(range(degree)))])
    return (group.order(), group.derived_subgroup().order(),
            group.center().order())


def _invariants(record: dict):
    """The parts of a record that no relabelling can change."""
    if "statement" in record:
        return [record[k] for k in ("applicable", "computable", "lhs", "rhs",
                                    "holds")]
    op, result = record["op"], record["result"]
    if op in ("also", "szivas"):
        return {p: [w[k] for k in ("index", "n_p", "exponent", "bound", "ok")]
                for p, w in result["per_prime"].items()}
    if op in ("pl1", "pl2"):
        return [result[k] for k in ("prime", "homomorphisms_ok",
                                    "kernel_contained", "section_rank",
                                    "bound", "bound_holds")]
    if op == "shrink":
        return len(result)
    return None


def reference_table(run: Pass) -> dict:
    """(label, tag) -> invariants of every decided verdict or witness."""
    table: dict = {}
    for record in run.records:
        if record.get("statement") == "LK" \
                or record.get("computable") is False:
            continue
        value = _invariants(record)
        if value is not None:
            key = record.get("statement") or record["op"]
            table.setdefault(record["label"], {})[key] = value
    return table


def check_outputs(cb, workload: str, items, passes: list[Pass]) -> list[str]:
    """Every failed check, as a message; none at a correct commit."""
    wrong: list[str] = []
    last = passes[-1]
    for run in passes[1:]:
        if run.digest != passes[0].digest:
            wrong.append("report digest differs between two passes")
    for record in last.records:
        if record.get("statement") and record["applicable"] \
                and record["computable"] and not record["holds"]:
            wrong.append(f"violated: {record['label']} {record['statement']}")
    if workload == "witness":
        degrees = {spec.label: degree for spec, degree, _ in items}
        wrong += _check_witnesses(cb, last, degrees)
    for spec, degree, gens in items:
        ours = last.orders[spec.label]
        theirs = _sympy_orders(degree, gens)
        if ours != theirs:
            wrong.append(f"orders {spec.label}: |G|,|G'|,|Z| {ours} != "
                         f"sympy {theirs}")
    reference = json.loads(REFERENCE.read_text())[workload]
    for label, table in reference_table(last).items():
        for key, value in table.items():
            expected = reference.get(label, {}).get(key)
            if expected is not None and expected != value:
                wrong.append(f"reference {label} {key}: {value} != {expected}")
    return wrong


def _check_witnesses(cb, run: Pass, degrees: dict[str, int]) -> list[str]:
    wrong = []
    anchors: dict[str, list] = {}
    for record in run.records:
        if record["op"] == "shrink":
            anchors[record["label"]] = record["result"]
    for record in run.records:
        label, op, result = record["label"], record["op"], record["result"]
        if op in ("also", "szivas"):
            bad = not all(w["ok"] for w in result["per_prime"].values())
        elif op in ("pl1", "pl2"):
            bad = not (result["homomorphisms_ok"]
                       and result["kernel_contained"]
                       and result["bound_holds"] is not False)
        elif op == "factorize":
            degree = degrees[label]
            w, *xs = (cb.parse_perm(c, degree) for c in result)
            a = [cb.parse_perm(c, degree) for c in anchors[label]]
            product = cb.identity(degree)
            for x, y in zip(xs, a):
                product = product * cb.commutator(x, y)
            bad = len(xs) != len(a) or product != w
        else:
            bad = False
        if bad:
            wrong.append(f"witness fails: {label} {op}")
    return wrong


# -- metrics ------------------------------------------------------------------


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: float, passes: list[Pass]) -> dict:
    # a group's time is its median over the passes; percentiles over groups
    times = [statistics.median(per_pass)
             for per_pass in zip(*(run.group_times for run in passes))]
    attempted = sum(run.attempted for run in passes)
    refused = sum(run.refused for run in passes)
    lost = sum(len(run.lost) for run in passes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(run.wall for run in passes), "s"),
        "group_p50_s": (statistics.median(times), "s"),
        "group_p90_s": (_percentile(times, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "decided_share": ((attempted - refused - lost) / attempted, "share"),
    }


SPAN_METRICS = ("corpus.build", "group.bsgs", "group.elements",
                "structure.report", "structure.quotient", "structure.sylow",
                "rank.group_rank", "rank.min_generators", "witness.also",
                "witness.szivas", "witness.embedding", "witness.factorize",
                "cli.report")
COUNT_METRICS = ("group.elements_enumerated", "group.base_points",
                 "structure.quotient_degree", "rank.subgroups_enumerated",
                 "rank.refused", "rank.table_entries", "statements.verdicts",
                 "witness.chain_elements")


def per_layer(cb, tracer: Tracer, traced: Pass, untraced: Pass) -> dict:
    own = tracer.self_times()
    by_name: dict[str, float] = {}
    for (name, *_), t in zip(tracer.spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
    metrics = {}
    for name in SPAN_METRICS:
        metrics[name + "_s"] = (by_name.get(name, 0.0), "s")
    for tag in cb.STATEMENT_TAGS:
        metrics[f"statements.{tag}_s"] = (by_name.get("statements." + tag,
                                                      0.0), "s")
    for name in COUNT_METRICS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    # self times are raw, so they are compared with the raw traced wall;
    # the overhead compares two passes, so it uses normalised times
    metrics["trace.wall_s"] = (traced.raw_wall, "s")
    metrics["trace.self_total_s"] = (sum(own), "s")
    metrics["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    return metrics


def slowest_pairs(tracer: Tracer, n: int = 10) -> list[tuple[float, str, str]]:
    totals: dict[tuple[str, str], float] = {}
    for (name, _, _, _, request), t in zip(tracer.spans, tracer.self_times()):
        totals[(request, name)] = totals.get((request, name), 0.0) + t
    ranked = sorted(((t, req, name) for (req, name), t in totals.items()),
                    reverse=True)
    return ranked[:n]


# -- driver -------------------------------------------------------------------


def run_passes(cb, workload, items, cfg, seconds, trace):
    """Untraced passes (alternating with traced ones under --trace 1) until
    the next pass would end past the deadline, and at least two."""
    untraced, traced, tracers = [], [], []
    # long-lived objects leave the collector's view, so the collection after
    # each group only walks that group's garbage
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while True:
        gc.collect()
        untraced.append(timed_pass(cb, workload, items, cfg, _NoTrace()))
        if trace:
            gc.collect()
            tracers.append(Tracer())
            traced.append(timed_pass(cb, workload, items, cfg, tracers[-1]))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        rounds = len(untraced) + len(traced)
        if rounds >= 2 and elapsed + per_round > seconds:
            return untraced, traced, tracers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cb, items, setup_s = setup(args.workload, args.seed)
    cfg = cb.Config(seed=args.seed)
    untraced, traced, tracers = run_passes(cb, args.workload, items, cfg,
                                           args.seconds, args.trace)
    passes = untraced + traced
    if args.trace:
        metrics = per_layer(cb, tracers[-1], traced[-1], untraced[-1])
    else:
        metrics = end_to_end(setup_s, untraced)

    wrong = check_outputs(cb, args.workload, items, passes)
    lost = [msg for run in passes for msg in run.lost]
    for msg in lost + wrong:
        print(msg, file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT_DIR / f"report-{stem}.jsonl").write_text(untraced[-1].report)
    if args.trace:
        _write_trace(stem, tracers[-1], traced[-1])

    raw_wall = statistics.median(run.raw_wall for run in untraced)
    print(f"workload={args.workload} seed={args.seed} groups={len(items)} "
          f"passes={len(untraced)}+{len(traced)} traced "
          f"raw_wall_s={raw_wall:.3f} wrong_outputs={len(wrong)} "
          f"lost={len(lost)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    result = {
        "correct": not wrong,
        "attempted": sum(run.attempted for run in passes),
        "failed": len(lost),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


def _write_trace(stem: str, tracer: Tracer, traced: Pass):
    with open(OUT_DIR / f"spans-{stem}.jsonl", "w") as fh:
        for name, start, end, parent, request in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "request": request}) + "\n")
    lines = [f"{t:9.4f} s  {name:24s} {request}"
             for t, request, name in slowest_pairs(tracer)]
    (OUT_DIR / f"slowest-{stem}.txt").write_text("\n".join(lines) + "\n")
    print(f"slowest (group, span) pairs by self time, traced pass "
          f"{traced.wall:.3f} s:")
    for line in lines:
        print("  " + line)


if __name__ == "__main__":
    sys.exit(main())
