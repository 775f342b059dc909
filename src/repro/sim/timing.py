"""Dependency-graph timing model of an aggressive out-of-order core.

The model answers one question per allocator call: *how many cycles does this
trace take on a Haswell-class core?*  It schedules micro-ops out of order,
constrained by

* data dependences (a uop issues only after all its sources are ready),
* issue width (at most ``issue_width`` uops begin execution per cycle),
* latencies: ALU/branch 1 cycle, loads whatever the cache hierarchy charged
  at emission time, stores 1 cycle (they drain from the store buffer and stay
  off the critical path, matching the paper's observation that "stores misses
  are less likely to stall the execution or commit of younger instructions").

This deliberately omits fetch/decode/rename detail: for 40-instruction,
loop-free, well-predicted code (the malloc fast path, Section 3.3), the
critical path through dependent loads plus the issue-width bound *are* the
cycle count, which is why the paper's own microbenchmark validation (Table 1)
is reproducible with this model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.columns import (
    materialize_struct_columns,
    struct_columns_cached,
    removed_tag_mask,
    schedule_columns,
    schedule_columns_ablated,
)
from repro.sim.engine import is_columnar
from repro.sim.uop import Tag, Trace, UopKind


@dataclass(frozen=True)
class CoreConfig:
    """Core parameters (defaults model Intel Haswell, as in the paper)."""

    issue_width: int = 4
    load_ports: int = 2
    """Loads that can begin per cycle (Haswell has two load AGUs)."""
    store_ports: int = 1
    rob_size: int = 192
    """Reorder-buffer entries (Haswell).  A micro-op cannot issue until the
    op ``rob_size`` positions older has retired (in-order retirement), which
    caps how much latency a long dependent slow-path loop can hide."""
    pipeline_overhead: int = 2
    """Front-end cycles charged once per call (call/return, fetch redirect)."""


#: Process-wide schedule stores of the columnar engine, one per core config,
#: keyed like the per-model memo.  A schedule is a pure function of (key,
#: config), so results are bit-equal wherever they are recomputed; sharing
#: them across machines — and, through ``fork``, with pool workers
#: (:func:`repro.harness.parallel.build_warm_bank`) — skips the scheduling
#: walk without touching any per-model telemetry.  The reference engine
#: never reads or writes a store: it stays the executable spec.  A store is
#: cleared wholesale at the cap (a safety valve for very long processes;
#: fingerprint cardinality is small in practice).
_STORES: dict[CoreConfig, dict] = {}
_STORE_CAP = 1 << 16


@dataclass
class TimingResult:
    """Outcome of scheduling one trace.

    Results coming out of :meth:`TimingModel.run` are memoized and *shared*
    between memo hits, so the per-uop time vectors are tuples: a caller
    mutating a list here would silently corrupt every later hit on the same
    fingerprint."""

    cycles: int
    issue_times: tuple[int, ...] = ()
    ready_times: tuple[int, ...] = ()

    @property
    def num_uops(self) -> int:
        return len(self.issue_times)

    @property
    def ipc(self) -> float:
        return self.num_uops / self.cycles if self.cycles else 0.0


class TimingModel:
    """Schedules traces; the only state beyond configuration is the
    schedule memo, which by construction never changes an answer."""

    def __init__(self, config: CoreConfig | None = None, columnar: bool | None = None) -> None:
        self.config = config or CoreConfig()
        #: Engine choice, resolved at construction (``REPRO_ENGINE``) like
        #: the cache implementation.  Columnar scheduling walks the flat
        #: columns twin-materialized traces carry (repro.sim.columns);
        #: results are bit-identical to :meth:`_schedule`.
        self.columnar = is_columnar() if columnar is None else columnar
        #: Per-model schedule memo: fingerprint key, or ``(key,
        #: frozenset(tags))`` for ablations, to a shared ``TimingResult``.
        #: ``hits``/``misses`` count its lookups (the runner's
        #: ``trace_cache_hits``/``trace_cache_misses``).
        self._memo: dict = {}
        self.hits = 0
        self.misses = 0
        self._store = _STORES.setdefault(self.config, {}) if self.columnar else None
        #: Template-compilation telemetry (columnar engine only; surfaced by
        #: the hot-path profiler as ``columnar_templates_compiled`` /
        #: ``columnar_uops_compiled``).
        self.columnar_compiles = 0
        self.columnar_compiled_uops = 0
        #: Optional duck-typed profiler (set alongside ``machine.profiler``);
        #: when present, compile time is recorded as the ``columnar_compile``
        #: stage, nested inside the allocator's ``schedule`` span.
        self.profiler = None
        self._ablate_masks: dict[frozenset, int] = {}
        #: Fused-twin structures this model has used, keyed by structure id
        #: (each entry pins the structure tuple, so the id stays valid).
        #: The static arrays themselves are shared process-wide; this map
        #: exists so compile telemetry is deterministic per machine rather
        #: than depending on process history.
        self._struct_columns: dict[int, tuple] = {}

    # ------------------------------------------------------------ memoization
    def run(self, trace: Trace) -> TimingResult:
        """Schedule ``trace`` and return its cycle count.

        The returned ``cycles`` includes a small fixed pipeline overhead so
        an empty trace still costs a call/return.  Results are memoized by
        the trace's canonical fingerprint and may be shared objects — treat
        them as immutable.
        """
        key = trace.fingerprint_key()
        result = self._memo.get(key)
        if result is None:
            return self._miss(key, trace, None)
        self.hits += 1
        return result

    def run_ablated(self, trace: Trace, tags: frozenset[Tag] | set[Tag]) -> TimingResult:
        """Schedule ``trace`` with all ops carrying ``tags`` removed.

        Memoized on ``(fingerprint, tags)`` so a hit skips both the
        :meth:`~repro.sim.uop.Trace.without_tags` rewrite and the schedule —
        this is what keeps the limit-study ablation from doubling a
        baseline replay's cost."""
        tags = frozenset(tags)
        key = (trace.fingerprint_key(), tags)
        result = self._memo.get(key)
        if result is None:
            return self._miss(key, trace, tags)
        self.hits += 1
        return result

    def _miss(self, key, trace: Trace, tags: frozenset | None) -> TimingResult:
        """Count a memo miss, then take the result from the process store
        (columnar engine) or compute it, and memoize it."""
        self.misses += 1
        store = self._store
        if store is None:
            result = self._schedule(trace if tags is None else trace.without_tags(tags))
        else:
            result = store.get(key)
            if result is None:
                result = self._schedule_columnar(trace, tags)
                if len(store) >= _STORE_CAP:
                    store.clear()
                store[key] = result
        self._memo[key] = result
        return result

    # ----------------------------------------------------- columnar schedule
    def materialize_columnar(self, struct: tuple, addrs, lats) -> Trace:
        """Materialize a fused-twin intern miss straight to columns.

        Static column templates are pure functions of the structure, so the
        compiled arrays are shared process-wide (``struct_columns_cached``);
        every miss of a known shape then only fills the per-call latency and
        cache-line columns — ``Uop`` objects are never constructed for
        twin-served calls.  Compile telemetry (counters and the
        ``columnar_compile`` profiler stage) is credited on each model's
        *first use* of a shape, so it stays deterministic per machine
        instead of depending on process history."""
        entry = self._struct_columns.get(id(struct))
        if entry is None:
            profiler = self.profiler
            if profiler is not None:
                with profiler.timed("columnar_compile"):
                    static = struct_columns_cached(struct)
            else:
                static = struct_columns_cached(struct)
            entry = self._struct_columns[id(struct)] = (struct, static)
            self.columnar_compiles += 1
            self.columnar_compiled_uops += static[0]
        return materialize_struct_columns(entry[1], struct, addrs, lats)

    def _schedule_columnar(self, trace: Trace, tags: frozenset | None) -> TimingResult:
        """Walk the trace's columns when it carries them (twin-materialized
        traces); any other trace takes the object walk.  A stored result is
        never scheduled again, so compiling columns for a trace that lacks
        them would pay array construction for a single walk."""
        cols = getattr(trace, "_columns", None)
        if cols is None:
            return self._schedule(trace if tags is None else trace.without_tags(tags))
        config = self.config
        if tags is None:
            completion, issue_times, ready_times = schedule_columns(cols, config)
        else:
            mask = self._ablate_masks.get(tags)
            if mask is None:
                mask = self._ablate_masks[tags] = removed_tag_mask(tags)
            if cols.tag_mask & mask:
                completion, issue_times, ready_times = schedule_columns_ablated(
                    cols, mask, config
                )
            else:
                # No uop carries a removed tag: the ablated trace is the trace.
                completion, issue_times, ready_times = schedule_columns(cols, config)
        return TimingResult(
            cycles=completion + config.pipeline_overhead,
            issue_times=tuple(issue_times),
            ready_times=tuple(ready_times),
        )

    # --------------------------------------------------------------- schedule
    def _schedule(self, trace: Trace) -> TimingResult:
        # Hot loop: every name used per-uop is a local (attribute chains and
        # enum lookups hoisted), with behavior identical to the obvious
        # spelling — memoization makes this the cost of every memo *miss*.
        config = self.config
        width = config.issue_width
        load_ports = config.load_ports
        store_ports = config.store_ports
        rob_size = config.rob_size
        kind_load, kind_prefetch, kind_store = UopKind.LOAD, UopKind.PREFETCH, UopKind.STORE
        issue_times: list[int] = []
        ready_times: list[int] = []
        slots: dict[int, int] = {}
        load_slots: dict[int, int] = {}
        store_slots: dict[int, int] = {}
        slots_get = slots.get
        load_get = load_slots.get
        store_get = store_slots.get
        issue_append = issue_times.append
        ready_append = ready_times.append

        completion = 0
        retire_times: list[int] = []
        retire_append = retire_times.append
        retire_frontier = 0
        for i, uop in enumerate(trace):
            cycle = 0
            for dep in uop.deps:
                if ready_times[dep] > cycle:
                    cycle = ready_times[dep]
            if i >= rob_size:
                # The ROB slot frees when the op rob_size older retires.
                oldest_retire = retire_times[i - rob_size]
                if oldest_retire > cycle:
                    cycle = oldest_retire
            kind = uop.kind
            is_load = kind is kind_load or kind is kind_prefetch
            is_store = kind is kind_store
            while (
                slots_get(cycle, 0) >= width
                or (is_load and load_get(cycle, 0) >= load_ports)
                or (is_store and store_get(cycle, 0) >= store_ports)
            ):
                cycle += 1
            slots[cycle] = slots_get(cycle, 0) + 1
            if is_load:
                load_slots[cycle] = load_get(cycle, 0) + 1
            elif is_store:
                store_slots[cycle] = store_get(cycle, 0) + 1
            issue_append(cycle)

            ready = cycle + uop.latency
            ready_append(ready)

            if is_store or kind is kind_prefetch:
                # Buffered: occupies a slot, retires without stalling.
                on_path = cycle + 1
            else:
                on_path = ready
            # In-order retirement: an op retires no earlier than its elders.
            if on_path > retire_frontier:
                retire_frontier = on_path
            retire_append(retire_frontier)
            if on_path > completion:
                completion = on_path

        cycles = completion + self.config.pipeline_overhead
        return TimingResult(
            cycles=cycles,
            issue_times=tuple(issue_times),
            ready_times=tuple(ready_times),
        )

    def critical_path(self, trace: Trace) -> int:
        """Latency-only lower bound: the longest dependence chain, ignoring
        issue-width.  Used by the analytic validation model (Table 1)."""
        ready: list[int] = []
        longest = 0
        for uop in trace:
            dep_ready = max((ready[d] for d in uop.deps), default=0)
            if uop.kind is UopKind.STORE or uop.kind is UopKind.PREFETCH:
                done = dep_ready + 1
            else:
                done = dep_ready + uop.latency
            ready.append(done)
            if done > longest:
                longest = done
        return longest
