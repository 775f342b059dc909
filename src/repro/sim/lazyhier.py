"""Lazy ring-aware cache hierarchy — the columnar engine's cache model.

The dominant simulator cost after interning and memoization is application
ring traffic: every op streams tens to hundreds of consecutive cache lines
through a 2 MB ring (:data:`RING_BASE`), and the reference hierarchy pays
~12 dict operations per line keeping three levels of LRU sets current.
Almost all of that state is overwritten by later ring lines before anything
observes it.  :class:`LazyRingHierarchy` exploits that: ring bursts are
*logged*, not applied, and a cache set is materialized — its pending ring
fills replayed — only when an allocator access (or an escape hatch like
``antagonize``) actually looks at it.

The model is exact, not approximate.  Three structural facts make lazy
replay equal the reference walk bit-for-bit:

* **Counters are closed-form.**  A ring line's re-touch can never hit L1 or
  L2: between touches of the same line a set receives at least one net
  associativity's worth of younger distinct fills (each back-invalidation
  removal is paired with an earlier insert into the same set), so every
  burst contributes exactly ``n`` L1 misses and ``n`` L2 misses, and L3
  hits/misses follow from the high-water mark of touched ring positions.
  :meth:`_engage` checks the geometry margin this argument needs.
* **Set indices nest.**  The set counts are nested powers of two
  (``n1 | n2 | n3``), so an L2 or L3 victim always maps to the *same*
  inner-level set as the line whose fill evicted it.  Every eager
  back-invalidation therefore lands on a set the current walk has already
  materialized — no event queues, no cross-set deferral.
* **Stamps order everything else.**  A global monotone stamp ``G`` (one per
  ring line, one per allocator walk) timestamps every insert.  Lazily
  discovered L2 evictions are applied to L1 with a stamp guard (remove only
  copies older than the eviction), which is provably the reference outcome;
  the rare interleavings the guard cannot reconstruct (an overflowing L1
  merge whose old entries might have undiscovered L2 evictions) *pull* the
  relevant L2 sets current first.

L3 is always eager for allocator lines (per-set ``{line: stamp}`` dicts);
ring residency is the interval ``[0, hwm)`` of touched positions minus a
(normally empty) ``absent`` set of back-invalidated positions, so a warm
burst is O(1).  Anything the representation cannot express exactly — a
non-cursor-shaped touch into the ring window, an allocator access landing
inside the ring, a flush — first materializes everything and then degrades
permanently to the plain eager hierarchy, which this class inherits.

``REPRO_ENGINE=reference`` never constructs this class; the differential
suite replays every workload family on both engines and demands identical
counters, stats, latencies, and set contents.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.sim.hierarchy import CacheHierarchy, HierarchyConfig

RING_BASE = 0x0000_7000_0000_0000
RING_BYTES = 2 * 1024 * 1024
RING_LINES = RING_BYTES // 64
_RING_BASE_LINE = RING_BASE >> 6
#: Ring positions representable before the exact per-line fallback kicks in
#: (one full ring plus overflow slack for bursts that run past the end).
_MAX_POS = RING_LINES + 16384

#: Bursts below this many lines are applied to L1/L2 immediately (still
#: logged for stamps, still interval-tracked in L3).  Small per-op bursts
#: cost less to apply than the per-access merge bookkeeping they would
#: otherwise induce; big bursts (heavy antagonists, window-flush tails)
#: amortize the log and win by never materializing overwritten state.
_EAGER_MAX = 256


class LazyRingHierarchy(CacheHierarchy):
    """Drop-in :class:`CacheHierarchy` with lazy ring-burst application."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self._lazy = False  # read by _refresh_fast_path during super().__init__
        super().__init__(config)
        self._engage()

    # ------------------------------------------------------------------ setup
    def _engage(self) -> None:
        """Switch on lazy operation if the geometry supports it."""
        if not self._fast:
            return
        n1, n2, n3 = self._n1, self._n2, self._n3
        a1, a2 = self._a1, self._a2
        if n2 % n1 or n3 % n2 or self._shift != 6:
            return  # victim/set alignment or line-size assumption broken
        # Margin for the closed-form burst counters: one ring lap must churn
        # every inner set by at least 2x its associativity.
        if RING_LINES < 2 * a1 * n1 or RING_LINES < 2 * a2 * n2:
            return
        if self._a3 <= -(-_MAX_POS // n3):
            return  # the ring alone could fill an L3 set: bulk path unsound
        self._lazy = True
        self._G = 0
        self._burst_G = 0
        # Burst log: parallel lists, stamps of entry j are
        # (G[j], G[j] + n[j]].  inner=False entries (window heads) age only
        # the L3 and are invisible to L1/L2 pending walks.
        self._log_first: list[int] = []
        self._log_n: list[int] = []
        self._log_G: list[int] = []
        self._log_inner: list[bool] = []
        # Inner-only mirror of the log: gathers walk this one, so the scan
        # never pays for window-head (outer) entries, which can dominate
        # windowed workloads' logs but never contribute pending L1/L2 fills.
        self._ilog_first: list[int] = []
        self._ilog_n: list[int] = []
        self._ilog_G: list[int] = []
        # Runs: maximal chains of line-contiguous inner entries.  Each value
        # is the ilog index where a run starts; gathers walk runs (stepping
        # candidate lines by ``mod``) instead of individual entries.
        self._irun_j0: list[int] = []
        # Prefix sums over the log (entry j covered by [j], [j+1]): inner
        # ring lines and inner entry counts, for the O(log n) survival bound
        # in :meth:`_l2_survives`.
        self._cin_lines: list[int] = [0]
        self._cin_cnt: list[int] = [0]
        # Materialization horizons (G units) per set, plus a global floor:
        # every log entry ending at or below ``_floor`` is already applied
        # to L1/L2 (eager small bursts), so merges start from
        # ``max(M[set], _floor)``.  ``_pending`` flips on the first lazy
        # (logged-but-unapplied) burst; it never clears short of a degrade,
        # because applying a newer burst eagerly over older pending fills
        # would break per-set LRU insertion order.
        self._M1 = [0] * n1
        self._M2 = [0] * n2
        self._floor = 0
        self._pending = False
        # L1/L2 sets are reused as {line: stamp}, insertion order == LRU.
        # L3 per-set dicts hold *allocator* lines only; ring residency is
        # [0, hwm) minus `absent` (position -> None).
        self._hwm = 0
        self._absent: dict[int, None] = {}
        self._cursor = 0  # expected position of the next ring burst
        # L3 sets whose allocator occupancy could make a cold/absent ring
        # insert evict: len(dict) >= assoc - max ring lines per set.
        self._ring_cap = -(-_MAX_POS // n3)  # ceil
        self._risk_len = self._a3 - self._ring_cap
        self._risk3: dict[int, None] = {}
        self._m1_ctx: tuple[int, dict, dict] | None = None
        self._refresh_fast_path()

    def _refresh_fast_path(self) -> None:
        super()._refresh_fast_path()
        if getattr(self, "_lazy", False):
            # Present as a fast-demand hierarchy so emitters bind the direct
            # walk; writes and reads take the same path, as in the plain one.
            self._fast_demand = True
            self._access_inner = self._lazy_access
            self.demand_access = self._lazy_access
        elif self._fast and type(self) is LazyRingHierarchy:
            # Degraded (or not yet engaged): behave exactly like the plain
            # hierarchy — our back-invalidation is the inherited one, so the
            # fully inlined walk is valid.
            self._fast_demand = True
            self._access_inner = self._access_fast_plain
            self.demand_access = self._access_inner

    # ------------------------------------------------------------ degradation
    def _degrade(self) -> None:
        """Materialize every set exactly, then run eager forever."""
        if not self._lazy:
            return
        self._materialize_inner()
        # Rebuild L3 sets: merge ring residents (stamped from the log) into
        # the allocator dicts in global LRU (stamp) order.
        ring_stamp: dict[int, int] = {}
        for j in range(len(self._log_first) - 1, -1, -1):
            first, n, g0 = self._log_first[j], self._log_n[j], self._log_G[j]
            for line in range(first, first + n):
                if line not in ring_stamp:
                    ring_stamp[line] = g0 + (line - first) + 1
        base = _RING_BASE_LINE
        absent = self._absent
        n3 = self._n3
        sets3 = self._sets3
        merged: list[dict[int, int]] = [dict(d) for d in sets3]
        for p in range(self._hwm):
            if p in absent:
                continue
            line = base + p
            merged[line % n3][line] = ring_stamp[line]
        for sigma, d in enumerate(merged):
            sets3[sigma] = dict(sorted(d.items(), key=lambda kv: kv[1]))
        self.l3._sets = sets3  # same list object; keep the alias honest
        self._drop_lazy_state()

    def _drop_lazy_state(self) -> None:
        """Leave lazy mode for good: drop every lazy structure, rebind."""
        self._lazy = False
        self._log_first, self._log_n, self._log_G, self._log_inner = [], [], [], []
        self._ilog_first, self._ilog_n, self._ilog_G = [], [], []
        self._irun_j0 = []
        self._cin_lines = [0]
        self._cin_cnt = [0]
        self._hwm = 0
        self._absent = {}
        self._risk3 = {}
        self._m1_ctx = None
        self._refresh_fast_path()

    def _materialize_inner(self) -> None:
        """Bring every L1/L2 set current (exact contents, exact order)."""
        for sigma in range(self._n1):
            self._merge_l1(sigma)
        for sigma in range(self._n2):
            self._merge_l2(sigma)

    # ------------------------------------------------------------ burst log
    def _gather(self, sigma: int, mod: int, horizon: int, upto: int, assoc: int):
        """Pending ring fills for set ``sigma`` with stamps in
        ``(horizon, upto]``: ``(pending, wiped)`` where ``pending`` maps
        line -> newest stamp, in ascending stamp order (so merges replay it
        directly, no sort).  Stops early once ``assoc`` distinct lines are
        found newest-first (``wiped``): older pending can no longer matter.

        Walks *runs* (``_irun_j0``: maximal line-contiguous entry chains)
        newest-first, stepping candidate lines by ``mod`` instead of
        visiting every log entry — for large ``mod`` (the L2 walk) most
        entries hold no line for ``sigma`` and are skipped wholesale.
        """
        ilf, iln, ilG = self._ilog_first, self._ilog_n, self._ilog_G
        runs = self._irun_j0
        out: list[tuple[int, int]] = []  # (line, stamp), stamps descending
        out_append = out.append
        seen: set[int] | None = None  # built lazily for cross-run dedup
        j1 = len(ilf)
        for r in range(len(runs) - 1, -1, -1):
            j0 = runs[r]
            jlast = j1 - 1
            if ilG[jlast] + iln[jlast] <= horizon:
                break  # this run and everything older is consumed
            if ilG[j0] >= upto:
                j1 = j0
                continue
            # Clip the stamp window (horizon, upto] to a line interval
            # [lo, hi]: within a run stamps rise strictly with the line
            # (entries are line-contiguous; gaps are stamp-only).
            if upto > ilG[jlast] + iln[jlast]:
                j = jlast
                hi = ilf[jlast] + iln[jlast] - 1
            else:
                j = bisect_right(ilG, upto, j0, j1) - 1
                d = upto - ilG[j]
                n_j = iln[j]
                hi = ilf[j] + (d if d < n_j else n_j) - 1
            if horizon <= ilG[j0]:
                lo = ilf[j0]
            else:
                jlo = bisect_right(ilG, horizon, j0, j1) - 1
                d = horizon - ilG[jlo]
                n_j = iln[jlo]
                lo = ilf[jlo] + (d if d < n_j else n_j)
            j1 = j0
            # Newest line >= lo matching sigma (mod), walking descending;
            # stamp == g0 + (line - first) + 1 off the covering entry.
            last = hi - ((hi - sigma) % mod)
            if last < lo:
                continue
            if out and seen is None:
                seen = {ln for ln, _ in out}
            need = assoc - len(out)
            fj = ilf[j]
            base = ilG[j] - fj + 1  # stamp of line == base + line, entry j
            if seen is None:
                # Common case: the whole request resolves in the newest run
                # (lines within a run are distinct — no membership tests).
                for line in range(last, lo - 1, -mod):
                    if fj > line:
                        while fj > line:
                            j -= 1
                            fj = ilf[j]
                        base = ilG[j] - fj + 1
                    out_append((line, base + line))
                    need -= 1
                    if not need:
                        out.reverse()
                        return dict(out), True
            else:
                for line in range(last, lo - 1, -mod):
                    if fj > line:
                        while fj > line:
                            j -= 1
                            fj = ilf[j]
                        base = ilG[j] - fj + 1
                    if line in seen:
                        continue
                    seen.add(line)
                    out_append((line, base + line))
                    need -= 1
                    if not need:
                        out.reverse()
                        return dict(out), True
        out.reverse()
        return dict(out), False

    def _ring_stamp(self, line: int) -> int:
        """Last-touch stamp of a resident ring line (newest log entry
        covering it)."""
        log_first, log_n, log_G = self._log_first, self._log_n, self._log_G
        for j in range(len(log_first) - 1, -1, -1):
            first = log_first[j]
            if first <= line < first + log_n[j]:
                return log_G[j] + (line - first) + 1
        raise AssertionError(f"ring line {line:#x} not in burst log")

    # ------------------------------------------------------------------ merge
    def _apply_removal_l1(self, victim: int, stamp: int) -> None:
        """A lazily discovered L2 eviction back-invalidates ``victim`` from
        L1 *as of* ``stamp``: only copies older than the eviction die — a
        newer copy means the line was re-filled afterwards and survives."""
        ctx = self._m1_ctx
        sigma = victim % self._n1
        if ctx is not None and ctx[0] == sigma:
            _, old, pending = ctx
            if victim in old and old[victim] < stamp:
                del old[victim]
            if victim in pending and pending[victim] < stamp:
                del pending[victim]
            return
        ways = self._sets1[sigma]
        if victim in ways and ways[victim] < stamp:
            del ways[victim]

    def _l2_survives(self, line: int, sigma: int) -> bool:
        """Cheap sufficient condition that ``line``'s L2 copy survives every
        pending ring fill for set ``sigma`` — in which case the inclusion
        guard holds without merging (horizons stay put; the eventual merge
        replays the same fills with the same outcome).

        Replayed in stamp order, pending fills — all distinct ring lines,
        all younger than every dict entry — evict oldest-first, so ``line``
        (rank ``r`` above the oldest entry, set size ``m``, associativity
        ``a``) is evicted only after more than ``r + (a - m)`` insertions.
        Pending fills for one set are at most ``inner_lines // n2`` plus one
        slack line per inner log entry, both read off prefix sums, so the
        bound costs one bisect instead of a log walk.
        """
        ways = self._sets2[sigma]
        r = 0
        for k in ways:
            if k == line:
                break
            r += 1
        else:
            return False  # no L2 copy in the merged state: must merge
        horizon = self._M2[sigma]
        if horizon < self._floor:
            horizon = self._floor
        # Oldest log entry with stamps past the horizon (entry ends are the
        # next entry's g0, so both columns are strictly increasing).
        j0 = bisect_right(self._log_G, horizon) - 1
        if j0 < 0:
            j0 = 0
        fills = (self._cin_lines[-1] - self._cin_lines[j0]) // self._n2 + (
            self._cin_cnt[-1] - self._cin_cnt[j0]
        )
        return fills <= self._a2 - len(ways) + r

    def _merge_l2(self, sigma: int, upto: int | None = None) -> None:
        T = self._burst_G if upto is None else upto
        horizon = self._M2[sigma]
        if horizon < self._floor:
            horizon = self._floor
        if horizon >= T:
            return
        a2 = self._a2
        pending, wiped = self._gather(sigma, self._n2, horizon, T, a2)
        ways = self._sets2[sigma]
        self._M2[sigma] = T
        if not pending:
            return
        if wiped:
            # Every old entry not refreshed by the surviving pending fills
            # was evicted at some stamp <= T with its L1 copy unrefreshed
            # since (fills touch both levels together), so the guard with
            # stamp T is exact.  _apply_removal_l1's common (no-ctx) path is
            # inlined: this loop dominates the merge's call count.
            ctx = self._m1_ctx
            n1 = self._n1
            sets1 = self._sets1
            if ctx is None:
                for v in ways:
                    if v not in pending:
                        ways1 = sets1[v % n1]
                        if v in ways1 and ways1[v] < T:
                            del ways1[v]
            else:
                for v in ways:
                    if v not in pending:
                        self._apply_removal_l1(v, T)
            ways.clear()
            ways.update(pending)  # _gather yields ascending stamps
            return
        for line, s in pending.items():  # ascending stamps from _gather
            if line in ways:
                del ways[line]
            elif len(ways) >= a2:
                for v in ways:
                    break
                del ways[v]
                self._apply_removal_l1(v, s)
            ways[line] = s

    def _merge_l1(self, sigma: int, upto: int | None = None) -> None:
        T = self._burst_G if upto is None else upto
        horizon = self._M1[sigma]
        if horizon < self._floor:
            horizon = self._floor
        if horizon >= T:
            return
        a1 = self._a1
        pending, wiped = self._gather(sigma, self._n1, horizon, T, a1)
        ways = self._sets1[sigma]
        self._M1[sigma] = T
        if not pending:
            return
        if wiped:
            ways.clear()
            ways.update(pending)  # _gather yields ascending stamps
            return
        if ways and len(ways) + len(pending) > a1:
            # An eviction may occur, so every old allocator entry must have
            # its (possibly stale) L2 set pulled current first: an
            # undiscovered L2 eviction of an old entry would change which
            # lines survive.  Old *ring* entries cannot be affected — an
            # undiscovered L2 eviction of a ring line needs a2 pending fills
            # in its L2 set, all of which are pending here too, forcing the
            # wipe branch instead.
            base, limit = _RING_BASE_LINE, _RING_BASE_LINE + _MAX_POS
            n2 = self._n2
            burst_G = self._burst_G
            self._m1_ctx = (sigma, ways, pending)
            try:
                for x in list(ways):
                    if base <= x < limit:
                        continue
                    if self._M2[x % n2] < burst_G:
                        self._merge_l2(x % n2)
            finally:
                self._m1_ctx = None
            if not pending:
                return
        for line, s in pending.items():  # ascending stamps from _gather
            if line in ways:
                del ways[line]
            elif len(ways) >= a1:
                for v in ways:
                    break
                del ways[v]
            ways[line] = s

    # ------------------------------------------------------------ ring bursts
    def _ring_burst(self, first_line: int, n: int, inner: bool) -> None:
        """Apply one contiguous ring burst lazily (see module docstring)."""
        g0 = self._G
        self._log_first.append(first_line)
        self._log_n.append(n)
        self._log_G.append(g0)
        self._log_inner.append(inner)
        cl = self._cin_lines
        cc = self._cin_cnt
        if inner:
            # Coalesce with the previous inner entry when both lines and
            # stamps are contiguous: the merged entry keeps the closed form
            # stamp == g0 + (line - first) + 1 exactly, and ``_gather`` is
            # the inner log's only consumer.  Line-contiguous entries with a
            # stamp gap (demand accesses consumed stamps in between) stay
            # separate entries but extend the current *run*; a line gap or
            # ring wrap starts a new run.
            ilf = self._ilog_first
            iln = self._ilog_n
            if iln and ilf[-1] + iln[-1] == first_line:
                if self._ilog_G[-1] + iln[-1] == g0:
                    iln[-1] += n
                else:
                    ilf.append(first_line)
                    iln.append(n)
                    self._ilog_G.append(g0)
            else:
                self._irun_j0.append(len(ilf))
                ilf.append(first_line)
                iln.append(n)
                self._ilog_G.append(g0)
            cl.append(cl[-1] + n)
            cc.append(cc[-1] + 1)
        else:
            cl.append(cl[-1])
            cc.append(cc[-1])
        self._G = g0 + n
        self._burst_G = self._G
        self.l1.misses += n
        self.l2.misses += n
        p0 = first_line - _RING_BASE_LINE
        end = p0 + n
        hwm = self._hwm
        warm_end = end if end < hwm else hwm
        absent_hit: list[int] = []  # re-touched back-invalidated positions
        if self._absent and p0 < warm_end:
            absent_hit = [p for p in self._absent if p0 <= p < warm_end]
        warm_hits = (warm_end - p0 if warm_end > p0 else 0) - len(absent_hit)
        cold = end - hwm if end > hwm else 0
        self.l3.hits += warm_hits
        misses = cold + len(absent_hit)
        self.l3.misses += misses
        self.dram_accesses += misses
        # Positions whose L3 insert may evict run the exact per-line path,
        # in stamp order (merge horizons per inner set must be monotone).
        exceptions = absent_hit
        if cold and self._risk3:
            n3 = self._n3
            lo_line = _RING_BASE_LINE + hwm
            for sigma in list(self._risk3):
                off = (sigma - lo_line) % n3
                for line in range(lo_line + off, _RING_BASE_LINE + end, n3):
                    exceptions.append(line - _RING_BASE_LINE)
        if inner and not self._pending and n < _EAGER_MAX:
            # Eager route: apply the burst's L1/L2 fills now, interleaved
            # with the exceptional L3 inserts in reference (position) order,
            # then advance the floor so merges skip this entry.
            prev = p0
            for p in sorted(exceptions):
                if p > prev:
                    self._apply_inner_segment(
                        first_line + (prev - p0), p - prev, g0 + (prev - p0)
                    )
                self._ring_insert_exception(p, g0 + (p - p0) + 1)
                self._absent.pop(p, None)
                prev = p
            if end > prev:
                self._apply_inner_segment(
                    first_line + (prev - p0), end - prev, g0 + (prev - p0)
                )
            if cold:
                self._hwm = end
            self._floor = self._G
            return
        if inner:
            self._pending = True
        elif not self._pending:
            # Window heads never enter L1/L2; with nothing pending the floor
            # can ride over them so later merges skip the entry outright.
            self._floor = self._G
        for p in sorted(exceptions):
            self._ring_insert_exception(p, g0 + (p - p0) + 1)
            self._absent.pop(p, None)
        if cold:
            self._hwm = end

    def _apply_inner_segment(self, first: int, n: int, g0: int) -> None:
        """Eagerly fill L1/L2 for burst lines ``[first, first + n)`` with
        stamps ``g0+1 .. g0+n`` — exactly what a merge would replay, applied
        at once.  Relies on the closed-form counter invariant: a ring line's
        re-touch never hits L1/L2, so every line is a plain miss-fill."""
        n1, n2 = self._n1, self._n2
        a1, a2 = self._a1, self._a2
        sets1, sets2 = self._sets1, self._sets2
        stamp = g0
        for line in range(first, first + n):
            stamp += 1
            ways2 = sets2[line % n2]
            if len(ways2) >= a2:
                for v2 in ways2:
                    break
                del ways2[v2]
                vset = sets1[v2 % n1]
                if v2 in vset:
                    del vset[v2]
            ways2[line] = stamp
            ways1 = sets1[line % n1]
            if len(ways1) >= a1:
                for v1 in ways1:
                    break
                del ways1[v1]
            ways1[line] = stamp

    def _ring_insert_exception(self, p: int, stamp: int) -> None:
        """Exact mid-burst L3 insert for a position that may evict: the set
        is (or may be) full, so the reference walk's victim choice and
        back-invalidations must run now, against state materialized up to
        the instant before this line's fill."""
        line = _RING_BASE_LINE + p
        n3 = self._n3
        sigma3 = line % n3
        d3 = self._sets3[sigma3]
        # Exact occupancy: allocator lines plus resident ring positions of
        # this set — [0, hwm) minus absent, plus any cold lines earlier in
        # the current burst (hwm is only advanced once the burst is logged).
        r3 = (sigma3 - _RING_BASE_LINE) % n3
        hwm = self._hwm if self._hwm > p else p
        candidates = []
        for q in range(r3, hwm, n3):
            if q == p or q in self._absent:
                continue
            candidates.append((self._ring_stamp(_RING_BASE_LINE + q), q))
        if len(d3) + len(candidates) >= self._a3:
            # Victim: globally least-recent among allocator and ring lines.
            v_line, v_stamp = None, None
            for cand, s in d3.items():
                if v_stamp is None or s < v_stamp:
                    v_line, v_stamp = cand, s
            for s, q in candidates:
                if v_stamp is None or s < v_stamp:
                    v_line, v_stamp = _RING_BASE_LINE + q, s
            if v_line is not None:
                if v_line in d3:
                    del d3[v_line]
                    if len(d3) < self._risk_len:
                        self._risk3.pop(sigma3, None)
                else:
                    self._absent[v_line - _RING_BASE_LINE] = None
                # Back-invalidate, exactly ordered: materialize the (shared,
                # by set nesting) inner sets to just before this fill.
                s1, s2 = line % self._n1, line % self._n2
                self._merge_l1(s1, stamp - 1)
                self._merge_l2(s2, stamp - 1)
                ways = self._sets2[s2]
                if v_line in ways:
                    del ways[v_line]
                ways = self._sets1[s1]
                if v_line in ways:
                    del ways[v_line]

    # ----------------------------------------------------------- public API
    def touch_lines(self, base: int, num_lines: int, stride: int = 64) -> None:
        if not self._lazy:
            super().touch_lines(base, num_lines, stride)
            return
        if num_lines <= 0:
            return
        ring_lo = RING_BASE
        ring_hi = RING_BASE + _MAX_POS * 64
        if stride != 64 or base % 64:
            span_end = base + (num_lines - 1) * stride
            if base >= ring_hi or span_end < ring_lo:
                access = self._lazy_access
                for i in range(num_lines):
                    access(base + i * stride)
            else:
                self._degrade()
                super().touch_lines(base, num_lines, stride)
            return
        first = base >> 6
        if base >= ring_hi or base + num_lines * 64 <= ring_lo:
            access = self._lazy_access
            for line in range(first, first + num_lines):
                access(line << 6)
            return
        p0 = first - _RING_BASE_LINE
        if p0 == self._cursor and base >= ring_lo and p0 + num_lines <= _MAX_POS:
            self._ring_burst(first, num_lines, True)
            self._cursor = (p0 + num_lines) % RING_LINES
            return
        self._degrade()
        super().touch_lines(base, num_lines, stride)

    def touch_line_window(self, ranges: list[tuple[int, int]]) -> None:
        if not self._lazy:
            super().touch_line_window(ranges)
            return
        total = 0
        pos = None
        ok = True
        for rbase, rn in ranges:
            if not rn:
                continue
            if rbase % 64 or rbase < RING_BASE:
                ok = False
                break
            rp = (rbase >> 6) - _RING_BASE_LINE
            if rp + rn > _MAX_POS or (pos is not None and rp != pos % RING_LINES):
                ok = False
                break
            if pos is None and rp > self._hwm:
                ok = False  # gap below the window: interval L3 can't express
                break
            pos = rp + rn
            total += rn
        if not ok:
            self._degrade()
            super().touch_line_window(ranges)
            return
        inner = self._a2 * self._n2
        head_left = total - inner
        for rbase, rn in ranges:
            if not rn:
                continue
            first = rbase >> 6
            k = 0
            if head_left > 0:
                k = rn if rn <= head_left else head_left
                head_left -= k
                self._ring_burst(first, k, False)
            if rn - k:
                self._ring_burst(first + k, rn - k, True)
        if pos is not None:
            self._cursor = pos % RING_LINES

    def access(self, addr: int, write: bool = False) -> int:
        if self._lazy:
            return self._lazy_access(addr)
        return super().access(addr, write)

    def _lazy_access(self, addr: int) -> int:
        line = addr >> 6
        if RING_BASE <= addr < RING_BASE + _MAX_POS * 64:
            # Out-of-band access into the ring window: the interval
            # representation of L3 residency cannot express it.
            self._degrade()
            return self.demand_access(addr)
        s1 = line % self._n1
        pending = self._pending
        if pending:
            burst_G = self._burst_G
            if self._M1[s1] < burst_G:
                self._merge_l1(s1)
        ways1 = self._sets1[s1]
        stamp = self._G + 1
        self._G = stamp
        hit1 = line in ways1
        if hit1 and pending:
            s2 = line % self._n2
            if self._M2[s2] < burst_G and not self._l2_survives(line, s2):
                # Inclusion guard: pending L2 churn may have evicted this
                # line's L2 copy, whose back-invalidation must land before
                # the hit is honored.
                self._merge_l2(s2)
                hit1 = line in ways1
        if hit1:
            self.l1.hits += 1
            del ways1[line]
            ways1[line] = stamp
            return self._lat1
        self.l1.misses += 1
        s2 = line % self._n2
        if pending and self._M2[s2] < burst_G:
            self._merge_l2(s2)
        ways2 = self._sets2[s2]
        if line in ways2:
            self.l2.hits += 1
            del ways2[line]
            ways2[line] = stamp
            if len(ways1) >= self._a1:
                for v1 in ways1:
                    break
                del ways1[v1]
            ways1[line] = stamp
            return self._lat2
        self.l2.misses += 1
        d3 = self._sets3[line % self._n3]
        if line in d3:
            self.l3.hits += 1
            del d3[line]
            d3[line] = stamp
            latency = self._lat3
        else:
            self.l3.misses += 1
            self.dram_accesses += 1
            self._alloc_l3_insert(line, stamp, d3)
            latency = self._lat_dram
        if len(ways2) >= self._a2:
            for v2 in ways2:
                break
            del ways2[v2]
            vset = self._sets1[v2 % self._n1]
            if v2 in vset:
                del vset[v2]
        ways2[line] = stamp
        if len(ways1) >= self._a1:
            for v1 in ways1:
                break
            del ways1[v1]
        ways1[line] = stamp
        return latency

    def _alloc_l3_insert(self, line: int, stamp: int, d3: dict[int, int]) -> None:
        """DRAM-missing allocator fill of L3, with exact victim choice over
        the hybrid (dict + ring interval) set representation."""
        n3 = self._n3
        sigma3 = line % n3
        r3 = (sigma3 - _RING_BASE_LINE) % n3
        candidates = []
        for q in range(r3, self._hwm, n3):
            if q not in self._absent:
                candidates.append(q)
        if len(d3) + len(candidates) >= self._a3:
            v_line, v_stamp = None, None
            for cand, s in d3.items():
                if v_stamp is None or s < v_stamp:
                    v_line, v_stamp = cand, s
            for q in candidates:
                s = self._ring_stamp(_RING_BASE_LINE + q)
                if v_stamp is None or s < v_stamp:
                    v_line, v_stamp = _RING_BASE_LINE + q, s
            if v_line is not None:
                if v_line in d3:
                    del d3[v_line]
                else:
                    self._absent[v_line - _RING_BASE_LINE] = None
                # By set nesting the victim lives in the very L1/L2 sets the
                # current walk just materialized: eager, ordered removal.
                vset = self._sets2[v_line % self._n2]
                if v_line in vset:
                    del vset[v_line]
                vset = self._sets1[v_line % self._n1]
                if v_line in vset:
                    del vset[v_line]
        d3[line] = stamp
        if len(d3) >= self._risk_len:
            self._risk3[sigma3] = None

    def prefetch(self, addr: int) -> int:
        if self._lazy:
            return self._lazy_access(addr)
        return super().prefetch(addr)

    def probe_latency(self, addr: int) -> int:
        if not self._lazy:
            return super().probe_latency(addr)
        line = addr >> 6
        s1 = line % self._n1
        s2 = line % self._n2
        # Non-mutating for observable state: materialization only replays
        # history the reference hierarchy would already have applied.
        self._merge_l1(s1)
        self._merge_l2(s2)
        if line in self._sets1[s1]:
            return self.config.l1.latency
        if line in self._sets2[s2]:
            return self.config.l2.latency
        if RING_BASE <= addr < RING_BASE + _MAX_POS * 64:
            p = line - _RING_BASE_LINE
            if p < self._hwm and p not in self._absent:
                return self.config.l3.latency
            return self.config.dram_latency
        if line in self._sets3[line % self._n3]:
            return self.config.l3.latency
        return self.config.dram_latency

    def antagonize(self) -> int:
        if not self._lazy:
            return super().antagonize()
        self._materialize_inner()
        return self.l1.evict_less_used_half() + self.l2.evict_less_used_half()

    @property
    def levels(self):
        # Handing out the raw level objects exposes ``_sets`` contents
        # (differential state snapshots, flushes), which the lazy
        # representation keeps partially pending.  Materialize exactly first;
        # counters and latencies are unaffected.
        if self._lazy:
            self._degrade()
        return (self.l1, self.l2, self.l3)

    def flush_all(self) -> None:
        if self._lazy:
            # A flush empties everything, so there is nothing worth keeping
            # lazy state for — and the interval L3 representation cannot
            # express "touched but flushed".  Degrade to eager.
            self._drop_lazy_state()
        super().flush_all()
