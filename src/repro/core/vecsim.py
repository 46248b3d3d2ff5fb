"""The ``"vector"`` engine: numpy stateless evaluation over the shared kernels.

The paper's real call sequences span hundreds of thousands to tens of
millions of calls (Table 1), and the study drivers evaluate thousands
of schedules on each.  :class:`VectorSimulator` extends
:class:`~repro.core.fastsim.FastSimulator` and replaces exactly one
thing: **stateless** :meth:`~VectorSimulator.evaluate` without a
timeline.  That path runs on flat arrays — the interned call sequence
as integer ids, the cost tables as dense ``(function, level)``
matrices — in a fixed number of numpy passes (:meth:`_evaluate_batched`),
or in chunked prefix sums when the batched guess cannot be verified
(:meth:`_replay_totals`, which also serves multi-thread runs and the
fault layer's per-task overrides).

Everything else — the incremental ``bind`` / ``propose`` / ``commit`` /
``preview`` API, timeline evaluation, ``trace_stats`` and the due-date
objectives — is the inherited pure-Python kernel.  Per-call numpy
overrides of those replays measured no faster than the Python loops
they duplicated, so there is one implementation of each.

Exactness contract (the base class's): every number is **bitwise
identical** to the reference :func:`~repro.core.makespan.simulate`.
The numpy paths earn this by performing the reference's exact float
operations in the exact order:

* ``numpy.cumsum`` over a 1-D float64 array is a sequential
  left-associated accumulation, exactly like ``itertools.accumulate``
  (pairwise ``numpy.sum`` would NOT be — it is never used here);
* chaining is done by seeding element 0 of the cumsum buffer with the
  running clock, so chunk boundaries cannot perturb rounding;
* ``numpy.searchsorted(..., side="left")`` locates compile-event
  crossings exactly like ``bisect.bisect_left``.

numpy is an *optional* dependency: when it is missing (or the
``REPRO_NO_NUMPY`` environment variable is set), ``evaluate`` falls
back to the inherited pure-Python path, so the engine runs fully in
Python instead of failing to import.  The work counters keep their
``fastsim.*`` names and are identical on every path.

``tests/test_vecsim_differential.py`` enforces all of this
differentially on hypothesis-generated instances.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Optional, Sequence

from .fastsim import FastSimulator, TaskSeq, _Prep
from .makespan import MakespanResult, validate_for_simulation
from .model import OCSPInstance
from .schedule import Schedule, ScheduleError

__all__ = ["VectorSimulator", "numpy_available"]


def _numpy_or_none():
    """The numpy module, or ``None`` when unavailable or disabled."""
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY
        return None
    return numpy


def numpy_available() -> bool:
    """True when the vector engine will actually vectorize."""
    return _numpy_or_none() is not None


class VectorSimulator(FastSimulator):
    """Structure-of-arrays make-span evaluator for one instance.

    A drop-in :class:`~repro.core.fastsim.FastSimulator` whose
    stateless, timeline-free ``evaluate`` runs on flat numpy arrays.
    The public API, the exactness contract, and the ``fastsim.*`` work
    counters are the base class's; every other method is inherited.
    Without numpy ``evaluate`` is inherited too.
    """

    def __init__(
        self,
        instance: OCSPInstance,
        compile_threads: int = 1,
        preinstalled=None,
        metrics=None,
    ) -> None:
        super().__init__(
            instance,
            compile_threads=compile_threads,
            preinstalled=preinstalled,
            metrics=metrics,
        )
        self._np = _numpy_or_none()
        if self._np is not None:
            np = self._np
            # The interned call sequence as one flat id array; replay
            # segments are O(1) views into it.
            self._calls_np = np.asarray(self._calls_fid, dtype=np.intp)
            self._max_levels = max(
                (len(row) for row in self._exec_rows), default=1
            )
            # Static SoA state for the batched evaluate kernel: cost
            # tables as dense (fid, level) matrices (rows padded with
            # their last entry — padding is never indexed because level
            # validity is checked first), first-call positions and fids,
            # per-fid call counts, and per-fid level counts.
            ml = self._max_levels
            self._exec_tab = np.array(
                [row + (row[-1],) * (ml - len(row)) for row in self._exec_rows]
            ) if self._exec_rows else np.zeros((0, ml))
            self._compile_tab = np.array(
                [
                    row + (row[-1],) * (ml - len(row))
                    for row in self._compile_rows
                ]
            ) if self._compile_rows else np.zeros((0, ml))
            self._nlvl_np = np.asarray(
                [len(row) for row in self._exec_rows], dtype=np.int64
            )
            self._first_pos_np = np.asarray(self._first_pos, dtype=np.intp)
            self._first_fids_np = (
                self._calls_np[self._first_pos_np]
                if len(self._calls_np)
                else np.empty(0, dtype=np.intp)
            )
            self._call_counts_np = np.bincount(
                self._calls_np, minlength=self._num_fids
            )
            self._called_mask_np = self._call_counts_np > 0
            self._pre_pairs = [
                (fid, ev[0][1])
                for fid, ev in enumerate(self._pre_events)
                if ev
            ]
            # Per-fid call-position groups, built lazily: only needed
            # when some function's level varies across its calls.
            self._call_groups_cache = None
            # One-slot cache of the last Schedule's interned task
            # arrays.  Schedules are immutable, so identity implies
            # equality; local search and the bench loops re-evaluate
            # the same Schedule object many times.
            self._sched_arrays = None

    def _call_groups(self):
        """``(order, bounds)``: positions of fid ``f``'s calls, ascending,
        are ``order[bounds[f]:bounds[f + 1]]``.  Cached per instance."""
        if self._call_groups_cache is None:
            np = self._np
            order = np.argsort(self._calls_np, kind="stable")
            bounds = np.concatenate(
                ([0], np.cumsum(self._call_counts_np))
            )
            self._call_groups_cache = (order, bounds)
        return self._call_groups_cache

    # ------------------------------------------------------------------
    # Totals-only replay (the stateless evaluate fast path)
    # ------------------------------------------------------------------
    def _replay_totals(
        self, prep: _Prep, i0: int, t0: float, exec0: float, bubble0: float
    ):
        """Totals-only twin of :meth:`_replay`: no per-call arrays.

        Returns ``(t, total_exec, total_bubble, calls_at_level)`` with
        the same floats and the same work counters the full replay
        would produce; the per-level histogram accumulates through
        ``numpy.bincount`` instead of per-call appends.
        """
        np = self._np
        self._check_covered(prep)
        calls = self._calls_fid
        calls_np = self._calls_np
        n = len(calls)
        exec_rows = self._exec_rows
        gev_fins = prep.gev_fins
        gev_fids = prep.gev_fids
        gev_levels = prep.gev_levels
        num_events = len(gev_fins)
        first_fin = prep.first_fin
        first_pos = self._first_pos
        num_firsts = len(first_pos)
        max_levels = self._max_levels
        bests = np.full(self._num_fids, -1, dtype=np.int64)
        cur_exec = np.zeros(self._num_fids, dtype=np.float64)
        hist = np.zeros(max_levels, dtype=np.int64)
        empty = np.empty
        cumsum = np.cumsum
        searchsorted = np.searchsorted
        bincount = np.bincount
        t = t0
        total_exec = exec0
        total_bubble = bubble0
        i = i0
        k = 0
        fb = bisect_left(first_pos, i0)
        while i < n:
            while k < num_events and gev_fins[k] <= t:
                fid = gev_fids[k]
                level = gev_levels[k]
                if level > bests[fid]:
                    bests[fid] = level
                    cur_exec[fid] = exec_rows[fid][level]
                k += 1
            if fb < num_firsts and first_pos[fb] == i:
                fid = calls[i]
                fr = first_fin[fid]
                if t < fr:
                    start = fr
                    while k < num_events and gev_fins[k] <= start:
                        g = gev_fids[k]
                        level = gev_levels[k]
                        if level > bests[g]:
                            bests[g] = level
                            cur_exec[g] = exec_rows[g][level]
                        k += 1
                else:
                    start = t
                e = float(cur_exec[fid])
                total_bubble += start - t
                total_exec += e
                hist[bests[fid]] += 1
                t = start + e
                i += 1
                fb += 1
                continue
            b = first_pos[fb] if fb < num_firsts else n
            step = 1024 if k < num_events else b - i
            while i < b:
                j = b if b - i <= step else i + step
                seg = calls_np[i:j]
                ex = cur_exec[seg]
                m = len(ex)
                arr = empty(m + 1)
                arr[0] = t
                arr[1:] = ex
                cumsum(arr, out=arr)
                crossed = k < num_events and gev_fins[k] <= arr[m]
                if crossed:
                    p = int(searchsorted(arr, gev_fins[k], side="left"))
                else:
                    p = m
                if p:
                    hist += bincount(bests[seg[:p]], minlength=max_levels)
                    ce = empty(p + 1)
                    ce[0] = total_exec
                    ce[1:] = ex[:p]
                    cumsum(ce, out=ce)
                    total_exec = float(ce[p])
                    t = float(arr[p])
                    i += p
                if crossed:
                    break
                step <<= 1
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("fastsim.replays").inc()
            metrics.counter("fastsim.calls_replayed").inc(n - i0)
        calls_at_level = {
            level: int(count)
            for level, count in enumerate(hist.tolist())
            if count
        }
        return t, total_exec, total_bubble, calls_at_level

    # ------------------------------------------------------------------
    # Batched evaluation (the whole trace in O(1) numpy passes)
    # ------------------------------------------------------------------
    def _segment_scan(self, seg_a, lens, seeds, e, qpos):
        """Exact chained cumsum of every segment.

        Segment ``r`` covers calls ``seg_a[r] .. seg_a[r]+lens[r]-1`` and
        restarts the clock chain at ``seeds[r]``.  Returns
        ``(ends, qvals)``: the exact end value of each segment and the
        exact start time of every queried call position in ``qpos``.
        Chains restart at *static* seed values, so the segments are
        independent: short ones evaluate together as rows of a
        zero-padded matrix (``numpy.cumsum`` along a row is the same
        sequential left-associated accumulation as over a 1-D array, and
        trailing ``+ 0.0`` padding is bitwise neutral), long ones as
        individual 1-D cumsums.
        """
        np = self._np
        num_segs = len(lens)
        ends = np.empty(num_segs)
        nq = len(qpos)
        qvals = np.empty(nq)
        if nq:
            # A position's segment is the *last* one starting at or
            # before it (zero-length segments share a start with their
            # successor but hold no positions).
            qseg = np.searchsorted(seg_a, qpos, side="right") - 1
            qcol = qpos - seg_a[qseg]
        done = np.zeros(num_segs, dtype=bool)
        # Buckets bound padded waste: rows land in the smallest matrix
        # they fit, so the padded area stays within a few times the
        # real element count.
        for cap in (32, 256, 2048):
            sel = ~done & (lens <= cap)
            rows = np.nonzero(sel)[0]
            if not rows.size:
                continue
            la = lens[rows]
            a = seg_a[rows]
            num_rows = len(rows)
            width = int(la.max())
            mat = np.zeros((num_rows, width + 1))
            mat[:, 0] = seeds[rows]
            total = int(la.sum())
            if total:
                # Ragged fill: scatter the real elements only (O(real),
                # not O(padded)); the zero padding is already in place.
                rowrep = np.repeat(np.arange(num_rows), la)
                csum = np.concatenate(([0], np.cumsum(la)))
                within = np.arange(total) - csum[rowrep]
                mat.ravel()[rowrep * (width + 1) + 1 + within] = e[
                    a[rowrep] + within
                ]
                np.cumsum(mat, axis=1, out=mat)
            ends[rows] = mat[np.arange(num_rows), la]
            done[rows] = True
            if nq:
                qin = sel[qseg]
                if qin.any():
                    rowmap = np.empty(num_segs, dtype=np.intp)
                    rowmap[rows] = np.arange(num_rows)
                    qvals[qin] = mat[rowmap[qseg[qin]], qcol[qin]]
        for r in np.nonzero(~done)[0].tolist():
            a = int(seg_a[r])
            ln = int(lens[r])
            arr = np.empty(ln + 1)
            arr[0] = seeds[r]
            arr[1:] = e[a : a + ln]
            np.cumsum(arr, out=arr)
            ends[r] = arr[ln]
            if nq:
                qin = qseg == r
                if qin.any():
                    qvals[qin] = arr[qcol[qin]]
        return ends, qvals

    _MAX_LEVEL_ROUNDS = 20

    def _evaluate_batched(self, schedule):
        """Whole-trace totals in a fixed number of numpy passes.

        The replay clock is a single float chain that *restarts* — at a
        blocking first call the reference assigns ``t = first_finish``,
        a static value.  Levels partition the trace the same way: a
        function whose best-installed level never changes after its
        first install executes every call at one known level.  So given
        two discrete decisions — *which first calls block* and *which
        level each call runs at* — the exact timeline is a set of
        independent seeded cumsums (:meth:`_segment_scan`), and the
        totals follow from single passes.

        The decisions are guessed from an approximate max-plus prefix
        (raw cumsum plus a running max of ``first_finish - prefix``
        offsets) and then **verified exactly** against the segmented
        scan: every first call's exact pre-call clock is compared with
        its first finish, and every level of a level-varying function is
        re-derived from the exact start times.  On any mismatch (ties
        resolved differently by rounding, or non-convergence) the
        method returns ``None`` — before touching any counter — and the
        caller falls back to the chunked exact path.  Results that do
        return are bitwise identical to the reference by construction.
        """
        np = self._np
        calls_np = self._calls_np
        n = len(calls_np)
        num_fids = self._num_fids
        cached = self._sched_arrays
        if (
            cached is not None
            and isinstance(schedule, Schedule)
            and cached[0] is schedule
        ):
            _, tfids, tlvls = cached
        else:
            tasks = self._as_tasks(schedule)
            fid_of = self._fid_of
            tfids = np.asarray(
                [fid_of[task.function] for task in tasks], dtype=np.intp
            )
            tlvls = np.asarray(
                [task.level for task in tasks], dtype=np.int64
            )
            if isinstance(schedule, Schedule):
                self._sched_arrays = (schedule, tfids, tlvls)
        num_tasks = len(tfids)
        if num_tasks and (
            int(tlvls.min()) < 0 or bool(np.any(tlvls >= self._nlvl_np[tfids]))
        ):
            return None  # out-of-range level: defer to the legacy path
        metrics = self.metrics

        # ---- per-task chain (single thread, no releases) -------------
        if num_tasks:
            fins = np.cumsum(self._compile_tab[tfids, tlvls])
            compile_end = float(fins[num_tasks - 1])
        else:
            fins = np.empty(0)
            compile_end = 0.0

        # ---- per-fid event shape -------------------------------------
        # Stable sort by fid: single-thread finishes ascend in schedule
        # order, so each group is already sorted by finish time.
        order = np.argsort(tfids, kind="stable")
        gfids = tfids[order]
        gfins = fins[order]
        glvls = tlvls[order]
        task_counts = np.bincount(gfids, minlength=num_fids)
        tb = np.concatenate(([0], np.cumsum(task_counts)))
        has_task = task_counts > 0
        first_idx = tb[:-1][has_task]
        last_idx = tb[1:][has_task] - 1
        first_fin = np.zeros(num_fids)
        first_fin[has_task] = gfins[first_idx]
        # Segmented running max of levels: fid groups ascend, so keying
        # by fid * K + level makes one global maximum.accumulate reset
        # at every group boundary.
        K = self._max_levels + 1
        cummax_lvl = np.maximum.accumulate(gfids * K + glvls) - gfids * K
        lvl_first = np.full(num_fids, -1, dtype=np.int64)
        lvl_final = np.full(num_fids, -1, dtype=np.int64)
        lvl_first[has_task] = cummax_lvl[first_idx]
        lvl_final[has_task] = cummax_lvl[last_idx]
        has_event = has_task.copy()
        for fid, plvl in self._pre_pairs:
            has_event[fid] = True
            first_fin[fid] = 0.0
            lvl_first[fid] = plvl
            if lvl_final[fid] < plvl:
                lvl_final[fid] = plvl
        missing = self._called_mask_np & ~has_event
        if bool(missing.any()):
            if metrics is not None:
                metrics.counter("fastsim.prepares").inc()
                metrics.counter("fastsim.tasks_prepared").inc(num_tasks)
            for fid in self._called_fids:
                if missing[fid]:
                    raise ScheduleError(
                        f"function {self._fnames[fid]!r} is never compiled"
                    )

        # ---- per-call levels and exec times --------------------------
        varying = np.nonzero(
            self._called_mask_np & (lvl_first != lvl_final)
        )[0]
        lvl_uni = lvl_final.copy()
        if varying.size:
            lvl_uni[varying] = lvl_first[varying]
        # Uncalled fids may carry level -1 here; the gather below only
        # ever reads called fids' rows (and -1 wraps, harmlessly).
        e_fid = self._exec_tab[np.arange(num_fids), lvl_uni]
        e = e_fid[calls_np]

        fp = self._first_pos_np
        ffids = self._first_fids_np
        first_F = first_fin[ffids]
        pre_lookup = dict(self._pre_pairs)
        var_state = []
        for fid in varying.tolist():
            ogroups, obounds = self._call_groups()
            pos = ogroups[obounds[fid] : obounds[fid + 1]]
            evf = gfins[tb[fid] : tb[fid + 1]]
            cum = cummax_lvl[tb[fid] : tb[fid + 1]]
            plvl = pre_lookup.get(fid)
            if plvl is not None:
                evf = np.concatenate(([0.0], evf))
                cum = np.concatenate(([plvl], np.maximum(cum, plvl)))
            cur = np.full(len(pos), lvl_first[fid], dtype=np.int64)
            var_state.append((fid, pos, evf, cum, cur))

        def _offsets(P):
            # Approximate max-plus bubble offsets at the first-call
            # positions (raw prefix + running max of F - prefix); only
            # used to *guess* decisions, never to produce a float.
            pb = P[fp] - e[fp]
            cand = first_F - pb
            off_incl = np.maximum.accumulate(np.maximum(cand, 0.0))
            return pb, cand, off_incl

        if var_state:
            P = None
            for _ in range(self._MAX_LEVEL_ROUNDS):
                P = np.cumsum(e)
                _pb, _cand, off_incl = _offsets(P)
                changed = False
                for idx_v, (fid, pos, evf, cum, cur) in enumerate(var_state):
                    off_at = off_incl[
                        np.searchsorted(fp, pos, side="right") - 1
                    ]
                    sa = P[pos] - e[pos] + off_at
                    new = cum[np.searchsorted(evf, sa, side="right") - 1]
                    if not np.array_equal(new, cur):
                        changed = True
                        var_state[idx_v] = (fid, pos, evf, cum, new)
                        e[pos] = self._exec_tab[fid][new]
                if not changed:
                    break
            else:
                return None  # level fixpoint did not converge
        else:
            P = np.cumsum(e) if n else np.empty(0)
        if n:
            _pb, cand, off_incl = _offsets(P)
            off_excl = np.concatenate(([0.0], off_incl[:-1]))
            binding = cand > off_excl
        else:
            binding = np.empty(0, dtype=bool)

        # ---- exact segmented timeline --------------------------------
        bpos = fp[binding]
        seeds = np.concatenate(([0.0], first_F[binding]))
        seg_a = np.concatenate(([0], bpos))
        seg_b = np.concatenate((bpos, [n]))
        lens = seg_b - seg_a
        # Exact start times are only needed at the non-blocking first
        # calls (to verify they really did not block) and at every call
        # of a level-varying function (to verify its guessed levels).
        nb = fp[~binding]
        qparts = [nb]
        qparts.extend(pos for _fid, pos, _evf, _cum, _cur in var_state)
        qpos = np.concatenate(qparts) if len(qparts) > 1 else nb
        ends, qvals = self._segment_scan(seg_a, lens, seeds, e, qpos)

        # ---- exact verification of the guessed decisions -------------
        # Blocking first calls: the exact pre-call clock (the previous
        # segment's end) must be strictly below the first finish.
        if not bool(np.all(ends[:-1] < seeds[1:])):
            return None
        # Non-blocking first calls: the exact clock must already have
        # reached the first finish.
        nnb = len(nb)
        if nnb and not bool(np.all(qvals[:nnb] >= first_F[~binding])):
            return None
        # Level-varying functions: re-derive every level from the exact
        # start times; any drift from the guessed levels is a mismatch.
        hist = np.zeros(self._max_levels, dtype=np.int64)
        qoff = nnb
        for _fid, pos, evf, cum, cur in var_state:
            exact = cum[
                np.searchsorted(
                    evf, qvals[qoff : qoff + len(pos)], side="right"
                )
                - 1
            ]
            qoff += len(pos)
            if not np.array_equal(exact, cur):
                return None
            hist += np.bincount(exact, minlength=self._max_levels)

        # ---- totals (all single exact passes) ------------------------
        t = float(ends[len(ends) - 1])
        total_exec = float(P[n - 1]) if n else 0.0
        nbind = int(binding.sum()) if n else 0
        if nbind:
            bubbles = seeds[1:] - ends[:-1]
            total_bubble = float(np.cumsum(bubbles)[nbind - 1])
        else:
            total_bubble = 0.0
        uni = np.nonzero(self._called_mask_np)[0]
        if varying.size:
            uni = uni[lvl_first[uni] == lvl_final[uni]]
        np.add.at(hist, lvl_final[uni], self._call_counts_np[uni])
        calls_at_level = {
            level: int(count)
            for level, count in enumerate(hist.tolist())
            if count
        }
        if metrics is not None:
            metrics.counter("fastsim.prepares").inc()
            metrics.counter("fastsim.tasks_prepared").inc(num_tasks)
            metrics.counter("fastsim.replays").inc()
            metrics.counter("fastsim.calls_replayed").inc(n)
        return MakespanResult(
            makespan=t,
            compile_end=compile_end,
            total_bubble_time=total_bubble,
            total_exec_time=total_exec,
            calls_at_level=calls_at_level,
        )

    # ------------------------------------------------------------------
    # Full (stateless) evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        schedule: TaskSeq,
        record_timeline: bool = False,
        validate: bool = False,
        release_times: Optional[Sequence[float]] = None,
        task_compile_times: Optional[Sequence[float]] = None,
        task_installs: Optional[Sequence[bool]] = None,
        tracer=None,
    ) -> MakespanResult:
        """Exact :func:`~repro.core.makespan.simulate` twin; see
        :meth:`FastSimulator.evaluate`.

        Timeline and tracer requests need the per-call arrays, so they
        take the inherited pure-Python path; plain evaluations use the
        batched or totals-only numpy kernels, which never materialize
        per-call lists.
        """
        if self._np is None or record_timeline or tracer is not None:
            return super().evaluate(
                schedule,
                record_timeline=record_timeline,
                validate=validate,
                release_times=release_times,
                task_compile_times=task_compile_times,
                task_installs=task_installs,
                tracer=tracer,
            )
        if self.metrics is not None:
            self.metrics.counter("fastsim.evaluations").inc()
        if (
            not validate
            and self._compile_threads == 1
            and release_times is None
            and task_compile_times is None
            and task_installs is None
        ):
            result = self._evaluate_batched(schedule)
            if result is not None:
                return result
        prep = self._prepare(
            schedule, release_times, task_compile_times, task_installs
        )
        if validate:
            validate_for_simulation(
                self._instance, Schedule(prep.tasks), self._preinstalled
            )
        t, total_exec, total_bubble, calls_at_level = self._replay_totals(
            prep, 0, 0.0, 0.0, 0.0
        )
        return MakespanResult(
            makespan=t,
            compile_end=prep.finishes[-1] if prep.finishes else 0.0,
            total_bubble_time=total_bubble,
            total_exec_time=total_exec,
            calls_at_level=calls_at_level,
        )
