"""Lock-step ensemble engine: all repetitions advance together.

The NumPy engine (:mod:`repro.simulation.vectorized`) removes the per-step
dispatch cost of large nets, but an ensemble of ``reps`` repetitions still
pays ``reps`` full Python step loops — ``reps`` cumsum/searchsorted kernel
launches per global step, each over a single run's state.  This module
batches the whole ensemble into one array program: a ``(reps, states)``
``int64`` counts matrix, a ``(reps, padded_transitions)`` weight matrix, and
one kernel launch per *step* rather than per *run-step*, so the fixed NumPy
call overhead (the actual bottleneck at these sizes) is amortized across
every live repetition.

Two structural ideas carry the throughput:

* **Blocked weight selection.**  The per-run engine picks a transition with a
  flat ``O(|T|)`` cumsum + ``searchsorted``.  Here the ``|T|`` weights of each
  row are laid out in ``B`` blocks of ``L`` (``L`` the smallest power of two
  with ``L**2 >= |T|``, zero-padded at the tail), and a per-row *block-sum*
  vector is maintained incrementally alongside the weights.  A pick first
  scans the ``B`` cumulative block sums, then the ``L`` weights of the hit
  block — ``O(sqrt(|T|))`` per row instead of ``O(|T|)``, as one batched
  two-stage kernel for all rows at once.  Because every quantity is an exact
  ``int64`` (guarded by :meth:`VectorizedNet.check_weight_overflow`), the
  blocked pick selects *exactly* the transition the flat scan would.

* **Lock-step retirement.**  Rows share one global step counter (every live
  row fires at every step, so its private step count equals the global one).
  A row leaves the matrix the moment it terminates (no enabled transition),
  stabilizes (consensus unchanged for ``stability_window`` steps) or the
  step budget runs out; the remaining arrays are compacted so late steps pay
  only for the stragglers.

Each row owns a private ``random.Random(seed)`` stream, seeded from the same
pre-derived per-repetition seeds as the serial path, and consumes it with the
exact engine discipline — one ``randrange(total)`` per uniform step, one
``_randbelow(len(enabled))`` per transition-scheduler step (``randrange(n)``
and ``choice``'s index draw are the same stream operation) — so every row is
bit-identical to a per-run engine run with the same derived seed.  The
consensus counters, recording (one bounded deque per row, appended in step
order) and retire conditions replicate the per-run stepper loop ordering
precisely (budget check before the dead-configuration check before the
stream draw).

This engine is selected with ``engine="ensemble"`` (explicitly, or via
``REPRO_FORCE_ENGINE=ensemble``; ``engine="auto"`` never picks it on its
own).  Single runs and one-seed lists under ``engine="ensemble"`` use the
per-run NumPy stepper — same trajectories — while ``Simulator.run_many``
and the batch layer route longer seed lists through
:class:`VectorizedEnsemble`.
"""

from __future__ import annotations

import random
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from .compiled import check_kind
from .vectorized import VectorizedNet, require_numpy

__all__ = ["EnsembleTables", "VectorizedEnsemble"]


class EnsembleTables:
    """Flattened kernel tables for lock-step stepping over a net.

    The per-run NumPy engine keeps one update-plan tuple per transition and
    indexes into it with the (single) fired transition.  The ensemble fires a
    *vector* of transitions per step, so the plans are flattened into global
    CSR arrays indexed by arbitrary fired-transition vectors:

    * ``d_*``: the displacement ``(state, diff)`` pairs of every transition,
    * ``a_*``: the ``affected`` lists (transitions to reweigh after a
      firing), ascending within each transition,
    * ``e_*``: per-transition pre-entry views into the net's global CSR
      (states, multiplicities, binomial divisors),
    * the blocked weight layout (``block``/``num_blocks``/``padded``).

    Tables are protocol-independent (consensus deltas live on the
    :class:`VectorizedEnsemble`) and cached on the net via
    :meth:`VectorizedNet.ensemble_tables`; like stepper closures they are
    dropped on pickling and rebuilt lazily in batch workers.
    """

    def __init__(self, net: VectorizedNet) -> None:
        np = require_numpy()
        num_transitions = net.num_transitions

        # Blocked layout: the smallest power-of-two block length with
        # ``2 * L**2 >= |T|`` balances the two scan stages (the block-sum scan
        # touches ~2L entries, the in-block scan L) at O(sqrt(|T|)) each.
        # One extra all-zero slot is always kept beyond the real transitions
        # (bumping the block count when |T| fills the grid exactly): slot
        # ``|T|`` is the *dummy* target of the fast path's padded affected
        # rows — its weight is identically zero, so it is never selected and
        # contributes nothing to block sums.
        block = 1
        while 2 * block * block < num_transitions:
            block <<= 1
        self.block: int = block
        self.block_shift: int = block.bit_length() - 1
        num_blocks = -(-num_transitions // block) if num_transitions else 0
        if num_blocks * block == num_transitions and num_transitions:
            num_blocks += 1
        self.num_blocks: int = num_blocks
        self.padded: int = self.num_blocks * block

        d_len = [len(delta) for delta in net.delta_lists]
        self.d_len: Any = np.array(d_len, dtype=np.int64)
        self.d_start: Any = np.array(
            np.cumsum([0] + d_len[:-1]), dtype=np.intp
        )
        self.d_idx: Any = np.array(
            [index for delta in net.delta_lists for index, _ in delta],
            dtype=np.intp,
        )
        self.d_val: Any = np.array(
            [diff for delta in net.delta_lists for _, diff in delta],
            dtype=np.int64,
        )

        a_len = [len(affected) for affected in net.affected]
        self.a_len: Any = np.array(a_len, dtype=np.int64)
        self.a_start: Any = np.array(
            np.cumsum([0] + a_len[:-1]), dtype=np.intp
        )
        self.a_trans: Any = np.array(
            [u for affected in net.affected for u in affected], dtype=np.intp
        )

        # Pre-entry views: reuse the net's global CSR (the trailing sentinel
        # entry is never gathered — positions are always explicit).  Every
        # transition in an ``affected`` list has a non-empty pre-set, so
        # every gathered segment is non-empty and ``reduceat``-safe.
        self.e_len: Any = np.array(
            [len(pre) for pre in net.pre_lists], dtype=np.int64
        )
        self.e_start: Any = net._pre_starts
        self.e_state: Any = net._pre_states
        self.e_mult: Any = net._pre_mults
        self.e_div: Any = net._pre_divisors
        self.max_mult: int = net._max_mult
        #: Width-2 unit-multiplicity nets (every population protocol of the
        #: paper): the segmented weight product collapses to one strided
        #: multiply, the segmented enabledness AND to one strided ``&``.
        self.all_pairs: bool = bool(num_transitions) and net._max_mult == 1 and all(
            len(pre) == 2 for pre in net.pre_lists
        )

        # Padded fast-path tables for the uniform kind on width-2 nets.  The
        # ragged gather chain above is general but launches ~a dozen kernels
        # per step on tiny arrays; padding the displacement and affected
        # lists to rectangles turns each chain into a couple of flat gathers.
        # Padding conventions make masks unnecessary:
        #
        # * displacement rows pad with ``(state=num_states, diff=0)`` — the
        #   scratch column the ensemble allocates beyond the real states, so
        #   padded scatter-adds land harmlessly out of band,
        # * affected rows pad with the *dummy* weight slot ``num_transitions``
        #   (guaranteed to exist by the padded block layout) and with the
        #   scratch column as both pre states: the recomputed pad weight is
        #   ``0 * 0 = 0``, the stored dummy weight is always ``0``, so every
        #   pad delta is exactly zero and pad writes rewrite ``0`` in place —
        #   no double counting and no masking.
        #
        # Heavily skewed affected lists would make the rectangle mostly
        # padding, so the fast path is gated on the max staying within a
        # small factor of the mean.
        self.fast_uniform: bool = False
        if self.all_pairs:
            mean_a = float(sum(a_len)) / num_transitions
            max_a = max(a_len)
            self.fast_uniform = max_a <= 4.0 * mean_a + 8.0
        if self.fast_uniform:
            self.p_s0: Any = np.array(
                [pre[0][0] for pre in net.pre_lists], dtype=np.intp
            )
            self.p_s1: Any = np.array(
                [pre[1][0] for pre in net.pre_lists], dtype=np.intp
            )
            # The padded index tables are the hot path's main memory traffic
            # (gathered at a fresh row set every step); int32 halves it.  The
            # run loop adds int64 row offsets out-of-place, so index math is
            # promoted before anything can overflow.
            d_max = max(d_len)
            d_idx_pad = np.full(
                (num_transitions, d_max), net.num_states, dtype=np.int32
            )
            d_val_pad = np.zeros((num_transitions, d_max), dtype=np.int64)
            for t, delta in enumerate(net.delta_lists):
                for k, (index, diff) in enumerate(delta):
                    d_idx_pad[t, k] = index
                    d_val_pad[t, k] = diff
            self.d_idx_pad: Any = d_idx_pad
            self.d_val_pad: Any = d_val_pad
            a_max = max(a_len)
            a_pad = np.full(
                (num_transitions, a_max), num_transitions, dtype=np.int32
            )
            for t, affected in enumerate(net.affected):
                a_pad[t, : len(affected)] = affected
            self.a_pad: Any = a_pad
            #: ``(|T|, 2 * a_max)``: the two pre states of every affected
            #: transition, first-operand half then second-operand half, so
            #: one gather plus one flat state lookup yields both factor
            #: vectors of the reweigh product.  Pad entries point at the
            #: scratch column (count identically zero).
            s0x = np.append(self.p_s0, net.num_states)
            s1x = np.append(self.p_s1, net.num_states)
            self.a_states_pad: Any = np.concatenate(
                [s0x[a_pad], s1x[a_pad]], axis=1
            ).astype(np.int32)

    def __repr__(self) -> str:
        return (
            f"EnsembleTables(blocks={self.num_blocks}x{self.block}, "
            f"all_pairs={self.all_pairs})"
        )


class VectorizedEnsemble:
    """A lock-step batch of repetitions over one net and scheduler kind.

    Satisfies the :class:`~repro.simulation.compiled.Stepper` protocol
    (``source()`` is ``None`` — there is no generated code; the QA auditor
    checks the :class:`EnsembleTables` plan structures instead, and
    :attr:`qa_meta` names the implementation), except that one ``__call__``
    advances a whole seed list rather than a single run.
    """

    def __init__(
        self, net: VectorizedNet, kind: str, classes: Tuple[int, ...]
    ) -> None:
        check_kind(kind)
        np = require_numpy()
        self.net = net
        self.kind = kind
        self.classes = tuple(classes)
        self.tables = net.ensemble_tables()
        self._dcons: Any = np.array(
            net.consensus_deltas(self.classes), dtype=np.int64
        ).reshape(net.num_transitions, 3)
        self.qa_meta: Dict[str, object] = {
            "label": f"{net.net.name or 'net'}/{kind}/ensemble",
            "kind": kind,
            "record": None,  # the run loop branches on rings is None
            "num_transitions": net.num_transitions,
            "implementation": "numpy-ensemble",
        }

    def source(self) -> Optional[str]:
        """Ensemble steppers have no generated source (audit the tables)."""
        return None

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.run(*args, **kwargs)

    def __repr__(self) -> str:
        return f"VectorizedEnsemble({self.qa_meta.get('label', '?')})"

    def run(
        self,
        counts: Sequence[int],
        seeds: Sequence[int],
        max_steps: int,
        stability_window: int,
        one: int,
        zero: int,
        undef: int,
        rings: Optional[Sequence[Deque[int]]] = None,
    ) -> Tuple[Any, Any, Any, Any, Any]:
        """Advance every seed's run to completion, all rows in lock step.

        ``counts`` is the shared dense initial configuration, ``one`` /
        ``zero`` / ``undef`` its output-class counters (as for the per-run
        steppers).  ``rings``, if given, holds one bounded deque per seed;
        ``rings[i]`` receives the same appends as the per-run recording
        stepper's deque for seed ``seeds[i]``, so recording memory is
        proportional to min(steps fired, capacity) per row.

        Returns ``(steps, values, since, terminated, final_counts)`` arrays —
        per row, exactly the per-run stepper's return tuple plus the final
        dense counts.
        """
        np = require_numpy()
        net = self.net
        tables = self.tables
        uniform = self.kind == "uniform"
        fast = uniform and tables.fast_uniform
        if uniform:
            net.check_weight_overflow(counts, max_steps)

        reps = len(seeds)
        num_states = net.num_states
        base = np.array(list(counts), dtype=np.int64)
        # One scratch column beyond the real states absorbs the padded
        # displacement writes of the fast path (all +0); every real state
        # index is below ``num_states``, so real runs never read it.
        state = np.zeros((reps, num_states + 1), dtype=np.int64)
        state[:, :num_states] = base

        weights: Any = None
        blocksums: Any = None
        totals: Any = None
        enabled: Any = None
        if uniform:
            weights = np.zeros((reps, tables.padded), dtype=np.int64)
            if net.num_transitions:
                weights[:, : net.num_transitions] = net.full_weights(base)
            blocksums = weights.reshape(
                reps, tables.num_blocks, tables.block
            ).sum(axis=2)
            totals = blocksums.sum(axis=1)
        else:
            enabled = np.tile(net.full_enabled(base), (reps, 1))

        if undef == 0:
            cv0 = 0 if one == 0 else (1 if zero == 0 else -1)
        else:
            cv0 = -1
        cons = np.tile(np.array([one, zero, undef], dtype=np.int64), (reps, 1))
        cv = np.full(reps, cv0, dtype=np.int64)
        csince = np.full(reps, 0 if cv0 >= 0 else -1, dtype=np.int64)

        # One private stream per row, pre-seeded like the serial path.  The
        # draw below inlines random.Random._randbelow_with_getrandbits —
        # bit_length bits, rejecting overshoots — which is exactly what both
        # randrange(total) and choice's index draw consume, minus the Python
        # call layers (the draw loop is the only per-row scalar work left).
        rands: List[Any] = [random.Random(seed).getrandbits for seed in seeds]
        # The live rows' deque appends, compacted alongside ``rands``.
        appends: List[Any] = [ring.append for ring in rings or ()]
        orig = np.arange(reps, dtype=np.intp)
        row_ids = np.arange(reps, dtype=np.intp)
        num_blocks = tables.num_blocks
        block = tables.block

        # Flat views and per-row flat offsets: gathers/scatters through a 1D
        # index are several times cheaper than 2D advanced indexing here, so
        # the hot path addresses ``state``/``weights`` through raveled views.
        # ``cumbuf`` carries the per-row cumulative block sums behind a
        # permanent leading zero column, so the "sum of blocks before the hit
        # block" lookup needs no masking for hit 0.  All of these are
        # recomputed on compaction.
        sflat: Any = state.ravel()
        wflat: Any = None
        roff_s: Any = None
        roff_w: Any = None
        roff_b: Any = None
        roff_c: Any = None
        cumbuf: Any = None
        if uniform:
            wflat = weights.ravel()
            roff_s = row_ids * (num_states + 1)
            roff_w = row_ids * tables.padded
            roff_b = row_ids * num_blocks
            roff_c = row_ids * (num_blocks + 1)
            cumbuf = np.zeros((reps, num_blocks + 1), dtype=np.int64)

        out_steps = np.zeros(reps, dtype=np.int64)
        out_value = np.full(reps, cv0, dtype=np.int64)
        out_since = np.full(reps, 0 if cv0 >= 0 else -1, dtype=np.int64)
        out_term = np.zeros(reps, dtype=bool)
        out_counts = np.tile(base, (reps, 1))
        step = 0

        def retire(mask: Any, terminated: bool) -> None:
            """Flush ``mask`` rows to the output arrays and compact the rest."""
            nonlocal state, cons, cv, csince, orig, rands, appends, row_ids
            nonlocal weights, blocksums, totals, enabled
            nonlocal sflat, wflat, roff_s, roff_w, roff_b, roff_c, cumbuf
            rows = orig[mask]
            out_steps[rows] = step
            out_value[rows] = cv[mask]
            out_since[rows] = csince[mask]
            out_term[rows] = terminated
            out_counts[rows] = state[mask, :num_states]
            keep = ~mask
            state = state[keep]
            cons = cons[keep]
            cv = cv[keep]
            csince = csince[keep]
            orig = orig[keep]
            kept = keep.tolist()
            rands = [r for r, k in zip(rands, kept) if k]
            appends = [a for a, k in zip(appends, kept) if k]
            if uniform:
                weights = weights[keep]
                blocksums = blocksums[keep]
                totals = totals[keep]
            else:
                enabled = enabled[keep]
            row_ids = np.arange(orig.size, dtype=np.intp)
            sflat = state.ravel()
            if uniform:
                wflat = weights.ravel()
                roff_s = row_ids * (num_states + 1)
                roff_w = row_ids * tables.padded
                roff_b = row_ids * num_blocks
                roff_c = row_ids * (num_blocks + 1)
                cumbuf = np.zeros((orig.size, num_blocks + 1), dtype=np.int64)

        while orig.size:
            # Loop ordering mirrors the per-run stepper exactly: budget check,
            # then the dead-configuration check, then the stream draw.
            if step >= max_steps:
                rows = orig
                out_steps[rows] = step
                out_value[rows] = cv
                out_since[rows] = csince
                out_counts[rows] = state[:, :num_states]
                break
            live_tot = totals if uniform else enabled.sum(axis=1)
            dead = live_tot <= 0
            if dead.any():
                retire(dead, True)
                if not orig.size:
                    break
                live_tot = live_tot[~dead]

            picks_list: List[int] = []
            append_pick = picks_list.append
            for bits, total in zip(rands, live_tot.tolist()):
                width = total.bit_length()
                pick = bits(width)
                while pick >= total:
                    pick = bits(width)
                append_pick(pick)
            picks = np.array(picks_list, dtype=np.int64)
            step += 1
            nrows = orig.size

            if uniform:
                # Two-level blocked pick == the flat searchsorted: with
                # pick < total, the hit block is the first whose cumulative
                # block sum exceeds pick, and within it the target is the
                # first weight whose local cumulative exceeds the remainder.
                # Tail zero-padding can never be picked (the remainder is
                # strictly below the hit block's sum).  ``cumbuf``'s leading
                # zero column is always ``<= pick``, so the count lands one
                # high and doubles as the "sum of earlier blocks" index.
                np.cumsum(blocksums, axis=1, out=cumbuf[:, 1:])
                hit = (cumbuf <= picks[:, None]).sum(axis=1)
                hit -= 1
                within = picks - cumbuf.ravel()[roff_c + hit]
                blockvals = weights.reshape(nrows, num_blocks, block)[
                    row_ids, hit
                ]
                j = (np.cumsum(blockvals, axis=1) <= within[:, None]).sum(axis=1)
                fired = hit * block + j
            else:
                # choice(enabled_indices) == index of the (k+1)-th set bit
                # for k = _randbelow(n), the same stream draw as randrange(n).
                fired = (np.cumsum(enabled, axis=1) <= picks[:, None]).sum(axis=1)

            if appends:
                for append, t in zip(appends, fired.tolist()):
                    append(t)

            if fast:
                # Padded displacement scatter through the flat view: every
                # flat target is unique except the scratch-column pads, whose
                # duplicate read-modify-writes all add 0.
                didx = tables.d_idx_pad[fired] + roff_s[:, None]
                sflat[didx] += tables.d_val_pad[fired]
                # Padded reweigh: every entry recomputes its transition's
                # weight from the current counts; dummy-slot pads recompute
                # 0 * 0 over a stored 0, so pad deltas vanish and pad writes
                # rewrite 0 in place — no masking required.
                hit_a = tables.a_pad[fired]
                sidx = tables.a_states_pad[fired] + roff_s[:, None]
                vals = sflat[sidx]
                half = hit_a.shape[1]
                new_w = vals[:, :half] * vals[:, half:]
                widx = hit_a + roff_w[:, None]
                deltas_w = new_w - wflat[widx]
                wflat[widx] = new_w
                # Aggregate block-sum deltas by flat (row, block) key with a
                # single duplicate-accumulating scatter-add (dummy-pad keys
                # contribute exact zeros).
                keys = (hit_a >> tables.block_shift) + roff_b[:, None]
                np.add.at(blocksums.ravel(), keys.ravel(), deltas_w.ravel())
                totals += deltas_w.sum(axis=1)
                cons += self._dcons[fired]
                _advance_consensus(np, cons, cv, csince, step)
                stable = (cv >= 0) & ((step - csince) >= stability_window)
                if stable.any():
                    retire(stable, False)
                continue

            # Ragged general path: scatter the displacement of every row's
            # fired transition ((row, state) pairs are unique, so fancy +=
            # is exact), then reweigh / re-enable the affected transitions.
            dl = tables.d_len[fired]
            total_d = int(dl.sum())
            if total_d:
                rr_d = np.repeat(row_ids, dl)
                posd = (
                    np.arange(total_d)
                    - np.repeat(np.cumsum(dl) - dl, dl)
                    + np.repeat(tables.d_start[fired], dl)
                )
                state[rr_d, tables.d_idx[posd]] += tables.d_val[posd]

            al = tables.a_len[fired]
            total_a = int(al.sum())
            if total_a:
                rr_a = np.repeat(row_ids, al)
                posa = (
                    np.arange(total_a)
                    - np.repeat(np.cumsum(al) - al, al)
                    + np.repeat(tables.a_start[fired], al)
                )
                au = tables.a_trans[posa]
                el = tables.e_len[au]
                total_e = int(el.sum())
                seg = np.cumsum(el) - el
                rr_e = np.repeat(rr_a, el)
                pose = (
                    np.arange(total_e)
                    - np.repeat(seg, el)
                    + np.repeat(tables.e_start[au], el)
                )
                entry_states = tables.e_state[pose]
                if uniform:
                    vals = state[rr_e, entry_states]
                    if tables.all_pairs:
                        new_w = vals[0::2] * vals[1::2]
                    else:
                        terms = net._binomials(
                            vals,
                            tables.e_mult[pose],
                            tables.e_div[pose],
                            tables.max_mult,
                        )
                        new_w = np.multiply.reduceat(terms, seg)
                    deltas_w = new_w - weights[rr_a, au]
                    weights[rr_a, au] = new_w
                    # Aggregate weight deltas into block sums and totals with
                    # duplicate-accumulating scatter-adds.
                    blk = au >> tables.block_shift
                    np.add.at(
                        blocksums.ravel(), rr_a * num_blocks + blk, deltas_w
                    )
                    np.add.at(totals, rr_a, deltas_w)
                else:
                    ok = state[rr_e, entry_states] >= tables.e_mult[pose]
                    if tables.all_pairs:
                        enabled[rr_a, au] = ok[0::2] & ok[1::2]
                    else:
                        enabled[rr_a, au] = np.bitwise_and.reduceat(ok, seg)

            cons += self._dcons[fired]
            _advance_consensus(np, cons, cv, csince, step)

            stable = (cv >= 0) & ((step - csince) >= stability_window)
            if stable.any():
                retire(stable, False)

        return out_steps, out_value, out_since, out_term, out_counts


def _advance_consensus(np: Any, cons: Any, cv: Any, csince: Any, step: int) -> None:
    """Refresh consensus values/ages from the counters, in place.

    The per-run stepper only recomputes its consensus value when a counter
    delta is non-zero, but that value always equals this closed form of the
    counters, so an unconditional recompute plus a changed-mask update is
    step-for-step equivalent.
    """
    value = np.where(
        cons[:, 2] > 0,
        -1,
        np.where(cons[:, 0] == 0, 0, np.where(cons[:, 1] == 0, 1, -1)),
    )
    changed = value != cv
    if changed.any():
        csince[changed] = np.where(value[changed] >= 0, step, -1)
        cv[changed] = value[changed]
