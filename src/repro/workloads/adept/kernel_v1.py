"""ADEPT-V1: the hand-optimized GPU Smith-Waterman kernel.

This mirrors the structure of the expert-tuned ADEPT version the paper
studies (Section II-B and Figure 9):

* one thread block per sequence pair, one thread per query column;
* the anti-diagonal wavefront loop;
* neighbour-value exchange through a *mixed* mechanism -- warp shuffles
  (private registers) for lanes within a warp, a small per-warp shared
  staging array for the first lane of each warp (filled by lane 31 of the
  previous warp), and per-thread shared arrays for the second phase of the
  wavefront;
* the "conservative" ``activemask`` + ``ballot_sync`` calls before every
  shuffle that Section VI-B discusses;
* a redundant extra ``__syncthreads`` (the kind of defensive barrier the
  independent edits of Section V-B remove).

The builder returns the kernel module together with a dictionary of *edit
targets*: the uids of the instructions that the paper's discovered edits
(5, 6, 8, 10, the ballot_sync removal, ...) act on.  The recorded edit
sets in :mod:`repro.workloads.adept.discovered` are constructed from these
uids, and the GEVO search can rediscover the same edits because they are
ordinary operand-replacement / deletion edits over this kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from ...ir import KernelBuilder, Module, Param, SharedDecl, build_module, memoize_in_uid_namespace
from .smith_waterman import GAP_PENALTY, MATCH_SCORE, MISMATCH_PENALTY

#: Lane index of the last thread in a warp (the staging writer in ADEPT-V1).
LAST_LANE = 31


@dataclass
class AdeptKernel:
    """A built ADEPT kernel plus the metadata GEVO and the analyses need."""

    module: Module
    version: str
    block_threads: int
    max_reference_length: int
    #: Named instruction uids that the recorded (paper-discovered) edits target.
    edit_targets: Dict[str, int] = field(default_factory=dict)

    @property
    def main_kernel_name(self) -> str:
        return f"adept_{self.version}_kernel"


def _round_up_to_warp(threads: int, warp_size: int = 32) -> int:
    return int(math.ceil(max(1, threads) / warp_size) * warp_size)


def build_adept_v1(block_threads: int, max_reference_length: int,
                   warp_size: int = 32) -> AdeptKernel:
    """The ADEPT-V1 module for a launch shape, memoized by that shape
    (:func:`~repro.ir.memoize_in_uid_namespace`)."""
    return _build_adept_v1(_round_up_to_warp(block_threads, warp_size),
                           max_reference_length, warp_size)


@memoize_in_uid_namespace
def _build_adept_v1(block_threads: int, max_reference_length: int,
                   warp_size: int = 32) -> AdeptKernel:
    """Build the hand-tuned ADEPT-V1 module for a given launch shape.

    ``block_threads`` is the number of threads per block (>= the longest
    query in the batch, rounded up to a warp multiple by the driver);
    ``max_reference_length`` sizes the shared-memory cache of the reference
    sequence.
    """
    block_threads = _round_up_to_warp(block_threads, warp_size)
    num_warps = block_threads // warp_size
    targets: Dict[str, int] = {}

    params = [
        Param("seq_a", "buffer"), Param("seq_b", "buffer"),
        Param("offsets_a", "buffer"), Param("offsets_b", "buffer"),
        Param("lens_a", "buffer"), Param("lens_b", "buffer"),
        Param("scores", "buffer"),
    ]
    shared = [
        SharedDecl("a_cache", max_reference_length, "int"),
        SharedDecl("local_prev_h", block_threads, "int"),
        SharedDecl("local_prev_prev_h", block_threads, "int"),
        SharedDecl("sh_prev_h", num_warps, "int"),
        SharedDecl("sh_prev_prev_h", num_warps, "int"),
    ]
    b = KernelBuilder("adept_v1_kernel", params=params, shared=shared,
                      source_file="adept_v1_kernel.cu")

    # ----------------------------------------------------------------- prologue
    b.block("entry")
    b.loc(10)
    tid = b.tid_x(dest="tid")
    lane = b.laneid(dest="lane")
    warp = b.warpid(dest="warp")
    pair = b.bid_x(dest="pair")
    bdim = b.bdim_x(dest="bdim")
    off_a = b.load(b.reg("offsets_a"), pair, dest="off_a")
    off_b = b.load(b.reg("offsets_b"), pair, dest="off_b")
    len_a = b.load(b.reg("lens_a"), pair, dest="len_a")
    len_b = b.load(b.reg("lens_b"), pair, dest="len_b")
    b.loc(14)
    valid = b.lt(tid, len_b, dest="valid")

    # Cooperative load of the reference sequence into shared memory.
    b.loc(18)
    with b.for_range("cache_i", tid, len_a, step=bdim) as cache_i:
        element = b.load(b.reg("seq_a"), b.add(off_a, cache_i))
        b.store(b.reg("a_cache"), cache_i, element)
    b.syncthreads()

    # Per-thread query character (clamped index keeps invalid threads in bounds).
    b.loc(22)
    safe_tid = b.min(tid, b.sub(len_b, 1))
    b_char = b.load(b.reg("seq_b"), b.add(off_b, safe_tid), dest="b_char")

    # Wavefront state registers.
    b.loc(26)
    b.mov(0, dest="prev_h")
    b.mov(0, dest="prev_prev_h")
    b.mov(0, dest="best")
    is_col0 = b.eq(tid, 0, dest="is_col0")
    nbr_idx = b.max(b.sub(tid, 1), 0, dest="nbr_idx")
    src_lane = b.max(b.sub(lane, 1), 0, dest="src_lane")
    warp_prev = b.max(b.sub(warp, 1), 0, dest="warp_prev")
    total_diag = b.sub(b.add(len_a, len_b), 1, dest="total_diag")

    # ----------------------------------------------------------------- wavefront loop
    b.loc(31)
    with b.for_range("diag", 0, total_diag) as diag:
        # --- staging for the cross-warp register path (Fig. 9 lines 2-5) ----
        b.loc(33)
        is_last_lane = b.eq(lane, LAST_LANE, dest="is_last_lane")
        targets["edit5_lane_compare"] = b.last_emitted.uid
        with b.if_then(is_last_lane) as staging_branch:
            targets["staging_branch"] = staging_branch.uid
            b.loc(34)
            b.store(b.reg("sh_prev_h"), warp, b.reg("prev_h"))
            b.store(b.reg("sh_prev_prev_h"), warp, b.reg("prev_prev_h"))

        # --- per-thread shared publish for the short-wavefront phase
        #     (Fig. 9 lines 7-10; edit 6 rewrites this condition).  The
        #     hand-tuned kernel exchanges through the per-thread shared
        #     arrays only while the wavefront is shorter than a warp and
        #     switches to the register/shuffle path afterwards. -------------
        b.loc(38)
        publish_phase = b.lt(diag, warp_size, dest="publish_phase")
        targets["phase_publish_compare"] = b.last_emitted.uid
        with b.if_then(publish_phase) as publish_branch:
            targets["edit6_publish_branch"] = publish_branch.uid
            b.loc(39)
            b.store(b.reg("local_prev_h"), tid, b.reg("prev_h"))
            b.store(b.reg("local_prev_prev_h"), tid, b.reg("prev_prev_h"))

        b.loc(42)
        b.syncthreads()
        b.syncthreads()  # defensive, redundant barrier (an independent-edit target)
        targets["redundant_syncthreads"] = b.last_emitted.uid

        # --- main cell computation -------------------------------------------
        b.loc(44)
        row = b.sub(diag, tid, dest="row")
        in_range = b.and_(b.ge(row, 0), b.lt(row, len_a), dest="in_range")
        computing = b.and_(valid, in_range, dest="computing")
        with b.if_then(computing):
            # Exchange 1: neighbour's previous H (Fig. 9 lines 16-23, edit 8).
            b.loc(46)
            read_phase_one = b.lt(diag, warp_size, dest="read_phase_one")
            exchange1_then, exchange1_else = b.if_then_else(read_phase_one)
            targets["edit8_exchange_branch"] = b.last_emitted.uid
            with exchange1_then:
                b.loc(47)
                b.load(b.reg("local_prev_h"), nbr_idx, dest="nbr_prev_h")
            with exchange1_else:
                b.loc(49)
                cross_warp1 = b.and_(b.ne(warp, 0), b.eq(lane, 0), dest="cross_warp1")
                boundary_then, boundary_else = b.if_then_else(cross_warp1)
                with boundary_then:
                    b.loc(50)
                    b.load(b.reg("sh_prev_h"), warp_prev, dest="nbr_prev_h")
                with boundary_else:
                    b.loc(52)
                    amask1 = b.activemask(dest="amask1")
                    b.ballot_sync(amask1, computing, dest="bmask1")
                    targets["ballot_sync_1"] = b.last_emitted.uid
                    b.shfl_sync(amask1, b.reg("prev_h"), src_lane, dest="nbr_prev_h")

            # Exchange 2: neighbour's H from two diagonals ago (edit 10).
            b.loc(55)
            read_phase_two = b.lt(diag, warp_size, dest="read_phase_two")
            exchange2_then, exchange2_else = b.if_then_else(read_phase_two)
            targets["edit10_exchange_branch"] = b.last_emitted.uid
            with exchange2_then:
                b.loc(56)
                b.load(b.reg("local_prev_prev_h"), nbr_idx, dest="nbr_prev_prev_h")
            with exchange2_else:
                b.loc(58)
                cross_warp2 = b.and_(b.ne(warp, 0), b.eq(lane, 0), dest="cross_warp2")
                boundary2_then, boundary2_else = b.if_then_else(cross_warp2)
                with boundary2_then:
                    b.loc(59)
                    b.load(b.reg("sh_prev_prev_h"), warp_prev, dest="nbr_prev_prev_h")
                with boundary2_else:
                    b.loc(61)
                    amask2 = b.activemask(dest="amask2")
                    b.ballot_sync(amask2, computing, dest="bmask2")
                    targets["ballot_sync_2"] = b.last_emitted.uid
                    b.shfl_sync(amask2, b.reg("prev_prev_h"), src_lane,
                                dest="nbr_prev_prev_h")

            # Boundary conditions for the first column / first row.
            b.loc(64)
            west = b.select(is_col0, 0, b.reg("nbr_prev_h"), dest="west")
            north_west = b.select(is_col0, 0, b.reg("nbr_prev_prev_h"), dest="north_west")
            row_is0 = b.eq(row, 0, dest="row_is0")
            north = b.select(row_is0, 0, b.reg("prev_h"), dest="north")
            north_west = b.select(row_is0, 0, north_west, dest="north_west")

            # Smith-Waterman cell recurrence.
            b.loc(70)
            a_char = b.load(b.reg("a_cache"), row, dest="a_char")
            is_match = b.eq(a_char, b_char, dest="is_match")
            similarity = b.select(is_match, MATCH_SCORE, MISMATCH_PENALTY, dest="similarity")
            diag_score = b.add(north_west, similarity, dest="diag_score")
            up_score = b.add(north, GAP_PENALTY, dest="up_score")
            left_score = b.add(west, GAP_PENALTY, dest="left_score")
            h_new = b.max(b.max(diag_score, up_score), left_score, dest="h_partial")
            h_new = b.max(h_new, 0, dest="h_new")
            b.max(b.reg("best"), h_new, dest="best")

            # Rotate the wavefront registers for the next diagonal.
            b.loc(78)
            b.mov(b.reg("prev_h"), dest="prev_prev_h")
            b.mov(h_new, dest="prev_h")

        b.loc(81)
        b.syncthreads()

    # ----------------------------------------------------------------- epilogue
    b.loc(85)
    with b.if_then(valid):
        b.atomic_max(b.reg("scores"), pair, b.reg("best"))
    b.ret()
    main_kernel = b.build()

    reduce_kernel = _build_reduce_kernel()
    module = build_module("adept_v1", main_kernel, reduce_kernel)
    return AdeptKernel(module=module, version="v1", block_threads=block_threads,
                       max_reference_length=max_reference_length, edit_targets=targets)


def _build_reduce_kernel() -> "KernelBuilder":
    """ADEPT-V1's second kernel: reduce the per-pair scores to a global best.

    The paper notes ADEPT-V1 consists of two CUDA kernels; this small
    reduction kernel (strided grid loop + atomic max) plays that role and is
    launched by the driver after the alignment kernel.
    """
    b = KernelBuilder(
        "adept_v1_reduce",
        params=[Param("scores", "buffer"), Param("best_out", "buffer"),
                Param("n_pairs", "scalar")],
        source_file="adept_v1_reduce.cu",
    )
    b.block("entry")
    b.loc(5)
    tid = b.tid_x()
    bdim = b.bdim_x()
    with b.for_range("index", tid, b.reg("n_pairs"), step=bdim) as index:
        value = b.load(b.reg("scores"), index)
        b.atomic_max(b.reg("best_out"), 0, value)
    b.ret()
    return b.build()
