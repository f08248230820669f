"""ADEPT-V0: the original, unoptimized GPU Smith-Waterman kernel.

This mirrors the paper's description of the pre-hand-tuning version
(Sections III-B and VI-C):

* a single kernel (no reduction helper, no reference-sequence cache in
  shared memory -- every cell re-reads the reference character from global
  memory);
* neighbour exchange exclusively through per-thread shared arrays with a
  barrier per diagonal;
* the pathological initialization region: on **every** diagonal iteration,
  **every** thread re-clears the entire (oversized) shared score buffers,
  with defensive ``__syncthreads`` calls inside the clearing loop.  This is
  the region whose removal GEVO discovers, improving the kernel by more
  than an order of magnitude ("GPU threads block each other to initialize
  the same memory region over and over again", Section VI-C).

The builder records the uids of the clearing loop's bound comparison, its
``memset`` instructions and its barriers so the recorded edit set in
:mod:`repro.workloads.adept.discovered` can disable the region exactly the
way the paper reports.
"""

from __future__ import annotations

from typing import Dict

from ...ir import KernelBuilder, Param, SharedDecl, build_module, memoize_in_uid_namespace
from .kernel_v1 import AdeptKernel, _round_up_to_warp
from .smith_waterman import GAP_PENALTY, MATCH_SCORE, MISMATCH_PENALTY


def build_adept_v0(block_threads: int, max_reference_length: int,
                   warp_size: int = 32) -> AdeptKernel:
    """The naive ADEPT-V0 module for a launch shape, memoized by that shape
    (:func:`~repro.ir.memoize_in_uid_namespace`)."""
    return _build_adept_v0(_round_up_to_warp(block_threads, warp_size),
                           max_reference_length, warp_size)


@memoize_in_uid_namespace
def _build_adept_v0(block_threads: int, max_reference_length: int,
                    warp_size: int = 32) -> AdeptKernel:
    block_threads = _round_up_to_warp(block_threads, warp_size)
    # The naive implementation over-sizes its shared buffers by a warp of
    # slack "to be safe" -- and then re-clears the whole allocation every
    # diagonal, which is why the region removal is worth ~30x.
    buffer_size = block_threads + warp_size
    targets: Dict[str, int] = {}

    params = [
        Param("seq_a", "buffer"), Param("seq_b", "buffer"),
        Param("offsets_a", "buffer"), Param("offsets_b", "buffer"),
        Param("lens_a", "buffer"), Param("lens_b", "buffer"),
        Param("scores", "buffer"),
    ]
    shared = [
        SharedDecl("score_prev", buffer_size, "int"),
        SharedDecl("score_prev_prev", buffer_size, "int"),
    ]
    b = KernelBuilder("adept_v0_kernel", params=params, shared=shared,
                      source_file="adept_v0_kernel.cu")

    # ----------------------------------------------------------------- prologue
    b.block("entry")
    b.loc(8)
    tid = b.tid_x(dest="tid")
    pair = b.bid_x(dest="pair")
    off_a = b.load(b.reg("offsets_a"), pair, dest="off_a")
    off_b = b.load(b.reg("offsets_b"), pair, dest="off_b")
    len_a = b.load(b.reg("lens_a"), pair, dest="len_a")
    len_b = b.load(b.reg("lens_b"), pair, dest="len_b")
    valid = b.lt(tid, len_b, dest="valid")
    safe_tid = b.min(tid, b.sub(len_b, 1))
    b_char = b.load(b.reg("seq_b"), b.add(off_b, safe_tid), dest="b_char")
    b.mov(0, dest="prev_h")
    b.mov(0, dest="prev_prev_h")
    b.mov(0, dest="best")
    is_col0 = b.eq(tid, 0, dest="is_col0")
    nbr_idx = b.max(b.sub(tid, 1), 0, dest="nbr_idx")
    clear_limit = b.add(len_b, warp_size, dest="clear_limit")
    total_diag = b.sub(b.add(len_a, len_b), 1, dest="total_diag")

    # ----------------------------------------------------------------- wavefront loop
    b.loc(20)
    with b.for_range("diag", 0, total_diag) as diag:
        # --- the pathological re-initialization region (Section VI-C) -------
        b.loc(22)
        with b.for_range("clear_k", 0, clear_limit) as clear_k:
            b.loc(23)
            b.memset(b.reg("score_prev"), clear_k, 0)
            targets["clear_memset_prev"] = b.last_emitted.uid
            b.memset(b.reg("score_prev_prev"), clear_k, 0)
            targets["clear_memset_prev_prev"] = b.last_emitted.uid
            b.syncthreads()
            targets["clear_sync_after"] = b.last_emitted.uid
        # Record the loop-bound comparison (the condbr's condition) so the
        # recorded edit can collapse the whole clearing loop.
        clear_header_label = None
        for label in b.function.block_order():
            if label.startswith("clear_k.header"):
                clear_header_label = label
        header_block = b.function.blocks[clear_header_label]
        targets["clear_loop_compare"] = header_block.instructions[0].uid
        targets["clear_loop_branch"] = header_block.instructions[-1].uid

        # --- publish the wavefront registers for the neighbours --------------
        b.loc(30)
        with b.if_then(valid):
            b.store(b.reg("score_prev"), tid, b.reg("prev_h"))
            b.store(b.reg("score_prev_prev"), tid, b.reg("prev_prev_h"))
        b.syncthreads()

        # --- main cell computation ------------------------------------------
        b.loc(35)
        row = b.sub(diag, tid, dest="row")
        in_range = b.and_(b.ge(row, 0), b.lt(row, len_a), dest="in_range")
        computing = b.and_(valid, in_range, dest="computing")
        with b.if_then(computing):
            b.loc(37)
            nbr_prev_h = b.load(b.reg("score_prev"), nbr_idx, dest="nbr_prev_h")
            nbr_prev_prev_h = b.load(b.reg("score_prev_prev"), nbr_idx,
                                     dest="nbr_prev_prev_h")
            west = b.select(is_col0, 0, nbr_prev_h, dest="west")
            north_west = b.select(is_col0, 0, nbr_prev_prev_h, dest="north_west")
            row_is0 = b.eq(row, 0, dest="row_is0")
            north = b.select(row_is0, 0, b.reg("prev_h"), dest="north")
            north_west = b.select(row_is0, 0, north_west, dest="north_west")

            # The naive kernel re-reads the reference character from global
            # memory on every diagonal (no shared-memory cache).
            b.loc(44)
            a_char = b.load(b.reg("seq_a"), b.add(off_a, row), dest="a_char")
            is_match = b.eq(a_char, b_char, dest="is_match")
            similarity = b.select(is_match, MATCH_SCORE, MISMATCH_PENALTY, dest="similarity")
            diag_score = b.add(north_west, similarity, dest="diag_score")
            up_score = b.add(north, GAP_PENALTY, dest="up_score")
            left_score = b.add(west, GAP_PENALTY, dest="left_score")
            h_new = b.max(b.max(diag_score, up_score), left_score, dest="h_partial")
            h_new = b.max(h_new, 0, dest="h_new")
            b.max(b.reg("best"), h_new, dest="best")
            b.mov(b.reg("prev_h"), dest="prev_prev_h")
            b.mov(h_new, dest="prev_h")

        b.loc(54)
        b.syncthreads()

    # ----------------------------------------------------------------- epilogue
    b.loc(58)
    with b.if_then(valid):
        b.atomic_max(b.reg("scores"), pair, b.reg("best"))
    b.ret()
    module = build_module("adept_v0", b.build())
    return AdeptKernel(module=module, version="v0", block_threads=block_threads,
                       max_reference_length=max_reference_length, edit_targets=targets)
