"""The eight SIMCoV GPU kernels, authored in the mini-IR.

The paper's SIMCoV GPU code is "an initial GPU port from its multi-core
CPU implementation ... with 1197 lines of code from 8 GPU kernels"
(Section III-B).  The port maps one grid point to one thread and keeps the
CPU code's defensive 2D boundary arithmetic, which is exactly the code
GEVO's boundary-check edits target (Section VI-D).  The eight kernels:

1. ``simcov_init``               -- initialise the grid and seed the infection sites.
2. ``simcov_extravasate``        -- T cells enter tissue where inflammatory signal is present.
3. ``simcov_move_tcells``        -- random T-cell walk with atomic conflict resolution.
4. ``simcov_update_epithelial``  -- the epithelial state machine.
5. ``simcov_produce``            -- virion / inflammatory-signal production.
6. ``simcov_spread_virions``     -- virion diffusion (boundary-check hot spot).
7. ``simcov_spread_chemokine``   -- inflammatory-signal diffusion (same hot spot).
8. ``simcov_statistics``         -- atomic reduction of the summary observables.

``build_simcov_kernels`` returns the module plus the uids of the
instructions the recorded edits target (per-direction boundary comparisons
and conjunctions, the per-direction branch, and a redundant centre reload
left over from the CPU port).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ...ir import KernelBuilder, Module, Param, build_module, memoize_in_uid_namespace
from .params import APOPTOTIC, DEAD, EXPRESSING, HEALTHY, INCUBATING
from .reference import (
    RNG_STREAM_EXTRAVASATE,
    RNG_STREAM_MOVE_DEATH,
    RNG_STREAM_MOVE_DIRECTION,
    TCELL_DEATH_PROBABILITY,
)

#: Threads per block used by every SIMCoV kernel launch.
BLOCK_THREADS = 64

#: Neighbour directions in accumulation order: (name, dx, dy).
DIRECTIONS = (("left", -1, 0), ("right", 1, 0), ("up", 0, -1), ("down", 0, 1))


@dataclass
class SimCovKernels:
    """The built SIMCoV module plus edit-target metadata."""

    module: Module
    block_threads: int = BLOCK_THREADS
    #: kernel name -> target name -> instruction uid.
    edit_targets: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def kernel_names(self) -> List[str]:
        return list(self.module.function_order())


def _global_cell_index(b: KernelBuilder):
    """Compute the global cell index handled by this thread."""
    tid = b.tid_x(dest="tid")
    bid = b.bid_x(dest="bid")
    bdim = b.bdim_x(dest="bdim")
    return b.add(b.mul(bid, bdim), tid, dest="cell")


# --------------------------------------------------------------------------- kernel 1
def _build_init() -> KernelBuilder:
    b = KernelBuilder(
        "simcov_init",
        params=[Param("epithelial", "buffer"), Param("timer", "buffer"),
                Param("virions", "buffer"), Param("chemokine", "buffer"),
                Param("tcells", "buffer"), Param("n_cells", "scalar"),
                Param("site_a", "scalar"), Param("site_b", "scalar"),
                Param("initial_virions", "scalar")],
        source_file="simcov_init.cu",
    )
    b.block("entry")
    b.loc(5)
    cell = _global_cell_index(b)
    in_grid = b.lt(cell, b.reg("n_cells"), dest="in_grid")
    with b.if_then(in_grid):
        b.loc(7)
        b.store(b.reg("epithelial"), cell, HEALTHY)
        b.store(b.reg("timer"), cell, 0)
        b.store(b.reg("chemokine"), cell, 0.0)
        b.store(b.reg("tcells"), cell, 0)
        is_site = b.or_(b.eq(cell, b.reg("site_a")), b.eq(cell, b.reg("site_b")),
                        dest="is_site")
        seeded = b.select(is_site, b.reg("initial_virions"), 0.0, dest="seeded")
        b.store(b.reg("virions"), cell, seeded)
    b.ret()
    return b.build()


# --------------------------------------------------------------------------- kernel 2
def _build_extravasate() -> KernelBuilder:
    b = KernelBuilder(
        "simcov_extravasate",
        params=[Param("tcells", "buffer"), Param("chemokine", "buffer"),
                Param("n_cells", "scalar"), Param("seed", "scalar"),
                Param("step", "scalar"), Param("threshold", "scalar"),
                Param("probability", "scalar")],
        source_file="simcov_extravasate.cu",
    )
    b.block("entry")
    b.loc(6)
    cell = _global_cell_index(b)
    in_grid = b.lt(cell, b.reg("n_cells"), dest="in_grid")
    with b.if_then(in_grid):
        b.loc(8)
        occupied = b.load(b.reg("tcells"), cell, dest="occupied")
        signal = b.load(b.reg("chemokine"), cell, dest="signal")
        eligible = b.and_(b.eq(occupied, 0), b.gt(signal, b.reg("threshold")),
                          dest="eligible")
        with b.if_then(eligible):
            b.loc(11)
            stream = b.add(b.mul(b.reg("step"), 8), RNG_STREAM_EXTRAVASATE, dest="stream")
            draw = b.rand_uniform(b.reg("seed"), stream, cell, dest="draw")
            arriving = b.lt(draw, b.reg("probability"), dest="arriving")
            with b.if_then(arriving):
                b.store(b.reg("tcells"), cell, 1)
    b.ret()
    return b.build()


# --------------------------------------------------------------------------- kernel 3
def _build_move_tcells() -> KernelBuilder:
    b = KernelBuilder(
        "simcov_move_tcells",
        params=[Param("tcells", "buffer"), Param("tcells_next", "buffer"),
                Param("n_cells", "scalar"), Param("width", "scalar"),
                Param("height", "scalar"), Param("seed", "scalar"),
                Param("step", "scalar")],
        source_file="simcov_move_tcells.cu",
    )
    b.block("entry")
    b.loc(6)
    cell = _global_cell_index(b)
    in_grid = b.lt(cell, b.reg("n_cells"), dest="in_grid")
    with b.if_then(in_grid):
        b.loc(8)
        occupied = b.load(b.reg("tcells"), cell, dest="occupied")
        with b.if_then(b.gt(occupied, 0)):
            b.loc(10)
            death_stream = b.add(b.mul(b.reg("step"), 8), RNG_STREAM_MOVE_DEATH,
                                 dest="death_stream")
            death_draw = b.rand_uniform(b.reg("seed"), death_stream, cell, dest="death_draw")
            survives = b.ge(death_draw, TCELL_DEATH_PROBABILITY, dest="survives")
            with b.if_then(survives):
                b.loc(13)
                move_stream = b.add(b.mul(b.reg("step"), 8), RNG_STREAM_MOVE_DIRECTION,
                                    dest="move_stream")
                move_draw = b.rand_uniform(b.reg("seed"), move_stream, cell, dest="move_draw")
                direction = b.emit("ftoi", b.mul(move_draw, 5.0), dest="direction")
                x = b.rem(cell, b.reg("width"), dest="x")
                y = b.div(cell, b.reg("width"), dest="y")
                target = b.mov(cell, dest="target")
                go_left = b.and_(b.eq(direction, 1), b.gt(x, 0), dest="go_left")
                target = b.select(go_left, b.sub(cell, 1), target, dest="target")
                go_right = b.and_(b.eq(direction, 2),
                                  b.lt(x, b.sub(b.reg("width"), 1)), dest="go_right")
                target = b.select(go_right, b.add(cell, 1), target, dest="target")
                go_up = b.and_(b.eq(direction, 3), b.gt(y, 0), dest="go_up")
                target = b.select(go_up, b.sub(cell, b.reg("width")), target, dest="target")
                go_down = b.and_(b.eq(direction, 4),
                                 b.lt(y, b.sub(b.reg("height"), 1)), dest="go_down")
                target = b.select(go_down, b.add(cell, b.reg("width")), target, dest="target")
                b.loc(22)
                previous = b.atomic_cas(b.reg("tcells_next"), target, 0, 1, dest="previous")
                blocked = b.ne(previous, 0, dest="blocked")
                with b.if_then(blocked):
                    b.loc(25)
                    b.atomic_cas(b.reg("tcells_next"), cell, 0, 1, dest="stay_result")
    b.ret()
    return b.build()


# --------------------------------------------------------------------------- kernel 4
def _build_update_epithelial() -> KernelBuilder:
    b = KernelBuilder(
        "simcov_update_epithelial",
        params=[Param("epithelial", "buffer"), Param("timer", "buffer"),
                Param("virions", "buffer"), Param("tcells", "buffer"),
                Param("n_cells", "scalar"), Param("infect_threshold", "scalar"),
                Param("incubation_period", "scalar"), Param("apoptosis_period", "scalar")],
        source_file="simcov_update_epithelial.cu",
    )
    b.block("entry")
    b.loc(6)
    cell = _global_cell_index(b)
    in_grid = b.lt(cell, b.reg("n_cells"), dest="in_grid")
    with b.if_then(in_grid):
        b.loc(8)
        state = b.load(b.reg("epithelial"), cell, dest="state")
        timer = b.load(b.reg("timer"), cell, dest="cell_timer")
        virions = b.load(b.reg("virions"), cell, dest="cell_virions")
        tcell = b.load(b.reg("tcells"), cell, dest="cell_tcell")

        b.loc(12)
        infected_now = b.and_(b.eq(state, HEALTHY),
                              b.gt(virions, b.reg("infect_threshold")), dest="infected_now")
        state1 = b.select(infected_now, INCUBATING, state, dest="state1")
        timer1 = b.select(infected_now, 0, timer, dest="timer1")

        b.loc(16)
        incubating = b.eq(state, INCUBATING, dest="incubating")
        timer2 = b.select(incubating, b.add(timer1, 1), timer1, dest="timer2")
        express_now = b.and_(incubating,
                             b.ge(timer2, b.reg("incubation_period")), dest="express_now")
        state2 = b.select(express_now, EXPRESSING, state1, dest="state2")
        timer3 = b.select(express_now, 0, timer2, dest="timer3")

        b.loc(21)
        expressing = b.eq(state, EXPRESSING, dest="expressing")
        killed = b.and_(expressing, b.gt(tcell, 0), dest="killed")
        state3 = b.select(killed, APOPTOTIC, state2, dest="state3")
        timer4 = b.select(killed, 0, timer3, dest="timer4")

        b.loc(25)
        apoptotic = b.eq(state, APOPTOTIC, dest="apoptotic")
        timer5 = b.select(apoptotic, b.add(timer4, 1), timer4, dest="timer5")
        dead_now = b.and_(apoptotic, b.ge(timer5, b.reg("apoptosis_period")), dest="dead_now")
        state4 = b.select(dead_now, DEAD, state3, dest="state4")

        b.loc(29)
        b.store(b.reg("epithelial"), cell, state4)
        b.store(b.reg("timer"), cell, timer5)
    b.ret()
    return b.build()


# --------------------------------------------------------------------------- kernel 5
def _build_produce() -> KernelBuilder:
    b = KernelBuilder(
        "simcov_produce",
        params=[Param("epithelial", "buffer"), Param("virions", "buffer"),
                Param("chemokine", "buffer"), Param("n_cells", "scalar"),
                Param("virion_production", "scalar"), Param("chemokine_production", "scalar")],
        source_file="simcov_produce.cu",
    )
    b.block("entry")
    b.loc(5)
    cell = _global_cell_index(b)
    in_grid = b.lt(cell, b.reg("n_cells"), dest="in_grid")
    with b.if_then(in_grid):
        b.loc(7)
        state = b.load(b.reg("epithelial"), cell, dest="state")
        with b.if_then(b.eq(state, EXPRESSING)):
            b.loc(9)
            virions = b.load(b.reg("virions"), cell, dest="cell_virions")
            b.store(b.reg("virions"), cell, b.add(virions, b.reg("virion_production")))
            signal = b.load(b.reg("chemokine"), cell, dest="cell_signal")
            b.store(b.reg("chemokine"), cell, b.add(signal, b.reg("chemokine_production")))
        with b.if_then(b.eq(state, APOPTOTIC)):
            b.loc(14)
            signal2 = b.load(b.reg("chemokine"), cell, dest="cell_signal2")
            half_production = b.mul(b.reg("chemokine_production"), 0.5)
            b.store(b.reg("chemokine"), cell, b.add(signal2, half_production))
    b.ret()
    return b.build()


# --------------------------------------------------------------------------- kernels 6 & 7
def _build_spread(kernel_name: str, field_name: str,
                  targets: Dict[str, int]) -> KernelBuilder:
    """Diffusion kernel for one scalar field, with naive 2D boundary checks.

    The boundary arithmetic deliberately mirrors a direct port of nested
    CPU loops: for every neighbour it recomputes the 2D coordinates, checks
    all four bounds, and only then forms the linear index.  These are the
    instructions the recorded GEVO edits delete.
    """
    b = KernelBuilder(
        kernel_name,
        params=[Param(field_name, "buffer"), Param(f"{field_name}_next", "buffer"),
                Param("n_cells", "scalar"), Param("width", "scalar"),
                Param("height", "scalar"), Param("diffusion", "scalar"),
                Param("decay", "scalar")],
        source_file=f"{kernel_name}.cu",
    )
    b.block("entry")
    b.loc(6)
    cell = _global_cell_index(b)
    in_grid = b.lt(cell, b.reg("n_cells"), dest="in_grid")
    with b.if_then(in_grid):
        b.loc(8)
        centre = b.load(b.reg(field_name), cell, dest="centre")
        # Redundant reload left over from the CPU port (its value is unused):
        # an easy, independent GEVO deletion target.
        b.load(b.reg(field_name), cell, dest="centre_again")
        targets["redundant_centre_load"] = b.last_emitted.uid

        x = b.rem(cell, b.reg("width"), dest="x")
        y = b.div(cell, b.reg("width"), dest="y")
        b.mov(0.0, dest="total")
        b.mov(0, dest="count")

        for name, dx, dy in DIRECTIONS:
            b.loc(12 + 8 * DIRECTIONS.index((name, dx, dy)))
            nx = b.add(x, dx, dest=f"nx_{name}")
            ny = b.add(y, dy, dest=f"ny_{name}")
            # The boundary check is a direct port of the CPU code's nested
            # loop guard: it re-derives the 2D coordinates from the flat cell
            # index (instead of reusing x / y above) and tests all four
            # bounds.  All of it is dead weight GEVO can remove.
            check_x = b.rem(cell, b.reg("width"), dest=f"checkx_{name}")
            targets[f"{name}_check_rem"] = b.last_emitted.uid
            check_y = b.div(cell, b.reg("width"), dest=f"checky_{name}")
            targets[f"{name}_check_div"] = b.last_emitted.uid
            check_nx = b.add(check_x, dx, dest=f"checknx_{name}")
            targets[f"{name}_check_add_x"] = b.last_emitted.uid
            check_ny = b.add(check_y, dy, dest=f"checkny_{name}")
            targets[f"{name}_check_add_y"] = b.last_emitted.uid
            ok_x_low = b.ge(check_nx, 0, dest=f"okxl_{name}")
            targets[f"{name}_cmp_x_low"] = b.last_emitted.uid
            ok_x_high = b.lt(check_nx, b.reg("width"), dest=f"okxh_{name}")
            targets[f"{name}_cmp_x_high"] = b.last_emitted.uid
            ok_y_low = b.ge(check_ny, 0, dest=f"okyl_{name}")
            targets[f"{name}_cmp_y_low"] = b.last_emitted.uid
            ok_y_high = b.lt(check_ny, b.reg("height"), dest=f"okyh_{name}")
            targets[f"{name}_cmp_y_high"] = b.last_emitted.uid
            ok_x = b.and_(ok_x_low, ok_x_high, dest=f"okx_{name}")
            targets[f"{name}_and_x"] = b.last_emitted.uid
            ok_y = b.and_(ok_y_low, ok_y_high, dest=f"oky_{name}")
            targets[f"{name}_and_y"] = b.last_emitted.uid
            ok = b.and_(ok_x, ok_y, dest=f"ok_{name}")
            targets[f"{name}_and_all"] = b.last_emitted.uid
            with b.if_then(ok) as boundary_branch:
                targets[f"{name}_branch"] = boundary_branch.uid
                index = b.add(b.mul(ny, b.reg("width")), nx, dest=f"idx_{name}")
                neighbour = b.load(b.reg(field_name), index, dest=f"value_{name}")
                b.add(b.reg("total"), neighbour, dest="total")
                b.add(b.reg("count"), 1, dest="count")

        b.loc(40)
        laplacian = b.sub(b.reg("total"), b.mul(b.reg("count"), centre), dest="laplacian")
        diffused = b.add(centre, b.mul(b.reg("diffusion"), laplacian), dest="diffused")
        retained = b.sub(1.0, b.reg("decay"), dest="retained")
        updated = b.mul(diffused, retained, dest="updated")
        updated = b.max(updated, 0.0, dest="updated_clamped")
        b.store(b.reg(f"{field_name}_next"), cell, updated)
    b.ret()
    return b.build()


# --------------------------------------------------------------------------- kernel 8
def _build_statistics() -> KernelBuilder:
    b = KernelBuilder(
        "simcov_statistics",
        params=[Param("virions", "buffer"), Param("chemokine", "buffer"),
                Param("tcells", "buffer"), Param("epithelial", "buffer"),
                Param("stats", "buffer"), Param("n_cells", "scalar")],
        source_file="simcov_statistics.cu",
    )
    b.block("entry")
    b.loc(5)
    cell = _global_cell_index(b)
    in_grid = b.lt(cell, b.reg("n_cells"), dest="in_grid")
    with b.if_then(in_grid):
        b.loc(7)
        virions = b.load(b.reg("virions"), cell, dest="cell_virions")
        b.atomic_add(b.reg("stats"), 0, virions)
        tcell = b.load(b.reg("tcells"), cell, dest="cell_tcell")
        b.atomic_add(b.reg("stats"), 1, tcell)
        state = b.load(b.reg("epithelial"), cell, dest="state")
        is_infected = b.or_(b.eq(state, INCUBATING), b.eq(state, EXPRESSING),
                            dest="is_infected")
        infected_value = b.select(is_infected, 1, 0, dest="infected_value")
        b.atomic_add(b.reg("stats"), 2, infected_value)
        is_dead = b.eq(state, DEAD, dest="is_dead")
        dead_value = b.select(is_dead, 1, 0, dest="dead_value")
        b.atomic_add(b.reg("stats"), 3, dead_value)
    b.ret()
    return b.build()


# --------------------------------------------------------------------------- public builder
@memoize_in_uid_namespace
def build_simcov_kernels() -> SimCovKernels:
    """Build the eight-kernel SIMCoV module and its edit-target map.

    Memoized (:func:`~repro.ir.memoize_in_uid_namespace`): repeated
    driver constructions reuse the same ``Function`` objects and hit the
    simulator's decode/JIT caches instead of rebuilding and re-decoding
    the IR.
    """
    edit_targets: Dict[str, Dict[str, int]] = {
        "simcov_spread_virions": {},
        "simcov_spread_chemokine": {},
    }
    functions = [
        _build_init(),
        _build_extravasate(),
        _build_move_tcells(),
        _build_update_epithelial(),
        _build_produce(),
        _build_spread("simcov_spread_virions", "virions",
                      edit_targets["simcov_spread_virions"]),
        _build_spread("simcov_spread_chemokine", "chemokine",
                      edit_targets["simcov_spread_chemokine"]),
        _build_statistics(),
    ]
    module = build_module("simcov", *functions)
    return SimCovKernels(module=module, edit_targets=edit_targets)
